"""Deterministic protocols: interfaces, classics and candidates.

* interfaces — :class:`Protocol`, :class:`MessagePassingProtocol`,
  :class:`SharedMemoryProtocol`, :class:`DualProtocol`;
* the truncated full-information protocol (the "any protocol" proxy used
  by the protocol-independent lemma checks);
* classical upper bounds — :class:`FloodSet` and :class:`EIG`, correct at
  ``t+1`` rounds, doomed at ``t``, plus the early-deciding variant that
  beats ``t+1`` whenever the adversary wastes faults;
* candidates the layered adversaries defeat — :class:`QuorumDecide`
  (agreement violations), :class:`WaitForAll` (decision violations), and
  constant/own-input full-information rules (validity/agreement
  violations).
"""

from repro import _lazy_getattr

#: Where each name is defined; a name is imported on first use.
_EXPORTS = {
    "repro.protocols.base": (
        "DualProtocol", "MessageBatch", "MessagePassingProtocol", "Protocol",
        "SharedMemoryProtocol",
    ),
    "repro.protocols.candidates": (
        "CoordinatorState", "GossipState", "QuorumDecide",
        "RotatingCoordinator", "WaitForAll", "make_rule_candidate",
    ),
    "repro.protocols.early_deciding": (
        "EarlyDecidingFloodSet", "EarlyFloodState",
    ),
    "repro.protocols.eig": ("EIG", "EIGState"),
    "repro.protocols.floodset": ("FloodSet", "FloodSetState"),
    "repro.protocols.full_information": (
        "FullInformationProtocol", "View", "decide_constant",
        "decide_min_observed", "decide_own_input",
    ),
    "repro.protocols.tasks": (
        "DecideConstantProtocol", "DecideOwnInput", "EpsilonAgreementProtocol",
        "KSetAgreementProtocol",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__ = _lazy_getattr(__name__, _EXPORTS)
