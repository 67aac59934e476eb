"""Job specs: validation, canonical form, fingerprints, execution."""

import pytest

from repro.analysis.impossibility import standard_layerings
from repro.protocols.registry import PROTOCOLS
from repro.resilience.checkpoint import system_fingerprint
from repro.serve.jobs import InvalidJob, JobSpec, run_job


class TestValidation:
    def test_defaults_are_a_valid_refute(self):
        spec = JobSpec.from_dict({})
        assert spec.kind == "refute"
        assert spec.protocol == "quorum"
        assert spec.model == "s1-mobile"
        assert spec.n == 3

    def test_not_a_dict(self):
        with pytest.raises(InvalidJob, match="must be an object"):
            JobSpec.from_dict(["kind", "probe"])

    def test_unknown_kind(self):
        with pytest.raises(InvalidJob, match="unknown job kind"):
            JobSpec.from_dict({"kind": "mine-bitcoin"})

    def test_foreign_fields_rejected(self):
        with pytest.raises(InvalidJob, match="do not apply"):
            JobSpec.from_dict({"kind": "probe", "protocol": "quorum"})
        with pytest.raises(InvalidJob, match="do not apply"):
            JobSpec.from_dict({"kind": "refute", "work": 5})

    def test_unknown_protocol(self):
        with pytest.raises(InvalidJob, match="unknown protocol"):
            JobSpec.from_dict({"protocol": "paxos"})

    def test_n_bounds(self):
        with pytest.raises(InvalidJob, match="n must be"):
            JobSpec.from_dict({"n": 1})
        with pytest.raises(InvalidJob, match="n must be"):
            JobSpec.from_dict({"n": 99})
        with pytest.raises(InvalidJob, match="n must be"):
            JobSpec.from_dict({"n": "3"})

    def test_unknown_model_lists_choices(self):
        with pytest.raises(InvalidJob, match="no layering"):
            JobSpec.from_dict({"model": "quantum"})

    def test_bad_max_states(self):
        with pytest.raises(InvalidJob, match="max_states"):
            JobSpec.from_dict({"max_states": 0})

    def test_probe_bounds(self):
        with pytest.raises(InvalidJob, match="probe work"):
            JobSpec.from_dict({"kind": "probe", "work": 0})
        with pytest.raises(InvalidJob, match="probe value"):
            JobSpec.from_dict({"kind": "probe", "value": "x" * 1000})


class TestFingerprint:
    def test_defaults_and_explicit_form_agree(self):
        implicit = JobSpec.from_dict({})
        explicit = JobSpec.from_dict(
            {"kind": "refute", "protocol": "quorum",
             "model": "s1-mobile", "n": 3}
        )
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_fingerprints_are_pinned(self):
        # Fingerprints key the persistent verdict store: a change to how
        # they are computed must not change them.
        assert JobSpec.from_dict({}).fingerprint() == (
            "474afa511e54d88fa7d2d177528b19d83f422b84df59d82c65c5b13408868c9f"
        )
        assert JobSpec.from_dict(
            {"protocol": "eig", "model": "permutation-mp", "n": 2}
        ).fingerprint() == (
            "c5606864987336e660245b1fe306c458be04567310ce68dcf85cb8c57611c1d5"
        )

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_system_identity_is_the_layerings_fingerprint(self, protocol):
        from repro.serve.jobs import _system_identity

        for n in (2, 3):
            layerings = standard_layerings(PROTOCOLS[protocol](n), n)
            for model, layering in layerings.items():
                spec = JobSpec.from_dict(
                    {"protocol": protocol, "model": model, "n": n}
                )
                assert _system_identity(protocol, model, n) == (
                    system_fingerprint(layering)
                )
                assert type(spec._layering()) is type(layering)

    def test_fingerprint_is_stable(self):
        spec = JobSpec.from_dict({"kind": "probe", "work": 7, "value": "v"})
        assert spec.fingerprint() == spec.fingerprint()

    def test_distinct_jobs_distinct_fingerprints(self):
        a = JobSpec.from_dict({"kind": "probe", "work": 7})
        b = JobSpec.from_dict({"kind": "probe", "work": 8})
        c = JobSpec.from_dict({})
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_canonical_omits_unset_max_states(self):
        assert "max_states" not in JobSpec.from_dict({}).canonical()
        assert (
            JobSpec.from_dict({"max_states": 10}).canonical()["max_states"]
            == 10
        )


class TestRunJob:
    def test_probe_is_deterministic(self):
        payload = {"job": {"kind": "probe", "work": 25, "value": "seed"}}
        first = run_job(payload)
        second = run_job(payload)
        assert first == second
        assert first["conclusive"] is True
        assert first["cost"] == 25
        assert first["record"]["verdict"] == "probe"

    def test_refute_finds_quorum_counterexample(self):
        payload = {"job": {"protocol": "quorum", "model": "s1-mobile",
                           "n": 3}}
        result = run_job(payload)
        assert result["conclusive"] is True
        assert result["record"]["verdict"] == "agreement-violation"
        assert result["record"]["states_explored"] > 0

    def test_refute_respects_budget(self):
        payload = {
            "job": {"protocol": "quorum", "model": "s1-mobile", "n": 3},
            "budget": {"max_states": 1},
        }
        result = run_job(payload)
        assert result["conclusive"] is False
        assert result["limit"] == "states"
