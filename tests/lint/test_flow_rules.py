"""RP4xx/RP5xx rule evaluation — including the three seeded detection
fixtures from the acceptance criteria:

(a) nondeterminism reached only through an aliased import inside a
    helper two calls deep (RP401);
(b) an impure helper mutating a module-level dict reachable from
    ``successors`` (RP402);
(c) a pool payload capturing a file handle (RP501);

each asserted **with its full call-chain witness**, which is the part
that turns a deep finding from an accusation into a diagnosis.
"""

from __future__ import annotations

from repro.lint.flow import FlowWitness, deep_lint_paths

from tests.lint.test_callgraph import write_tree


def deep(tmp_path, files, codes=None):
    write_tree(tmp_path, files)
    return deep_lint_paths([str(tmp_path)], codes)


def by_code(findings, code):
    return [f for f in findings if f.code == code]


class TestRP401Nondeterminism:
    def test_aliased_nondet_two_helpers_deep(self, tmp_path):
        # acceptance fixture (a): the alias and both helpers live in a
        # *different module* from the protocol, the worst case for the
        # shallow rules
        findings = deep(
            tmp_path,
            {
                "helpers.py": """
                import random as r

                def pick(options):
                    return _inner(options)

                def _inner(options):
                    return r.choice(options)
                """,
                "proto.py": """
                from helpers import pick

                class Coin(Protocol):
                    def step(self, state):
                        return pick([0, 1])
                """,
            },
        )
        found = by_code(findings, "RP401")
        assert len(found) == 1
        finding = found[0]
        assert finding.path.endswith("proto.py")
        assert "random.choice" in finding.message
        assert isinstance(finding.witness, FlowWitness)
        chain = [step.qualname for step in finding.witness.chain]
        assert chain[:3] == [
            "proto.Coin.step",
            "helpers.pick",
            "helpers._inner",
        ]
        # the chain ends at the primitive source with its location
        assert "random.choice" in finding.witness.chain[-1].qualname
        assert finding.witness.chain[-1].path.endswith("helpers.py")

    def test_direct_call_in_entry_point(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "proto.py": """
                import time

                class Slow(Layering):
                    def successors(self, state):
                        return [(time.monotonic(), state)]
                """
            },
        )
        assert by_code(findings, "RP401")

    def test_nondet_outside_transition_surface_is_fine(self, tmp_path):
        # harness code may use randomness/clocks freely
        findings = deep(
            tmp_path,
            {
                "bench.py": """
                import random

                def jitter():
                    return random.random()

                class Driver:
                    def run(self):
                        return jitter()
                """
            },
        )
        assert not by_code(findings, "RP401")

    def test_nondet_in_non_system_class_is_fine(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "mod.py": """
                import random

                class Sampler:
                    def successors(self, state):
                        return random.random()
                """
            },
        )
        assert not by_code(findings, "RP401")

    def test_nondet_in_apply_many(self, tmp_path):
        # the batch layer fold is transition surface like apply itself
        findings = deep(
            tmp_path,
            {
                "model.py": """
                import random

                class Coin(Model):
                    def apply_many(self, state, actions):
                        for action in actions:
                            state = (state, random.random())
                        return state
                """
            },
        )
        found = by_code(findings, "RP401")
        assert found
        assert found[0].witness.chain[0].qualname == "model.Coin.apply_many"


class TestRP402GlobalWrites:
    def test_impure_helper_mutating_module_dict(self, tmp_path):
        # acceptance fixture (b): memoization smuggled under successors
        findings = deep(
            tmp_path,
            {
                "layer.py": """
                MEMO = {}

                class Fast(Layering):
                    def successors(self, state):
                        return _memoized(state)

                def _memoized(state):
                    if state not in MEMO:
                        MEMO[state] = [state]
                    return MEMO[state]
                """
            },
        )
        found = by_code(findings, "RP402")
        assert len(found) == 1
        finding = found[0]
        assert "'MEMO'" in finding.message
        chain = [step.qualname for step in finding.witness.chain]
        assert chain[0] == "layer.Fast.successors"
        assert chain[1] == "layer._memoized"

    def test_imported_global_write(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "state.py": "REGISTRY = {}\n",
                "proto.py": """
                from state import REGISTRY

                class P(Protocol):
                    def decide(self, s):
                        REGISTRY[s] = 1
                """,
            },
        )
        assert by_code(findings, "RP402")

    def test_local_dict_is_fine(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "proto.py": """
                class P(Protocol):
                    def successors(self, s):
                        seen = {}
                        seen[s] = 1
                        return seen
                """
            },
        )
        assert not by_code(findings, "RP402")


class TestRP403ReceiverMutation:
    def test_transitive_self_mutation(self, tmp_path):
        # the deep generalization of RP105: the store happens in a
        # helper method, on a Model (outside RP105's Protocol scope)
        findings = deep(
            tmp_path,
            {
                "model.py": """
                class Lazy(Model):
                    def successors(self, state):
                        self._warm()
                        return []

                    def _warm(self):
                        self._cache = {}
                """
            },
        )
        found = by_code(findings, "RP403")
        assert found
        chain = [s.qualname for s in found[0].witness.chain]
        assert chain[:2] == ["model.Lazy.successors", "model.Lazy._warm"]

    def test_apply_many_writing_self(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "model.py": """
                class Memo(Model):
                    def apply_many(self, state, actions):
                        self.last = state
                        return state
                """
            },
        )
        found = by_code(findings, "RP403")
        assert found
        assert found[0].witness.chain[0].qualname == "model.Memo.apply_many"

    def test_apply_many_scratch_locals_are_fine(self, tmp_path):
        # the shipped batch folds mutate fresh local lists, not the model
        findings = deep(
            tmp_path,
            {
                "model.py": """
                class Fold(Model):
                    def apply_many(self, state, actions):
                        locals_ = list(state)
                        for i, value in actions:
                            locals_[i] = value
                        return tuple(locals_)
                """
            },
        )
        assert not findings

    def test_apply_each_memo_on_receiver_vs_in_locals(self, tmp_path):
        # a round memo local to one apply_each call is fine; the same
        # memo kept on the model across calls is receiver mutation
        findings = deep(
            tmp_path,
            {
                "model.py": """
                class Round(Model):
                    def apply_each(self, state, expansions):
                        memo = {}
                        for expansion in expansions:
                            memo[expansion] = state
                        return list(memo.values())

                class Cached(Model):
                    def apply_each(self, state, expansions):
                        self.memo[state] = list(expansions)
                        return self.memo[state]
                """
            },
        )
        found = by_code(findings, "RP403")
        assert [f.witness.chain[0].qualname for f in found] == [
            "model.Cached.apply_each"
        ]

    def test_layer_compiled_in_init_vs_memoized_in_successors(self, tmp_path):
        # a layer program built in the constructor and run per state is
        # fine; filling the same table lazily from successors, or keeping
        # a run's scratch on the model, is receiver mutation
        findings = deep(
            tmp_path,
            {
                "layering.py": """
                class Eager(Layering):
                    def __init__(self, model):
                        self._layers = {None: model.compile([])}

                    def successors(self, state):
                        return self.model.run(state, self._layers[None])

                class Lazy(Layering):
                    def successors(self, state):
                        self._layers[None] = self.model.compile([])
                        return self.model.run(state, self._layers[None])
                """,
                "model.py": """
                class Scratchy(Model):
                    def run(self, state, program):
                        self.scratch = list(program)
                        return self.scratch
                """,
            },
        )
        found = by_code(findings, "RP403")
        assert sorted(f.witness.chain[0].qualname for f in found) == [
            "layering.Lazy.successors", "model.Scratchy.run",
        ]

    def test_init_chain_is_fine(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "model.py": """
                class Eager(Model):
                    def __init__(self):
                        self._cache = {}

                    def successors(self, state):
                        return []
                """
            },
        )
        assert not by_code(findings, "RP403")


class TestRP501PayloadResources:
    def test_pool_payload_capturing_file_handle(self, tmp_path):
        # acceptance fixture (c): the handle is created by a helper, so
        # only the interprocedural return-taint sees it
        findings = deep(
            tmp_path,
            {
                "driver.py": """
                from repro.resilience.pool import run_units

                def _open_log():
                    return open("/tmp/log")

                def work(payload):
                    return payload

                def drive():
                    log = _open_log()
                    units = [(1, log)]
                    return run_units(work, units)
                """
            },
        )
        found = by_code(findings, "RP501")
        assert len(found) == 1
        finding = found[0]
        assert "file handle" in finding.message
        chain = [s.qualname for s in finding.witness.chain]
        assert chain[0] == "driver.drive"
        assert "open" in finding.witness.chain[-1].qualname

    def test_inline_resource_in_payload(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "driver.py": """
                import threading
                from repro.resilience.pool import run_units

                def work(payload):
                    return payload

                def drive():
                    return run_units(
                        work, [(1, threading.Lock())]
                    )
                """
            },
        )
        found = by_code(findings, "RP501")
        assert found and "lock" in found[0].message

    def test_plain_payload_is_fine(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "driver.py": """
                from repro.resilience.pool import run_units

                def work(payload):
                    return payload

                def drive(shards):
                    units = [(i, shard) for i, shard in enumerate(shards)]
                    return run_units(work, units)
                """
            },
        )
        assert not by_code(findings, "RP501")


class TestRP502UnpicklableEntry:
    def test_lambda_entry(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "driver.py": """
                from repro.resilience.pool import run_units

                def drive(units):
                    return run_units(lambda p: p, units)
                """
            },
        )
        assert by_code(findings, "RP502")

    def test_nested_function_entry(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "driver.py": """
                from repro.resilience.pool import run_units

                def drive(units):
                    def work(p):
                        return p
                    return run_units(work, units)
                """
            },
        )
        assert by_code(findings, "RP502")

    def test_module_level_entry_is_fine(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "driver.py": """
                from repro.resilience.pool import run_units

                def work(p):
                    return p

                def drive(units):
                    return run_units(work, units)
                """
            },
        )
        assert not by_code(findings, "RP502")


class TestSelection:
    def test_codes_filter(self, tmp_path):
        files = {
            "proto.py": """
            import random

            MEMO = {}

            class P(Protocol):
                def step(self, s):
                    MEMO[s] = 1
                    return random.random()
            """
        }
        only_401 = deep(tmp_path, files, codes=frozenset({"RP401"}))
        assert {f.code for f in only_401} == {"RP401"}

    def test_clean_tree_is_clean(self, tmp_path):
        findings = deep(
            tmp_path,
            {
                "proto.py": """
                class P(Protocol):
                    def step(self, s):
                        return _double(s)

                def _double(s):
                    return s * 2
                """
            },
        )
        assert findings == []

    def test_findings_are_sorted_and_stable(self, tmp_path):
        files = {
            "a.py": """
            import random

            class A(Protocol):
                def step(self, s):
                    return random.random()
            """,
            "b.py": """
            import time

            class B(Protocol):
                def decide(self, s):
                    return time.time()
            """,
        }
        first = deep(tmp_path, files)
        second = deep_lint_paths([str(tmp_path)])
        assert [f.format() for f in first] == [f.format() for f in second]
        assert [f.path for f in first] == sorted(f.path for f in first)
