"""Unit tests for global states and agreement-modulo."""

import pickle

import pytest

from repro.core.state import (
    GlobalState,
    agree_modulo,
    agreement_witnesses,
    differing_processes,
)


def gs(env, *locals_):
    return GlobalState(env, tuple(locals_))


class TestGlobalState:
    def test_n(self):
        assert gs("e", "a", "b", "c").n == 3

    def test_local_access(self):
        x = gs("e", "a", "b")
        assert x.local(0) == "a"
        assert x.local(1) == "b"

    def test_hashable_and_equal(self):
        assert gs("e", "a") == gs("e", "a")
        assert hash(gs("e", "a")) == hash(gs("e", "a"))
        assert gs("e", "a") != gs("f", "a")

    def test_hash_is_lazy(self):
        x = gs("e", "a", "b")
        assert x._hash is None
        assert hash(x) == hash(("e", ("a", "b")))
        assert x._hash == hash(x)

    def test_cached_hash_ignored_by_equality(self):
        hashed, fresh = gs("e", "a"), gs("e", "a")
        hash(hashed)
        assert hashed == fresh and fresh._hash is None
        assert hash(hashed) == hash(fresh)

    def test_pickle_round_trip_drops_the_cache(self):
        # a hash cached by another interpreter is wrong in this one;
        # simulate one with a deliberately stale value
        x = gs(("mp", ()), ("a", None), "b")
        object.__setattr__(x, "_hash", hash(x) + 1)
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y._hash is None
        assert hash(y) == hash(gs(("mp", ()), ("a", None), "b"))

    def test_older_pickle_state_drops_its_hash(self):
        # the [env, locals, _hash] state older versions pickled
        y = GlobalState.__new__(GlobalState)
        y.__setstate__(["e", ("a",), 12345])
        assert y == gs("e", "a") and y._hash is None
        assert hash(y) == hash(gs("e", "a"))

    def test_replace_local(self):
        x = gs("e", "a", "b")
        y = x.replace_local(1, "z")
        assert y == gs("e", "a", "z")
        assert x == gs("e", "a", "b")  # original untouched

    def test_replace_local_out_of_range(self):
        with pytest.raises(IndexError):
            gs("e", "a").replace_local(5, "z")

    def test_replace_locals_bulk(self):
        x = gs("e", "a", "b", "c")
        y = x.replace_locals({0: "x", 2: "z"})
        assert y == gs("e", "x", "b", "z")

    def test_replace_env(self):
        assert gs("e", "a").replace_env("f") == gs("f", "a")

    def test_locals_coerced_to_tuple(self):
        x = GlobalState("e", ["a", "b"])
        assert isinstance(x.locals, tuple)
        assert hash(x)


class TestAgreeModulo:
    def test_identical_states_agree_modulo_anyone(self):
        x = gs("e", "a", "b")
        assert agree_modulo(x, x, 0)
        assert agree_modulo(x, x, 1)

    def test_one_difference(self):
        x, y = gs("e", "a", "b"), gs("e", "a", "z")
        assert agree_modulo(x, y, 1)
        assert not agree_modulo(x, y, 0)

    def test_env_difference_blocks(self):
        x, y = gs("e", "a", "b"), gs("f", "a", "b")
        assert not agree_modulo(x, y, 0)

    def test_two_differences_block(self):
        x, y = gs("e", "a", "b"), gs("e", "z", "w")
        assert not agree_modulo(x, y, 0)
        assert not agree_modulo(x, y, 1)

    def test_different_sizes(self):
        assert not agree_modulo(gs("e", "a"), gs("e", "a", "b"), 0)


class TestDifferingProcesses:
    def test_none_differ(self):
        x = gs("e", "a", "b")
        assert differing_processes(x, x) == frozenset()

    def test_some_differ(self):
        x, y = gs("e", "a", "b", "c"), gs("e", "a", "z", "w")
        assert differing_processes(x, y) == frozenset({1, 2})

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            differing_processes(gs("e", "a"), gs("e", "a", "b"))


class TestAgreementWitnesses:
    def test_equal_states_all_witnesses(self):
        x = gs("e", "a", "b", "c")
        assert agreement_witnesses(x, x) == frozenset({0, 1, 2})

    def test_single_diff_single_witness(self):
        x, y = gs("e", "a", "b"), gs("e", "z", "b")
        assert agreement_witnesses(x, y) == frozenset({0})

    def test_env_diff_no_witnesses(self):
        x, y = gs("e", "a"), gs("f", "a")
        assert agreement_witnesses(x, y) == frozenset()

    def test_multi_diff_no_witnesses(self):
        x, y = gs("e", "a", "b"), gs("e", "z", "w")
        assert agreement_witnesses(x, y) == frozenset()
