"""Tests for repro.core.histogram (compact (value, count) storage)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (MIXED_KEYS, NAN, assert_same_state, counter_join,
                      histogram_state)
from repro.core.footprint import FootprintModel
from repro.core.histogram import CompactHistogram
from repro.core.runs import RepeatedValue
from repro.errors import ConfigurationError
from repro.kernels import numpy_available

MODEL = FootprintModel(value_bytes=8, count_bytes=4)


class TestBasics:
    def test_empty(self):
        h = CompactHistogram()
        assert h.size == 0
        assert h.distinct == 0
        assert h.singletons == 0
        assert len(h) == 0
        assert h.expand() == []

    def test_insert_tracks_counters(self):
        h = CompactHistogram()
        h.insert("a")
        assert (h.size, h.distinct, h.singletons) == (1, 1, 1)
        h.insert("a")
        assert (h.size, h.distinct, h.singletons) == (2, 1, 0)
        h.insert("b")
        assert (h.size, h.distinct, h.singletons) == (3, 2, 1)

    def test_from_values_and_contains(self):
        h = CompactHistogram.from_values([1, 2, 2, 3])
        assert 2 in h
        assert 5 not in h
        assert h.count(2) == 2
        assert h.count(5) == 0

    def test_from_pairs(self):
        h = CompactHistogram.from_pairs([("x", 3), ("y", 1), ("x", 2)])
        assert h.count("x") == 5
        assert h.size == 6

    def test_from_pairs_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            CompactHistogram.from_pairs([("x", 0)])

    def test_equality(self):
        a = CompactHistogram.from_values([1, 1, 2])
        b = CompactHistogram.from_pairs([(1, 2), (2, 1)])
        assert a == b
        b.insert(3)
        assert a != b

    def test_copy_independent(self):
        a = CompactHistogram.from_values([1, 2])
        b = a.copy()
        b.insert(3)
        assert 3 not in a
        assert a.size == 2


class TestMutation:
    def test_insert_count(self):
        h = CompactHistogram()
        h.insert_count("v", 5)
        assert h.count("v") == 5
        assert h.singletons == 0
        h2 = CompactHistogram()
        h2.insert_count("v", 1)
        assert h2.singletons == 1

    def test_insert_count_validation(self):
        with pytest.raises(ConfigurationError):
            CompactHistogram().insert_count("v", 0)

    def test_remove(self):
        h = CompactHistogram.from_values(["a", "a", "b"])
        h.remove("a")
        assert h.count("a") == 1
        assert h.singletons == 2
        h.remove("a")
        assert "a" not in h
        assert h.size == 1

    def test_remove_validation(self):
        h = CompactHistogram.from_values(["a"])
        with pytest.raises(ConfigurationError):
            h.remove("a", 2)
        with pytest.raises(ConfigurationError):
            h.remove("a", 0)
        with pytest.raises(ConfigurationError):
            h.remove("missing")

    def test_set_count(self):
        h = CompactHistogram.from_values(["a", "a"])
        h.set_count("a", 5)
        assert h.count("a") == 5
        assert h.size == 5
        h.set_count("a", 1)
        assert h.singletons == 1
        h.set_count("a", 0)
        assert "a" not in h
        assert h.size == 0

    def test_set_count_validation(self):
        with pytest.raises(ConfigurationError):
            CompactHistogram().set_count("a", -1)


class TestViewsAndConversions:
    def test_expand_round_trip(self):
        values = [1, 1, 2, 3, 3, 3]
        h = CompactHistogram.from_values(values)
        assert sorted(h.expand()) == sorted(values)
        again = CompactHistogram.from_values(h.expand())
        assert again == h

    def test_sorted_pairs_stable(self):
        h = CompactHistogram.from_values(["b", "a", "b"])
        assert h.sorted_pairs() == [("a", 1), ("b", 2)]

    def test_join(self):
        a = CompactHistogram.from_values([1, 1, 2])
        b = CompactHistogram.from_values([2, 3])
        j = a.join(b)
        assert dict(j.pairs()) == {1: 2, 2: 2, 3: 1}
        # operands untouched
        assert a.size == 3 and b.size == 2

    def test_join_commutative(self):
        a = CompactHistogram.from_values([1, 1, 2])
        b = CompactHistogram.from_values([2, 3, 3, 3, 4])
        assert a.join(b) == b.join(a)

    def test_joined_footprint_matches_join(self):
        a = CompactHistogram.from_values([1, 1, 2, 5])
        b = CompactHistogram.from_values([2, 3, 3, 5, 6])
        predicted = a.joined_footprint(b, MODEL)
        actual = a.join(b).footprint(MODEL)
        assert predicted == actual


def loop_joined_footprint(first, second, model):
    """``joined_footprint`` as it walked every pair of ``second``."""
    distinct = first.distinct
    singletons = first.singletons
    for v, n in second.pairs():
        mine = first.count(v)
        if mine == 0:
            distinct += 1
            if n == 1:
                singletons += 1
        elif mine == 1:
            singletons -= 1
    return model.histogram_footprint(distinct, singletons)


class TestJoinOracle:
    """``join`` and ``joined_footprint`` against the ``Counter``-based
    code they replaced: same pairs in order with the same key objects,
    same size and singletons, same footprint."""

    @given(st.lists(MIXED_KEYS, max_size=50),
           st.lists(MIXED_KEYS, max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_join_matches_counter_join(self, first, second):
        a = CompactHistogram.from_values(first)
        b = CompactHistogram.from_values(second)
        before = histogram_state(a), histogram_state(b)
        assert_same_state(histogram_state(a.join(b)), counter_join(a, b))
        assert_same_state(histogram_state(b.join(a)), counter_join(b, a))
        assert (histogram_state(a), histogram_state(b)) == before

    @given(st.lists(MIXED_KEYS, max_size=50),
           st.lists(MIXED_KEYS, max_size=50),
           st.sampled_from([MODEL, FootprintModel(8, 8),
                            FootprintModel(3, 1), FootprintModel(8, 0)]))
    @settings(max_examples=150, deadline=None)
    def test_joined_footprint_matches_loop(self, first, second, model):
        a = CompactHistogram.from_values(first)
        b = CompactHistogram.from_values(second)
        want = loop_joined_footprint(a, b, model)
        assert a.joined_footprint(b, model) == want
        assert a.join(b).footprint(model) == want

    def test_tie_keeps_first_operand_order_and_keys(self):
        a = CompactHistogram.from_values([True, "x", NAN])
        b = CompactHistogram.from_values([1.0, NAN, "y"])
        joined = a.join(b)
        assert [(type(v), n) for v, n in joined.pairs()] == [
            (bool, 2), (str, 1), (float, 2), (str, 1)]
        assert list(joined.values())[2] is NAN
        assert (joined.size, joined.singletons) == (6, 2)

    def test_joined_wraps_tallies(self):
        a = CompactHistogram.from_values([1, 1, 2])
        b = CompactHistogram.from_values([2, 3])
        joined = CompactHistogram.joined(a.tally(), b.tally())
        assert joined == a.join(b)
        joined.insert(9)
        assert 9 not in a and 9 not in b


class TestFootprint:
    def test_empty(self):
        assert CompactHistogram().footprint(MODEL) == 0

    def test_singletons_cost_value_bytes(self):
        h = CompactHistogram.from_values([1, 2, 3])
        assert h.footprint(MODEL) == 3 * 8

    def test_pairs_cost_extra(self):
        h = CompactHistogram.from_values([1, 1, 2])
        assert h.footprint(MODEL) == (8 + 4) + 8

    @given(st.lists(st.sampled_from("abcdefgh"), max_size=200))
    @settings(max_examples=100)
    def test_incremental_tracking_matches_recount(self, values):
        """The O(1) footprint equals a from-scratch recount, always."""
        h = CompactHistogram.from_values(values)
        pairs = dict(h.pairs())
        distinct = len(pairs)
        singles = sum(1 for c in pairs.values() if c == 1)
        assert h.distinct == distinct
        assert h.singletons == singles
        assert h.size == sum(pairs.values()) == len(values)
        assert h.footprint(MODEL) == \
            MODEL.histogram_footprint(distinct, singles)

    @given(st.lists(st.tuples(st.sampled_from("abcd"),
                              st.sampled_from(["insert", "remove",
                                               "set3", "set0"])),
                    max_size=100))
    @settings(max_examples=100)
    def test_mutation_sequence_invariants(self, ops):
        """Random mutation sequences keep counters consistent."""
        h = CompactHistogram()
        shadow = {}
        for value, op in ops:
            if op == "insert":
                h.insert(value)
                shadow[value] = shadow.get(value, 0) + 1
            elif op == "remove":
                if shadow.get(value, 0) > 0:
                    h.remove(value)
                    shadow[value] -= 1
                    if shadow[value] == 0:
                        del shadow[value]
            elif op == "set3":
                h.set_count(value, 3)
                shadow[value] = 3
            else:  # set0
                h.set_count(value, 0)
                shadow.pop(value, None)
        assert dict(h.pairs()) == shadow
        assert h.size == sum(shadow.values())
        assert h.singletons == sum(1 for c in shadow.values() if c == 1)


def _insert_until(hist, values, start, model, bound_bytes):
    """The per-arrival phase-1 loop :meth:`CompactHistogram.fill` batches."""
    for pos in range(start, len(values)):
        hist.insert(values[pos])
        if hist.footprint(model) >= bound_bytes:
            return pos + 1
    return len(values)


def _state(hist):
    """Pairs in order with their key types (``1 == 1.0 == True``)."""
    return ([(type(v), repr(v), n) for v, n in hist.pairs()],
            hist.size, hist.singletons, hist.distinct)


_MODELS = [FootprintModel(8, 0), FootprintModel(8, 4), FootprintModel(8, 8),
           FootprintModel(3, 1), FootprintModel(1, 1)]
_VALUES = st.one_of(
    st.lists(st.integers(0, 40), max_size=300),
    st.lists(st.text("abcdef", max_size=2), max_size=300),
    st.lists(st.sampled_from([1, 1.0, True, 0, 0.0, False, 2, "x"]),
             max_size=300),
)


class TestFill:
    """``fill`` equals one ``insert`` at a time with the footprint tested
    after each: same stop index, same pairs in the same order."""

    def _check(self, prefill, values, start, model, bound_bytes):
        expected = CompactHistogram.from_values(prefill)
        actual = CompactHistogram.from_values(prefill)
        want = _insert_until(expected, values, start, model, bound_bytes)
        got = actual.fill(values, start, model, bound_bytes)
        assert got == want
        assert _state(actual) == _state(expected)
        return got

    @given(prefill=_VALUES, values=_VALUES,
           model=st.sampled_from(_MODELS),
           bound_bytes=st.integers(0, 400), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_insert_loop(self, prefill, values, model, bound_bytes,
                                 data):
        start = data.draw(st.integers(0, len(values)))
        container = data.draw(st.sampled_from([list, tuple]))
        self._check(prefill, container(values), start, model, bound_bytes)

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @given(prefill=st.lists(st.integers(0, 30), max_size=100),
           values=st.lists(st.integers(0, 30), max_size=300),
           model=st.sampled_from(_MODELS),
           bound_bytes=st.integers(0, 300), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_numpy_int_array(self, prefill, values, model, bound_bytes,
                             data):
        import numpy as np

        start = data.draw(st.integers(0, len(values)))
        self._check(prefill, np.array(values, dtype=np.int64), start, model,
                    bound_bytes)

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_numpy_nan_keys(self):
        """Each NaN scalar a numpy array yields is its own key."""
        import numpy as np

        values = np.array([np.nan, 1.0, np.nan, 2.0, 1.0])
        assert self._check([], values, 0, MODEL, 1_000) == len(values)

    @given(prefill=st.lists(st.sampled_from("abc"), max_size=50),
           value=st.sampled_from("abcd"), count=st.integers(0, 200),
           model=st.sampled_from(_MODELS),
           bound_bytes=st.integers(0, 100), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_repeated_value(self, prefill, value, count, model, bound_bytes,
                            data):
        start = data.draw(st.integers(0, count))
        self._check(prefill, RepeatedValue(value, count), start, model,
                    bound_bytes)

    @pytest.mark.parametrize("model", _MODELS)
    def test_prefilled_at_or_over_bound_inserts_once(self, model):
        prefill = list(range(10))
        at = CompactHistogram.from_values(prefill).footprint(model)
        for bound_bytes in (at, at - 1, 0):
            got = self._check(prefill, list(range(100, 200)), 3, model,
                              bound_bytes)
            assert got == 4

    def test_from_values_matches_inserts_and_takes_generators(self):
        values = [3, 1.0, True, "a", 3, 3.0, "a", 7]
        built = CompactHistogram()
        for v in values:
            built.insert(v)
        assert _state(CompactHistogram.from_values(values)) == _state(built)
        assert _state(CompactHistogram.from_values(
            v for v in values)) == _state(built)
