"""Interval algebra: unit cases plus brute-force point-set equivalence."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from tdlek.intervals import (
    INF,
    BadInterval,
    Interval,
    IntervalSet,
    TimeExpr,
    UnboundVariable,
    difference,
    hull,
    intersect,
    make_interval,
    parse_interval,
    subset,
)

# ---------------------------------------------------------------------------
# Brute-force oracle: an interval as a finite point set up to a horizon,
# plus a flag for the open-ended tail.  The horizon must clear every finite
# bound by at least 2 so residual intervals stay visible.
# ---------------------------------------------------------------------------


def points(iv: Interval, horizon: int) -> set[int]:
    hi = horizon if iv.hi == INF else int(iv.hi)
    return set(range(iv.lo, min(hi, horizon) + 1))


def set_points(s: IntervalSet, horizon: int) -> set[int]:
    out: set[int] = set()
    for p in s:
        out |= points(p, horizon)
    return out


def is_infinite(iv: Interval) -> bool:
    return iv.hi == INF


def set_is_infinite(s: IntervalSet) -> bool:
    return any(is_infinite(p) for p in s)


def rand_interval(rng: random.Random, bound: int = 64) -> Interval:
    lo = rng.randint(0, bound)
    if rng.random() < 0.25:
        return Interval(lo, INF)
    return Interval(lo, rng.randint(lo, bound))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_make_interval_basic():
    assert make_interval(1, 3) == Interval(1, 3)
    assert str(make_interval(1, 3)) == "[1,3]"


def test_make_interval_default_box_interval():
    iv = make_interval(0, INF)
    assert str(iv) == "[0,inf)"
    assert not iv.finite


def test_make_interval_rejects_bad_bounds():
    with pytest.raises(BadInterval):
        make_interval(5, 2)
    with pytest.raises(BadInterval):
        make_interval(INF, INF)
    with pytest.raises(BadInterval):
        Interval(-1, 3)
    for lo in (-0.5, 2.5, True):
        with pytest.raises(BadInterval, match=re.escape(f"lower bound must be a natural number, got {lo!r}")):
            make_interval(lo, 3)
    for hi in (-1, 2.5, True, "3", None):
        with pytest.raises(BadInterval, match=re.escape(f"upper bound must be a natural number or inf, got {hi!r}")):
            Interval(1, hi)


def test_interval_parse_round_trip():
    for text in ("[0,5]", "[3,3]", "[2,inf)"):
        assert str(parse_interval(text)) == text
    with pytest.raises(BadInterval):
        parse_interval("[5,2]")
    with pytest.raises(BadInterval):
        parse_interval("(1,2)")


# ---------------------------------------------------------------------------
# hull / intersect / difference / subset unit cases
# ---------------------------------------------------------------------------


def test_hull_cases():
    assert hull(Interval(1, 3), Interval(5, 6)) == Interval(1, 6)
    assert hull(Interval(2, 4), Interval(2, 4)) == Interval(2, 4)
    assert hull(Interval(1, 3), Interval(5, INF)) == Interval(1, INF)


def test_intersect_cases():
    assert intersect(Interval(1, 5), Interval(3, 9)) == IntervalSet((Interval(3, 5),))
    assert intersect(Interval(1, 2), Interval(4, 5)) == IntervalSet()
    # derived by instantiating max/min with INF, cross-checked below
    got = intersect(Interval(6, INF), Interval(9, INF))
    assert got == IntervalSet((Interval(9, INF),))
    # brute-force membership cross-check over 0..20
    members = {t for t in range(21) if Interval(6, INF).contains(t) and Interval(9, INF).contains(t)}
    assert set_points(got, 20) == members


def test_difference_cases():
    assert difference(Interval(3, 10), Interval(5, 7)) == IntervalSet(
        (Interval(3, 4), Interval(8, 10))
    )
    assert difference(Interval(6, INF), Interval(9, INF)) == IntervalSet((Interval(6, 8),))
    assert difference(Interval(3, 7), Interval(3, 7)) == IntervalSet()


def test_difference_partial_overlap_and_disjoint():
    assert difference(Interval(3, 7), Interval(5, 12)) == IntervalSet((Interval(3, 4),))
    assert difference(Interval(3, 7), Interval(0, 4)) == IntervalSet((Interval(5, 7),))
    assert difference(Interval(3, 7), Interval(8, 9)) == IntervalSet((Interval(3, 7),))
    assert difference(Interval(3, 7), Interval(0, INF)) == IntervalSet()


def test_subset_cases():
    assert subset(Interval(2, 3), Interval(1, 5))
    assert not subset(Interval(2, INF), Interval(1, 5))
    assert subset(Interval(6, 8), Interval(6, INF))
    assert subset(Interval(6, INF), Interval(6, INF))


# ---------------------------------------------------------------------------
# Canonical interval sets
# ---------------------------------------------------------------------------


def test_interval_set_merges_overlap_and_adjacency():
    s = IntervalSet.of([Interval(5, 7), Interval(1, 3), Interval(4, 4)])
    assert s == IntervalSet((Interval(1, 7),))
    s2 = IntervalSet.of([Interval(1, 2), Interval(4, INF)])
    assert s2.parts == (Interval(1, 2), Interval(4, INF))
    assert str(s2) == "{[1,2],[4,inf)}" and str(IntervalSet(())) == "{}"
    assert s2 and not IntervalSet(())


def test_interval_set_rejects_non_canonical():
    with pytest.raises(BadInterval):
        IntervalSet((Interval(1, 3), Interval(4, 5)))  # adjacent, must merge
    with pytest.raises(BadInterval):
        IntervalSet((Interval(1, INF), Interval(3, 5)))


def test_interval_set_insertion_order_irrelevant():
    rng = random.Random(5)
    for _ in range(200):
        items = [rand_interval(rng, 20) for _ in range(rng.randint(0, 6))]
        base = IntervalSet.of(items)
        rng.shuffle(items)
        assert IntervalSet.of(items) == base


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

finite_intervals = st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
    lambda t: Interval(min(t), max(t))
)
any_intervals = st.one_of(
    finite_intervals, st.integers(0, 40).map(lambda lo: Interval(lo, INF))
)


@given(any_intervals, any_intervals)
def test_hull_commutative_and_contains(a, b):
    assert hull(a, b) == hull(b, a)
    assert subset(a, hull(a, b))
    assert subset(b, hull(a, b))
    assert hull(a, a) == a


@given(any_intervals, any_intervals, any_intervals)
def test_hull_associative(a, b, c):
    assert hull(hull(a, b), c) == hull(a, hull(b, c))


@given(any_intervals, any_intervals)
def test_difference_and_intersection_partition(a, b):
    horizon = 100
    diff, inter = difference(a, b), intersect(a, b)
    assert set_points(diff, horizon) | set_points(inter, horizon) == points(a, horizon)
    assert not set_points(diff, horizon) & set_points(inter, horizon)
    assert (set_is_infinite(diff) or set_is_infinite(inter)) == is_infinite(a)
    assert len(diff) <= 2


def test_partition_randomized_against_oracle():
    rng = random.Random(99)
    for _ in range(2000):
        a, b = rand_interval(rng), rand_interval(rng)
        horizon = 130
        assert set_points(difference(a, b), horizon) == points(a, horizon) - points(b, horizon)
        assert set_points(intersect(a, b), horizon) == points(a, horizon) & points(b, horizon)
        assert points(hull(a, b), horizon) >= points(a, horizon) | points(b, horizon)
        assert subset(a, b) == (points(a, horizon) <= points(b, horizon) and not (is_infinite(a) and not is_infinite(b)))


# ---------------------------------------------------------------------------
# Time expressions
# ---------------------------------------------------------------------------


def test_eval_time_expr():
    assert TimeExpr.at("T", 14).eval({"T": 3}) == 17
    assert TimeExpr.at("T", 1).eval({"T": 5}) == 6
    with pytest.raises(UnboundVariable):
        TimeExpr.at("T", 1).eval({})
    for base in ("a", -1, 1.5, None):
        with pytest.raises(BadInterval, match=re.escape(f"T bound to non-time value {base!r}")):
            TimeExpr.at("T", 1).eval({"T": base})


def test_eval_time_expr_saturates_at_inf():
    assert TimeExpr.at("T", 3).eval({"T": INF}) == INF
    assert TimeExpr.at("T", -3).eval({"T": INF}) == INF
    assert TimeExpr.lit(INF).eval({}) == INF


def test_eval_time_expr_underflow():
    with pytest.raises(BadInterval):
        TimeExpr.at("T", -1).eval({"T": 0})


def test_time_expr_rejects_bad_variables_and_shifts():
    for var in ("t", "", "1T", "_T", "éT"):
        with pytest.raises(ValueError, match=re.escape(f"time variable must start uppercase: {var!r}")):
            TimeExpr(var, 0)
    for var in ("X\n", "T-1", "T x", "ÉT"):
        with pytest.raises(ValueError, match=re.escape(f"bad time variable name {var!r}")):
            TimeExpr(var, 0)
    for shift in (1.5, INF, True, "1", None):
        with pytest.raises(BadInterval, match=re.escape(f"bad shift {shift!r} on variable T")):
            TimeExpr("T", shift)


def test_time_expr_str():
    assert str(TimeExpr.at("T", 14)) == "T+14"
    assert str(TimeExpr.at("T", -1)) == "T-1"
    assert str(TimeExpr.at("T")) == "T"
    assert str(TimeExpr.lit(INF)) == "inf"
    assert str(TimeExpr.lit(7)) == "7"
