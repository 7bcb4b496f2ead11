"""Memoised node facts: hash, free variables and time against uncached walkers.

Each formula and mental-operation node computes its hash, free variables
and time once and keeps them.  These tests compare every memo, cold and
then warm, with the fresh walks in reference_checker, check that a node
built from another starts with no memo of its own, and that no memo
travels through pickle into a process with another hash seed.  Also here:
the memoised groundness of atoms, TimeExpr's memoised hash, the shared
time literals of TimeExpr.lit and the intervals built without
re-validation.
"""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tdlek import intervals
from tdlek.formulas import (
    Atom,
    MentalOp,
    NonGround,
    children,
    free_vars,
    is_ground,
    is_var,
    op_time,
    parse,
    rebuild,
    substitute,
    time_of,
)
from tdlek.intervals import INF, BadInterval, Interval, IntervalSet, TimeExpr, hull, intersect
from tdlek.models import gen_random_model
from tdlek.randgen import gen_dynamic_formula, gen_free_formula, gen_static, model_vocab

from reference_checker import free_vars_ref, hash_ref, time_of_ref

MEMOS = ("_memo_hash", "_memo_free", "_memo_time")
SRC = Path(__file__).resolve().parent.parent / "src"


def nodes(f):
    """Every node of f, f included, parents before children."""
    out, todo = [], [f]
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(children(n))
    return out


def memos(n) -> set[str]:
    return {name for name in MEMOS if name in vars(n)}


def random_formulas(seed: int):
    """One formula from each generator: static, dynamic, and free (with
    variables), over the vocabulary of a random model."""
    rng = random.Random(seed)
    vocab = model_vocab(gen_random_model(seed))
    return [
        gen_static(rng, vocab, 10, depth=3),
        gen_dynamic_formula(rng, vocab, 10),
        gen_free_formula(rng, depth=4),
    ]


def assert_facts_match_reference(f) -> None:
    """Every node's facts against the fresh walks, children first: so a
    mental operation is timed by time_of before its prefix reads that
    memo, and a time that depends on which caller asked first differs."""
    for n in reversed(nodes(f)):
        assert hash(n) == hash(tuple(getattr(n, x.name) for x in dataclasses.fields(n)))
        assert hash(n) == hash_ref(n)
        assert free_vars(n) == free_vars_ref(n)
        assert is_ground(n) == (not free_vars_ref(n))
        if not free_vars_ref(n):
            assert time_of(n) == time_of_ref(n)
            if isinstance(n, MentalOp):
                assert op_time(n) == time_of_ref(n)


@pytest.mark.parametrize("seed", range(60))
def test_memoised_facts_match_uncached_walkers_cold_and_warm(seed):
    for f in random_formulas(seed):
        # a formula built just now; its atoms may be shared with the model's
        assert not memos(f) or not f._parts
        assert_facts_match_reference(f)  # cold: each node computes its facts
        assert memos(f) >= {"_memo_hash", "_memo_free"}
        assert_facts_match_reference(f)  # warm: each node answers from its memo


def test_non_ground_time_is_not_memoised():
    f = parse("p(T,T) & q(1,2)")
    for _ in range(2):
        with pytest.raises(NonGround):
            time_of(f)
        with pytest.raises(NonGround):
            f.left.interval()
    assert "_memo_time" not in vars(f) and "_memo_time" not in vars(f.left)


@pytest.mark.parametrize("seed", range(30))
def test_derived_nodes_start_without_memos(seed):
    for f in random_formulas(seed):
        assert_facts_match_reference(f)
        vs = sorted(free_vars(f))
        binding = {v: ("c" if v[0] in "XY" else 3) for v in vs}
        copies = [dataclasses.replace(f)] + ([rebuild(f, children(f))] if f._parts else [])
        assert copies == [f] * len(copies)
        try:
            instances = [substitute(f, binding)]
        except BadInterval:
            instances = []
        for g in copies + instances:
            assert g is not f and not memos(g)
            assert_facts_match_reference(g)


def test_pickle_carries_no_memo():
    f = parse("B(rain(1,3,umbrella)) & [+take(2,2,umbrella)] K(go(4,inf,shops))")
    assert_facts_match_reference(f)
    g = pickle.loads(pickle.dumps(f))
    assert not any(memos(n) for n in nodes(g))
    assert g == f and hash(g) == hash(f)


_WRITE = """
import pickle, sys
from tdlek.formulas import parse
f = parse(sys.argv[1])
print(hash(f))
sys.stdout.flush()
sys.stdout.buffer.write(pickle.dumps(f))
"""

_READ = """
import pickle, sys
from tdlek.formulas import parse
f = parse(sys.argv[1])
here = {f, parse("p(0,0)")}
loaded = pickle.loads(sys.stdin.buffer.read())
print(hash(f), loaded in here, loaded == f)
"""


def _python(code: str, seed: str, text: str, stdin: bytes = b"") -> bytes:
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, text], input=stdin, env=env,
                          capture_output=True, check=True, timeout=60)
    return done.stdout


def test_pickled_formula_is_found_in_a_set_under_another_hash_seed():
    text = "B(rain(1,3,umbrella)) & ~[rev(go(2,2,shops),go(0,9,shops))] q(1,1)"
    written = _python(_WRITE, "1", text)
    first_hash, _, data = written.partition(b"\n")
    fresh_hash, found, equal = _python(_READ, "2", text, data).decode().split()
    assert first_hash.decode() != fresh_hash  # the seeds do give other hashes
    assert (found, equal) == ("True", "True")


def is_ground_ref(a) -> bool:
    """An atom's groundness read off its fields."""
    return a.start.var is None and a.end.var is None and not any(is_var(x) for x in a.args)


def test_atom_is_ground_matches_its_fields_cold_and_warm():
    atoms = [n for seed in range(30) for f in random_formulas(seed) for n in nodes(f)
             if isinstance(n, Atom)]
    atoms += [Atom(a.pred, a.start, a.end, a.args) for a in atoms]  # fresh, with no memo
    assert any(is_ground_ref(a) for a in atoms) and not all(is_ground_ref(a) for a in atoms)
    for a in atoms + atoms:
        assert a.is_ground() == is_ground_ref(a)


# ---------------------------------------------------------------------------
# TimeExpr's memoised hash
# ---------------------------------------------------------------------------

TIMES = [TimeExpr.lit(3), TimeExpr.lit(INF), TimeExpr(None, 7), TimeExpr.at("T", -2), TimeExpr.at("X")]


def test_time_expr_hash_is_memoised_with_the_generated_value():
    for te in TIMES:
        fresh = TimeExpr(te.var, te.offset)
        assert "_memo_hash" not in vars(fresh)
        assert hash(fresh) == hash((te.var, te.offset)) == hash(te)  # cold, then warm
        assert vars(fresh)["_memo_hash"] == hash(fresh)
        copy = pickle.loads(pickle.dumps(fresh))
        assert copy == fresh and "_memo_hash" not in vars(copy)


_WRITE_TIMES = """
import pickle, sys
from tdlek.intervals import TimeExpr
times = (TimeExpr.lit(5), TimeExpr.at("T", 1))
print(*map(hash, times))
sys.stdout.flush()
sys.stdout.buffer.write(pickle.dumps(times))
"""

_READ_TIMES = """
import pickle, sys
from tdlek.intervals import TimeExpr
times = (TimeExpr.lit(5), TimeExpr.at("T", 1))
here = {*times, TimeExpr.lit(6)}
loaded = pickle.loads(sys.stdin.buffer.read())
print(*map(hash, times), *(x in here for x in loaded), loaded == times)
"""


def test_pickled_time_exprs_are_found_in_a_set_under_another_hash_seed():
    written = _python(_WRITE_TIMES, "1", "")
    first_hashes, _, data = written.partition(b"\n")
    fresh = _python(_READ_TIMES, "2", "", data).decode().split()
    assert first_hashes.decode().split()[1] != fresh[1]  # the seeds do give other hashes
    assert fresh[2:] == ["True", "True", "True"]


# ---------------------------------------------------------------------------
# Shared time literals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [True, False, -1, 2.5, "3", [1]])
def test_lit_still_rejects_non_time_points(bad):
    TimeExpr.lit(1), TimeExpr.lit(0)  # memoised first, so True/False must not hit them
    with pytest.raises(BadInterval):
        TimeExpr.lit(bad)


def test_lit_shares_one_instance_per_value():
    assert TimeExpr.lit(3) == TimeExpr(None, 3)
    assert hash(TimeExpr.lit(3)) == hash(TimeExpr(None, 3))
    assert TimeExpr.lit(3) is TimeExpr.lit(3)
    assert TimeExpr.lit(INF) is TimeExpr.lit(float("inf"))
    assert parse("p(3,inf)").start is TimeExpr.lit(3)


def test_lit_memo_stays_within_its_cap():
    cap = intervals._LITERAL_CAP
    for value in range(2 * cap):
        assert TimeExpr.lit(value).offset == value
    assert len(intervals._LITERALS) <= cap
    assert TimeExpr.lit(2 * cap + 5) == TimeExpr(None, 2 * cap + 5)
    assert len(intervals._LITERALS) <= cap


# ---------------------------------------------------------------------------
# Intervals derived from valid ones skip re-validation
# ---------------------------------------------------------------------------

any_intervals = st.tuples(st.integers(0, 40), st.one_of(st.integers(0, 40), st.just(INF))).map(
    lambda t: Interval(min(t), max(t))
)


def assert_valid_interval(iv) -> None:
    checked = Interval(iv.lo, iv.hi)  # runs the validation the derivation skipped
    assert iv == checked and hash(iv) == hash(checked) and str(iv) == str(checked)
    assert type(iv.lo) is int and not isinstance(iv.lo, bool)


@given(any_intervals, any_intervals)
def test_derived_intervals_are_valid(a, b):
    assert_valid_interval(hull(a, b))
    for part in intersect(a, b):
        assert_valid_interval(part)
    assert_valid_interval(IntervalSet.of([a, b]).hull())


def test_box_and_atom_intervals_are_memoised():
    f = parse("box[2,inf) p(3,5)")
    assert f.interval() is f.interval() == Interval(2, INF)
    assert f.body.interval() is f.body.interval() == Interval(3, 5)
    with pytest.raises(NonGround):
        parse("box[T,9] p(3,5)").interval()
