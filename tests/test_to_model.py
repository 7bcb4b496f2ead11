"""The to_model bridge against the materialising, validating reference.

``tdlek.agent.to_model`` builds its atoms and its world without
re-validating them and carries I(w) from the beliefs; ``reference_agent``
keeps the bridge that validates every atom and scans the atoms for I(w).
Both run on perceive-only states built like the bridge benchmark's
(halves that working memory merges, a negative cut, ``inf`` ends), on the
two scenarios after ``infer``, on empty memory and on memory holding
beliefs that start after the horizon.  Count guards check that the
bridge validates no atom and hashes no time expression per atom.
"""

import random
from pathlib import Path

import pytest

import reference_agent as ref
from tdlek.agent import init, perceive, run_scenario_file, to_model
from tdlek.formulas import Atom, parse
from tdlek.intervals import INF, Interval, TimeExpr
from tdlek.models import World, check, extension, save_model, world_interval

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _t(v) -> str:
    return "inf" if v == INF else str(v)


def _bridge_state(rng: random.Random, horizon: int):
    """Beliefs near 0 that mostly never end, each perceived in two adjacent
    halves, the first cut by a negative perception; sometimes one more
    belief that starts after the horizon.  Returns the state and the
    (pred, arg) pairs held."""
    st = init([])
    clock = 0
    preds = rng.sample(["p", "q", "r", "s", "u", "v"], rng.randint(1, 4))
    held = []
    for pred in preds:
        arg = rng.choice(["a", "b", "c"])
        lo = rng.randint(0, 3)
        hi = INF if rng.random() < 0.75 else lo + rng.randint(0, horizon + 5)
        first_hi = lo + horizon // 3
        if first_hi < hi:
            st = perceive(st, parse(f"{pred}({lo},{first_hi},{arg})"), clock)
            st = perceive(st, parse(f"{pred}({first_hi + 1},{_t(hi)},{arg})"), clock + 1)
        else:
            st = perceive(st, parse(f"{pred}({lo},{_t(hi)},{arg})"), clock)
        clock += 2
        held.append((pred, arg))
    pred, arg = held[0]
    c = rng.randint(0, horizon + 2)
    st = perceive(st, parse(f"~{pred}({c},{c + rng.randint(0, 2)},{arg})"), clock)
    if rng.random() < 0.3:
        start = horizon + rng.randint(1, 5)
        st = perceive(st, parse(f"late({start},inf)"), clock + 1)
        held.append(("late", None))
    return st, held


def _queries(rng: random.Random, held, horizon: int) -> list:
    """B-queries over every held (pred, arg) and one never held: all of
    them up to two past the horizon when it is small, else a sample."""
    keys = held + [(held[0][0], "z")] if held else [("p", "a")]
    spans = [(a, z) for a in range(horizon + 3) for z in range(a, horizon + 3)]
    if len(spans) > 40:
        spans = rng.sample(spans, 40)
    out = []
    for pred, arg in keys:
        tail = f",{arg}" if arg else ""
        out.extend(parse(f"B({pred}({a},{z}{tail}))") for a, z in spans)
    return out


def _assert_same(st, horizon: int, queries) -> None:
    fast, slow = to_model(st, horizon), ref.to_model(st, horizon)
    assert fast == slow
    wf, ws = fast.worlds["w0"], slow.worlds["w0"]
    assert wf.atoms == ws.atoms
    for a in wf.atoms:
        assert hash(a) == hash((a.pred, a.start, a.end, a.args))
    assert {a: hash(a) for a in wf.atoms} == {a: hash(a) for a in ws.atoms}
    assert world_interval(wf) == world_interval(ws)
    assert fast.n_of("w0") == slow.n_of("w0")
    for q in queries:
        assert check(fast, "w0", q) == check(slow, "w0", q), q
        assert extension(fast, "w0", q) == extension(slow, "w0", q), q
    if horizon <= 12:
        assert save_model(fast) == save_model(slow)


@pytest.mark.parametrize("seed", range(60))
def test_bridge_states_agree_with_reference(seed):
    rng = random.Random(seed)
    horizon = rng.randint(0, 12) if seed % 2 else rng.randint(13, 40)
    st, held = _bridge_state(rng, horizon)
    _assert_same(st, horizon, _queries(rng, held, horizon))


@pytest.mark.parametrize("name", ["umbrella.scn", "marriage.scn"])
@pytest.mark.parametrize("horizon", [0, 5, 12, 30])
def test_scenarios_after_infer_agree_with_reference(name, horizon):
    st = run_scenario_file(SCENARIO_DIR / name).state
    held = sorted({(b.atom.pred, b.atom.args[0] if b.atom.args else None) for b in st.wm})
    _assert_same(st, horizon, _queries(random.Random(horizon), held, horizon))


@pytest.mark.parametrize("horizon", [0, 7])
def test_empty_memory_agrees_with_reference(horizon):
    _assert_same(init([]), horizon, _queries(random.Random(0), [("p", None)], horizon))


def test_belief_after_horizon_adds_nothing():
    horizon = 10
    late = perceive(init([]), parse("q(11,inf)"), 0)
    m = to_model(late, horizon)
    assert m.worlds["w0"].atoms == frozenset()
    assert world_interval(m.worlds["w0"]) == Interval(0, INF)
    assert m.n_of("w0") == frozenset()

    both = perceive(perceive(init([]), parse("p(1,2)"), 0), parse("q(11,inf)"), 1)
    m = to_model(both, horizon)
    assert {a.pred for a in m.worlds["w0"].atoms} == {"p"}
    assert world_interval(m.worlds["w0"]) == Interval(1, 2)
    for st in (late, both):
        _assert_same(st, horizon, _queries(random.Random(1), [("p", None), ("q", None)], horizon))


def counting(monkeypatch, calls, cls, name):
    """Wrap cls.name so that each call counts under "Class.name" in calls."""
    original = getattr(cls, name)
    calls[f"{cls.__name__}.{name}"] = 0

    def wrapper(self, *args):
        calls[f"{cls.__name__}.{name}"] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, wrapper)


def test_to_model_validates_no_atom(monkeypatch):
    """One p(0,inf) belief at horizon 200 gives 20,301 atoms, and none of
    them, nor the world, goes through a validation or groundness test."""
    st = perceive(init([]), parse("p(0,inf)"), 0)
    calls = {}
    counting(monkeypatch, calls, Atom, "__post_init__")
    counting(monkeypatch, calls, Atom, "is_ground")
    counting(monkeypatch, calls, World, "__post_init__")
    m = to_model(st, 200)
    assert len(m.worlds["w0"].atoms) == 20_301
    assert world_interval(m.worlds["w0"]) == Interval(0, 200)
    assert calls == {"Atom.__post_init__": 0, "Atom.is_ground": 0, "World.__post_init__": 0}


def test_to_model_seeds_atom_hashes_without_hashing_time_expressions(monkeypatch):
    """The same 20,301 atoms get their hashes from plain points, as a
    literal hashes as its point: at most the belief's own atom hashes its
    two bounds (seeding each atom's memo through its bounds makes 40,604
    calls), and the atoms, hashes included, still equal the reference
    valuation."""
    st = perceive(init([]), parse("p(0,inf)"), 0)
    calls = {}
    counting(monkeypatch, calls, TimeExpr, "__hash__")
    m = to_model(st, 200)
    monkeypatch.undo()
    assert len(m.worlds["w0"].atoms) == 20_301
    assert calls["TimeExpr.__hash__"] <= 2
    _assert_same(st, 200, _queries(random.Random(0), [("p", None)], 200))
