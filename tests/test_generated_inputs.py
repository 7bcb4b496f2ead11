"""Generated suite inputs against the validating constructors.

The random generators build their atoms with formulas._trusted_ground_atom
and gen_random_model builds its worlds with models._trusted_world, so
neither runs the Atom or World checks.  These tests rebuild every
generated atom, world and model through the public constructors and
require the same values, the same text and the same seeded facts as the
uncached walkers in reference_checker compute.  The other atoms built
unchecked get the same test: the parser's variable atoms, the agent's
beliefs, the dynamics' residual and cut atoms and to_model's closure.
Count guards check that the generators really skip the constructors'
checks, and that free_vars builds no set for a ground atom.
"""

import random
from dataclasses import fields
from pathlib import Path

import pytest

from tdlek import agent, suites
from tdlek.agent import init, perceive, run_scenario_file, to_model
from tdlek.dynamics import _effect, residual_atoms
from tdlek.formulas import Atom, Revise, children, free_vars, parse
from tdlek.intervals import INF, TimeExpr
from tdlek.models import (
    TLekModel,
    World,
    gen_random_model,
    save_model,
    validate_model,
    world_interval,
)
from tdlek.randgen import gen_literal, gen_mental_op, gen_vocab_atom, model_vocab

from reference_checker import free_vars_ref, hash_ref, time_of_ref, world_interval_ref

# A guard's failure shows at most this many of the offending values.
EXAMPLES = 3
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
ATOM_FIELDS = [f.name for f in fields(Atom)]


def atoms_of(f):
    """Every atom node of a formula or mental operation."""
    out, todo = [], [f]
    while todo:
        n = todo.pop()
        if isinstance(n, Atom):
            out.append(n)
        todo.extend(children(n))
    return out


def rebuilt_atom(a: Atom) -> Atom:
    return Atom(a.pred, TimeExpr(a.start.var, a.start.offset), TimeExpr(a.end.var, a.end.offset), a.args)


def assert_atom_matches_its_rebuild(a: Atom) -> None:
    """a equals its checked rebuild, has its fields set in declaration
    order, and every fact seeded on it is the reference walkers' value."""
    b = rebuilt_atom(a)
    assert a == b and hash(a) == hash(b) == hash_ref(a)
    seeded = vars(a)
    assert list(seeded)[:len(ATOM_FIELDS)] == ATOM_FIELDS
    if "_memo_free" in seeded:
        assert seeded["_memo_free"] == free_vars_ref(a)
    if "_memo_time" in seeded:
        assert seeded["_memo_time"] == time_of_ref(a) == b.interval()
    if "_memo_hash" in seeded:
        assert seeded["_memo_hash"] == hash_ref(a)


MODEL_CASES = [(full, mw) for full in (False, True) for mw in range(1, 7)]


@pytest.mark.parametrize("full_span, max_worlds", MODEL_CASES)
def test_generated_models_equal_their_checked_rebuilds(full_span, max_worlds):
    for seed in range(40):
        m = gen_random_model(seed, max_worlds, full_span=full_span)
        worlds = []
        for wid in sorted(m.worlds):
            w = m.worlds[wid]
            for a in w.atoms:
                assert_atom_matches_its_rebuild(a)
                assert vars(a).keys() >= {"_memo_free", "_memo_time"}  # seeded
            rebuilt = World(wid, frozenset(map(rebuilt_atom, w.atoms)))
            assert rebuilt == w
            assert world_interval(w) == world_interval(rebuilt) == world_interval_ref(w)
            worlds.append(rebuilt)
        again = TLekModel(worlds, m.classes, {wid: m.n_of(wid) for wid in m.worlds})
        assert again == m
        assert save_model(again) == save_model(m)
        assert validate_model(m) == []


def recording(monkeypatch, module, name, sink):
    """Replace module.name by a wrapper that appends each result to sink."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    monkeypatch.setattr(module, name, wrapper)


def test_property1_draws_equal_their_checked_rebuilds(monkeypatch):
    drawn = []
    for name in ("gen_literal", "gen_vocab_atom", "_revise_pair"):
        recording(monkeypatch, suites, name, drawn)
    models = [gen_random_model(seed * 7 + 3) for seed in range(30)]
    report = suites.property1_suite(models, seed=5)
    assert report.ok and report.total > 0
    atoms = [a for d in drawn if d is not None for f in (d if isinstance(d, tuple) else (d,))
             for a in atoms_of(f)]
    model_atoms = {id(b) for m in models for w in m.worlds.values() for b in w.atoms}
    assert sum(id(a) not in model_atoms for a in atoms) > 100  # triggers and fresh atoms too
    for a in atoms:
        assert_atom_matches_its_rebuild(a)


@pytest.mark.parametrize("seed", range(20))
def test_mental_op_and_vocab_draws_equal_their_checked_rebuilds(seed):
    vocab = model_vocab(gen_random_model(seed))
    rng = random.Random(seed)
    revisions = 0
    for _ in range(60):
        op = gen_mental_op(rng, vocab, 10)
        revisions += isinstance(op, Revise)
        if isinstance(op, Revise):
            assert Revise(rebuilt_atom(op.trigger), rebuilt_atom(op.target)) == op
        for a in atoms_of(op) + [gen_vocab_atom(rng, vocab, 10), gen_vocab_atom(rng, [], 10)]:
            assert_atom_matches_its_rebuild(a)
    assert revisions > 0


# ---------------------------------------------------------------------------
# The other unchecked atoms: parser, agent, dynamics and to_model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "p(T,T+1,X)", "q(T-2,inf)", "r(0,T,a,Y)", "K(s(T1,T2) & t(3,4) -> u(T1+1,inf,b))",
])
def test_parsed_atoms_equal_their_checked_rebuilds(text):
    atoms = atoms_of(parse(text))
    variable = [a for a in atoms if free_vars_ref(a)]
    assert variable
    for a in variable:
        assert "_memo_hash" not in vars(a)  # no hash is seeded: it is computed on first use
    for a in atoms:
        assert_atom_matches_its_rebuild(a)


def test_agent_beliefs_equal_their_checked_rebuilds(monkeypatch):
    made = []
    recording(monkeypatch, agent, "_make_lit", made)
    result = run_scenario_file(SCENARIO_DIR / "umbrella.scn")
    assert result.ok
    derived = {str(lit) for lit in made}
    assert {"take(2,2,umbrella)", "go(3,inf,shops)"} <= derived
    for a in [lit.atom for lit in made] + [b.atom for b in result.state.wm]:
        assert vars(a).keys() >= {"_memo_free", "_memo_time"}  # seeded
        assert_atom_matches_its_rebuild(a)


@pytest.mark.parametrize("seed", range(10))
def test_residual_and_cut_atoms_equal_their_checked_rebuilds(seed):
    rng = random.Random(seed)
    vocab = model_vocab(gen_random_model(seed))
    ops = [Revise(parse("p(3,5,a)"), parse("p(0,inf,a)")), Revise(parse("q(0,2)"), parse("q(1,9)"))]
    ops += [op for op in (gen_mental_op(rng, vocab, 10) for _ in range(40)) if isinstance(op, Revise)]
    built = 0
    for op in ops:
        _, gained, lost = _effect(op)
        assert gained == residual_atoms(op)
        for a in gained + lost:
            assert vars(a).keys() >= {"_memo_free", "_memo_time"}  # seeded
            assert_atom_matches_its_rebuild(a)
            built += 1
    assert built >= 4


def test_to_model_atoms_equal_their_checked_rebuilds():
    st = perceive(init([]), parse("p(0,inf,a)"), 0)
    st = perceive(st, parse("~p(2,3,a)"), 1)
    st = perceive(st, parse("q(1,4)"), 2)
    atoms = to_model(st, 6).worlds["w0"].atoms
    assert len(atoms) == 3 + 6 + 10  # p(0,1,a), p(4,6,a) and q(1,4)
    for a in atoms:
        assert "_memo_hash" in vars(a) and "_memo_free" not in vars(a)  # only the hash is seeded
        assert_atom_matches_its_rebuild(a)


# ---------------------------------------------------------------------------
# Count guards: the generators skip the constructors' checks
# ---------------------------------------------------------------------------


def counting(monkeypatch, cls, name, seen):
    """Wrap cls.name so that each call appends its instance to seen."""
    original = getattr(cls, name)

    def wrapper(self, *args):
        seen.append(self)
        return original(self, *args)

    monkeypatch.setattr(cls, name, wrapper)


def test_generators_run_no_atom_or_world_checks(monkeypatch):
    seen = []
    counting(monkeypatch, Atom, "__post_init__", seen)
    counting(monkeypatch, World, "__post_init__", seen)
    for seed in range(40):
        vocab = model_vocab(gen_random_model(seed, 6))
        gen_random_model(seed, 6, full_span=True)
        candidates = sorted({a.pred for a in vocab} | {"zz"})
        rng = random.Random(seed)
        for _ in range(20):
            gen_vocab_atom(rng, vocab, 10)
            gen_vocab_atom(rng, [], 10)
            gen_literal(rng, vocab, 10)
            suites._revise_pair(rng, vocab, candidates)
    assert not seen, f"{len(seen)} checked constructions, e.g. {seen[:EXAMPLES]}"


def test_free_vars_builds_no_set_for_a_ground_atom(monkeypatch):
    calls = []
    counting(monkeypatch, TimeExpr, "vars", calls)
    ground = [Atom("p", TimeExpr.lit(1), TimeExpr.lit(2)),
              Atom("q", TimeExpr.lit(0), TimeExpr.lit(INF), ("a", "b"))]
    ground += [rebuilt_atom(a) for seed in range(10) for a in model_vocab(gen_random_model(seed))]
    for a in ground:
        assert "_memo_free" not in vars(a)  # fresh: free_vars computes it
        assert free_vars(a) == frozenset()
    assert not calls, f"{len(calls)} TimeExpr.vars calls, e.g. {calls[:EXAMPLES]}"
    # the counter does see a non-ground atom's bounds
    assert free_vars(Atom("p", TimeExpr.at("T"), TimeExpr.lit(2), ("X",))) == {"T", "X"}
    assert calls
