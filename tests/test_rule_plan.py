"""Compiled rule plans against the formula-level path they replace.

The chainer joins through each rule's plan: premise bounds evaluated as
(var, offset) pairs, candidates matched on their bounds and arguments, the
conclusion instantiated from the plan.  The slow path is the oracle:
``match_atom(substitute(p, binding), b)`` for a premise, with a
``BadInterval`` from ``substitute`` meaning no match, and
``substitute(conclusion, binding)`` for a conclusion, with ``BadInterval``
meaning the instance is skipped.  The patterns have shifted variables
(``T+k``, and ``T-k`` going below 0), repeated variables
(``p(T,T,X,X)``), ground bounds, and ``inf`` in bindings and in beliefs.
"""

import random
from pathlib import Path

import pytest

import reference_agent as ref
import tdlek.agent
import tdlek.formulas
from tdlek.agent import (
    BeliefLit,
    MalformedRule,
    Pattern,
    WorkingMemory,
    _bounds,
    _candidate_bindings,
    _instance,
    _match,
    run_scenario_file,
    rule_from_formula,
)
from tdlek.formulas import Atom, FormulaSyntaxError, match_atom, parse, substitute
from tdlek.intervals import INF, BadInterval, TimeExpr

ROOT = Path(__file__).resolve().parent.parent

TIME_VARS = ("T", "U")
OBJ_VARS = ("X", "Y")
OBJECTS = ("a", "b")


def _time_expr(rng) -> TimeExpr:
    if rng.random() < 0.25:
        return TimeExpr.lit(rng.choice((0, 1, 2, 3, 5, INF)))
    return TimeExpr.at(rng.choice(TIME_VARS), rng.randint(-2, 2))


def _pattern(rng) -> Atom:
    """A valid atom over p with time and object variables, possibly
    repeated; ground bounds are drawn until they form an interval."""
    while True:
        start, end = _time_expr(rng), _time_expr(rng)
        if rng.random() < 0.2:  # a repeated bound, as in p(T,T)
            end = TimeExpr.at(start.var, start.offset + rng.randint(0, 1)) if start.var else start
        args = tuple(rng.choice(OBJ_VARS + OBJECTS) for _ in range(rng.randint(0, 3)))
        try:
            return Atom("p", start, end, args)
        except BadInterval:
            continue


def _binding(rng) -> dict:
    binding = {}
    for var in TIME_VARS:
        if rng.random() < 0.6:
            binding[var] = rng.choice((0, 1, 2, 3, 4, INF))
    for var in OBJ_VARS:
        if rng.random() < 0.5:
            binding[var] = rng.choice(OBJECTS)
    return binding


def _ground(rng, arity: int) -> Atom:
    lo = rng.randint(0, 5)
    hi = INF if rng.random() < 0.25 else lo + rng.randint(0, 3)
    return Atom("p", TimeExpr.lit(lo), TimeExpr.lit(hi), tuple(rng.choice(OBJECTS) for _ in range(arity)))


def _instance_of(rng, pat: Atom):
    """pat under a random binding of all its variables, so that it
    matches; None when that makes no atom."""
    binding = {var: rng.choice((0, 1, 2, 3, 4, INF)) for var in TIME_VARS}
    binding.update((var, rng.choice(OBJECTS)) for var in OBJ_VARS)
    try:
        return substitute(pat, binding)
    except BadInterval:
        return None


def _slow_match(pat: Atom, binding: dict, ground: Atom):
    try:
        m = match_atom(substitute(pat, binding), ground)
    except BadInterval:
        return None
    return None if m is None else {**binding, **m}


def _plan_match(pat: Atom, binding: dict, ground: Atom):
    p = Pattern.of(pat)
    bounds = _bounds(p, binding)
    if bounds is None:
        return None
    m = _match(p, *bounds, binding, ground)
    return None if m is None else {**binding, **m}


def test_plan_match_agrees_with_substitute_and_match_atom():
    rng = random.Random(13)
    outcomes = {"match": 0, "no match": 0, "no atom": 0}
    for _ in range(20_000):
        pat, binding = _pattern(rng), _binding(rng)
        ground = _instance_of(rng, pat) if rng.random() < 0.5 else None
        if ground is None:
            arity = len(pat.args) if rng.random() < 0.9 else rng.randint(0, 3)
            ground = _ground(rng, arity)
        want = _slow_match(pat, binding, ground)
        assert _plan_match(pat, binding, ground) == want, (pat, binding, ground)
        if _bounds(Pattern.of(pat), binding) is None:
            outcomes["no atom"] += 1
        else:
            outcomes["match" if want is not None else "no match"] += 1
    # every outcome is common enough to be tested
    assert min(outcomes.values()) > 1_000, outcomes


def test_plan_conclusion_agrees_with_substitute():
    rng = random.Random(14)
    skipped = 0
    for _ in range(20_000):
        pat = _pattern(rng)
        binding = _binding(rng)
        for var in TIME_VARS:
            binding.setdefault(var, rng.choice((0, 1, INF)))
        for var in OBJ_VARS:
            binding.setdefault(var, rng.choice(OBJECTS))
        try:
            want = substitute(pat, binding)
        except BadInterval:
            want = None
        got = _instance(Pattern.of(pat), binding)
        if want is None:
            assert got is None, (pat, binding)
            skipped += 1
        else:
            assert got == (want.start.offset, want.end.offset, want.args), (pat, binding)
    assert skipped > 1_000


def _random_rule(rng):
    """A rule over p, q and r whose premises shift, repeat and box their
    variables; drawn until rule_from_formula accepts it."""

    def te(names) -> str:
        roll = rng.random()
        if roll < 0.2:
            return rng.choice(("0", "1", "3", "inf"))
        var = rng.choice(names)
        k = rng.randint(-2, 2)
        return var if k == 0 else f"{var}{k:+d}"

    while True:
        premises = []
        for _ in range(rng.randint(1, 3)):
            args = ",".join(rng.choice(OBJ_VARS + OBJECTS) for _ in range(rng.randint(0, 2)))
            atom = f"{rng.choice('pqr')}({te(TIME_VARS)},{te(TIME_VARS)}{',' if args else ''}{args})"
            if rng.random() < 0.25:
                atom = f"box[{te(TIME_VARS)},{te(TIME_VARS)}] {atom}"
            premises.append(atom)
        args = ",".join(rng.choice(OBJ_VARS + OBJECTS) for _ in range(rng.randint(0, 2)))
        concl = f"s({te(TIME_VARS)},{te(TIME_VARS)}{',' if args else ''}{args})"
        try:
            return rule_from_formula(parse(f"K({' & '.join(premises)} -> {concl})"))
        except (FormulaSyntaxError, MalformedRule):
            continue


def _random_memory(rng, rule) -> WorkingMemory:
    """Random beliefs of p, q and r, and the rule's premises under up to
    three random bindings, so that many joins complete."""
    memory = WorkingMemory()
    for _ in range(rng.randint(0, 10)):
        pred = rng.choice("pqr")
        atom = _ground(rng, rng.randint(0, 2))
        memory.insert(BeliefLit(Atom(pred, atom.start, atom.end, atom.args), rng.random() < 0.85))
    for _ in range(rng.randint(0, 3)):
        binding = {var: rng.choice((0, 1, 2, 3, 4, INF)) for var in TIME_VARS}
        binding.update((var, rng.choice(OBJECTS)) for var in OBJ_VARS)
        for p in rule.premises:
            try:
                memory.insert(BeliefLit(substitute(p.atom, binding)))
            except BadInterval:
                pass
    return memory


def test_candidate_bindings_agree_with_reference_join():
    """The plan's join finds exactly the bindings of the reference join,
    and the joins seeded at each held belief and premise find them too,
    each supported by held beliefs."""
    rng = random.Random(15)
    found_some = 0
    for _ in range(2_500):
        rule = _random_rule(rng)
        memory = _random_memory(rng, rule)
        state = ref.State(rules=(rule,), wm=memory.beliefs())
        want = {tuple(sorted(b.items())) for b in ref._candidate_bindings(state, rule)}
        full = _candidate_bindings(memory, rule)
        assert set(full) == want, rule
        seeded = {}
        for b in memory.beliefs():
            if not b.positive:
                continue
            for at, p in enumerate(rule.plan.premises):
                if p.pred == b.atom.pred:
                    seeded.update(_candidate_bindings(memory, rule, b, at))
        assert set(seeded) == want, rule
        for supports in list(full.values()) + list(seeded.values()):
            assert all(map(memory.holds, supports))
        found_some += bool(want)
    assert found_some > 300


# ---------------------------------------------------------------------------
# The chainer builds no formula nodes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", ["scenarios/umbrella.scn", "tests/golden/gen040.scn"])
def test_infer_fixpoint_calls_no_substitute_match_or_validation(monkeypatch, path):
    calls = {"substitute": 0, "match_atom": 0, "Atom.__post_init__": 0, "BeliefLit.__post_init__": 0}
    inside = [False]

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += inside[0]
            return original(*args, **kwargs)

        return wrapper

    for module in (tdlek.formulas, tdlek.agent):
        for name in ("substitute", "match_atom"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(Atom, "__post_init__", counted("Atom.__post_init__", Atom.__post_init__))
    monkeypatch.setattr(
        BeliefLit, "__post_init__", counted("BeliefLit.__post_init__", BeliefLit.__post_init__)
    )
    infers = []
    original_infer = tdlek.agent.infer_fixpoint

    def traced_infer(st, budget=10_000):
        inside[0] = True
        try:
            out = original_infer(st, budget)
        finally:
            inside[0] = False
        infers.append(len(out.trace) - len(st.trace))
        return out

    monkeypatch.setattr(tdlek.agent, "infer_fixpoint", traced_infer)
    result = run_scenario_file(ROOT / path)
    assert result.ok
    assert infers and sum(infers) > 0  # the infers ran and recorded firings
    assert calls == dict.fromkeys(calls, 0)
    # the wrappers do count: the parser still validates every atom
    inside[0] = True
    parse("p(1,2)")
    assert calls["Atom.__post_init__"] == 1
