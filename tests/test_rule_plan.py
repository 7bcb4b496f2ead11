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

The plan also fixes a rule's identity for ``K`` queries and the order of
its agenda; the reference agent's formula-level key and binding order
are the oracles for those.
"""

import random
import re
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
    _canonical_rule_key,
    _match,
    query,
    run_scenario_file,
    rule_from_formula,
)
from tdlek.formulas import Atom, FormulaSyntaxError, match_atom, parse, print_formula, substitute
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


def _substituted(atom: Atom, binding: dict):
    """(start, end, args) of substitute(atom, binding), None where that
    raises BadInterval."""
    try:
        a = substitute(atom, binding)
    except BadInterval:
        return None
    return a.start.offset, a.end.offset, a.args


def _atom_under(p: Pattern, binding: dict):
    """(start, end, args) of the pattern under a binding of all its
    variables, None where that is no atom (_bounds)."""
    bounds = _bounds(p, binding)
    return None if bounds is None else (*bounds, tuple(binding.get(x, x) for x in p.args))


def test_plan_conclusion_agrees_with_substitute():
    """A join emits its conclusion's instance as substitute builds it, or
    None where substitute raises BadInterval.  Each random pattern is the
    conclusion of a rule whose premises bind T and U by their ends and X
    and Y by their arguments; the join is seeded at the first premise of
    a store that holds the premises under one random binding."""
    rng = random.Random(14)
    skipped = 0
    for _ in range(2_000):
        pat = _pattern(rng)
        rule = rule_from_formula(parse(f"K(t(0,T) & u(0,U) & o(0,0,X,Y) -> {print_formula(pat)})"))
        for _ in range(10):
            binding = _binding(rng)
            for var in TIME_VARS:
                binding.setdefault(var, rng.choice((0, 1, INF)))
            for var in OBJ_VARS:
                binding.setdefault(var, rng.choice(OBJECTS))
            zero = TimeExpr.lit(0)
            seed = BeliefLit(Atom("t", zero, TimeExpr.lit(binding["T"])))
            memory = WorkingMemory()
            for b in (seed, BeliefLit(Atom("u", zero, TimeExpr.lit(binding["U"]))),
                      BeliefLit(Atom("o", zero, zero, (binding["X"], binding["Y"])))):
                memory.insert(b)
            [(_, items, _, got)] = rule.joins[0](memory, seed)
            assert dict(items) == binding
            want = _substituted(pat, binding)
            assert got == want, (pat, binding)
            skipped += want is None
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


def _random_memory(rng, rule, bindings: int = 3) -> WorkingMemory:
    """Random beliefs of p, q and r, and the rule's premises under up to
    the given number of random bindings, so that many joins complete."""
    memory = WorkingMemory()
    for _ in range(rng.randint(0, 10)):
        pred = rng.choice("pqr")
        atom = _ground(rng, rng.randint(0, 2))
        memory.insert(BeliefLit(Atom(pred, atom.start, atom.end, atom.args), rng.random() < 0.85))
    for _ in range(rng.randint(0, bindings)):
        binding = {var: rng.choice((0, 1, 2, 3, 4, INF)) for var in TIME_VARS}
        binding.update((var, rng.choice(OBJECTS)) for var in OBJ_VARS)
        for p in rule.premises:
            try:
                memory.insert(BeliefLit(substitute(p.atom, binding)))
            except BadInterval:
                pass
    return memory


SPREAD_TIMES = (INF, *range(0, 60, 3))


def _spread_memory(rng, rule, bindings: int = 4) -> WorkingMemory:
    """The rule's premises under up to the given number of random bindings
    whose times are spread over 0-57 and inf, so that few instances merge;
    a binding is redrawn, up to 10 times, until every premise
    instantiates, so that the joins often complete."""
    memory = WorkingMemory()
    for _ in range(rng.randint(1, bindings)):
        for _ in range(10):
            binding = {var: rng.choice(SPREAD_TIMES) for var in TIME_VARS}
            binding.update((var, rng.choice(OBJECTS)) for var in OBJ_VARS)
            instances = [_atom_under(p, binding) for p in rule.plan.premises]
            if None not in instances:
                for p, (lo, hi, args) in zip(rule.plan.premises, instances):
                    memory.insert(BeliefLit(Atom(p.pred, TimeExpr.lit(lo), TimeExpr.lit(hi), args)))
                break
        else:
            break  # the premises seldom instantiate together
    return memory


def _reference_bindings(memory, rule) -> set:
    """The reference join's bindings, each as its sorted pairs."""
    state = ref.State(rules=(rule,), wm=memory.beliefs())
    return {tuple(sorted(b.items())) for b in ref._candidate_bindings(state, rule)}


def _seeded_joins(memory, rule):
    """Each join seeded at a held positive belief and a premise of its
    predicate, as (premise index, bindings found), as the chainer makes
    them for a call that starts from the empty store; the bindings found
    map each binding's sorted pairs to its (agenda key, supports)."""
    for b in sorted(memory.beliefs(), key=BeliefLit.key):
        if b.positive:
            for at, p in enumerate(rule.plan.premises):
                if p.pred == b.atom.pred:
                    found = rule.joins[at](memory, b)
                    yield at, {items: (key, supports) for key, items, supports, _ in found}


def test_candidate_bindings_agree_with_reference_join():
    """The joins seeded at each held belief and premise find together
    exactly the bindings of the reference join, each supported by held
    beliefs: at a premise matched, by its instance; at a premise tested
    by coverage, by a belief spanning it.  Each rule is joined over two
    memories: random beliefs with a few premise instances, and premise
    instances spread apart, where far more multi-premise joins complete
    (the second is drawn from its own stream)."""
    rng, spread_rng = random.Random(15), random.Random(115)
    found_some = {"random": 0, "spread": 0}  # rules with a binding
    complete = {"random": 0, "spread": 0}  # multi-premise rules with a binding
    narrowed = {"random": 0, "spread": 0}  # seeds at a narrowed premise with a binding
    for _ in range(2_500):
        rule = _random_rule(rng)
        plan = rule.plan
        memories = {"random": _random_memory(rng, rule), "spread": _spread_memory(spread_rng, rule)}
        for shape, memory in memories.items():
            want = _reference_bindings(memory, rule)
            seeded = {}
            for at, found in _seeded_joins(memory, rule):
                seeded.update(found)
                narrowed[shape] += plan.narrow[at] is not None and bool(found)
            assert set(seeded) == want, rule
            for items, (_, supports) in seeded.items():
                assert memory.holds(*supports)
                for p, covers, b in zip(plan.premises, plan.covering, supports):
                    lo, hi, args = _atom_under(p, dict(items))
                    assert b.positive and (b.atom.pred, b.atom.args) == (p.pred, args), rule
                    b_lo, b_hi = b.atom.start.offset, b.atom.end.offset
                    assert (b_lo <= lo and hi <= b_hi) if covers else (b_lo, b_hi) == (lo, hi)
            found_some[shape] += bool(want)
            complete[shape] += len(plan.premises) > 1 and bool(want)
    assert found_some["random"] > 300, found_some
    # the floors that the random memories alone miss
    assert complete["spread"] > 400, complete
    assert narrowed["spread"] > 140, narrowed


def test_seeded_joins_find_exactly_the_bindings_their_seed_supports():
    """A join seeded at a belief and premise finds the complete bindings
    under which that premise's instance is the belief, or, for a premise
    tested by coverage, lies inside it with its arguments: those of the
    reference join, whatever the seed's narrowing of an earlier premise
    skips."""
    rng = random.Random(16)
    narrowed = 0
    for _ in range(1_500):
        rule = _random_rule(rng)
        memory = _random_memory(rng, rule)
        for _ in range(rng.randint(0, 6)):  # instances far apart, so that few merge
            binding = {var: rng.choice(SPREAD_TIMES) for var in TIME_VARS}
            binding.update((var, rng.choice(OBJECTS)) for var in OBJ_VARS)
            for p in rule.premises:
                try:
                    memory.insert(BeliefLit(substitute(p.atom, binding)))
                except BadInterval:
                    pass
        full = _reference_bindings(memory, rule)
        plan = rule.plan
        for b in memory.beliefs():
            if not b.positive:
                continue
            lo, hi, args = b.atom.start.offset, b.atom.end.offset, b.atom.args
            for at, p in enumerate(plan.premises):
                if p.pred != b.atom.pred:
                    continue
                want = set()
                for items in full:
                    i_lo, i_hi, i_args = _atom_under(p, dict(items))
                    if plan.covering[at]:
                        supported = i_args == args and lo <= i_lo and i_hi <= hi
                    else:
                        supported = (i_lo, i_hi, i_args) == (lo, hi, args)
                    if supported:
                        want.add(items)
                found = rule.joins[at](memory, b)
                assert {items for _, items, _, _ in found} == want, (rule, b, at)
                narrowed += plan.narrow[at] is not None and bool(want)
    assert narrowed > 40


def test_joins_emit_each_binding_with_its_key_and_instance():
    """Each binding a join emits comes with its agenda key, its values in
    the plan's variable order, and its conclusion's instance, None where
    the conclusion makes no atom: what substitute builds from the rule's
    conclusion under the binding, or None where it raises BadInterval."""
    rng = random.Random(18)
    emitted = {"instance": 0, "no atom": 0}
    for _ in range(1_000):
        rule = _random_rule(rng)
        memory = _spread_memory(rng, rule)
        for b in memory.beliefs():
            for at, p in enumerate(rule.plan.premises):
                if not b.positive or p.pred != b.atom.pred:
                    continue
                for key, items, _, instance in rule.joins[at](memory, b):
                    binding = dict(items)
                    assert items == tuple(sorted(binding.items()))
                    assert key == tuple(binding[x] for x in rule.plan.variables)
                    assert instance == _substituted(rule.conclusion, binding)
                    emitted["no atom" if instance is None else "instance"] += 1
    assert min(emitted.values()) > 300, emitted


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
    # the wrappers do count: the Atom constructor validates
    inside[0] = True
    Atom("p", TimeExpr.lit(1), TimeExpr.lit(2))
    assert calls["Atom.__post_init__"] == 1


# ---------------------------------------------------------------------------
# K-query identity and agenda order read the plan
# ---------------------------------------------------------------------------


def _te_text(te: tuple) -> str:
    var, k = te
    if var is None:
        return "inf" if k == INF else str(k)
    return var if k == 0 else f"{var}{k:+d}"


def _atom_text(pred: str, start: tuple, end: tuple, args: tuple) -> str:
    return f"{pred}({','.join([_te_text(start), _te_text(end), *args])})"


def _rule_text(parts) -> str:
    premises, conclusion, positive = parts
    texts = [
        ("" if box is None else f"box[{_te_text(box[0])},{_te_text(box[1])}] ") + _atom_text(*atom)
        for box, *atom in premises
    ]
    return f"K({' & '.join(texts)} -> {'' if positive else '~'}{_atom_text(*conclusion)})"


def _rule_parts(rng):
    """A rule as (premises, conclusion, positive), each premise (box, pred,
    start, end, args) and each bound a (var, offset) pair; the rules are
    small enough that two drawn alike are common."""

    def te() -> tuple:
        if rng.random() < 0.2:
            return None, rng.choice((0, 1, INF))
        return rng.choice(TIME_VARS), rng.randint(0, 1)

    def args() -> tuple:
        return tuple(rng.choice(OBJ_VARS + OBJECTS[:1]) for _ in range(rng.randint(0, 1)))

    premises = [
        ((te(), te()) if rng.random() < 0.2 else None, rng.choice("pq"), te(), te(), args())
        for _ in range(rng.randint(1, 2))
    ]
    return premises, ("s", te(), te(), args()), rng.random() < 0.8


def _renamed(parts, names: dict):
    """parts with each variable x renamed to names.get(x, x)."""

    def te(bound):
        var, k = bound
        return (var if var is None else names.get(var, var)), k

    def atom(pred, start, end, args):
        return pred, te(start), te(end), tuple(names.get(x, x) for x in args)

    premises, conclusion, positive = parts
    return (
        [(box and (te(box[0]), te(box[1])), *atom(*rest)) for box, *rest in premises],
        atom(*conclusion),
        positive,
    )


def _variant(rng, parts):
    """A rule like parts: renamed (bijectively, or merging two variables),
    premises swapped, one bound shifted, a box toggled, the polarity
    flipped, or an independent draw."""
    premises, conclusion, positive = parts
    kind = rng.choice(("rename", "merge", "swap", "shift", "box", "polarity", "fresh"))
    if kind == "rename":
        fresh = rng.sample(("T", "U", "S1", "Tb"), 2), rng.sample(("X", "Y", "Z", "Xb"), 2)
        return _renamed(parts, dict(zip(TIME_VARS + OBJ_VARS, fresh[0] + fresh[1])))
    if kind == "merge":
        return _renamed(parts, {"U": "T"} if rng.random() < 0.5 else {"Y": "X"})
    if kind == "swap":
        return premises[::-1], conclusion, positive
    if kind == "shift":  # the end of an atom or of a box, if any
        i = rng.randrange(len(premises) + 1)
        box, pred, start, end, args = premises[i] if i < len(premises) else (None, *conclusion)
        shift = lambda te: (te[0], te[1] if te == (None, INF) else te[1] + 1)
        if box and rng.random() < 0.5:
            box = box[0], shift(box[1])
        else:
            end = shift(end)
        if i == len(premises):
            return premises, (pred, start, end, args), positive
        premises = premises[:i] + [(box, pred, start, end, args)] + premises[i + 1 :]
        return premises, conclusion, positive
    if kind == "box":
        i = rng.randrange(len(premises))
        box, *atom = premises[i]
        box = None if box else ((None, 0), ("T", 0))
        return premises[:i] + [(box, *atom)] + premises[i + 1 :], conclusion, positive
    if kind == "polarity":
        return premises, conclusion, not positive
    return _rule_parts(rng)


def _rule_or_none(parts):
    try:
        return rule_from_formula(parse(_rule_text(parts)))
    except (FormulaSyntaxError, MalformedRule):
        return None


def test_canonical_rule_key_agrees_with_reference_on_equality():
    """Two rules get equal plan keys exactly when the reference's renamed
    atoms are equal: over renamings, merged variables, swapped premises,
    shifted bounds, toggled boxes, flipped polarity and unrelated rules."""
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}
    for _ in range(4_000):
        parts = _rule_parts(rng)
        a, b = _rule_or_none(parts), _rule_or_none(_variant(rng, parts))
        if a is None or b is None:
            continue
        want = ref._canonical_rule_key(a) == ref._canonical_rule_key(b)
        assert (_canonical_rule_key(a) == _canonical_rule_key(b)) == want, (a.text, b.text)
        outcomes[want] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_agenda_key_orders_bindings_as_the_reference():
    """Sorting a rule's candidate bindings by the agenda keys their joins
    emit, their values in the plan's variable order, gives the reference's
    order: time values, then object values, each by variable name.  The
    object variables are renamed to sort before the time variables, so
    that order is not the names'; the renamed rule is joined over the
    memory drawn for the rule."""
    rng = random.Random(16)
    names = {"X": "A", "Y": "B"}
    compared = 0
    for _ in range(2_000):
        rule = _random_rule(rng)
        memory = _random_memory(rng, rule, bindings=8)
        rule = rule_from_formula(parse(re.sub(r"\b[XY]\b", lambda m: names[m[0]], rule.text)))
        keys = {}
        for _, found in _seeded_joins(memory, rule):
            keys.update((items, key) for items, (key, _) in found.items())
        found = list(keys)
        rng.shuffle(found)
        key = keys.get
        assert len(set(map(key, found))) == len(found), rule
        want = sorted(found, key=lambda items: ref._binding_key(dict(items)))
        assert sorted(found, key=key) == want, rule
        compared += len(found) > 1
    assert compared > 100


def test_k_query_builds_no_atoms(monkeypatch):
    """A K query compares the rules' plans, and so validates no atom."""
    st = run_scenario_file(ROOT / "scenarios/umbrella.scn").state
    formulas = {
        "K(rain(T1,T2) -> take(T1,T2,umbrella))": True,
        "K(rain(A,B) & take(A,B,umbrella) -> go(A+1,inf,shops))": True,
        "K(rain(A,B) & take(A,B,umbrella) -> go(A+2,inf,shops))": False,
        "~K(rain(T,U) -> take(T,U,coat)) & K(rain(U,T) -> take(U,T,umbrella))": True,
    }
    parsed = {parse(text): want for text, want in formulas.items()}
    calls = [0]
    original = Atom.__post_init__

    def counted(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Atom, "__post_init__", counted)
    assert {f: query(st, f) for f in parsed} == parsed
    assert calls[0] == 0
    Atom("p", TimeExpr.lit(1), TimeExpr.lit(2))  # the counter does count
    assert calls[0] == 1


def test_k_query_renames_each_held_rule_once(monkeypatch):
    """A held rule's K-query key is computed once and kept on the rule, so
    a second K query renames only the rule it asks about."""
    st = run_scenario_file(ROOT / "scenarios/umbrella.scn").state
    assert len(st.rules) > 1
    keyed = []
    monkeypatch.setattr(tdlek.agent, "_canonical_rule_key",
                        lambda rule: keyed.append(rule) or _canonical_rule_key(rule))
    f = parse("K(rain(A,B) & take(A,B,umbrella) -> go(A+2,inf,shops))")
    assert not query(st, f)
    keyed.clear()
    assert not query(st, f)
    assert [rule.text for rule in keyed] == [print_formula(f)]


def test_k_query_keys_only_rules_with_the_asked_conclusion(monkeypatch):
    """The K-query key holds the conclusion's predicate and polarity, so a
    first K query keys the asked rule and only the held rules that share
    both: of gen110's 8 rules, one concludes u1b, and one concludes m0m,
    another ~m0m."""
    st = run_scenario_file(ROOT / "tests/golden/gen110.scn").state
    assert len(st.rules) == 8
    keyed = []
    monkeypatch.setattr(tdlek.agent, "_canonical_rule_key",
                        lambda rule: keyed.append(rule) or _canonical_rule_key(rule))
    for r in st.rules:
        r.__dict__.pop("key", None)  # the run's own K queries keyed some
    f = parse("K(u1a(S,E,Y) -> u1b(S,E,Y))")
    assert query(st, f)
    assert [rule.text for rule in keyed] == [print_formula(f), "K(u1a(T1,T2,X) -> u1b(T1,T2,X))"]
    keyed.clear()
    assert not query(st, parse("K(m0v(T,inf,X) -> m0m(T,inf,X))"))
    assert [rule.text for rule in keyed] == [
        "K(m0v(T,inf,X) -> m0m(T,inf,X))",
        "K(m0a(T,T,X) -> m0m(T+1,inf,X))",
    ]
