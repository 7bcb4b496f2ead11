"""Working-memory engine: perception, chaining, restructuring, scenarios."""

import gc
import itertools
import json
import pickle
import re
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import tdlek.agent
from tdlek.intervals import INF, TimeExpr
from tdlek.formulas import Atom, NonGround, parse
from tdlek.models import check, validate_model
from tdlek.agent import (
    BudgetExhausted,
    Conjoined,
    Fired,
    MalformedRule,
    NoSuchBelief,
    ScenarioError,
    UnsupportedQuery,
    WorkingMemory,
    conjoin,
    infer_fixpoint,
    init,
    perceive,
    query,
    replay,
    revise,
    rule_from_formula,
    run_scenario,
    run_scenario_file,
    to_model,
    trace_json_lines,
    trace_records,
)


def atom(pred, lo, hi, *args):
    return Atom(pred, TimeExpr.lit(lo), TimeExpr.lit(hi), tuple(args))


UMBRELLA_RULES = [
    "K(rain(T1,T2) -> take(T1,T2,umbrella))",
    "K(rain(T1,T2) & take(T1,T2,umbrella) -> go(T1+1,inf,shops))",
]

MARRIAGE_RULES = [
    "K(marryA(T,T) -> married(T+1,inf))",
    "K(divorceA(T,T) -> divorced(T+1,inf))",
    "K(married(T,inf) -> ~divorced(T,inf))",
    "K(divorced(T,inf) -> ~married(T,inf))",
]


def wm_strings(state):
    return sorted(str(b) for b in state.wm)


# ---------------------------------------------------------------------------
# init and rules
# ---------------------------------------------------------------------------


def test_init_builds_rules_and_empty_memory():
    st = init(UMBRELLA_RULES)
    assert len(st.rules) == 2
    assert st.wm == frozenset()
    assert st.clock == 0
    assert init([]).rules == ()
    # a rule may also be given parsed, and prints as its text
    assert init(map(parse, UMBRELLA_RULES)).rules == st.rules
    assert list(map(str, st.rules)) == UMBRELLA_RULES


def test_unsafe_rule_rejected():
    with pytest.raises(MalformedRule):
        init(["K(p(T,T) -> q(T,Z,box1))"])  # Z appears only in the conclusion
    with pytest.raises(MalformedRule):
        init(["K(B p(1,1) -> q(1,1))"])  # premises must be atoms
    with pytest.raises(MalformedRule):
        init(["K(p(1,1))"])  # not an implication


@pytest.mark.parametrize(
    "rule",
    ["K(p(T,T) -> ~~q(T,T))", "K(p(T,T) -> q(T,T) & r(T,T))"],
)
def test_conclusion_must_be_a_literal(rule):
    with pytest.raises(MalformedRule, match="conclusion must be a literal"):
        rule_from_formula(parse(rule))


@pytest.mark.parametrize(
    "rule, var",
    [
        ("K(p(T,T) & q(0,0,T) -> r(0,0))", "T"),
        ("K(p(T,T) -> r(0,0,T))", "T"),
        ("K(q(0,0,X) & p(X,X) -> r(0,0))", "X"),
        ("K(box[0,X] p(0,0,X) -> r(0,0))", "X"),
    ],
)
def test_variable_used_as_time_and_object_rejected(rule, var):
    with pytest.raises(MalformedRule, match=f"variables \\['{var}'\\] used both"):
        rule_from_formula(parse(rule))


def test_boxed_premise_accepted():
    rule = rule_from_formula(parse("K(box[T,T+2] p(T,T) -> q(T,T))"))
    assert rule.premises[0].box is not None


# ---------------------------------------------------------------------------
# perceive
# ---------------------------------------------------------------------------


def test_perceive_adds_belief_and_moves_clock():
    st = perceive(init([]), parse("raining(2,2)"), 2)
    assert wm_strings(st) == ["raining(2,2)"]
    assert st.clock == 2


def test_perceive_duplicate_is_a_no_op_on_memory():
    st = perceive(init([]), parse("p(1,2)"), 1)
    st2 = perceive(st, parse("p(1,2)"), 2)
    assert st2.wm == st.wm


def test_perceive_merges_adjacent_same_polarity():
    st = init([])
    st = perceive(st, parse("p(1,2)"), 1)
    st = perceive(st, parse("p(3,4)"), 3)
    assert wm_strings(st) == ["p(1,4)"]
    st = perceive(st, parse("p(9,9)"), 9)
    assert wm_strings(st) == ["p(1,4)", "p(9,9)"]


def test_perceive_contradiction_restructures_first():
    st = perceive(init([]), parse("p(0,9)"), 0)
    st = perceive(st, parse("~p(4,5)"), 4)
    assert wm_strings(st) == ["p(0,3)", "p(6,9)", "~p(4,5)"]


def test_perceive_rejects_a_literal_with_variables():
    for text in ("p(T,1)", "~p(1,1,X)"):
        body = text.lstrip("~")
        with pytest.raises(NonGround, match=re.escape(f"belief literal {body} is not ground")):
            perceive(init([]), parse(text), 1)


@pytest.mark.parametrize("text", ["p(1,1) & q(1,1)", "~~p(1,1)"])
def test_perceive_rejects_non_literal(text):
    with pytest.raises(ValueError, match="not a literal"):
        perceive(init([]), parse(text), 1)


def test_perceive_rejects_time_travel():
    st = perceive(init([]), parse("p(5,5)"), 5)
    with pytest.raises(ValueError):
        perceive(st, parse("q(1,1)"), 1)
    for at in (INF, -1, 5.5, True, "6"):
        with pytest.raises(ValueError, match=re.escape(f"perception time must be a finite natural, got {at!r}")):
            perceive(st, parse("q(6,6)"), at)


# ---------------------------------------------------------------------------
# forward chaining
# ---------------------------------------------------------------------------


def test_umbrella_chain():
    st = perceive(init(UMBRELLA_RULES), parse("rain(2,2)"), 2)
    st = infer_fixpoint(st)
    assert wm_strings(st) == ["go(3,inf,shops)", "rain(2,2)", "take(2,2,umbrella)"]


def test_marriage_restructuring():
    st = init(MARRIAGE_RULES)
    st = infer_fixpoint(perceive(st, parse("marryA(5,5)"), 5))
    assert "married(6,inf)" in wm_strings(st)
    st = infer_fixpoint(perceive(st, parse("divorceA(8,8)"), 8))
    assert wm_strings(st) == [
        "divorceA(8,8)",
        "divorced(9,inf)",
        "married(6,8)",
        "marryA(5,5)",
    ]


def test_umbrella_chaining_work_is_linear(monkeypatch):
    # n point perceptions two apart, then one infer: each belief is joined
    # once per premise of its predicate, so the matching and coverage work
    # stays linear in n (a rescan after every firing made it quadratic).
    # The join matches beliefs with _match and finds covering beliefs
    # with WorkingMemory.spanning; both are counted.
    n = 480
    st = init(UMBRELLA_RULES)
    for i in range(n):
        st = perceive(st, atom("rain", 2 * i, 2 * i), 2 * i)
    calls = {"_match": 0, "spanning": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(tdlek.agent, "_match", counted("_match", tdlek.agent._match))
    monkeypatch.setattr(WorkingMemory, "spanning", counted("spanning", WorkingMemory.spanning))
    out = infer_fixpoint(st)
    assert sum(isinstance(ev, Fired) for ev in out.trace) == n + 1
    assert len(out.wm) == 2 * n + 1
    assert n <= calls["_match"] <= 4 * n
    assert n <= calls["spanning"] <= 8 * n


@pytest.mark.parametrize("n", [120, 240, 480])
def test_umbrella_incremental_infer_work_is_independent_of_memory(monkeypatch, n):
    # A second infer after 20 more rains joins each new take belief, a
    # seed tested by coverage at the second rule's take premise, with the
    # rains inside it only: 20 matches per seed kind, whatever n (each
    # new take walked all n + 20 rains before the join narrowed them).
    st = init(UMBRELLA_RULES)
    for i in range(n):
        st = perceive(st, atom("rain", 2 * i, 2 * i), 2 * i)
    st = infer_fixpoint(st)
    for i in range(n, n + 20):
        st = perceive(st, atom("rain", 2 * i, 2 * i), 2 * i)
    calls = [0]
    original = tdlek.agent._match

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(tdlek.agent, "_match", counted)
    out = infer_fixpoint(st)
    assert len(out.wm) == 2 * (n + 20) + 1
    assert 20 <= calls[0] <= 60


@pytest.mark.parametrize("others", [10, 160])
def test_incremental_infer_compares_only_the_edited_predicates(others, monkeypatch):
    # 20 rains perceived after an infer, in a store that also holds two
    # groups of each of the other predicates: the next infer compares the
    # store with its chaining record's by looking up only rain's group,
    # the one predicate edited since, however many others there are.
    k = 20
    st = init(UMBRELLA_RULES)
    for j in range(others):
        for obj in ("a", "b"):
            st = perceive(st, atom(f"o{j}", 0, 0, obj), 0)
    st = infer_fixpoint(perceive(st, atom("rain", 0, 0), 0))
    for i in range(1, k + 1):
        st = perceive(st, atom("rain", 2 * i, 2 * i), 2 * i)
    looked_up, comparing = [0], [False]

    class Counting(dict):
        def get(self, *args):
            looked_up[0] += comparing[0]
            return super().get(*args)

    # each groups dict is wrapped in place in every store that holds it,
    # so the two stores still share the dicts they shared
    old = st.chaining.memory
    for pred, groups in list(old.preds.items()):
        old.preds[pred] = Counting(groups)
        if st.memory.preds.get(pred) is groups:
            st.memory.preds[pred] = old.preds[pred]
    compare = WorkingMemory.added_since

    def counted(new, since):
        # only the comparison's lookups count, not the joins' that follow
        comparing[0] = True
        added = list(compare(new, since))
        comparing[0] = False
        return iter(added)

    monkeypatch.setattr(WorkingMemory, "added_since", counted)
    out = infer_fixpoint(st)
    assert looked_up[0] == 1
    assert len(out.wm) == len(st.wm) + k
    assert query(out, parse(f"B(take({2 * k},{2 * k},umbrella))"))


def test_umbrella_late_rule_infer_work_is_linear(monkeypatch):
    # The first rule, infer, then the second rule added and infer again:
    # the chaining record was made for other rules, so the last infer
    # joins every held belief from the empty store.  Each rain is matched
    # at both rules' rain premises and each take seeds the second rule,
    # whose window holds its one rain: 3n matches, and a coverage test
    # per rain and per conclusion.
    n = 480
    st = init(UMBRELLA_RULES[:1])
    for i in range(n):
        st = perceive(st, atom("rain", 2 * i, 2 * i), 2 * i)
    st = infer_fixpoint(st)
    st = replace(st, rules=st.rules + init(UMBRELLA_RULES[1:]).rules)
    calls = {"_match": 0, "spanning": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(tdlek.agent, "_match", counted("_match", tdlek.agent._match))
    monkeypatch.setattr(WorkingMemory, "spanning", counted("spanning", WorkingMemory.spanning))
    out = infer_fixpoint(st)
    assert [str(ev.conclusion) for ev in out.trace[len(st.trace) :]] == ["go(1,inf,shops)"]
    assert len(out.wm) == 2 * n + 1
    assert n <= calls["_match"] <= 4 * n
    assert n <= calls["spanning"] <= 8 * n


GEN110 = Path(__file__).resolve().parent / "golden" / "gen110.scn"


def test_firings_keep_the_literal_they_make(monkeypatch):
    # A firing makes its conclusion once, and the store holds that very
    # literal when nothing merges with it; a perception is held as given.
    # gen110 made 400 literals while insert rebuilt each one it stored.
    calls = [0]
    original = tdlek.agent._make_lit

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(tdlek.agent, "_make_lit", counted)
    assert run_scenario_file(GEN110).ok
    assert 0 < calls[0] <= 160


def test_scenario_infers_are_handed_no_history(monkeypatch):
    # The runner keeps one event log: each infer line hands infer_fixpoint
    # a state with an empty trace and appends the events it returns, so no
    # line copies the events before it, and the whole log is still written.
    handed = []
    original = tdlek.agent.infer_fixpoint

    def counted(st, budget=10_000):
        handed.append(len(st.trace))
        return original(st, budget)

    monkeypatch.setattr(tdlek.agent, "infer_fixpoint", counted)
    state = run_scenario_file(GEN110).state
    assert len(handed) > 1 and set(handed) == {0}
    assert trace_json_lines(state.trace) == GEN110.with_suffix(".jsonl").read_text()


def test_each_rule_compiles_each_premise_join_once(monkeypatch):
    # Rule.joins compiles one join per premise, on first use, and keeps it
    # on the rule, not in a cache: a second run of the same script parses
    # new rules, which compile their joins again.
    compiled = []
    original = tdlek.agent._compile_join
    monkeypatch.setattr(
        tdlek.agent, "_compile_join", lambda plan, at: compiled.append((plan, at)) or original(plan, at)
    )
    runs = []
    for _ in range(2):
        compiled.clear()
        rules = run_scenario_file(GEN110).state.rules
        counts = Counter((id(plan), at) for plan, at in compiled)
        assert set(counts.values()) == {1}
        assert set(counts) == {(id(r.plan), at) for r in rules for at in range(len(r.premises))}
        runs.append(len(compiled))
    assert runs[0] == runs[1] > len(rules)


def test_a_dropped_rule_is_freed_with_its_joins():
    st = infer_fixpoint(perceive(init(UMBRELLA_RULES), parse("rain(2,2)"), 2))
    assert all("joins" in vars(r) for r in st.rules)  # compiled by the infer
    refs = [weakref.ref(r) for r in st.rules]
    del st
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_chained_rules_and_states_pickle():
    # The compiled joins are closures, which do not pickle: a rule pickles
    # without them and compiles them again when a join needs them.
    st = infer_fixpoint(perceive(init(UMBRELLA_RULES), parse("rain(2,2)"), 2))
    rule = st.rules[1]
    assert "joins" in vars(rule)
    copy = pickle.loads(pickle.dumps(rule))
    assert copy == rule and copy.plan == rule.plan and copy.key == rule.key
    loaded = pickle.loads(pickle.dumps(st))
    assert loaded == st and loaded.chaining.rules is loaded.rules

    def more(s):
        return infer_fixpoint(perceive(s, parse("rain(5,6)"), 5))

    assert more(loaded).trace == more(st).trace
    assert len(more(st).trace) > len(st.trace) + 1


def test_fixpoint_without_applicable_rules():
    st = perceive(init(UMBRELLA_RULES), parse("sunny(1,1)"), 1)
    assert infer_fixpoint(st).wm == st.wm


def test_ground_premise_satisfied_by_coverage():
    st = init(["K(rain(2,2) -> wet(2,2))"])
    st = perceive(st, parse("rain(0,9)"), 0)
    st = infer_fixpoint(st)
    assert "wet(2,2)" in wm_strings(st)


def test_fixpoint_confluence_under_rule_permutations():
    def final_wm(rules, perceptions):
        st = init(rules)
        for lit, at in perceptions:
            st = infer_fixpoint(perceive(st, parse(lit), at))
        return wm_strings(st)

    baseline = final_wm(UMBRELLA_RULES, [("rain(2,2)", 2)])
    for perm in itertools.permutations(UMBRELLA_RULES):
        assert final_wm(list(perm), [("rain(2,2)", 2)]) == baseline

    marriage_run = [("marryA(5,5)", 5), ("divorceA(8,8)", 8)]
    baseline = final_wm(MARRIAGE_RULES, marriage_run)
    for perm in itertools.permutations(MARRIAGE_RULES):
        assert final_wm(list(perm), marriage_run) == baseline


def test_budget_exhausted_on_runaway_rules():
    # step of 2 so the conclusions never merge with their triggers
    st = init(["K(tick(T,T) -> tick(T+2,T+2))"])
    st = perceive(st, parse("tick(0,0)"), 0)
    with pytest.raises(BudgetExhausted):
        infer_fixpoint(st, budget=50)


def test_boxed_premise_constrains_firing():
    rules = ["K(box[0,3] p(T,T) -> q(T,T))"]
    st = perceive(init(rules), parse("p(2,2)"), 2)
    assert "q(2,2)" in wm_strings(infer_fixpoint(st))
    st = perceive(init(rules), parse("p(7,7)"), 7)
    assert "q(7,7)" not in wm_strings(infer_fixpoint(st))


def test_box_bound_evaluating_to_inf_skips_the_binding():
    # the box's lower bound binds to inf, which no interval can start at
    st = perceive(init(["K(box[T,T] p(0,T) -> q(0,0))"]), parse("p(0,inf)"), 1)
    assert wm_strings(infer_fixpoint(st)) == ["p(0,inf)"]
    st = perceive(init(["K(box[T,T] p(0,T) -> q(0,0))"]), parse("p(0,0)"), 1)
    assert wm_strings(infer_fixpoint(st)) == ["p(0,0)", "q(0,0)"]


# ---------------------------------------------------------------------------
# revise
# ---------------------------------------------------------------------------


def test_revise_example_split():
    st = perceive(init([]), parse("q(3,10)"), 3)
    st = revise(st, atom("p", 5, 7), atom("q", 3, 10))
    assert wm_strings(st) == ["q(3,4)", "q(8,10)"]


def test_revise_tail_cut():
    st = perceive(init([]), parse("married(6,inf)"), 6)
    st = revise(st, atom("divorced", 9, INF), atom("married", 6, INF))
    assert wm_strings(st) == ["married(6,8)"]


def test_revise_full_overlap_removes():
    st = perceive(init([]), parse("q(3,7)"), 3)
    st = revise(st, atom("p", 3, 7), atom("q", 3, 7))
    assert wm_strings(st) == []


def test_revise_missing_belief():
    with pytest.raises(NoSuchBelief):
        revise(init([]), atom("p", 1, 2), atom("q", 1, 2))
    st = perceive(init([]), parse("q(3,7)"), 3)
    with pytest.raises(ValueError):
        revise(st, atom("p", 8, 9), atom("q", 3, 7))


def test_no_contradictory_beliefs_after_random_runs():
    import random

    from tdlek.intervals import intersect

    rng = random.Random(8)
    for _ in range(60):
        st = init(MARRIAGE_RULES)
        clock = 0
        for _ in range(rng.randint(1, 8)):
            pred = rng.choice(["married", "divorced", "p"])
            lo = rng.randint(clock, clock + 3)
            hi = rng.choice([lo + rng.randint(0, 4), "inf"])
            sign = "~" if rng.random() < 0.4 else ""
            st = perceive(st, parse(f"{sign}{pred}({lo},{hi})"), lo)
            clock = lo
            if rng.random() < 0.5:
                st = infer_fixpoint(st)
        beliefs = sorted(st.wm, key=lambda b: str(b))
        for a in beliefs:
            for b in beliefs:
                if (
                    a.atom.pred == b.atom.pred
                    and a.atom.args == b.atom.args
                    and a.positive != b.positive
                ):
                    assert intersect(a.interval(), b.interval()).is_empty(), (str(a), str(b))


def test_conjoin_records_event_and_checks_beliefs():
    from tdlek.agent import conjoin

    st = perceive(init([]), parse("p(1,2)"), 1)
    st = perceive(st, parse("q(2,3)"), 2)
    st2 = conjoin(st, parse("p(1,2)"), parse("q(2,3)"))
    assert st2.wm == st.wm
    assert trace_records(st2.trace)[-1] == {
        "event": "conjoined",
        "left": "p(1,2)",
        "right": "q(2,3)",
    }
    with pytest.raises(NoSuchBelief):
        conjoin(st, parse("p(1,2)"), parse("missing(0,0)"))


def test_infer_is_deterministic():
    from tdlek.agent import trace_json_lines

    def run():
        st = init(MARRIAGE_RULES)
        st = infer_fixpoint(perceive(st, parse("marryA(5,5)"), 5))
        st = infer_fixpoint(perceive(st, parse("divorceA(8,8)"), 8))
        return trace_json_lines(st.trace), st.render_wm()

    assert run() == run()


def test_operations_leave_their_input_state_unchanged():
    def snapshot(s):
        return s.wm, s.render_wm(), s.trace, s.fired, s.clock

    st = infer_fixpoint(perceive(init(MARRIAGE_RULES), parse("marryA(5,5)"), 5))
    before = snapshot(st)
    cut = perceive(st, parse("~married(10,12)"), 10)
    merged = perceive(st, parse("married(0,5)"), 5)
    revised = revise(st, atom("married", 9, 9), atom("married", 6, INF))
    perceived = perceive(st, parse("divorceA(8,8)"), 8)
    seen = snapshot(perceived)
    inferred = infer_fixpoint(perceived)
    assert query(st, parse("B(married(7,7)) & B(marryA(5,5))"))
    assert snapshot(st) == before
    assert snapshot(perceived) == seen
    # siblings derived from one parent each see only their own edit
    assert wm_strings(cut) == ["married(13,inf)", "married(6,9)", "marryA(5,5)", "~married(10,12)"]
    assert wm_strings(merged) == ["married(0,inf)", "marryA(5,5)"]
    assert wm_strings(revised) == ["married(10,inf)", "married(6,8)", "marryA(5,5)"]
    assert wm_strings(inferred) == [
        "divorceA(8,8)", "divorced(9,inf)", "married(6,8)", "marryA(5,5)"
    ]


def test_infer_leaves_the_chaining_record_it_reads_unchanged():
    # The second infer makes a second dormant instance of the conclusion
    # group d(_, _, a), whose first instance the first state's record
    # holds: it must put a new tuple for that group in its own copy of the
    # dict, since a sibling state derived from the first reads the same
    # record.
    group = ("d", ("a",))
    first = infer_fixpoint(perceive(init(["K(m(T,T,X) -> ~d(T,T,X))"]), parse("m(2,2,a)"), 2))
    before = dict(first.chaining.dormant)
    assert list(before) == [group] and len(before[group]) == 1
    second = infer_fixpoint(perceive(first, parse("m(5,5,a)"), 5))
    assert len(second.chaining.dormant[group]) == 2
    assert first.chaining.dormant == before
    sibling = infer_fixpoint(perceive(first, parse("m(7,7,b)"), 7))
    assert sorted(sibling.chaining.dormant) == [group, ("d", ("b",))]
    assert len(sibling.chaining.dormant[group]) == 1


def test_infer_keeps_each_dormant_instance_once():
    # With its last rule moved to just after its first infer, mixed.scn's
    # next infer reads a chaining record made for other rules, so it joins
    # from the empty store and finds a negative rule's binding once per
    # premise whose predicate holds beliefs: each copy that finds no belief
    # to restructure must wait under its group once, not once per copy.
    lines = (Path(__file__).resolve().parent / "golden" / "mixed.scn").read_text().splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("rule ")]
    moved = lines.pop(rules[-1])
    lines.insert(lines.index("infer") + 1, moved)
    dormant = run_scenario("\n".join(lines)).state.chaining.dormant
    instances = [(ridx, items) for entries in dormant.values() for ridx, _, items, *_ in entries]
    assert len(instances) == 4
    assert len(set(instances)) == len(instances)


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def test_query_coverage_semantics():
    st = infer_fixpoint(perceive(init(UMBRELLA_RULES), parse("rain(2,2)"), 2))
    assert query(st, parse("B(take(2,2,umbrella))"))
    assert query(st, parse("B(go(4,9,shops))"))
    assert not query(st, parse("B(go(1,2,shops))"))
    assert query(st, parse("B(rain(2,2)) & ~B(rain(1,1))"))
    assert not query(init([]), parse("B(p(1,1))"))
    assert not query(st, parse("false")) and query(st, parse("false | true"))


def test_query_marriage_timeline():
    st = init(MARRIAGE_RULES)
    st = infer_fixpoint(perceive(st, parse("marryA(5,5)"), 5))
    st = infer_fixpoint(perceive(st, parse("divorceA(8,8)"), 8))
    assert query(st, parse("B(married(7,7))"))
    assert not query(st, parse("B(married(9,9))"))


def test_query_rule_membership_up_to_renaming():
    st = init(UMBRELLA_RULES)
    assert query(st, parse("K(rain(S1,S2) -> take(S1,S2,umbrella))"))
    assert not query(st, parse("K(rain(S1,S2) -> take(S1,S1,umbrella))"))


def test_query_unsupported_shapes():
    st = init([])
    with pytest.raises(UnsupportedQuery):
        query(st, parse("B(p(1,1) & q(1,1))"))
    with pytest.raises(UnsupportedQuery):
        query(st, parse("box p(1,1)"))
    with pytest.raises(UnsupportedQuery):
        query(st, parse("[+p(1,1)] B p(1,1)"))


# ---------------------------------------------------------------------------
# to_model bridge
# ---------------------------------------------------------------------------


def test_to_model_single_belief():
    st = perceive(init([]), parse("p(1,1)"), 1)
    m = to_model(st, horizon=4)
    assert validate_model(m) == []
    assert check(m, "w0", parse("B(p(1,1))"))


def test_to_model_empty_memory():
    m = to_model(init([]), horizon=4)
    assert m.n_of("w0") == frozenset()
    assert not check(m, "w0", parse("B(p(1,1))"))
    for horizon in (INF, -1, 2.5):
        with pytest.raises(ValueError, match="^horizon must be a finite natural$"):
            to_model(init([]), horizon)


def test_to_model_agreement_on_scenarios():
    horizon = 12
    st = infer_fixpoint(perceive(init(UMBRELLA_RULES), parse("rain(2,2)"), 2))
    m = to_model(st, horizon)
    queries = [
        "B(take(2,2,umbrella))",
        "B(go(3,12,shops))",
        "B(go(3,5,shops))",
        "B(go(1,2,shops))",
        "B(rain(2,2))",
        "B(rain(1,2))",
        "B(absent(0,1))",
    ]
    for q in queries:
        assert query(st, parse(q)) == check(m, "w0", parse(q)), q

    st = init(MARRIAGE_RULES)
    st = infer_fixpoint(perceive(st, parse("marryA(5,5)"), 5))
    st = infer_fixpoint(perceive(st, parse("divorceA(8,8)"), 8))
    m = to_model(st, horizon)
    for q in ["B(married(6,8))", "B(married(7,7))", "B(married(9,9))", "B(divorced(9,12))"]:
        assert query(st, parse(q)) == check(m, "w0", parse(q)), q


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_replay_reproduces_memory():
    st = init(MARRIAGE_RULES)
    st = infer_fixpoint(perceive(st, parse("marryA(5,5)"), 5))
    st = infer_fixpoint(perceive(st, parse("divorceA(8,8)"), 8))
    rebuilt = replay(MARRIAGE_RULES, st.trace)
    assert rebuilt.wm == st.wm
    assert rebuilt.render_wm() == st.render_wm()


def test_replay_passes_over_conjoined_and_rejects_unknown_events():
    st = infer_fixpoint(perceive(init(UMBRELLA_RULES), parse("rain(2,2)"), 2))
    st = conjoin(st, parse("rain(2,2)"), parse("take(2,2,umbrella)"))
    assert isinstance(st.trace[-1], Conjoined)
    rebuilt = replay(UMBRELLA_RULES, st.trace)
    assert rebuilt.wm == st.wm and rebuilt.trace == st.trace
    # a value with an event's methods is still not an event
    impostor = SimpleNamespace(line=lambda: '{"event": "conjoined"}', redo=lambda memory, clock: clock)
    for bad in (object(), "perceived", impostor):
        with pytest.raises(TypeError):
            replay(UMBRELLA_RULES, st.trace + (bad,))
        with pytest.raises(TypeError):
            trace_records(st.trace + (bad,))


def test_trace_records_schema():
    st = infer_fixpoint(perceive(init(UMBRELLA_RULES), parse("rain(2,2)"), 2))
    records = trace_records(st.trace)
    assert records[0] == {"schema_version": 1}
    kinds = [r["event"] for r in records[1:]]
    assert kinds[0] == "perceived"
    assert "fired" in kinds
    json.dumps(records)  # JSON compatible
    fired = next(r for r in records if r.get("event") == "fired")
    assert fired["binding"] == {"T1": 2, "T2": 2}


def test_trace_restructure_event():
    st = init(MARRIAGE_RULES)
    st = infer_fixpoint(perceive(st, parse("marryA(5,5)"), 5))
    st = infer_fixpoint(perceive(st, parse("divorceA(8,8)"), 8))
    records = trace_records(st.trace)
    restructured = [r for r in records if r.get("event") == "restructured"]
    assert restructured == [
        {"event": "restructured", "removed": "married(6,inf)", "parts": ["married(6,8)"]}
    ]


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_run_scenario_files():
    for name in ("umbrella.scn", "marriage.scn"):
        result = run_scenario((SCENARIO_DIR / name).read_text(encoding="utf-8"))
        assert result.ok, name


def test_scenario_expect_mismatch_is_collected():
    result = run_scenario(
        "rule K(rain(T1,T2) -> take(T1,T2,umbrella))\n"
        "perceive rain(2,2) @ 2\n"
        "infer\n"
        "query B(take(3,3,umbrella))\n"
        "expect true\n"
    )
    assert not result.ok
    assert result.checks[0].expected is True and result.checks[0].actual is False


def test_scenario_errors_carry_line_numbers():
    with pytest.raises(ScenarioError) as err:
        run_scenario("perceive rain(2,2)\n")
    assert err.value.line == 1
    with pytest.raises(ScenarioError) as err:
        run_scenario("query B(p(1,1))\nfrobnicate\n")
    assert err.value.line == 2
    with pytest.raises(ScenarioError) as err:
        run_scenario("expect true\n")
    assert err.value.line == 1
