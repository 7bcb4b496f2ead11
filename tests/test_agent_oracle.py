"""Differential tests: the store-backed agent against the frozenset reference.

Every random script and the two scenario scripts run through both
``tdlek.agent`` and ``reference_agent`` in step.  After every perception,
every revision of a held belief and every ``infer`` the two must agree on
the working memory, the trace JSON lines of the events the step added
(with the earlier events unchanged), the fired set and the clock, and on
the firing count at which ``BudgetExhausted`` is raised.  At the end,
``replay`` of the trace must rebuild the working memory and its rendering.

The random scripts mix joins on shared time and object variables, ground
premises, boxed premises (some with a bound that can evaluate to inf),
negative conclusions and negative perceptions, and they reuse conclusion
predicates as premises of other rules, so a firing changes what another
rule can match or restructure after that rule was last scanned.

``infer`` keeps its agendas in the state it returns, for the next call.
So the runs also change that state between two calls in every way a
caller can: a rule appended after some ``infer``s, an ``infer`` on a
``replay``ed state, an ``infer`` right after a ``revise``, and a second
``infer`` with nothing in between.

The store keeps a literal it is given when nothing merges with it, so a
held belief can be the very object a caller passed in, and the store
tells held beliefs apart by identity.  So the runs also perceive again
the same ``BeliefLit`` object, after a restructure or a merge took it out
of the store.
"""

import importlib.util
import random
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import reference_agent as ref
from tdlek.agent import (
    BeliefLit,
    BudgetExhausted,
    Conjoined,
    Fired,
    Perceived,
    Restructured,
    ScenarioError,
    infer_fixpoint,
    init,
    perceive,
    query,
    replay,
    revise,
    rule_from_formula,
    run_scenario,
    trace_json_lines,
    trace_records,
)
from tdlek.formulas import Not, parse
from tdlek.intervals import INF

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

PREDS = ("p", "q", "r", "s", "u")
OBJECTS = ("a", "b")
SEEDS = range(150)
LATE_SEEDS = range(150, 250)


def _premise(rng, pred: str, tvars: list[str], ovars: list[str]) -> str:
    """One premise text; new time and object variables are appended to
    tvars and ovars so that later premises and the conclusion can join on
    them."""

    def time_var() -> str:
        if tvars and rng.random() < 0.15:
            return rng.choice(tvars)
        name = f"T{len(tvars) + 1}"
        tvars.append(name)
        return name

    def obj() -> str:
        roll = rng.random()
        if ovars and roll < 0.5:
            return rng.choice(ovars)
        if roll < 0.8 and len(ovars) < 2:
            ovars.append("XY"[len(ovars)])
            return ovars[-1]
        return rng.choice(OBJECTS)

    kind = rng.choice(("point", "span", "span", "span", "span", "open", "ground", "box", "box"))
    if kind == "ground":
        lo = rng.randint(0, 6)
        return f"{pred}({lo},{lo + rng.randint(0, 2)},{rng.choice(OBJECTS)})"
    if kind == "point":
        t = time_var()
        return f"{pred}({t},{t},{obj()})"
    if kind == "open":
        return f"{pred}({time_var()},inf,{obj()})"
    lo, hi = time_var(), time_var()
    body = f"{pred}({lo},{hi},{obj()})"
    if kind == "span":
        return body
    box = rng.choice(
        (f"[0,{rng.randint(6, 20)}]", f"[{lo},{lo}+{rng.randint(0, 4)}]", f"[{hi},{hi}]", f"[{lo},inf]")
    )
    return f"box{box} {body}"


def _conclusion(rng, pred: str, tvars: list[str], ovars: list[str]) -> str:
    o = rng.choice(ovars) if ovars and rng.random() < 0.8 else rng.choice(OBJECTS)
    if not tvars:
        lo = rng.randint(0, 6)
        sign = "~" if rng.random() < 0.3 else ""
        return f"{sign}{pred}({lo},{rng.choice((lo, lo + 2, 'inf'))},{o})"
    t = rng.choice(tvars)
    if rng.random() < 0.3:
        shape = rng.choice((f"{t},inf", f"{t},{t}", f"{t}+1,{t}+2", f"{t}+1,inf"))
        return f"~{pred}({shape},{o})"
    d = rng.randint(0, 2)
    end = rng.choice((f"{t}+{d}", f"{t}+{d + 1}", f"{t}+{d + 3}", "inf"))
    return f"{pred}({t}+{d},{end},{o})"


def random_rule(rng) -> str:
    """A safe rule over PREDS: mostly towards later predicates, so chains
    run forward, but sometimes back, so some scripts exhaust the budget."""
    concl_idx = rng.randrange(1, len(PREDS))
    tvars: list[str] = []
    ovars: list[str] = []
    premises = []
    for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
        top = concl_idx if rng.random() < 0.85 else len(PREDS)
        premises.append(_premise(rng, PREDS[rng.randrange(top)], tvars, ovars))
    return f"K({' & '.join(premises)} -> {_conclusion(rng, PREDS[concl_idx], tvars, ovars)})"


def random_script(seed: int, events: int = 24) -> list[str]:
    """Script lines: 3-6 safe rules, then time-ordered perceptions, each
    followed by an infer with probability 0.4, and an infer at the end."""
    rng = random.Random(seed)
    lines: list[str] = []
    n_rules = rng.randint(3, 6)
    while len(lines) < n_rules:
        text = random_rule(rng)
        try:
            rule_from_formula(parse(text))
        except ValueError:
            continue
        lines.append(f"rule {text}")
    clock = 0
    for i in range(events):
        clock += rng.choice((0, 1, 1, 2))
        pred = rng.choice(PREDS[:3]) if rng.random() < 0.8 else rng.choice(PREDS)
        end = rng.choice((clock, clock + rng.randint(1, 3), clock + rng.randint(1, 6), "inf"))
        sign = "~" if rng.random() < 0.12 else ""
        lines.append(f"perceive {sign}{pred}({clock},{end},{rng.choice(OBJECTS)}) @ {clock}")
        if rng.random() < 0.4 or i == events - 1:
            lines.append("infer")
    return lines


def with_late_rules(lines: list[str], seed: int) -> list[str]:
    """The script with one or two of its rules, never the first, moved to
    just after a random infer, so they join a state that was inferred
    without them."""
    rng = random.Random(seed)
    rules = [line for line in lines if line.startswith("rule ")]
    late = rng.sample(rules[1:], k=min(len(rules) - 1, rng.choice((1, 2))))
    out = [line for line in lines if line not in late]
    for line in late:
        infers = [i for i, x in enumerate(out) if x == "infer"]
        out.insert(rng.choice(infers) + 1, line)
    return out


def firings(before, after) -> int:
    return sum(1 for ev in after.trace[len(before.trace):] if isinstance(ev, Fired))


def literal(f) -> BeliefLit:
    return BeliefLit(f.body, False) if isinstance(f, Not) else BeliefLit(f, True)


class SameStates:
    """Asserts that a store-backed state matches its reference twin, step
    after step of one run.  The traces' JSON lines are compared byte for
    byte only for the events added since the last step; the events
    compared before must still be there, unchanged, in both traces."""

    def __init__(self):
        self.got: tuple = ()
        self.want: tuple = ()

    def __call__(self, got, want):
        assert got.wm == want.wm
        k = len(self.got)
        assert got.trace[:k] == self.got and want.trace[:k] == self.want
        assert trace_json_lines(got.trace[k:]) == ref.trace_json_lines(want.trace[k:])
        assert got.fired == want.fired
        assert (got.rules, got.clock) == (want.rules, want.clock)
        self.got, self.want = got.trace, want.trace


def assert_same_infer(st, ref_st, budget: int, assert_same: SameStates):
    """Run both chainers, from st and from its reference twin ref_st; return
    both results, or None when both exhaust the budget.  A result is also
    re-run with a budget of exactly the firings it needed, which must
    suffice, and of one less, which must not."""
    try:
        want = ref.infer_fixpoint(ref_st, budget=budget)
    except BudgetExhausted:
        with pytest.raises(BudgetExhausted):
            infer_fixpoint(st, budget=budget)
        return None
    got = infer_fixpoint(st, budget=budget)
    assert_same(got, want)
    n = firings(st, got)
    assert infer_fixpoint(st, budget=n).trace == got.trace
    if n:
        with pytest.raises(BudgetExhausted):
            infer_fixpoint(st, budget=n - 1)
    return got, want


def revision(rng, st):
    """A (p, q) pair for revise: q a held positive belief, p a span that
    starts inside it; None when no positive belief is held."""
    held = [b.atom for b in sorted(st.wm, key=BeliefLit.key) if b.positive]
    if not held:
        return None
    q = rng.choice(held)
    lo = min(q.start.offset + rng.randint(0, 3), q.end.offset)
    hi = rng.choice((lo, lo + rng.randint(1, 3), "inf"))
    return parse(f"{q.pred}({lo},{hi}{''.join(',' + a for a in q.args)})"), q


def run_both(lines: list[str], budget: int, seed: int) -> dict:
    """Drive a script's rule, perceive and infer lines through the agent
    and the reference in step, revising a held belief after some
    perceptions, comparing the two states after every step and the
    replay of the final trace; returns counts of what the run exercised.

    A second stream, so that the first one's revisions stay as they were,
    adds the calls that change what a kept agenda sees: an infer right
    after some revisions, and after some infers another infer or a replay
    of the trace.  A third, after some perceptions, perceives again at the
    clock a literal object perceived before that the store no longer
    holds, which it then holds itself when nothing merges with it."""
    st = init([])
    want = ref.State()
    assert_same = SameStates()
    rng = random.Random(seed)
    twist = random.Random(-1 - seed)
    again = random.Random(seed + 10_000)
    perceived: list[BeliefLit] = []  # the literal objects passed to perceive
    seen = {"infers": 0, "firings": 0, "restructured": 0, "exhausted": 0, "revised": 0,
            "replayed": 0, "late rules": 0, "kept again": 0}

    def infer() -> bool:
        """Infer in both; False when both exhausted the budget."""
        nonlocal st, want
        after = assert_same_infer(st, want, budget, assert_same)
        seen["infers"] += 1
        if after is None:
            seen["exhausted"] += 1
            return False
        seen["firings"] += firings(st, after[0])
        seen["restructured"] += sum(
            1 for ev in after[0].trace[len(st.trace):] if isinstance(ev, Restructured)
        )
        st, want = after
        return True

    for line in lines:
        word, _, rest = line.partition(" ")
        if word == "rule":
            rule = rule_from_formula(parse(rest))
            seen["late rules"] += seen["infers"] > 0
            st = replace(st, rules=st.rules + (rule,))
            want = replace(want, rules=want.rules + (rule,))
        elif word == "perceive":
            text, _, at = rest.partition("@")
            lit = literal(parse(text.strip()))
            st, want = perceive(st, lit, int(at)), ref.perceive(want, lit, int(at))
            assert_same(st, want)
            perceived.append(lit)
            gone = [b for b in perceived if not st.memory.holds(b)]
            if gone and again.random() < 0.5:
                lit = again.choice(gone)
                st, want = perceive(st, lit, st.clock), ref.perceive(want, lit, want.clock)
                assert_same(st, want)
                seen["kept again"] += st.memory.holds(lit)
            pair = revision(rng, st) if rng.random() < 0.15 else None
            if pair is not None:
                st, want = revise(st, *pair), ref.revise(want, *pair)
                assert_same(st, want)
                seen["revised"] += 1
                if twist.random() < 0.5 and not infer():
                    break
        elif word == "infer":
            if not infer():
                break
            roll = twist.random()
            if roll < 0.15 and not infer():
                break
            if roll > 0.9:
                st, want = replay(st.rules, st.trace), ref.replay(want.rules, want.trace)
                assert_same(st, want)
                seen["replayed"] += 1
    rebuilt = replay(st.rules, st.trace)
    assert rebuilt.wm == st.wm == ref.replay(want.rules, want.trace).wm
    assert rebuilt.render_wm() == st.render_wm()
    assert rebuilt.clock == st.clock
    return seen


def run_many(scripts) -> dict:
    totals: dict = {}
    for seed, lines in scripts:
        for k, v in run_both(lines, budget=40, seed=seed).items():
            totals[k] = totals.get(k, 0) + v
    return totals


def test_random_scripts_agree_with_reference():
    totals = run_many((seed, random_script(seed)) for seed in SEEDS)
    # the streams exercise firing, restructuring, revision, budget
    # exhaustion and the calls that change a state between two infers
    assert totals["firings"] > 400
    assert totals["restructured"] > 50
    assert totals["revised"] > 100
    assert totals["exhausted"] > 0
    assert totals["replayed"] > 50
    assert totals["kept again"] > 80


def test_render_wm_gives_the_reference_order_on_random_scripts():
    """render_wm, which walks the store's groups, lists the final memory of
    each random script in the reference's sorted(wm, key=BeliefLit.key)
    order; the scripts hold negative beliefs, some beside positive ones of
    the same predicate and arguments.  The few scripts that exhaust a
    budget of 200 firings are passed over."""
    both = exhausted = 0
    for seed in SEEDS:
        try:
            state = run_scenario("\n".join(random_script(seed)), budget=200).state
        except ScenarioError:
            exhausted += 1
            continue
        assert state.render_wm() == ref.State(wm=state.wm).render_wm()
        groups = {(b.atom.pred, b.atom.args, b.positive) for b in state.wm}
        both += any((pred, args, not positive) in groups for pred, args, positive in groups)
    assert both > 20 and exhausted < 10


def test_rules_added_after_infer_agree_with_reference():
    totals = run_many((seed, with_late_rules(random_script(seed), seed)) for seed in LATE_SEEDS)
    assert totals["late rules"] > 100
    assert totals["firings"] > 200


@pytest.mark.parametrize("name", ["umbrella.scn", "marriage.scn"])
def test_scenario_scripts_agree_with_reference(name):
    lines = [
        line.split("#", 1)[0].strip()
        for line in (SCENARIO_DIR / name).read_text().splitlines()
    ]
    assert run_both([line for line in lines if line], budget=10_000, seed=0)["firings"] > 0


# ---------------------------------------------------------------------------
# run_scenario against the same script driven step by step
# ---------------------------------------------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def with_queries(lines: list[str], seed: int) -> list[str]:
    """The script with B, K and boolean queries inserted at random places,
    before and after infer lines, so some read beliefs perceived since the
    last infer."""
    rng = random.Random(seed)
    out = list(lines)
    for _ in range(6):
        pred, obj = rng.choice(PREDS), rng.choice(OBJECTS)
        lo = rng.randint(0, 12)
        text = f"B({pred}({lo},{rng.choice((lo, lo + 2, 'inf'))},{obj}))"
        roll = rng.random()
        if roll < 0.2:
            text = f"~{text} | K(p(T,T,X) -> q(T,T,X))"
        elif roll < 0.4:
            text = f"{text} & B({rng.choice(PREDS)}({lo},{lo},{obj}))"
        out.insert(rng.randint(0, len(out)), f"query {text}")
    return out


def run_in_steps(text: str, budget: int):
    """The script through init, perceive, infer_fixpoint and query, one call
    per line: (final state, query answers as run_scenario lists them, the
    line of the infer that exhausted the budget or None)."""
    st = init([])
    answers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "rule":
            st = replace(st, rules=st.rules + (rule_from_formula(parse(rest)),))
        elif word == "perceive":
            lit, _, at = rest.partition("@")
            st = perceive(st, parse(lit.strip()), int(at))
        elif word == "infer":
            try:
                st = infer_fixpoint(st, budget=budget)
            except BudgetExhausted:
                return st, answers, lineno
        elif word == "query":
            answers.append((lineno, rest, query(st, parse(rest))))
    return st, answers, None


def assert_runner_matches_steps(text: str, budget: int) -> bool:
    """run_scenario gives the state and answers of the step-by-step run, or
    fails at the same line; returns whether the budget ran out."""
    want, answers, exhausted = run_in_steps(text, budget)
    if exhausted is not None:
        with pytest.raises(ScenarioError) as err:
            run_scenario(text, budget=budget)
        assert err.value.line == exhausted
        assert isinstance(err.value.__cause__, BudgetExhausted)
        return True
    got = run_scenario(text, budget=budget)
    assert trace_json_lines(got.state.trace) == trace_json_lines(want.trace)
    assert got.state.render_wm() == want.render_wm()
    assert got.state.fired == want.fired
    assert got.queries == answers
    assert got.state == want
    return False


def test_runner_matches_step_by_step_calls_on_random_scripts():
    exhausted = queries = 0
    for seed in range(0, 250, 2):
        lines = random_script(seed)
        if seed in LATE_SEEDS:
            lines = with_late_rules(lines, seed)
        text = "\n".join(with_queries(lines, seed))
        exhausted += assert_runner_matches_steps(text, budget=40)
        queries += text.count("\nquery ")
    assert exhausted > 0 and queries > 500


SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.scn")) + sorted(GOLDEN_DIR.glob("*.scn"))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
def test_runner_matches_step_by_step_calls_on_scenario_files(path):
    text = path.read_text(encoding="utf-8")
    assert not assert_runner_matches_steps(text, budget=10_000)
    assert assert_runner_matches_steps(text, budget=0)
    assert_runner_matches_steps(text, budget=2)


# ---------------------------------------------------------------------------
# The trace writer against the dict-plus-json.dumps reference
# ---------------------------------------------------------------------------


def _scenario_gen():
    """perfbench/scenario_gen.py, loaded from its file."""
    path = SCENARIO_DIR.parent / "perfbench" / "scenario_gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenario_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def assert_same_trace_text(trace) -> None:
    assert trace_json_lines(trace) == ref.trace_json_lines(trace)
    assert trace_records(trace) == ref.trace_records(trace)


def test_trace_lines_match_the_reference_writer_on_scripts():
    """The scenario files, the golden scripts and generated scripts of 12
    to 216 perceptions (the benchmark draws 12 to 110)."""
    texts = [path.read_text(encoding="utf-8") for path in SCENARIO_FILES]
    make_scenario = _scenario_gen().make_scenario
    texts += [make_scenario(seed, n).text for seed, n in enumerate((12, 25, 40, 70, 110, 216))]
    events = set()
    for text in texts:
        trace = run_scenario(text).state.trace
        assert_same_trace_text(trace)
        events.update(type(ev) for ev in trace)
    assert events == {Perceived, Fired, Restructured}


def test_trace_lines_match_the_reference_writer_on_hand_built_events():
    """Strings json.dumps escapes, an empty binding, a restructure with no
    parts, inf in a binding and as a perception time; an unknown event, even
    one with an event's line and redo methods, is a TypeError in both
    writers."""
    lit = BeliefLit(parse("p(1,inf,a)"))
    trace = (
        Perceived(lit, 3),
        Perceived(BeliefLit(parse("q(0,0)"), False), INF),
        Conjoined('say "no" \\ here', "na\u00efve \u2603 \x07\x1f \u2028\n\t\U0001f600"),
        Fired(0, "K(r(T,T) -> p(1,inf,a))", (), lit),
        Fired(2, 'K("q"(T,U,X))', (("T", 4), ("U", INF), ("X", "b\\c")), lit),
        Restructured(lit, ()),
        Restructured(lit, (BeliefLit(parse("p(1,2,a)")), BeliefLit(parse("p(5,inf,a)")))),
    )
    assert_same_trace_text(trace)
    assert_same_trace_text(())
    impostor = SimpleNamespace(line=lambda: '{"event": "conjoined"}', redo=lambda memory, clock: clock)
    for bad in (object(), "perceived", Not(parse("p(1,1)")), impostor):
        for writer in (trace_json_lines, trace_records, ref.trace_json_lines):
            with pytest.raises(TypeError, match="unknown trace event"):
                writer(trace + (bad,))
