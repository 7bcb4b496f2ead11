"""Frozenset reference agent, for differential tests.

This is the agent as it was before working memory became an indexed
store: working memory is a frozenset of beliefs, every insert re-merges
the whole (predicate, args, polarity) group, perception and revision scan
the whole memory, and the forward chainer restarts at the first rule
after every firing and re-joins every rule's premises against the whole
working memory, copying the fired set and the trace on each firing.  It
is slow on purpose and shares with ``tdlek.agent`` only the belief, rule
and trace types; it keeps its own state record and memory helpers.

``_canonical_rule_key`` is ``K``-query identity as it was before it read
the rule's plan: it rebuilds every premise and the conclusion as renamed,
validated ``Atom``s and ``TimeExpr``s.

``trace_records`` and ``trace_json_lines`` are the trace writer as it was
before it wrote each line straight from its event: one dict per record,
keys inserted in sorted order, each dumped by ``json.dumps`` with its
default settings.

``to_model`` is the bridge to the semantic layer as it was before it
trusted the beliefs: every atom goes through the validating ``Atom``
constructor, the world through ``World``'s groundness test, and
``world_interval`` scans the atoms for I(w).  It takes any state with a
``wm`` of beliefs, this module's or ``tdlek.agent``'s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable

from tdlek.agent import (
    TRACE_SCHEMA_VERSION,
    BeliefLit,
    BudgetExhausted,
    Conjoined,
    Fired,
    Perceived,
    Restructured,
    Rule,
)
from tdlek.formulas import Atom, is_var, match_atom, substitute
from tdlek.intervals import (
    INF,
    BadInterval,
    Interval,
    IntervalSet,
    TimeExpr,
    UnboundVariable,
    difference,
    intersect,
    is_time_point,
    subset,
)
from tdlek.models import TLekModel, World


@dataclass(frozen=True)
class State:
    rules: tuple[Rule, ...] = ()
    wm: frozenset[BeliefLit] = frozenset()
    clock: int = 0
    trace: tuple = ()
    fired: frozenset = frozenset()

    def wm_sorted(self) -> list[BeliefLit]:
        return sorted(self.wm, key=BeliefLit.key)

    def render_wm(self) -> str:
        return ", ".join(str(b) for b in self.wm_sorted())


def _group_key(b: BeliefLit):
    return (b.atom.pred, b.atom.args, b.positive)


def _make_lit(pred: str, args: tuple[str, ...], positive: bool, iv: Interval) -> BeliefLit:
    return BeliefLit(Atom(pred, TimeExpr.lit(iv.lo), TimeExpr.lit(iv.hi), args), positive)


def _merged(group: Iterable[BeliefLit], lit: BeliefLit) -> set[BeliefLit]:
    """The canonical beliefs of lit's group once lit is added to it."""
    merged = IntervalSet.of([b.interval() for b in group] + [lit.interval()])
    return {_make_lit(lit.atom.pred, lit.atom.args, lit.positive, part) for part in merged}


def _insert(wm: frozenset[BeliefLit], lit: BeliefLit) -> frozenset[BeliefLit]:
    """Add a literal, merging with same-polarity beliefs it touches."""
    group = frozenset(b for b in wm if _group_key(b) == _group_key(lit))
    return (wm - group) | _merged(group, lit)


def _covered(beliefs: Iterable[BeliefLit], atom: Atom, positive: bool) -> bool:
    """Some given belief of the same polarity spans the whole atom."""
    span = atom.interval()
    return any(
        b.positive == positive
        and b.atom.pred == atom.pred
        and b.atom.args == atom.args
        and subset(span, b.interval())
        for b in beliefs
    )


def _restructure(
    wm: frozenset[BeliefLit], trace: tuple, target: BeliefLit, denied: Interval
) -> tuple[frozenset[BeliefLit], tuple]:
    event = Restructured(
        target,
        tuple(
            _make_lit(target.atom.pred, target.atom.args, target.positive, p)
            for p in difference(target.interval(), denied)
        ),
    )
    return (wm - {target}) | frozenset(event.parts), trace + (event,)


def perceive(st: State, belief: BeliefLit, at: int) -> State:
    """Restructure every overlapping opposite-polarity belief, then insert."""
    wm, trace = st.wm, st.trace
    span = belief.interval()
    opposite = (belief.atom.pred, belief.atom.args, not belief.positive)
    for other in sorted((b for b in wm if _group_key(b) == opposite), key=BeliefLit.key):
        if not intersect(other.interval(), span).is_empty():
            wm, trace = _restructure(wm, trace, other, span)
    wm = _insert(wm, belief)
    return replace(st, wm=wm, clock=at, trace=trace + (Perceived(belief, at),))


def revise(st: State, p: Atom, q: Atom) -> State:
    """Restructure the held positive belief q around p's span."""
    target = next(b for b in st.wm if b.positive and b.atom == q)
    wm, trace = _restructure(st.wm, st.trace, target, p.interval())
    return replace(st, wm=wm, trace=trace)


def replay(rules: tuple[Rule, ...], trace) -> State:
    """Rebuild working memory and the clock from a trace."""
    wm: frozenset[BeliefLit] = frozenset()
    clock = 0
    for ev in trace:
        if isinstance(ev, Perceived):
            wm = _insert(wm, ev.literal)
            clock = ev.at
        elif isinstance(ev, Fired):
            if ev.conclusion.positive:
                wm = _insert(wm, ev.conclusion)
        elif isinstance(ev, Restructured):
            wm = (wm - {ev.removed}) | frozenset(ev.parts)
    return State(rules, wm, clock, tuple(trace))


def _json_time(t):
    return "inf" if t == INF else t


def trace_records(trace) -> list[dict]:
    """A schema header then one record per event, keys in sorted order."""
    records: list[dict] = [{"schema_version": TRACE_SCHEMA_VERSION}]
    for ev in trace:
        if isinstance(ev, Perceived):
            records.append(
                {"at": _json_time(ev.at), "event": "perceived", "literal": str(ev.literal)}
            )
        elif isinstance(ev, Fired):
            records.append(
                {
                    "binding": {k: _json_time(v) if is_time_point(v) else v for k, v in ev.binding},
                    "conclusion": str(ev.conclusion),
                    "event": "fired",
                    "rule": ev.rule,
                    "rule_index": ev.rule_index,
                }
            )
        elif isinstance(ev, Restructured):
            records.append(
                {
                    "event": "restructured",
                    "parts": [str(p) for p in ev.parts],
                    "removed": str(ev.removed),
                }
            )
        elif isinstance(ev, Conjoined):
            records.append({"event": "conjoined", "left": ev.left, "right": ev.right})
        else:
            raise TypeError(f"unknown trace event {ev!r}")
    return records


def trace_json_lines(trace) -> str:
    """One json.dumps line per record of trace_records."""
    return "\n".join(map(json.dumps, trace_records(trace))) + "\n"


def _canonical_rule_key(rule: Rule) -> tuple:
    """The rule's premise atoms with their box bounds, its conclusion and
    polarity, with variables renamed in first-occurrence order."""
    names: dict[str, str] = {}

    def rename(var: str) -> str:
        return names.setdefault(var, f"V{len(names) + 1}")

    def rename_te(te: TimeExpr) -> TimeExpr:
        return te if te.var is None else TimeExpr(rename(te.var), te.offset)

    def rename_atom(a: Atom) -> Atom:
        start, end = rename_te(a.start), rename_te(a.end)
        return Atom(a.pred, start, end, tuple(rename(x) if is_var(x) else x for x in a.args))

    premises = tuple(
        (rename_atom(p.atom), p.box and (rename_te(p.box[0]), rename_te(p.box[1])))
        for p in rule.premises
    )
    return premises, rename_atom(rule.conclusion), rule.positive


def _binding_key(binding: dict):
    times = tuple(
        (k, binding[k]) for k in sorted(binding) if is_time_point(binding[k])
    )
    objs = tuple((k, binding[k]) for k in sorted(binding) if not is_time_point(binding[k]))
    return (tuple(v for _, v in times), tuple(v for _, v in objs), times + objs)


def _candidate_bindings(st: State, rule: Rule) -> list[dict]:
    """All complete premise bindings, deterministically ordered.

    Variables bind by syntactic match against belief atoms; a premise that
    is already ground only needs a covering belief.  Box constraints are
    checked once the binding is complete.
    """
    positive_beliefs = sorted((b for b in st.wm if b.positive), key=BeliefLit.key)

    results: list[dict] = []

    def walk(i: int, binding: dict):
        if i == len(rule.premises):
            for p in rule.premises:
                if p.box:
                    try:
                        lo = p.box[0].eval(binding)
                        hi = p.box[1].eval(binding)
                        ground_atom = substitute(p.atom, binding)
                        if not subset(ground_atom.interval(), Interval(lo, hi)):
                            return
                    except (BadInterval, UnboundVariable):
                        return
            results.append(dict(binding))
            return
        try:
            pat = substitute(rule.premises[i].atom, binding)
        except BadInterval:
            return
        if pat.is_ground():
            if _covered(st.wm, pat, True):
                walk(i + 1, binding)
            return
        for b in positive_beliefs:
            m = match_atom(pat, b.atom)
            if m is not None:
                walk(i + 1, {**binding, **m})

    walk(0, {})
    unique = {tuple(sorted(r.items(), key=lambda kv: kv[0])): r for r in results}
    return [unique[k] for k in sorted(unique, key=lambda k: _binding_key(dict(k)))]


def infer_fixpoint(st: State, budget: int = 10_000) -> State:
    """Fire rules to a fixpoint.

    Deterministic strategy: rules in list order, bindings smallest first
    by time then lexicographically; after each firing the scan restarts at
    the first rule.  Each (rule, binding) instance fires at most once.  A
    negative conclusion restructures the covering belief when the denied
    span lies inside it; otherwise the instance stays dormant.  Raises
    BudgetExhausted after the given number of firings.
    """
    state = st
    firings = 0
    while True:
        progressed = False
        for ridx, rule in enumerate(state.rules):
            for binding in _candidate_bindings(state, rule):
                key = (ridx, tuple(sorted(binding.items(), key=lambda kv: kv[0])))
                if key in state.fired:
                    continue
                try:
                    concl = substitute(rule.conclusion, binding)
                except BadInterval:
                    continue
                lit = BeliefLit(concl, rule.positive)
                if rule.positive:
                    if _covered(state.wm, concl, True):
                        state = replace(state, fired=state.fired | {key})
                        continue
                    firings += 1
                    if firings > budget:
                        raise BudgetExhausted(f"gave up after {budget} firings")
                    wm = _insert(state.wm, lit)
                    trace = state.trace + (
                        Fired(ridx, rule.text, tuple(sorted(binding.items())), lit),
                    )
                    state = replace(
                        state, wm=wm, trace=trace, fired=state.fired | {key}
                    )
                    progressed = True
                    break
                denied = concl.interval()
                target = next(
                    (
                        b
                        for b in state.wm_sorted()
                        if b.positive
                        and b.atom.pred == concl.pred
                        and b.atom.args == concl.args
                        and subset(denied, b.interval())
                    ),
                    None,
                )
                if target is None:
                    continue
                firings += 1
                if firings > budget:
                    raise BudgetExhausted(f"gave up after {budget} firings")
                trace = state.trace + (
                    Fired(ridx, rule.text, tuple(sorted(binding.items())), lit),
                )
                wm, trace = _restructure(state.wm, trace, target, denied)
                state = replace(state, wm=wm, trace=trace, fired=state.fired | {key})
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            return state


def to_model(st, horizon: int) -> TLekModel:
    """One world whose valuation closes the positive beliefs under
    sub-intervals, truncated at the horizon, with the single neighbourhood
    element making exactly those beliefs true."""
    if horizon == INF or not is_time_point(horizon):
        raise ValueError("horizon must be a finite natural")
    atoms: set[Atom] = set()
    for b in st.wm:
        if not b.positive:
            continue
        iv = b.interval()
        hi = int(min(iv.hi, horizon))
        for a in range(iv.lo, hi + 1):
            for z in range(a, hi + 1):
                atoms.add(Atom(b.atom.pred, TimeExpr.lit(a), TimeExpr.lit(z), b.atom.args))
    world = World("w0", frozenset(atoms))
    nbhd = {"w0": [frozenset({"w0"})]} if atoms else {"w0": []}
    return TLekModel([world], [frozenset({"w0"})], nbhd)
