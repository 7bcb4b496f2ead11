"""Rescan-everything reference forward chainer, for differential tests.

This is the forward chainer as it was before working memory was indexed:
after every firing the scan restarts at the first rule and re-joins every
rule's premises against the whole working memory, and the fired set and
the trace are copied on each firing.  It is slow on purpose and shares
with ``tdlek.agent`` only the belief, rule and trace types and the
frozenset helpers that perception and replay use.
"""

from __future__ import annotations

from dataclasses import replace

from tdlek.agent import (
    AgentState,
    BeliefLit,
    BudgetExhausted,
    Fired,
    Rule,
    _binding_key,
    _covered,
    _insert,
    _restructure,
)
from tdlek.formulas import match_atom, substitute
from tdlek.intervals import BadInterval, Interval, UnboundVariable, subset


def _candidate_bindings(st: AgentState, rule: Rule) -> list[dict]:
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


def infer_fixpoint(st: AgentState, budget: int = 10_000) -> AgentState:
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
