"""Clause-by-clause reference model checker and update, for differential tests.

A direct transcription of the truth clauses: one recursive walk per world,
the world interval recomputed from the atoms at every node
(``world_interval_ref``), the time of each clause's subformulas taken
from ``time_of``, and ``apply`` evaluating its guards world by world.
``apply`` and ``check_dynamic`` take the times of mental operations and
prefixed bodies from ``time_of_ref``, a fresh walk, so a memoised time
that depends on which caller asked first shows as a disagreement.  It is
slow on purpose and shares no code with the labelling checker in
``tdlek.models`` beyond the formula and model data types.  Also here:
``validate_model`` on the world-id families; ``normalize_sugar``, the
desugaring oracle of the time-function and checker tests; and the
uncached walkers ``free_vars_ref``, ``time_of_ref``
and ``hash_ref``, the oracles of the memoised node facts in
``tdlek.formulas``.
"""

from __future__ import annotations

from dataclasses import fields

from tdlek.formulas import (
    Always,
    And,
    Atom,
    Belief,
    Bot,
    Conj,
    Dynamic,
    Formula,
    Iff,
    Implies,
    Infer,
    Knowledge,
    Learn,
    MentalOp,
    NonGround,
    Not,
    Or,
    Revise,
    Top,
    children,
    fits,
    is_ground,
    is_var,
    print_formula,
    rebuild,
    time_of,
)
from tdlek.intervals import INF, Interval, TimeExpr, difference, hull, intersect, subset
from tdlek.models import TLekModel, World


def world_interval_ref(w: World) -> Interval:
    """I(w) by a scan of the atoms: [0,inf) for none."""
    if not w.atoms:
        return Interval(0, INF)
    return Interval(min(int(a.start.offset) for a in w.atoms), max(a.end.offset for a in w.atoms))


def extension(m: TLekModel, wid: str, f: Formula) -> frozenset[str]:
    """Worlds in R(w) where f holds."""
    return frozenset(v for v in m.r_of(wid) if check(m, v, f))


def check(m: TLekModel, wid: str, f: Formula) -> bool:
    """Truth at a world; every clause carries its timing side condition."""
    if not is_ground(f):
        raise NonGround(f"check needs a ground formula: {print_formula(f)}")
    return _check(m, wid, f)


def _check(m: TLekModel, wid: str, f: Formula) -> bool:
    world = m.worlds[wid]
    iv = world_interval_ref(world)
    if isinstance(f, Atom):
        return f in world.atoms and fits(time_of(f), iv)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not _check(m, wid, f.body) and fits(time_of(f.body), iv)
    if isinstance(f, And):
        return (
            _check(m, wid, f.left)
            and _check(m, wid, f.right)
            and fits(time_of(f.left), iv)
            and fits(time_of(f.right), iv)
        )
    if isinstance(f, Or):
        return (
            (_check(m, wid, f.left) or _check(m, wid, f.right))
            and fits(time_of(f.left), iv)
            and fits(time_of(f.right), iv)
        )
    if isinstance(f, Implies):
        return (
            (not _check(m, wid, f.left) or _check(m, wid, f.right))
            and fits(time_of(f.left), iv)
            and fits(time_of(f.right), iv)
        )
    if isinstance(f, Iff):
        return (
            (_check(m, wid, f.left) == _check(m, wid, f.right))
            and fits(time_of(f.left), iv)
            and fits(time_of(f.right), iv)
        )
    if isinstance(f, Belief):
        return extension(m, wid, f.body) in m.n_of(wid) and fits(time_of(f.body), iv)
    if isinstance(f, Knowledge):
        return all(_check(m, v, f.body) for v in m.r_of(wid)) and fits(
            time_of(f.body), iv
        )
    if isinstance(f, Always):
        label = Interval(int(f.start.offset), f.end.offset)
        return (
            fits(time_of(f.body), label)
            and fits(label, iv)
            and all(_check(m, v, f.body) for v in m.r_of(wid))
        )
    if isinstance(f, Dynamic):
        return check_dynamic(m, wid, f)
    raise TypeError(f"unknown formula node {f!r}")


def check_dynamic(m: TLekModel, wid: str, f: Dynamic) -> bool:
    """Update first, then check the body, whose time must fit I(w)."""
    outcome_model = apply(m, f.op)[0]
    iv = world_interval_ref(m.worlds[wid])
    return check(outcome_model, wid, f.body) and fits(time_of_ref(f.body), iv)


def wider_belief_exists(m: TLekModel, wid: str, op: Revise) -> bool:
    trigger_iv = op.trigger.interval()
    candidates = {
        a
        for v in m.r_of(wid)
        for a in m.worlds[v].atoms
        if a.pred == op.target.pred and a.args == op.target.args and a != op.target
    }
    for cand in sorted(candidates, key=lambda a: (a.start.offset, a.end.offset)):
        j = cand.interval()
        if subset(trigger_iv, j) and j != trigger_iv and check(m, wid, Belief(cand)):
            return True
    return False


def _residual_atoms(op: Revise) -> list[Atom]:
    parts = difference(op.target.interval(), op.trigger.interval())
    return [
        Atom(op.target.pred, TimeExpr.lit(p.lo), TimeExpr.lit(p.hi), op.target.args)
        for p in parts
    ]


def apply(m: TLekModel, op: MentalOp) -> tuple[TLekModel, bool, dict, dict]:
    """(updated model, applied, delta, each world's updated family of
    world-id sets), guards evaluated world by world."""
    new_nbhd: dict[str, frozenset[frozenset[str]]] = {}
    delta: dict = {}
    applied = False
    for wid in sorted(m.worlds):
        iv = world_interval_ref(m.worlds[wid])
        adds: list[frozenset[str]] = []
        removes: list[frozenset[str]] = []
        fired = False
        if isinstance(op, Learn):
            if fits(time_of_ref(op.literal), iv):
                fired = True
                adds.append(extension(m, wid, op.literal))
        elif isinstance(op, Conj):
            if (
                check(m, wid, Belief(op.left))
                and check(m, wid, Belief(op.right))
                and fits(time_of_ref(op), iv)
            ):
                fired = True
                adds.append(extension(m, wid, And(op.left, op.right)))
        elif isinstance(op, Infer):
            if (
                check(m, wid, Belief(op.premise))
                and check(m, wid, Knowledge(Implies(op.premise, op.conclusion)))
                and fits(time_of_ref(op), iv)
            ):
                fired = True
                adds.append(extension(m, wid, op.conclusion))
        elif isinstance(op, Revise):
            overlap = intersect(op.trigger.interval(), op.target.interval())
            guard = (
                not overlap.is_empty()
                and check(m, wid, Belief(op.trigger))
                and check(m, wid, Belief(op.target))
                and check(m, wid, Knowledge(Implies(op.trigger, Not(op.target))))
                and fits(time_of_ref(op), iv)
                and not wider_belief_exists(m, wid, op)
            )
            if guard:
                fired = True
                q_cut = Atom(
                    op.target.pred,
                    TimeExpr.lit(overlap.parts[0].lo),
                    TimeExpr.lit(overlap.parts[0].hi),
                    op.target.args,
                )
                removes.append(extension(m, wid, q_cut))
                for residual in _residual_atoms(op):
                    adds.append(extension(m, wid, residual))
        applied = applied or fired
        family = set(m.n_of(wid))
        before = frozenset(family)
        for x in removes:
            family.discard(x)
        for x in adds:
            family.add(x)
        after = frozenset(family)
        new_nbhd[wid] = after
        if before != after:
            delta[wid] = {
                "added": [sorted(x) for x in sorted(after - before, key=sorted)],
                "removed": [sorted(x) for x in sorted(before - after, key=sorted)],
            }
    if not delta:
        return m, applied, {}, new_nbhd
    return TLekModel(m.worlds.values(), m.classes, new_nbhd), applied, delta, new_nbhd


def validate_model(m: TLekModel) -> list[str]:
    """The two neighbourhood conditions, checked on the world-id families."""
    violations = []
    for wid in sorted(m.worlds):
        reach = m.r_of(wid)
        for x in sorted(m.n_of(wid), key=sorted):
            if not x.issubset(reach):
                violations.append(
                    f"condition 1 at {wid}: element {{{' '.join(sorted(x))}}} "
                    f"leaves R({wid}) via {sorted(x - reach)}"
                )
    for cls in m.classes:
        for wid in sorted(cls):
            for vid in sorted(cls):
                if wid != vid and not m.n_of(wid).issubset(m.n_of(vid)):
                    violations.append(f"condition 2 at ({wid},{vid}): N({wid}) is not a subset of N({vid})")
    return violations


def normalize_sugar(f: Formula) -> Formula:
    """Rewrite | and <-> into the core connectives ~, &, ->; prefixes keep their op."""
    if isinstance(f, Dynamic):
        return Dynamic(f.op, normalize_sugar(f.body))
    f = rebuild(f, [normalize_sugar(c) for c in children(f)])
    if isinstance(f, Or):
        return Not(And(Not(f.left), Not(f.right)))
    if isinstance(f, Iff):
        return And(Implies(f.left, f.right), Implies(f.right, f.left))
    return f


# ---------------------------------------------------------------------------
# Uncached node facts: every call walks the whole tree again
# ---------------------------------------------------------------------------


def free_vars_ref(f) -> frozenset[str]:
    """Variables of a formula or mental operation, by a fresh walk."""
    out: set[str] = set()
    for name, value in ((x.name, getattr(f, x.name)) for x in fields(f)):
        if isinstance(value, TimeExpr):
            out |= {value.var} if value.var is not None else set()
        elif name == "args":
            out |= {a for a in value if is_var(a)}
        elif isinstance(value, (Formula, MentalOp)):
            out |= free_vars_ref(value)
    return frozenset(out)


def _hull_ref(a, b):
    return b if a is None else a if b is None else hull(a, b)


def time_of_ref(f):
    """Time of a ground formula or mental operation, by a fresh walk."""
    if isinstance(f, (Atom, Always)):
        return Interval(int(f.start.offset), f.end.offset)
    if isinstance(f, Revise):
        span = Interval(int(f.target.start.offset), f.target.end.offset)
        cut = Interval(int(f.trigger.start.offset), f.trigger.end.offset)
        restored = difference(span, cut).hull()
        return span if restored is None else restored
    if isinstance(f, Infer):
        return time_of_ref(f.conclusion)
    if isinstance(f, Dynamic):
        return time_of_ref(f.op)
    t = None
    for x in fields(f):
        t = _hull_ref(t, time_of_ref(getattr(f, x.name)))
    return t


class _Hashed:
    """Stands in a tuple for a node whose hash was computed by hash_ref."""

    def __init__(self, h: int):
        self.h = h

    def __hash__(self) -> int:
        return self.h


def hash_ref(f) -> int:
    """The generated dataclass hash, hash of the tuple of field values,
    with every sub-node's hash recomputed the same way."""
    return hash(tuple(
        _Hashed(hash_ref(v)) if isinstance(v, (Formula, MentalOp)) else v
        for v in (getattr(f, x.name) for x in fields(f))
    ))
