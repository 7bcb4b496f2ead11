"""Mental operations as model transformers, and prefix elimination.

Each of the four operations (+, and, inf, rev) is one effect: a guard, the
formulas whose extensions it gains and those it loses.  apply() labels
the guard once over all worlds of the input model and rebuilds the
neighbourhood masks from those truth sets, so the update is simultaneous
across worlds.
This module also supplies the model checker's clause for prefixed
formulas: update first, then label the body.  reduce_formula() rewrites
dynamic prefixes away, innermost first: prefixes distribute over the
connectives and K, and a prefix on B unfolds into either the belief of the
pushed body or knowledge of its equivalence with what the operation added.
Shapes with no sound rewrite (a prefix on box, or a revision prefix on B)
are reported, not guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .intervals import difference, intersect, subset
from .formulas import (
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
    Knowledge,
    Learn,
    MalformedOp,
    MentalOp,
    Node,
    NonGround,
    Not,
    Or,
    Revise,
    _trusted_ground_atom,
    children,
    is_ground,
    op_time,
    print_formula,
    rebuild,
)
from .models import CLAUSES, TLekModel, _unknown, check, truth_set


class UnreducibleShape(ValueError):
    """A dynamic prefix met a construct with no sound reduction rule."""


@dataclass(frozen=True)
class OpOutcome:
    """Result of applying a mental operation to the model source.

    applied is False when the otherwise branch fired at every world.  When
    no neighbourhood changed, model is source itself.
    """

    model: TLekModel
    applied: bool
    source: TLekModel

    @property
    def delta(self) -> dict:
        """The neighbourhood changes per world, in serializable form."""
        fr = self.source.frame
        listed = lambda family: sorted(sorted(fr.worlds_of(x)) for x in family)
        return {
            wid: {"added": listed(after - before), "removed": listed(before - after)}
            for wid, before, after in zip(fr.ids, self.source.nbhd, self.model.nbhd)
            if before != after
        }


def wider_belief_exists(m: TLekModel, wid: str, op: Revise) -> bool:
    """True if some other target-predicate atom, believed at wid, covers a
    strictly larger interval than the trigger."""
    i = m.frame.index[wid]  # a world m lacks raises before any labelling
    trigger_iv = op.trigger.interval()
    candidates = {
        a
        for v in m.r_of(wid)
        for a in m.worlds[v].atoms
        if a.pred == op.target.pred and a.args == op.target.args and a != op.target
    }
    for cand in sorted(candidates, key=lambda a: (a.start.offset, a.end.offset)):
        j = cand.interval()
        if subset(trigger_iv, j) and j != trigger_iv and truth_set(m, Belief(cand)) >> i & 1:
            return True
    return False


def residual_atoms(op: Revise) -> list[Atom]:
    """The target's atoms over the sub-intervals the trigger leaves, unchecked."""
    parts = difference(op.target.interval(), op.trigger.interval())
    return [_trusted_ground_atom(op.target.pred, p, op.target.args) for p in parts]


def apply(m: TLekModel, op: MentalOp) -> OpOutcome:
    """Update the neighbourhoods per the operation's effect (see _effect).

    All four operations take one path.  At each world whose interval fits
    the operation's time and where its guard holds, the neighbourhood
    loses the extensions of what the operation loses and gains those of
    what it gains: Learn gains the literal's extension, Conj and Infer
    their conclusion's, and Revise, where no wider target belief exists
    either, loses the target restricted to the trigger's span and gains
    the residual sub-interval beliefs.  Only fired worlds' families are
    rebuilt, and every family left equal stays the same object.  Each
    guard is labelled once for all worlds on every call; nothing is
    memoised, so a repeated update labels its guards again.
    """
    if not is_ground(op):  # shapes are checked when an operation is built
        raise NonGround(f"mental operation is not ground: {print_formula(op)}")
    return OpOutcome(*_update(m, op), m)


def _effect(op: MentalOp) -> tuple[Optional[Formula], list[Formula], list[Formula]]:
    """(guard, gained, lost) of any of the four operations: where the
    guard holds, or everywhere when it is None, the operation removes each
    lost formula's extension from the neighbourhood and adds each gained
    one's.  A revision whose trigger and target do not overlap has the
    guard false."""
    if isinstance(op, Learn):
        return None, [op.literal], []
    if isinstance(op, Conj):
        return And(Belief(op.left), Belief(op.right)), [And(op.left, op.right)], []
    if isinstance(op, Revise):
        trigger, target = op.trigger, op.target
        overlap = intersect(trigger.interval(), target.interval())
        if overlap.is_empty():
            return Bot(), [], []
        cut = overlap.parts[0]
        guard = And(Belief(trigger), And(Belief(target), Knowledge(Implies(trigger, Not(target)))))
        lost = _trusted_ground_atom(target.pred, cut, target.args)
        return guard, residual_atoms(op), [lost]
    guard = And(Belief(op.premise), Knowledge(Implies(op.premise, op.conclusion)))
    return guard, [op.conclusion], []


def _update(m: TLekModel, op: MentalOp) -> tuple[TLekModel, bool]:
    """(updated model, applied).  Each fired world's family loses each lost
    extension it holds, then gains each gained one it lacks, masked to its
    class; an equal family stays the same object, and m itself is returned
    when no family changed."""
    fr = m.frame
    fired = fr.fit(op_time(op))
    guard, gained, lost = _effect(op)
    if guard is not None:
        fired &= truth_set(m, guard)
    if isinstance(op, Revise):
        for i, wid in enumerate(fr.ids):
            if fired >> i & 1 and wider_belief_exists(m, wid, op):
                fired &= ~(1 << i)
    if not fired:
        return m, False
    add_masks = [truth_set(m, f) for f in gained]
    remove_masks = [truth_set(m, f) for f in lost]
    nbhd, changed = list(m.nbhd), False
    for i, cls in enumerate(fr.cls):
        if fired >> i & 1:
            family = before = nbhd[i]
            for x in remove_masks:  # only a revision loses anything
                if x & cls in family:
                    family = family - {x & cls}
            for x in add_masks:
                if x & cls not in family:
                    family = family | {x & cls}
            if family is not before and family != before:
                nbhd[i], changed = family, True
    return (m.with_nbhd(tuple(nbhd)) if changed else m), True


def check_dynamic(m: TLekModel, wid: str, f: Formula) -> bool:
    """Truth of a prefixed formula: update, then check the body, with the
    body's time required to fit the world interval."""
    if not isinstance(f, Dynamic):
        raise TypeError(f"check_dynamic needs a dynamic formula, got {print_formula(f)}")
    return check(m, wid, f)


def _label_dynamic(m: TLekModel, f: Dynamic):
    t, body = CLAUSES.get(type(f.body), _unknown)(apply(m, f.op).model, f.body)
    return op_time(f.op), body & m.frame.fit(t)  # gated by the body's time


CLAUSES[Dynamic] = _label_dynamic


# ---------------------------------------------------------------------------
# Reduction to static formulas
# ---------------------------------------------------------------------------


def reduce_formula(f: Formula) -> Formula:
    """Rewrite a ground formula into one with no dynamic prefixes.

    Innermost prefixes go first, so a prefix is only ever pushed through a
    static body.  Each push strictly lowers the dynamic depth under B and
    K, hence termination.  Raises UnreducibleShape where no sound rewrite
    exists instead of guessing.
    """
    if not is_ground(f):
        raise NonGround(f"reduce needs a ground formula: {print_formula(f)}")
    return _reduce(f)


def _reduce(f: Node) -> Node:
    if isinstance(f, Dynamic):
        return _push(_reduce(f.op), _reduce(f.body))
    return rebuild(f, [_reduce(c) for c in children(f)])


def _push(op: MentalOp, body: Formula) -> Formula:
    """Push one prefix through a static body."""
    if isinstance(body, Belief):
        pushed = _push(op, body.body)
        if isinstance(op, Revise):
            raise UnreducibleShape(
                f"[{print_formula(op)}] on a belief: revision both removes and adds "
                "neighbourhood elements, so no static equivalent exists"
            )
        guard, (gained,), _ = _effect(op)
        equiv = Knowledge(Iff(pushed, gained))
        return Or(Belief(pushed), equiv if guard is None else And(guard, equiv))
    if isinstance(body, Always):
        raise UnreducibleShape(
            f"[{print_formula(op)}] on box{'' if body.is_default_interval() else '[...]'}: "
            "no reduction rule covers a prefixed box"
        )
    if isinstance(body, Dynamic):
        raise AssertionError("inner prefixes are reduced before pushing")
    return rebuild(body, [_push(op, c) for c in children(body)])
