"""Seeded random generators for formulas and mental operations.

Used by the rand-test suites and the round-trip tests.  Everything is
driven by an explicit random.Random so identical seeds give identical
streams.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .intervals import INF, TimeExpr, _derived
from .formulas import (
    Always,
    And,
    Atom,
    Belief,
    Conj,
    Dynamic,
    Formula,
    Iff,
    Implies,
    Infer,
    Knowledge,
    Learn,
    MentalOp,
    Not,
    Or,
    Revise,
    _trusted_ground_atom,
)
from .models import TLekModel

# The collections.abc generic, not typing.Sequence: typing caches its
# subscriptions for the life of the process, so typing.Sequence[Atom] would
# keep this copy of the package alive after a re-import.
Vocab = Sequence[Atom]

# Node kinds per generator, as (roll bound, class): one draw of
# rng.random() picks the first class whose bound exceeds it.
_STATIC_KINDS = (
    (0.40, Atom), (0.52, Not), (0.66, And), (0.73, Or), (0.79, Implies),
    (0.83, Iff), (0.92, Belief), (0.985, Knowledge), (1.0, Always),
)
_BODY_KINDS = (
    (0.40, Atom), (0.54, Not), (0.72, And), (0.80, Or),
    (0.885, Belief), (0.997, Knowledge), (1.0, Always),
)
_FREE_KINDS = (
    (0.30, Atom), (0.40, Not), (0.50, And), (0.57, Or), (0.64, Implies),
    (0.70, Iff), (0.78, Belief), (0.86, Knowledge), (0.92, Always), (1.0, Dynamic),
)


def _pick(rng: random.Random, kinds) -> type:
    roll = rng.random()
    return next(cls for bound, cls in kinds if roll < bound)


def model_vocab(m: TLekModel) -> list[Atom]:
    atoms = {a for w in m.worlds.values() for a in w.atoms}
    return sorted(atoms, key=lambda a: (a.pred, a.start.offset, a.end.offset, a.args))


def gen_vocab_atom(rng: random.Random, vocab: Vocab, horizon: int) -> Atom:
    """Mostly an existing atom, sometimes a fresh one over the same predicates
    (valid name, ordered bounds), built unchecked; vocab is read in place."""
    if vocab and rng.random() < 0.75:
        return rng.choice(vocab)
    pred = rng.choice(vocab).pred if vocab else rng.choice(("p", "q"))
    lo = rng.randint(0, horizon)
    hi = INF if rng.random() < 0.15 else rng.randint(lo, horizon)
    return _trusted_ground_atom(pred, _derived(lo, hi), ())


def gen_literal(rng: random.Random, vocab: Vocab, horizon: int) -> Formula:
    atom = gen_vocab_atom(rng, vocab, horizon)
    return Not(atom) if rng.random() < 0.3 else atom


def gen_static(rng: random.Random, vocab: Vocab, horizon: int, depth: int = 2) -> Formula:
    cls = Atom if depth <= 0 else _pick(rng, _STATIC_KINDS)
    if cls is Atom:
        return gen_vocab_atom(rng, vocab, horizon)
    sub = lambda: gen_static(rng, vocab, horizon, depth - 1)  # noqa: E731
    if cls is Always:
        lo = rng.randint(0, horizon)
        hi = INF if rng.random() < 0.5 else rng.randint(lo, horizon)
        return Always(TimeExpr.lit(lo), TimeExpr.lit(hi), sub())
    return cls(*(sub() for _ in cls._parts))


def gen_mental_op(rng: random.Random, vocab: Vocab, horizon: int) -> MentalOp:
    roll = rng.random()
    if roll < 0.40:
        return Learn(gen_literal(rng, vocab, horizon))
    if roll < 0.65:
        return Conj(
            gen_static(rng, vocab, horizon, 1),
            gen_static(rng, vocab, horizon, 1),
        )
    if roll < 0.92:
        return Infer(gen_static(rng, vocab, horizon, 1), gen_vocab_atom(rng, vocab, horizon))
    target = gen_vocab_atom(rng, vocab, horizon)
    t_iv = target.interval()
    top = int(t_iv.hi) if t_iv.finite else horizon
    lo = rng.randint(t_iv.lo, top)
    hi = rng.randint(lo, top) if t_iv.finite or rng.random() >= 0.5 else INF
    return Revise(_trusted_ground_atom("x" + target.pred, _derived(lo, hi), ()), target)


def gen_dynamic_body(rng: random.Random, vocab: Vocab, horizon: int, dyn_depth: int) -> Formula:
    """Body under a prefix; may contain one more nested prefix."""
    if dyn_depth > 0 and rng.random() < 0.22:
        return Dynamic(
            gen_mental_op(rng, vocab, horizon),
            gen_dynamic_body(rng, vocab, horizon, dyn_depth - 1),
        )
    cls = _pick(rng, _BODY_KINDS)
    if cls is Atom:
        return gen_vocab_atom(rng, vocab, horizon)
    if cls is Always:
        lo = rng.randint(0, horizon)
        return Always(TimeExpr.lit(lo), TimeExpr.lit(INF), gen_vocab_atom(rng, vocab, horizon))
    if cls in (Belief, Knowledge):
        return cls(gen_static(rng, vocab, horizon, 1))
    return cls(*(gen_dynamic_body(rng, vocab, horizon, 0) for _ in cls._parts))


def gen_dynamic_formula(rng: random.Random, vocab: Vocab, horizon: int, dyn_depth: int = 2) -> Dynamic:
    """A prefixed formula with at most dyn_depth nested prefixes."""
    return Dynamic(
        gen_mental_op(rng, vocab, horizon),
        gen_dynamic_body(rng, vocab, horizon, dyn_depth - 1),
    )


# ---------------------------------------------------------------------------
# Free ASTs for round-trip testing (variables allowed, all node kinds)
# ---------------------------------------------------------------------------

_PREDS = ("p", "q", "rain", "take", "married", "go")
_CONSTS = ("a", "b", "umbrella", "shops")
_TIME_VARS = ("T", "T1", "T2")
_OBJ_VARS = ("X", "Y")


def _gen_time_expr(rng: random.Random, allow_vars: bool) -> TimeExpr:
    roll = rng.random()
    if allow_vars and roll < 0.3:
        var = rng.choice(_TIME_VARS)
        shift_roll = rng.random()
        if shift_roll < 0.4:
            return TimeExpr.at(var, rng.randint(1, 20))
        if shift_roll < 0.55:
            return TimeExpr.at(var, -rng.randint(1, 5))
        return TimeExpr.at(var)
    if roll < 0.45:
        return TimeExpr.lit(INF)
    return TimeExpr.lit(rng.randint(0, 30))


def gen_free_atom(rng: random.Random, allow_vars: bool = True) -> Atom:
    while True:
        start = _gen_time_expr(rng, allow_vars)
        if start.is_ground() and start.offset == INF:
            continue
        end = _gen_time_expr(rng, allow_vars)
        args = []
        for _ in range(rng.randint(0, 2)):
            if allow_vars and rng.random() < 0.3:
                args.append(rng.choice(_OBJ_VARS))
            else:
                args.append(rng.choice(_CONSTS))
        try:
            return Atom(rng.choice(_PREDS), start, end, tuple(args))
        except ValueError:
            continue


def gen_free_formula(rng: random.Random, depth: int = 4, allow_vars: bool = True) -> Formula:
    """Arbitrary AST over the whole grammar, for parse/print round trips."""
    cls = Atom if depth <= 0 else _pick(rng, _FREE_KINDS)
    if cls is Atom:
        return gen_free_atom(rng, allow_vars)
    sub = lambda: gen_free_formula(rng, depth - 1, allow_vars)  # noqa: E731
    if cls is Always:
        lo = _gen_time_expr(rng, allow_vars)
        while lo.is_ground() and lo.offset == INF:
            lo = _gen_time_expr(rng, allow_vars)
        hi = _gen_time_expr(rng, allow_vars)
        if lo.is_ground() and hi.is_ground() and lo.offset > hi.offset:
            lo, hi = TimeExpr.lit(0), TimeExpr.lit(INF)
        return Always(lo, hi, sub())
    if cls is not Dynamic:
        return cls(*(sub() for _ in cls._parts))
    op_roll = rng.random()
    if op_roll < 0.3:
        lit = gen_free_atom(rng, allow_vars)
        op: MentalOp = Learn(Not(lit) if rng.random() < 0.3 else lit)
    elif op_roll < 0.55:
        op = Conj(gen_free_formula(rng, 1, allow_vars), gen_free_formula(rng, 1, allow_vars))
    elif op_roll < 0.8:
        op = Infer(gen_free_formula(rng, 1, allow_vars), gen_free_atom(rng, allow_vars))
    else:
        op = Revise(gen_free_atom(rng, allow_vars), gen_free_atom(rng, allow_vars))
    return Dynamic(op, sub())
