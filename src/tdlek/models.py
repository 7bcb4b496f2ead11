"""Finite T-LEK models and the model checker.

A model is a set of worlds (each carrying its valuation, a set of ground
atoms), an equivalence relation R stored as a partition, and a
neighbourhood function N mapping each world to a family of world sets.
Truth of B is membership of a formula's extension in N; K quantifies over
the R-class; every clause is gated by the world's derived interval.

The checker labels bottom-up: each subformula gets its time and its truth
set, a bitmask over the sorted world ids, from its children's in one pass.
N is kept as masks too.  World intervals, class masks and the worlds
holding each atom are computed once per frame, which the models derived
by an update share.  Each call labels its formula afresh, so a caller
asking about one formula at many worlds takes its truth set once.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .intervals import INF, Interval, TimePoint, _derived
from .formulas import (
    Always,
    And,
    Atom,
    Belief,
    Bot,
    Formula,
    Iff,
    Implies,
    Knowledge,
    NonGround,
    Not,
    Or,
    Top,
    _UNSET,
    _trusted_ground_atom,
    parse_atom,
    print_formula,
)


class ModelFormatError(ValueError):
    """Malformed model text; carries a line number where possible."""


@dataclass(frozen=True)
class World:
    """A world: opaque id plus its valuation (set of ground atoms)."""

    id: str
    atoms: frozenset[Atom]
    # I(w) of a world with atoms, found when it is built (not a field)
    _interval = None

    def __post_init__(self):
        if not self.id or any(ch.isspace() or ch in "{}:," for ch in self.id):
            raise ValueError(f"bad world id {self.id!r}")
        lo, hi = INF, 0
        for a in self.atoms:
            if not a.is_ground():
                raise NonGround(f"world {self.id}: atom {a} is not ground")
            if a.start.offset < lo:
                lo = a.start.offset
            if a.end.offset > hi:
                hi = a.end.offset
        if self.atoms:
            object.__setattr__(self, "_interval", _derived(int(lo), hi))


def _trusted_world(wid: str, atoms: frozenset[Atom], interval: Optional[Interval]) -> World:
    """World wid (a valid id) over ground atoms whose interval I(w) the
    builder already knows (None for no atoms): built without
    __post_init__, whose checks and scan such a world does not need."""
    w = object.__new__(World)
    object.__setattr__(w, "id", wid)
    object.__setattr__(w, "atoms", atoms)
    object.__setattr__(w, "_interval", interval)
    return w


def world_interval(w: World) -> Interval:
    """Derived interval: minimum start to supremum end of the valuation.

    An empty valuation gets the designated interval [0,inf), which makes
    the timing side conditions vacuously permissive there.  Every world
    carries its interval from when it was built, so no call scans atoms.
    """
    if not w.atoms:
        return Interval(0, INF)
    return w._interval


class TLekModel:
    """Immutable snapshot of a model: worlds, R-partition, neighbourhoods.

    Each N(w) is a family of masks over frame.ids (n_of gives world ids).
    """

    def __init__(
        self,
        worlds: Iterable[World],
        classes: Iterable[frozenset[str]],
        nbhd: dict[str, Iterable[frozenset[str]]],
    ):
        self.worlds: dict[str, World] = {}
        for w in worlds:
            if w.id in self.worlds:
                raise ValueError(f"duplicate world id {w.id}")
            self.worlds[w.id] = w
        self.classes: tuple[frozenset[str], ...] = tuple(
            sorted((frozenset(c) for c in classes), key=lambda c: sorted(c))
        )
        self.class_of: dict[str, frozenset[str]] = {}
        for c in self.classes:
            for wid in c:
                if wid not in self.worlds:
                    raise ValueError(f"class member {wid} is not a world")
                if wid in self.class_of:
                    raise ValueError(f"world {wid} appears in two classes")
                self.class_of[wid] = c
        known = set(self.worlds)  # built once: the loop below is per world
        if len(self.class_of) != len(known):
            missing = sorted(known - set(self.class_of))
            raise ValueError(f"worlds not covered by any class: {missing}")
        self.frame = fr = Frame(self)
        families = [frozenset()] * len(fr.ids)
        for wid, family in nbhd.items():
            if wid not in known:
                raise ValueError(f"neighbourhood for unknown world {wid}")
            fam = frozenset(frozenset(x) for x in family)
            unknown = frozenset().union(*fam) - known
            if unknown:
                raise ValueError(f"neighbourhood of {wid} mentions unknown world {min(unknown)}")
            families[fr.index[wid]] = frozenset(fr.mask(x) for x in fam)
        self.nbhd: tuple[frozenset[int], ...] = tuple(families)

    def r_of(self, wid: str) -> frozenset[str]:
        return self.class_of[wid]

    def n_of(self, wid: str) -> frozenset[frozenset[str]]:
        return frozenset(map(self.frame.worlds_of, self.nbhd[self.frame.index[wid]]))

    def with_nbhd(self, nbhd: tuple[frozenset[int], ...]) -> "TLekModel":
        """This model with its neighbourhoods replaced by nbhd, masks laid
        out as in self.nbhd.  The worlds, classes and frame are shared, and
        nothing is re-validated: nbhd must meet __init__'s checks."""
        out = object.__new__(TLekModel)
        out.worlds, out.classes, out.class_of = self.worlds, self.classes, self.class_of
        out.frame, out.nbhd = self.frame, nbhd
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLekModel):
            return NotImplemented
        return (  # equal worlds index their masks alike
            self.worlds == other.worlds
            and set(self.classes) == set(other.classes)
            and self.nbhd == other.nbhd
        )

    def __repr__(self) -> str:
        return f"<TLekModel {len(self.worlds)} worlds, {len(self.classes)} classes>"


class Frame:
    """The worlds and the partition of a model as bitmasks, computed once.

    World frame.ids[i] is bit bits[i] = 1 << i of every truth set.  Each
    world's interval comes from one world_interval call.  The worlds holding
    an atom, and those fitting a time, are found once per frame, on first use.
    """

    def __init__(self, m: TLekModel):
        self.ids: tuple[str, ...] = tuple(sorted(m.worlds))
        self.index: dict[str, int] = _WorldIndex({wid: i for i, wid in enumerate(self.ids)})
        self.bits: tuple[int, ...] = tuple(1 << i for i in range(len(self.ids)))
        self.all = (1 << len(self.ids)) - 1
        self.valuations = tuple(m.worlds[wid].atoms for wid in self.ids)
        self.intervals = tuple(world_interval(m.worlds[wid]) for wid in self.ids)
        self.classes: tuple[int, ...] = tuple(self.mask(c) for c in m.classes)
        # cls[i]: the mask of world i's R-class
        self.cls: tuple[int, ...] = tuple(self.mask(m.class_of[wid]) for wid in self.ids)
        self._fits = _Fits(self)  # read by the clauses, as fit reads it
        self.holding: dict[Atom, int] = {}  # atom -> worlds holding it, filled by _atom

    def mask(self, wids: Iterable[str]) -> int:
        out = 0
        for wid in wids:
            out |= 1 << self.index[wid]
        return out

    def worlds_of(self, mask: int) -> frozenset[str]:
        return frozenset(wid for i, wid in enumerate(self.ids) if mask >> i & 1)

    def fit(self, t: Optional[Interval]) -> int:
        """Worlds whose interval contains t; all of them for timeless t."""
        return self._fits[None if t is None else (t.lo, t.hi)]


class _WorldIndex(dict):
    """Frame.index; a world id the model lacks raises ValueError naming it."""

    def __missing__(self, wid: str) -> int:
        raise ValueError(f"no world {wid!r} in the model")


class _Fits(dict):
    """Frame.fit's memo: (lo, hi) -> the worlds whose interval contains
    [lo, hi], found on the first lookup; None (timeless) -> every world."""

    __slots__ = ("bits", "intervals")  # the frame's, not the frame: no cycle

    def __init__(self, fr: Frame):
        super().__init__({None: fr.all})
        self.bits, self.intervals = fr.bits, fr.intervals

    def __missing__(self, key: tuple[int, TimePoint]) -> int:
        lo, hi = key
        mask = 0
        for bit, iv in zip(self.bits, self.intervals):
            if iv.lo <= lo and hi <= iv.hi:
                mask |= bit
        self[key] = mask
        return mask


def validate_model(m: TLekModel) -> list[str]:
    """Check the two neighbourhood conditions; empty list means valid.

    Condition 1: every element of N(w) is a set of worlds reachable from w.
    Condition 2: if w R v then N(w) is a subset of N(v).
    """
    fr = m.frame
    violations = []
    for i, wid in enumerate(fr.ids):
        reach = m.r_of(wid)
        leaving = (fr.worlds_of(x) for x in m.nbhd[i] if x & ~fr.cls[i])
        for x in sorted(leaving, key=lambda s: sorted(s)):
            outside = sorted(x - reach)
            violations.append(
                f"condition 1 at {wid}: element {{{' '.join(sorted(x))}}} "
                f"leaves R({wid}) via {outside}"
            )
    for cls in m.classes:
        for wid in sorted(cls):
            for vid in sorted(cls):
                if wid != vid and not m.nbhd[fr.index[wid]] <= m.nbhd[fr.index[vid]]:
                    violations.append(f"condition 2 at ({wid},{vid}): N({wid}) is not a subset of N({vid})")
    return violations


def label(m: TLekModel, f: Formula) -> tuple[Optional[Interval], int]:
    """Time and truth set of a ground formula, labelled bottom-up.

    The one entry to the clauses, which label their children through
    CLAUSES directly: a value of no formula class raises TypeError at any
    depth.  Each clause ANDs its truth set with the worlds whose interval
    fits its node's time.  A connective's time is the hull of its
    children's: the child's own interval where it covers the other's, a
    new one only where neither does.  A variable raises NonGround where
    labelling meets it: at the atom or box that holds it, or in apply's
    check of a dynamic prefix's operation.
    """
    return CLAUSES.get(type(f), _unknown)(m, f)


def _unknown(m: TLekModel, f) -> tuple[Optional[Interval], int]:
    raise TypeError(f"unknown formula node {f!r}")


def truth_set(m: TLekModel, f: Formula) -> int:
    """Worlds where a ground formula holds, as a mask over m.frame.ids.

    Labels f on every call, so to ask about one formula at many worlds,
    take its truth set once and read world wid's bit at m.frame.index[wid].
    A formula with a variable raises NonGround.
    """
    try:
        return label(m, f)[1]
    except NonGround:
        raise NonGround(f"check needs a ground formula: {print_formula(f)}") from None


def extension(m: TLekModel, wid: str, f: Formula) -> frozenset[str]:
    """Worlds in R(w) where f holds."""
    fr = m.frame
    cls = fr.cls[fr.index[wid]]  # a world m lacks raises before any labelling
    return fr.worlds_of(truth_set(m, f) & cls)


def check(m: TLekModel, wid: str, f: Formula) -> bool:
    """Truth at a world; every clause carries its timing side condition.
    Each call labels f at every world: to ask about one formula at many
    worlds, call truth_set, extension or valid_in_model once instead."""
    i = m.frame.index[wid]  # a world m lacks raises before any labelling
    return bool(truth_set(m, f) >> i & 1)


def _atom(m: TLekModel, f: Atom):
    t = f._memo_time
    if t is _UNSET:
        t = f.interval()  # raises NonGround on a variable; a held atom fits I(w)
    fr = m.frame
    mask = fr.holding.get(f)
    if mask is None:
        mask = 0
        for bit, atoms in zip(fr.bits, fr.valuations):
            if f in atoms:
                mask |= bit
        fr.holding[f] = mask
    return t, mask


def _not(m: TLekModel, f: Not):
    t, body = CLAUSES.get(type(f.body), _unknown)(m, f.body)
    return t, ~body & m.frame._fits[None if t is None else (t.lo, t.hi)]


def _connective(combine):
    def clause(m: TLekModel, f):
        l, r = f.left, f.right
        tl, left = CLAUSES.get(type(l), _unknown)(m, l)
        tr, right = CLAUSES.get(type(r), _unknown)(m, r)
        if tr is None or tl is not None and tl.lo <= tr.lo and tr.hi <= tl.hi:
            t = tl
        elif tl is None or tr.lo <= tl.lo and tl.hi <= tr.hi:
            t = tr
        else:
            t = _derived(min(tl.lo, tr.lo), max(tl.hi, tr.hi))
        return t, combine(left, right) & m.frame._fits[None if t is None else (t.lo, t.hi)]

    return clause


def _belief(m: TLekModel, f: Belief):
    t, body = CLAUSES.get(type(f.body), _unknown)(m, f.body)
    fr = m.frame
    mask = 0
    for bit, cls, family in zip(fr.bits, fr.cls, m.nbhd):
        if body & cls in family:
            mask |= bit
    return t, mask & fr._fits[None if t is None else (t.lo, t.hi)]


def _everywhere(fr: "Frame", body: int) -> int:
    """Worlds whose whole R-class lies inside body."""
    mask = 0
    for cls in fr.classes:
        if body & cls == cls:
            mask |= cls
    return mask


def _knowledge(m: TLekModel, f: Knowledge):
    t, body = CLAUSES.get(type(f.body), _unknown)(m, f.body)
    fr = m.frame
    return t, _everywhere(fr, body) & fr._fits[None if t is None else (t.lo, t.hi)]


def _always(m: TLekModel, f: Always):
    span = f.interval()  # raises NonGround on a variable bound
    t, body = CLAUSES.get(type(f.body), _unknown)(m, f.body)
    if t is not None and not (span.lo <= t.lo and t.hi <= span.hi):
        return span, 0
    return span, _everywhere(m.frame, body) & m.frame._fits[span.lo, span.hi]


# One clause per node type; dynamics adds the Dynamic clause, which has to
# update the model before it can label the body.
CLAUSES = {
    Atom: _atom,
    Top: lambda m, f: (None, m.frame.all),
    Bot: lambda m, f: (None, 0),
    Not: _not,
    And: _connective(lambda l, r: l & r),
    Or: _connective(lambda l, r: l | r),
    Implies: _connective(lambda l, r: ~l | r),
    Iff: _connective(lambda l, r: ~(l ^ r)),
    Belief: _belief,
    Knowledge: _knowledge,
    Always: _always,
}


def valid_in_model(m: TLekModel, f: Formula) -> bool:
    """True in every world of this model."""
    return truth_set(m, f) == m.frame.all


# ---------------------------------------------------------------------------
# Random model generation
# ---------------------------------------------------------------------------

_PRED_POOL = ("p", "q", "r", "s", "u", "v")


def gen_random_model(
    seed: int = 0,
    max_worlds: int = 4,
    max_predicates: int = 3,
    horizon: int = 10,
    full_span: bool = False,
) -> TLekModel:
    """Deterministic random model satisfying both frame conditions.

    The partition is drawn first; every world in a class shares the same
    derived interval (a spanning atom pins it), which keeps neighbourhood
    condition 2 stable under the mental-operation updates.  Neighbourhood
    families mix random id subsets with extensions of vocabulary atoms and
    are shared across each class.  With full_span=True every class interval
    is [0,inf), so no timing side condition can fail within the horizon.
    Each world is built unchecked at its class interval [lo, hi], which is
    I(w): the spanning atom is [lo, hi] and every other atom lies inside it.
    """
    rng = random.Random(seed)
    n = rng.randint(1, max(1, max_worlds))
    ids = [f"w{i}" for i in range(n)]
    preds = list(_PRED_POOL[: max(1, max_predicates)])

    shuffled = ids[:]
    rng.shuffle(shuffled)
    classes: list[list[str]] = [[]]
    for wid in shuffled:
        if classes[-1] and rng.random() < 0.45:
            classes.append([])
        classes[-1].append(wid)

    worlds = []
    for cls in classes:
        if full_span:
            lo, hi = 0, INF
        else:
            lo = rng.randint(0, max(0, horizon // 2))
            hi = INF if rng.random() < 0.3 else rng.randint(lo, horizon)
        span = _derived(lo, hi)
        for wid in cls:
            atoms = {_random_atom(rng.choice(preds), lo, hi)}
            for _ in range(rng.randint(0, 2)):
                a = rng.randint(lo, horizon if hi == INF else int(hi))
                if hi == INF and rng.random() < 0.3:
                    b: TimePoint = INF
                else:
                    b = rng.randint(a, horizon if hi == INF else int(hi))
                atoms.add(_random_atom(rng.choice(preds), a, b))
            worlds.append(_trusted_world(wid, frozenset(atoms), span))

    base = TLekModel(worlds, [frozenset(c) for c in classes], {})
    fr = base.frame
    nbhd: list[frozenset[int]] = [frozenset()] * len(fr.ids)
    for cls in classes:
        members = sorted(cls)
        family: set[int] = set()
        for _ in range(rng.randint(0, 2)):
            family.add(fr.mask(w for w in members if rng.random() < 0.6))
        vocab = sorted(
            {a for wid in members for a in base.worlds[wid].atoms},
            key=lambda a: (a.pred, a.start.offset, a.end.offset),
        )
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(vocab)
            family.add(truth_set(base, target) & fr.cls[fr.index[members[0]]])
        for wid in members:
            nbhd[fr.index[wid]] = frozenset(family)
    return base.with_nbhd(tuple(nbhd))


def _random_atom(pred: str, lo: int, hi: TimePoint) -> Atom:
    """pred(lo, hi), 0 <= lo <= hi, by _trusted_ground_atom: no Atom checks."""
    return _trusted_ground_atom(pred, _derived(lo, hi), ())


# ---------------------------------------------------------------------------
# Text format: worlds / classes / nbhd sections, bit-exact round trip
# ---------------------------------------------------------------------------


def _atom_sort_key(a: Atom):
    return (a.pred, a.start.offset, a.end.offset, a.args)


def save_model(m: TLekModel) -> str:
    lines = ["worlds:"]
    for wid in sorted(m.worlds):
        atoms = " ".join(
            print_formula(a) for a in sorted(m.worlds[wid].atoms, key=_atom_sort_key)
        )
        lines.append(f"  {wid}:" + (f" {atoms}" if atoms else ""))
    lines.append("classes:")
    for cls in m.classes:
        lines.append("  " + " ".join(sorted(cls)))
    lines.append("nbhd:")
    for wid in sorted(m.worlds):
        family = sorted(m.n_of(wid), key=lambda s: (len(s), sorted(s)))
        rendered = " ".join("{" + " ".join(sorted(x)) + "}" for x in family)
        lines.append(f"  {wid}:" + (f" {rendered}" if rendered else ""))
    return "\n".join(lines) + "\n"


def load_model(text: str) -> TLekModel:
    worlds: list[World] = []
    classes: list[frozenset[str]] = []
    nbhd: dict[str, list[frozenset[str]]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped in ("worlds:", "classes:", "nbhd:"):
            section = stripped[:-1]
            continue
        if section == "worlds":
            if ":" not in stripped:
                raise ModelFormatError(f"line {lineno}: expected 'id: atoms'")
            wid, _, rest = stripped.partition(":")
            wid = wid.strip()
            atoms = []
            for chunk in rest.split():
                try:
                    atoms.append(parse_atom(chunk))
                except ValueError as exc:
                    raise ModelFormatError(f"line {lineno}: bad atom {chunk!r}: {exc}") from exc
            try:
                worlds.append(World(wid, frozenset(atoms)))
            except ValueError as exc:
                raise ModelFormatError(f"line {lineno}: {exc}") from exc
        elif section == "classes":
            classes.append(frozenset(stripped.split()))
        elif section == "nbhd":
            if ":" not in stripped:
                raise ModelFormatError(f"line {lineno}: expected 'id: sets'")
            wid, _, rest = stripped.partition(":")
            family = []
            for part in re.findall(r"\{([^{}]*)\}", rest):
                family.append(frozenset(part.split()))
            rest_no_sets = re.sub(r"\{[^{}]*\}", "", rest).strip()
            if rest_no_sets:
                raise ModelFormatError(f"line {lineno}: stray text {rest_no_sets!r}")
            wid = wid.strip()
            if wid in nbhd:
                raise ModelFormatError(f"line {lineno}: duplicate nbhd line for world {wid!r}")
            nbhd[wid] = family
        else:
            raise ModelFormatError(f"line {lineno}: content before any section header")
    try:
        return TLekModel(worlds, classes, nbhd)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def load_model_file(path) -> TLekModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())

