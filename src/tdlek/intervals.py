"""Discrete time points, closed intervals, and canonical interval sets.

Time points are natural numbers; the symbolic value INF marks intervals
that never end.  [lo, hi] is closed on both ends, [lo, INF] prints as
"[lo,inf)" because no point sits at infinity itself.  All values here are
immutable and all operations are pure.  Intervals derived from valid ones
(hulls, intersections) are built without re-validation, and time literals
are shared: TimeExpr.lit returns one instance per value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

INF = float("inf")

TimePoint = Union[int, float]  # a natural number, or INF


class BadInterval(ValueError):
    """Bounds that cannot form an interval: lo > hi, negative, or lo = inf."""


class UnboundVariable(ValueError):
    """A time expression was evaluated without a binding for its variable."""


def is_time_point(value) -> bool:
    if value == INF:
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def fmt_time(t: TimePoint) -> str:
    return "inf" if t == INF else str(t)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] over naturals; hi may be INF (open-ended)."""

    lo: int
    hi: TimePoint

    def __post_init__(self):
        if not (isinstance(self.lo, int) and not isinstance(self.lo, bool) and self.lo >= 0):
            raise BadInterval(f"lower bound must be a natural number, got {self.lo!r}")
        if not is_time_point(self.hi):
            raise BadInterval(f"upper bound must be a natural number or inf, got {self.hi!r}")
        if self.lo > self.hi:
            raise BadInterval(f"lower bound {self.lo} exceeds upper bound {fmt_time(self.hi)}")

    @property
    def finite(self) -> bool:
        return self.hi != INF

    def contains(self, t: int) -> bool:
        return self.lo <= t <= self.hi

    def __str__(self) -> str:
        if self.finite:
            return f"[{self.lo},{self.hi}]"
        return f"[{self.lo},inf)"


_new = object.__new__
_set = object.__setattr__


def _derived(lo: int, hi: TimePoint) -> Interval:
    """[lo, hi] from bounds taken from valid intervals, with lo <= hi:
    built without __post_init__, whose checks such bounds always pass."""
    iv = _new(Interval)
    _set(iv, "lo", lo)
    _set(iv, "hi", hi)
    return iv


def make_interval(lo: TimePoint, hi: TimePoint) -> Interval:
    """Build [lo, hi]; lo must be finite and lo <= hi."""
    if lo == INF:
        raise BadInterval("lower bound may not be inf")
    return Interval(lo, hi)


_INTERVAL_RE = re.compile(r"^\[\s*(\d+)\s*,\s*(?:(\d+)\s*\]|inf\s*[\)\]])$")


def parse_interval(text: str) -> Interval:
    """Parse '[lo,hi]' or '[lo,inf)'."""
    m = _INTERVAL_RE.match(text.strip())
    if m is None:
        raise BadInterval(f"not an interval: {text!r}")
    lo = int(m.group(1))
    hi = INF if m.group(2) is None else int(m.group(2))
    return make_interval(lo, hi)


def hull(a: Interval, b: Interval) -> Interval:
    """Smallest single interval containing both a and b."""
    return _derived(min(a.lo, b.lo), max(a.hi, b.hi))


def intersect(a: Interval, b: Interval) -> "IntervalSet":
    """Pointwise intersection; empty or a single interval."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return IntervalSet()
    return IntervalSet((_derived(lo, hi),))


def difference(a: Interval, b: Interval) -> "IntervalSet":
    """Pointwise a minus b, canonical.

    When b sits strictly inside a the result is the two-sided split
    [a.lo, b.lo-1] and [b.hi+1, a.hi]; degenerate sides are dropped, so
    the result has at most two parts.  Each part's bounds come from a and
    b and are ordered by the tests here, so the parts are built unchecked.
    """
    parts = []
    if a.lo < b.lo:
        left_hi = min(a.hi, b.lo - 1)
        if a.lo <= left_hi:
            parts.append(_derived(a.lo, left_hi))
    if b.hi < a.hi:
        right_lo = max(a.lo, int(b.hi) + 1)
        if right_lo <= a.hi:
            parts.append(_derived(right_lo, a.hi))
    return IntervalSet(tuple(parts))


def subset(a: Interval, b: Interval) -> bool:
    """True iff every point of a lies in b."""
    return b.lo <= a.lo and a.hi <= b.hi


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise-disjoint, non-adjacent intervals (canonical form).

    Consecutive parts x, y always satisfy x.hi + 1 < y.lo; the empty tuple
    is the empty set.  Use IntervalSet.of() to canonicalize arbitrary input.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        for x, y in zip(self.parts, self.parts[1:]):
            if not (x.hi != INF and x.hi + 1 < y.lo):
                raise BadInterval(f"parts not canonical: {x} followed by {y}")

    @staticmethod
    def of(intervals: Iterable[Interval]) -> "IntervalSet":
        items = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        merged: list[Interval] = []
        for iv in items:
            if merged and (merged[-1].hi == INF or iv.lo <= merged[-1].hi + 1):
                last = merged[-1]
                merged[-1] = Interval(last.lo, max(last.hi, iv.hi))
            else:
                merged.append(iv)
        return IntervalSet(tuple(merged))

    def is_empty(self) -> bool:
        return not self.parts

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def hull(self) -> Optional[Interval]:
        if not self.parts:
            return None
        return _derived(self.parts[0].lo, self.parts[-1].hi)

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.parts) + "}"


_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")  # a whole variable name (fullmatch)

# TimeExpr.lit's shared instances, keyed by (type, value) so that True is
# never taken for the literal 1; filled up to the cap, then left as it is.
_LITERAL_CAP = 4096
_LITERALS: dict[tuple[type, TimePoint], "TimeExpr"] = {}


@dataclass(frozen=True)
class TimeExpr:
    """A time position: a literal point, a variable, or variable +/- constant.

    Literal form has var=None and the point in offset.  Variable form keeps
    the (possibly negative) shift in offset.  The hash, the generated
    dataclass hash of (var, offset), is computed once and kept.
    """

    var: Optional[str]
    offset: TimePoint = 0
    _memo_hash = None  # not a field

    def __hash__(self) -> int:
        h = self._memo_hash
        if h is None:
            h = hash((self.var, self.offset))
            _set(self, "_memo_hash", h)
        return h

    def __reduce__(self):
        # Rebuilt through the constructor, so the memo does not leave the
        # process: hash(None), and so a literal's hash, differs between them.
        return TimeExpr, (self.var, self.offset)

    def __post_init__(self):
        if self.var is None:
            if not is_time_point(self.offset):
                raise BadInterval(f"bad time literal {self.offset!r}")
        else:
            if not self.var[:1].isupper():
                raise ValueError(f"time variable must start uppercase: {self.var!r}")
            if not _VAR_RE.fullmatch(self.var):
                raise ValueError(f"bad time variable name {self.var!r}")
            if not isinstance(self.offset, int) or isinstance(self.offset, bool):
                raise BadInterval(f"bad shift {self.offset!r} on variable {self.var}")

    @staticmethod
    def lit(value: TimePoint) -> "TimeExpr":
        """The literal time expression for value, shared per value."""
        try:
            te = _LITERALS.get((type(value), value))
        except TypeError:  # unhashable, so no time point: the constructor says so
            te = None
        if te is None:
            te = TimeExpr(None, value)
            if len(_LITERALS) < _LITERAL_CAP:
                _LITERALS[type(value), value] = te
        return te

    @staticmethod
    def at(var: str, shift: int = 0) -> "TimeExpr":
        return TimeExpr(var, shift)

    def is_ground(self) -> bool:
        return self.var is None

    def vars(self) -> frozenset[str]:
        return frozenset() if self.var is None else frozenset({self.var})

    def eval(self, binding: Mapping[str, TimePoint]) -> TimePoint:
        if self.var is None:
            return self.offset
        if self.var not in binding:
            raise UnboundVariable(f"no binding for time variable {self.var}")
        base = binding[self.var]
        if not is_time_point(base):
            raise BadInterval(f"{self.var} bound to non-time value {base!r}")
        if base == INF:
            return INF
        value = base + self.offset
        if value < 0:
            raise BadInterval(f"{self} with {self.var}={fmt_time(base)} falls below 0")
        return value

    def __str__(self) -> str:
        if self.var is None:
            return fmt_time(self.offset)
        if self.offset > 0:
            return f"{self.var}+{self.offset}"
        if self.offset < 0:
            return f"{self.var}-{-self.offset}"
        return self.var

