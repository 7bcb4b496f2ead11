"""Working-memory agent: timed beliefs plus long-term knowledge rules.

The working memory holds ground literals with canonical intervals
(overlapping or adjacent same-polarity beliefs merge).  Long-term memory
holds rules fired by forward chaining: premises bind variables by matching
belief atoms syntactically, ground premises are satisfied by any covering
belief, and a negative conclusion restructures the contradicted belief
around the denied span instead of being stored.  Every operation returns a
new state; a trace of events makes runs replayable.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from heapq import heappop, heappush
from itertools import compress, count
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .intervals import (
    INF,
    Interval,
    TimeExpr,
    TimePoint,
    _derived,
    _new,
    _set,
    difference,
    fmt_time,
    hull,
    intersect,
    is_time_point,
)
from .formulas import (
    Always,
    And,
    Atom,
    Belief,
    Bot,
    Formula,
    FormulaSyntaxError,
    Implies,
    Knowledge,
    NonGround,
    Not,
    Or,
    Top,
    free_vars,
    is_var,
    literal_parts,
    parse,
    print_atom,
    print_formula,
    _trusted_ground_atom,
)
from .models import TLekModel, _trusted_world


class MalformedRule(ValueError):
    """A rule that cannot be fired safely (shape or unbound conclusion)."""


class NoSuchBelief(ValueError):
    """Revision was asked to restructure a belief that is not held."""


class BudgetExhausted(RuntimeError):
    """Forward chaining exceeded its step budget."""


class UnsupportedQuery(ValueError):
    """query() only handles B over ground atoms, K over rules, and booleans."""


class ScenarioError(ValueError):
    """Bad scenario script line."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


# ---------------------------------------------------------------------------
# Beliefs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeliefLit:
    """A ground literal held in working memory."""

    atom: Atom
    positive: bool = True

    def __post_init__(self):
        if not self.atom.is_ground():
            raise NonGround(f"belief literal {self.atom} is not ground")

    def interval(self) -> Interval:
        return self.atom.interval()

    def key(self):
        return (self.atom.pred, self.atom.args, not self.positive, self.atom.start.offset, self.atom.end.offset)

    def __str__(self) -> str:
        text = print_atom(self.atom)
        return text if self.positive else "~" + text


def _as_literal(lit: Union[Formula, BeliefLit]) -> BeliefLit:
    if isinstance(lit, BeliefLit):
        return lit
    parts = literal_parts(lit)
    if parts is None:
        raise ValueError(f"not a literal: {print_formula(lit)}")
    return BeliefLit(*parts)


def _make_lit(pred: str, args: tuple[str, ...], positive: bool, iv: Interval) -> BeliefLit:
    """The belief pred(iv, args) of this polarity, from a held or derived
    belief's pred and args and a valid interval: its atom is built by
    _trusted_ground_atom, with its variables and time memos seeded, and the
    literal skips the groundness test such an atom always passes."""
    lit = _new(BeliefLit)
    _set(lit, "atom", _trusted_ground_atom(pred, iv, args))
    _set(lit, "positive", positive)
    return lit


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Premise:
    atom: Atom
    box: Optional[tuple[TimeExpr, TimeExpr]] = None  # containment constraint


class Pattern(NamedTuple):
    """An atom of a rule compiled for the join: its bounds as (var, offset)
    pairs, var None for a literal time, and per argument whether it is a
    variable; for a premise, also its box bounds as such pairs."""

    pred: str
    start: tuple[Optional[str], TimePoint]
    end: tuple[Optional[str], TimePoint]
    args: tuple[str, ...]
    is_var: tuple[bool, ...]
    box: Optional[tuple[tuple, tuple]] = None

    @staticmethod
    def of(atom: Atom, box: Optional[tuple[TimeExpr, TimeExpr]] = None) -> Pattern:
        def pair(te: TimeExpr) -> tuple:
            return te.var, te.offset

        return Pattern(
            atom.pred,
            pair(atom.start),
            pair(atom.end),
            atom.args,
            tuple(map(is_var, atom.args)),
            box and (pair(box[0]), pair(box[1])),
        )


class RulePlan(NamedTuple):
    premises: tuple[Pattern, ...]
    conclusion: Pattern
    # per premise, whether the earlier premises bind all its variables, so
    # that a join tests it by coverage, not by matching
    covering: tuple[bool, ...]
    variables: tuple[str, ...]  # time variables sorted, then object variables sorted
    # per covering premise whose start is a variable V plus a shift, when
    # the premise that binds V first binds it by its own start: that
    # premise's index, and its start's shift less this one's; else None
    narrow: tuple[Optional[tuple[int, int]], ...]


def _value(te: tuple, binding: dict) -> Optional[TimePoint]:
    """A (var, offset) bound under binding: None while var is unbound, and
    below 0 where the shift takes it there (inf plus a shift is inf)."""
    var, offset = te
    if var is None:
        return offset
    base = binding.get(var)
    return None if base is None else base + offset


def _bounds(p: Pattern, binding: dict) -> Optional[tuple]:
    """p's start and end under binding, each None while unbound; None if
    they make no atom, where substitute raises BadInterval: a start below
    0, of inf, or after the end, which takes in an end below 0 after a
    bound start.  After an unbound start, such an end matches no belief."""
    lo, hi = _value(p.start, binding), _value(p.end, binding)
    if lo is not None and (lo < 0 or lo == INF or (hi is not None and lo > hi)):
        return None
    return lo, hi


def _match(p: Pattern, lo, hi, binding: dict, atom: Atom) -> Optional[dict]:
    """The values of p's variables that binding leaves unbound making p,
    whose bounds evaluate to lo and hi (None where unbound), equal to the
    ground atom, which has p's predicate; None if there are none.  Every
    argument is compared, so atom may be of any group."""
    new: dict = {}
    start = atom.start.offset
    if lo is None:
        var, offset = p.start
        if start < offset:
            return None
        new[var] = start - offset
    elif start != lo:
        return None
    end = atom.end.offset
    if hi is None:
        var, offset = p.end
        if var in new:
            if new[var] + offset != end:
                return None
        elif end < offset:
            return None
        else:
            new[var] = end - offset
    elif end != hi:
        return None
    if len(atom.args) != len(p.args):
        return None
    for x, v, a in zip(p.args, p.is_var, atom.args):
        if v:
            x = binding[x] if x in binding else new.setdefault(x, a)
        if x != a:
            return None
    return new


@dataclass(frozen=True)
class Rule:
    """A long-term rule.  Its plan, K-query key and per-premise joins are
    built on first use and kept on the rule; a pickled rule has none."""

    premises: tuple[Premise, ...]
    conclusion: Atom
    positive: bool
    text: str

    def __str__(self) -> str:
        return self.text

    @cached_property
    def plan(self) -> RulePlan:
        """The rule compiled once for the join: its premises and conclusion
        as patterns, which premises are tested by coverage, and the order
        of its variables in an agenda key."""
        premises = tuple(Pattern.of(p.atom, p.box) for p in self.premises)
        covering, narrow, times, objects = [], [], {}, set()
        for i, p in enumerate(premises):
            names, args = {p.start[0], p.end[0]} - {None}, set(compress(p.args, p.is_var))
            covering.append(names <= times.keys() and args <= objects)
            first = times.get(p.start[0]) if covering[-1] else None
            if first is not None and premises[first].start[0] == p.start[0]:
                narrow.append((first, premises[first].start[1] - p.start[1]))
            else:
                narrow.append(None)
            for name in names:
                times.setdefault(name, i)
            objects |= args
        variables = tuple(sorted(times)) + tuple(sorted(objects))
        return RulePlan(
            premises, Pattern.of(self.conclusion), tuple(covering), variables, tuple(narrow)
        )

    @cached_property
    def key(self) -> tuple:
        """The rule's identity for K queries, up to variable renaming
        (_canonical_rule_key), computed once."""
        return _canonical_rule_key(self)

    @cached_property
    def joins(self) -> tuple:
        """Per premise, the join for a seed at that premise, compiled from
        the plan on first use (_compile_join)."""
        return tuple(_compile_join(self.plan, at) for at in range(len(self.premises)))

    def __reduce__(self):
        # Rebuilt through the constructor: the compiled joins are closures,
        # which do not pickle, and the plan, key and joins are built again.
        return Rule, (self.premises, self.conclusion, self.positive, self.text)


def rule_from_formula(f: Formula) -> Rule:
    """Turn K(premises -> conclusion) into a fireable rule.

    Premises are atoms, optionally boxed, joined by &.  The conclusion is
    an atom or a negated atom.  Every conclusion or box-bound variable
    must occur in some premise atom, so grounding on demand terminates,
    and no variable may stand both for a time and for an object.
    """
    text = print_formula(f)
    body = f.body if isinstance(f, Knowledge) else f
    if not isinstance(body, Implies):
        raise MalformedRule(f"rule must be an implication: {text}")

    premises: list[Premise] = []

    def gather(g: Formula):
        if isinstance(g, And):
            gather(g.left)
            gather(g.right)
        elif isinstance(g, Atom):
            premises.append(Premise(g))
        elif isinstance(g, Always) and isinstance(g.body, Atom):
            premises.append(Premise(g.body, (g.start, g.end)))
        else:
            raise MalformedRule(
                f"premise must be an atom, boxed atom, or conjunction: {print_formula(g)}"
            )

    gather(body.left)

    literal = literal_parts(body.right)
    if literal is None:
        raise MalformedRule(f"conclusion must be a literal: {print_formula(body.right)}")
    conclusion, positive = literal

    box_vars = frozenset().union(*(te.vars() for p in premises for te in p.box or ()))
    bound = frozenset().union(*(free_vars(p.atom) for p in premises))
    loose = (free_vars(conclusion) | box_vars) - bound
    if loose:
        raise MalformedRule(f"unbound conclusion variables {sorted(loose)} in: {text}")
    atoms = [p.atom for p in premises] + [conclusion]
    times = box_vars.union(*(te.vars() for a in atoms for te in (a.start, a.end)))
    mixed = times & {x for a in atoms for x in a.args if is_var(x)}
    if mixed:
        raise MalformedRule(f"variables {sorted(mixed)} used both as times and as objects in: {text}")
    return Rule(tuple(premises), conclusion, positive, text)


def _canonical_rule_key(rule: Rule) -> tuple:
    """The rule's plan, with its variables renamed in first-occurrence
    order (start, end, arguments, then box, premise by premise, then the
    conclusion), and its polarity."""
    names: dict[str, int] = {}

    def bound(te: tuple) -> tuple:
        var, offset = te
        return te if var is None else (names.setdefault(var, len(names)), offset)

    def renamed(p: Pattern) -> tuple:
        start, end = bound(p.start), bound(p.end)
        args = tuple(names.setdefault(x, len(names)) if v else x for x, v in zip(p.args, p.is_var))
        return p.pred, start, end, args, p.box and (bound(p.box[0]), bound(p.box[1]))

    plan = rule.plan
    return tuple(map(renamed, plan.premises)), renamed(plan.conclusion), rule.positive


# ---------------------------------------------------------------------------
# Trace events
# ---------------------------------------------------------------------------


TRACE_SCHEMA_VERSION = 1
_JSON_INF = '"inf"'  # a time point inf, as JSON


class TraceEvent:
    """A recorded step of a run.  Each kind writes its own schema-1 JSON line,
    line(), the bytes json.dumps gives for its record ("inf" for inf), and
    redoes its own replay step, redo(memory, clock), giving the clock after."""

    __slots__ = ()


@dataclass(frozen=True)
class Perceived(TraceEvent):
    """A literal perceived: replayed, it is inserted and the clock moves to at."""

    literal: BeliefLit
    at: TimePoint

    def line(self) -> str:
        at = _JSON_INF if self.at == INF else self.at
        return f'{{"at": {at}, "event": "perceived", "literal": {_quote(str(self.literal))}}}'

    def redo(self, memory: WorkingMemory, clock: TimePoint) -> TimePoint:
        memory.insert(self.literal)
        return self.at


@dataclass(frozen=True)
class Fired(TraceEvent):
    """A rule firing: replayed, a positive conclusion is inserted."""

    rule_index: int
    rule: str
    binding: tuple[tuple[str, Union[TimePoint, str]], ...]  # sorted by variable
    conclusion: BeliefLit

    def line(self) -> str:
        binding = ", ".join(
            f"{_quote(k)}: {v if v.__class__ is int else _JSON_INF if v == INF else _quote(v)}"
            for k, v in self.binding
        )
        return (
            f'{{"binding": {{{binding}}}, "conclusion": {_quote(str(self.conclusion))}, '
            f'"event": "fired", "rule": {_quote(self.rule)}, "rule_index": {self.rule_index}}}'
        )

    def redo(self, memory: WorkingMemory, clock: TimePoint) -> TimePoint:
        if self.conclusion.positive:
            memory.insert(self.conclusion)
        return clock


@dataclass(frozen=True)
class Restructured(TraceEvent):
    """A held belief replaced by its parts: replayed, the store swaps them."""

    removed: BeliefLit
    parts: tuple[BeliefLit, ...]

    def line(self) -> str:
        parts = ", ".join(_quote(str(p)) for p in self.parts)
        return f'{{"event": "restructured", "parts": [{parts}], "removed": {_quote(str(self.removed))}}}'

    def redo(self, memory: WorkingMemory, clock: TimePoint) -> TimePoint:
        memory.swap(self.removed, self.parts)
        return clock


@dataclass(frozen=True)
class Conjoined(TraceEvent):
    """A conjunction made by conjoin: replayed, it changes nothing."""

    left: str
    right: str

    def line(self) -> str:
        return f'{{"event": "conjoined", "left": {_quote(self.left)}, "right": {_quote(self.right)}}}'

    def redo(self, memory: WorkingMemory, clock: TimePoint) -> TimePoint:
        return clock


def _events(trace: Iterable) -> Iterator[TraceEvent]:
    """The values of trace, each checked to be a TraceEvent."""
    for ev in trace:
        if not isinstance(ev, TraceEvent):
            raise TypeError(f"unknown trace event {ev!r}")
        yield ev


def trace_json_lines(trace: Sequence[TraceEvent]) -> str:
    """The trace as JSON lines: a schema header, then each event's line()."""
    return "\n".join([f'{{"schema_version": {TRACE_SCHEMA_VERSION}}}', *(ev.line() for ev in _events(trace)), ""])


def trace_records(trace: Sequence[TraceEvent]) -> list[dict]:
    """The records of trace_json_lines, parsed: a schema header then one
    dict per event."""
    return list(map(json.loads, trace_json_lines(trace).splitlines()))


# ---------------------------------------------------------------------------
# Agent state and operations
# ---------------------------------------------------------------------------


def _lo(b: BeliefLit) -> TimePoint:
    return b.atom.start.offset


def _hi(b: BeliefLit) -> TimePoint:
    return b.atom.end.offset


class WorkingMemory:
    """The beliefs held, grouped by predicate, then by (args, polarity).

    Each group is a tuple of pairwise disjoint, non-adjacent beliefs sorted
    by start, and therefore also by end, so a lookup by time bisects.  A
    store is never edited once a state holds it: an operation edits a
    copy() and puts the copy in the new state.  Stores share by copy on
    write: a copy shares each predicate's groups dict with its source,
    and a store copies that dict before its first edit of the predicate
    (_own: the predicates whose dict it made and no other store holds).
    So a groups dict two stores hold is never edited, and comparing dicts
    and groups by identity finds what an edit changed.
    """

    __slots__ = ("preds", "_own")

    def __init__(self):
        self.preds: dict[str, dict[tuple, tuple[BeliefLit, ...]]] = {}
        self._own: set[str] = set()

    def copy(self) -> WorkingMemory:
        """A store to edit: the predicate dict is copied and its groups
        dicts shared, so neither store edits one of them in place."""
        new = _new(WorkingMemory)
        new.preds = dict(self.preds)
        new._own = set()
        self._own.clear()
        return new

    def beliefs(self) -> frozenset[BeliefLit]:
        return frozenset(
            b for groups in self.preds.values() for group in groups.values() for b in group
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, WorkingMemory) and self.preds == other.preds

    def __hash__(self) -> int:
        return hash(self.beliefs())

    def __repr__(self) -> str:
        return f"WorkingMemory({sorted(self.beliefs(), key=BeliefLit.key)!r})"

    def group(self, atom: Atom, positive: bool) -> tuple[BeliefLit, ...]:
        """The beliefs with atom's predicate and arguments and this polarity."""
        return self.preds.get(atom.pred, {}).get((atom.args, positive), ())

    def spanning(
        self, pred: str, args: tuple[str, ...], positive: bool, lo: int, hi: TimePoint
    ) -> Optional[BeliefLit]:
        """The belief pred(_, _, args) of this polarity spanning [lo, hi]:
        only the last belief of the group that starts by lo can."""
        group = self.preds.get(pred, {}).get((args, positive), ())
        i = bisect_right(group, lo, key=_lo)
        if i and hi <= _hi(group[i - 1]):
            return group[i - 1]
        return None

    def target(self, atom: Atom, positive: bool) -> Optional[BeliefLit]:
        """The belief of this polarity spanning the whole atom."""
        span = atom.interval()
        return self.spanning(atom.pred, atom.args, positive, span.lo, span.hi)

    def covered(self, atom: Atom, positive: bool) -> bool:
        return self.target(atom, positive) is not None

    def holds(self, *beliefs: BeliefLit) -> bool:
        """Each of beliefs itself, not merely an equal belief, is held."""
        preds = self.preds
        for b in beliefs:
            a = b.atom
            group = preds.get(a.pred, {}).get((a.args, b.positive), ())
            i = bisect_left(group, a.start.offset, key=_lo)
            if i == len(group) or group[i] is not b:
                return False
        return True

    def _put(self, lit: BeliefLit, group: tuple[BeliefLit, ...]) -> None:
        """Make group the beliefs of lit's group."""
        pred = lit.atom.pred
        groups = self.preds.get(pred, {})
        if pred not in self._own:  # still shared: edit a copy
            groups = dict(groups)
            self._own.add(pred)
        self.preds[pred] = groups
        key = (lit.atom.args, lit.positive)
        if group:
            groups[key] = group
        else:
            groups.pop(key, None)
            if not groups:
                del self.preds[pred]

    def swap(self, old: BeliefLit, parts: Sequence[BeliefLit]) -> None:
        """Replace the held belief old by parts: sorted beliefs inside it."""
        group = self.group(old.atom, old.positive)
        i = bisect_left(group, _lo(old), key=_lo)
        if i == len(group) or group[i] != old:
            raise NoSuchBelief(f"no belief {old} in working memory")
        self._put(old, group[:i] + tuple(parts) + group[i + 1 :])

    def insert(self, lit: BeliefLit) -> Optional[BeliefLit]:
        """Add lit: the run of its group that overlaps it or is adjacent
        to it is replaced by their hull with it.  Return the belief added,
        lit itself when there is no such run, or None when a held belief
        already spans lit."""
        span = lit.interval()
        group = self.group(lit.atom, lit.positive)
        i = bisect_left(group, span.lo - 1, key=_hi)
        j = bisect_right(group, span.hi + 1, key=_lo)
        if j - i == 1 and _lo(group[i]) <= span.lo and span.hi <= _hi(group[i]):
            return None
        if i < j:  # lit merges with the run
            merged = reduce(hull, (b.interval() for b in group[i:j]), span)
            lit = _make_lit(lit.atom.pred, lit.atom.args, lit.positive, merged)
        self._put(lit, group[:i] + (lit,) + group[j:])
        return lit

    def restructure(self, target: BeliefLit, denied: Interval) -> Restructured:
        """Replace target by its parts outside the denied span."""
        pred, args, positive = target.atom.pred, target.atom.args, target.positive
        parts = tuple(_make_lit(pred, args, positive, p) for p in difference(target.interval(), denied))
        self.swap(target, parts)
        return Restructured(target, parts)

    def added_since(self, old: WorkingMemory) -> Iterator[BeliefLit]:
        """The positive beliefs held here but not in old, any other store.
        A predicate whose groups dict old shares is passed over, and of
        the rest only the groups not shared are compared."""
        for pred, groups in self.preds.items():
            before = old.preds.get(pred, {})
            if groups is before:
                continue
            for key, group in groups.items():
                if key[1] and group is not (prior := before.get(key)):
                    held = set(map(id, prior or ()))
                    yield from (b for b in group if id(b) not in held)


@dataclass(frozen=True, eq=False)
class _Chaining:
    """What infer_fixpoint leaves for the next call on the state it
    returns: the rules and fired set it ran with, which (rule, premise)
    pairs read each predicate, the store it ended on, and its dormant
    instances, as tuples of agenda entries keyed by the group (pred, args)
    of their conclusion.  At the fixpoint every other candidate binding is
    fired, or its conclusion cannot be instantiated, so the next call need
    only join the beliefs added since, which the stores' sharing shows.  A
    call with no record it can use joins from the empty store,
    WorkingMemory(), with none dormant.  The next call edits a copy of
    dormant, whose tuples it replaces and never edits."""

    rules: tuple[Rule, ...]
    reads: dict[str, list[tuple[int, int]]]
    fired: frozenset
    memory: WorkingMemory
    dormant: dict[tuple, tuple[tuple, ...]]


@dataclass(frozen=True)
class AgentState:
    rules: tuple[Rule, ...] = ()
    memory: WorkingMemory = field(default_factory=WorkingMemory)
    clock: TimePoint = 0
    trace: tuple[TraceEvent, ...] = ()
    fired: frozenset = frozenset()
    chaining: Optional[_Chaining] = field(default=None, compare=False, repr=False)

    @property
    def wm(self) -> frozenset[BeliefLit]:
        """The beliefs held: a read-only view of the store."""
        return self.memory.beliefs()

    def render_wm(self) -> str:
        """The beliefs held in BeliefLit.key order, read off the store's
        sorted predicates, their groups and each group's own order."""
        preds = self.memory.preds
        return ", ".join([str(b) for pred in sorted(preds)
                          for args, neg in sorted([(args, not pos) for args, pos in preds[pred]])
                          for b in preds[pred][args, not neg]])


def init(rules: Iterable[Union[Rule, Formula, str]]) -> AgentState:
    """Fresh agent: given long-term rules, empty working memory, clock 0."""
    converted = []
    for r in rules:
        if isinstance(r, Rule):
            converted.append(r)
        elif isinstance(r, str):
            converted.append(rule_from_formula(parse(r)))
        else:
            converted.append(rule_from_formula(r))
    return AgentState(rules=tuple(converted))


def perceive(st: AgentState, lit: Union[Formula, BeliefLit], at: TimePoint) -> AgentState:
    """Record a perception as a belief, restructuring any directly
    contradicted opposite-polarity belief first; the clock moves to at."""
    memory = st.memory.copy()
    events: list[TraceEvent] = []
    _perceive(memory, events, st.clock, lit, at)
    return AgentState(st.rules, memory, at, st.trace + tuple(events), st.fired, st.chaining)


def _perceive(
    memory: WorkingMemory, events: list, clock: TimePoint, lit: Union[Formula, BeliefLit], at: TimePoint
) -> None:
    """The perception step of perceive(), on a store it edits in place
    and an event list it appends to, at the given clock."""
    belief = _as_literal(lit)
    if not (is_time_point(at) and at != INF):
        raise ValueError(f"perception time must be a finite natural, got {at!r}")
    if at < clock:
        raise ValueError(f"perception at {fmt_time(at)} is before the clock {fmt_time(clock)}")
    span = belief.interval()
    opposite = memory.group(belief.atom, not belief.positive)
    for other in opposite[
        bisect_left(opposite, span.lo, key=_hi) : bisect_right(opposite, span.hi, key=_lo)
    ]:
        events.append(memory.restructure(other, span))
    memory.insert(belief)
    events.append(Perceived(belief, at))


def _compile_join(plan: RulePlan, at: int):
    """The join for a seed at premise at, as a function of (memory, seed)
    giving the complete premise bindings that the held positive belief
    seed supports there, each as (key, items, supports, instance): its
    values in plan.variables order, which orders the agenda; its
    (variable, value) pairs sorted by variable; the beliefs supporting its
    premises; and the conclusion's instance, (start, end, args), None
    where that is no atom (a start below 0, of inf or after the end, where
    substitute raises BadInterval).  Which variables are bound before each
    premise is fixed by the plan and at, so each premise's step is built
    as one kind: none for a seed matched at its own premise; a coverage
    test, by the seed or through spanning; or a match against the positive
    beliefs of one lookup: the group of its arguments bisected at its bound
    start or end, or to the seed's window at the narrowed premise, or the
    whole group, and while an argument is unbound, every positive belief
    of its predicate (in the window at the narrowed premise).  The last
    step checks the boxes and emits each binding with its instance."""
    premises, covering, variables = plan.premises, plan.covering, plan.variables
    order, conclusion, n = sorted(variables), plan.conclusion, len(premises)
    boxes = [p for p in premises if p.box]
    narrowed, shift = plan.narrow[at] or (None, 0)

    def window(group: tuple[BeliefLit, ...], seed: BeliefLit) -> tuple[BeliefLit, ...]:
        lo, hi = _lo(seed) + shift, _hi(seed) + shift
        return group[bisect_left(group, lo, key=_lo) : bisect_right(group, hi, key=_lo)]

    def build(i: int, bound: set, nxt):
        p = premises[i]
        if i == at:  # a seed tested by coverage
            def step(memory, binding, supports, out):
                bounds, seed = _bounds(p, binding), supports[at]
                if bounds is not None and _lo(seed) <= bounds[0] and bounds[1] <= _hi(seed):
                    nxt(memory, binding, supports, out)
            return step
        if covering[i]:
            def step(memory, binding, supports, out):
                bounds = _bounds(p, binding)
                if bounds is not None:
                    args = tuple(map(binding.get, p.args, p.args))
                    supports[i] = memory.spanning(p.pred, args, True, *bounds)
                    if supports[i] is not None:
                        nxt(memory, binding, supports, out)
            return step

        def group(memory, binding) -> tuple[BeliefLit, ...]:
            args = tuple(map(binding.get, p.args, p.args))
            return memory.preds.get(p.pred, {}).get((args, True), ())

        if not set(compress(p.args, p.is_var)) <= bound:
            def lookup(memory, binding, bounds, seed):
                groups = memory.preds.get(p.pred, {}).items()
                return [b for (_, positive), g in groups if positive
                        for b in (window(g, seed) if i == narrowed else g)]
        elif p.start[0] in bound or p.end[0] in bound:
            side, key = (0, _lo) if p.start[0] in bound else (1, _hi)
            def lookup(memory, binding, bounds, seed):
                g = group(memory, binding)
                k = bisect_left(g, bounds[side], key=key)
                return g[k : k + 1]
        elif i == narrowed:
            lookup = lambda memory, binding, bounds, seed: window(group(memory, binding), seed)
        else:
            lookup = lambda memory, binding, bounds, seed: group(memory, binding)

        def step(memory, binding, supports, out):
            bounds = _bounds(p, binding)
            if bounds is not None:
                for b in lookup(memory, binding, bounds, supports[at]):
                    m = _match(p, *bounds, binding, b.atom)
                    if m is not None:
                        supports[i] = b
                        nxt(memory, {**binding, **m}, supports, out)
        return step

    (start_var, start_shift), (end_var, end_shift), args = conclusion.start, conclusion.end, conclusion.args

    def emit(memory, binding, supports, out):
        for p in boxes:
            lo, hi = _value(p.box[0], binding), _value(p.box[1], binding)
            if not (0 <= lo <= _value(p.start, binding) and _value(p.end, binding) <= hi):
                return
        get = binding.__getitem__
        lo = start_shift if start_var is None else binding[start_var] + start_shift
        hi = end_shift if end_var is None else binding[end_var] + end_shift
        instance = None if lo < 0 or lo == INF or lo > hi else (lo, hi, tuple(map(binding.get, args, args)))
        out.append((tuple(map(get, variables)), tuple(zip(order, map(get, order))),
                    tuple(supports), instance))

    seed_p = premises[at]
    bound = {None, *compress(seed_p.args, seed_p.is_var)}
    if not covering[at]:
        bound |= {seed_p.start[0], seed_p.end[0]}
    before = []
    for p in premises:
        before.append(set(bound))
        bound |= {p.start[0], p.end[0], *compress(p.args, p.is_var)}
    step = emit
    for i in reversed(range(n)):
        if i != at or covering[at]:
            step = build(i, before[i], step)
    if covering[at]:  # the seed binds the premise's argument variables only
        def start(atom: Atom) -> Optional[dict]:
            if len(atom.args) != len(seed_p.args):
                return None
            binding: dict = {}
            for x, v, a in zip(seed_p.args, seed_p.is_var, atom.args):
                if (binding.setdefault(x, a) if v else x) != a:
                    return None
            return binding
    else:
        lo, hi = _value(seed_p.start, {}), _value(seed_p.end, {})
        start = lambda atom: _match(seed_p, lo, hi, {}, atom)

    def join(memory: WorkingMemory, seed: BeliefLit) -> list[tuple]:
        out: list[tuple] = []
        binding = start(seed.atom)
        if binding is not None:
            supports: list[Optional[BeliefLit]] = [None] * n
            supports[at] = seed
            step(memory, binding, supports, out)
        return out

    return join


def infer_fixpoint(st: AgentState, budget: int = 10_000) -> AgentState:
    """Fire rules to a fixpoint.

    Deterministic strategy: rules in list order, bindings smallest first
    by time then lexicographically; after each firing the scan restarts at
    the first rule.  Each (rule, binding) instance fires at most once.  A
    negative conclusion restructures the covering belief when the denied
    span lies inside it; otherwise the instance stays dormant.  Raises
    BudgetExhausted after the given number of firings.

    The scan is kept as one agenda, and its firings are exactly those of a
    naive scan.  The agenda is a heap of candidate bindings ordered by rule
    index, then binding, each with the beliefs supporting its premises and
    its conclusion's instance.  A positive belief is joined when it is
    added, at every premise of its predicate, and the bindings found are
    pushed, but for those whose conclusion is no atom, which a naive scan
    passes over.  A popped binding whose support is no longer held is
    dropped; one that fired or whose positive conclusion is held is done
    for good; a dormant one waits, once, under its conclusion's group
    (pred, args) until a belief joins that group.  A binding whose
    supports are all held was found when the last of them was added, so
    the least one on the heap is the naive scan's next firing.  The state
    returned keeps the dormant instances, so the next call on it joins
    only the beliefs added since, which it looks for in the predicates
    whose groups the two stores do not share.  A call with no such record,
    or with other rules or fired set than its, starts from the empty
    store: every held belief is added since.
    """
    rules = st.rules
    memory = st.memory.copy()
    fired = st.fired
    fresh: set = set()  # instances done in this call
    events: list[TraceEvent] = []
    kept = st.chaining
    if kept is not None and kept.rules is rules and kept.fired is fired:
        reads, since, dormant = kept.reads, kept.memory, dict(kept.dormant)
    else:
        reads, since, dormant = {}, WorkingMemory(), {}  # reads: predicate -> (rule, premise) pairs
        for ridx, rule in enumerate(rules):
            for at, p in enumerate(rule.plan.premises):
                reads.setdefault(p.pred, []).append((ridx, at))
    agenda: list[tuple] = []
    order = count()  # heap tie-break: the same binding may be queued twice
    firings = 0

    def added(b: BeliefLit) -> None:
        """Queue the bindings a positive belief added to the store supports,
        and the instances dormant on its group."""
        for ridx, at in reads.get(b.atom.pred, ()):
            for key, items, supports, instance in rules[ridx].joins[at](memory, b):
                if instance is not None:
                    heappush(agenda, (ridx, key, next(order), items, supports, instance))
        for ridx, key, items, supports, instance in dormant.pop((b.atom.pred, b.atom.args), ()):
            heappush(agenda, (ridx, key, next(order), items, supports, instance))

    for b in memory.added_since(since):
        added(b)
    while agenda:
        ridx, key, _, items, supports, instance = heappop(agenda)
        done = (ridx, items)
        if done in fired or done in fresh or not memory.holds(*supports):
            continue
        rule = rules[ridx]
        conclusion = rule.plan.conclusion
        lo, hi, args = instance
        target = memory.spanning(conclusion.pred, args, True, lo, hi)
        if rule.positive:
            if target is not None:
                fresh.add(done)
                continue
        elif target is None:
            group, entry = (conclusion.pred, args), (ridx, key, items, supports, instance)
            waiting = dormant.get(group, ())
            if entry not in waiting:  # a cold join can find it twice
                dormant[group] = waiting + (entry,)
            continue
        firings += 1
        if firings > budget:
            raise BudgetExhausted(f"gave up after {budget} firings")
        span = _derived(lo, hi)
        lit = _make_lit(conclusion.pred, args, rule.positive, span)
        events.append(Fired(ridx, rule.text, items, lit))
        if rule.positive:
            added(memory.insert(lit))
        else:
            event = memory.restructure(target, span)
            events.append(event)
            for part in event.parts:
                added(part)
        fresh.add(done)
    if fresh:
        fired = fired | fresh
    return AgentState(
        rules, memory, st.clock, st.trace + tuple(events), fired,
        _Chaining(rules, reads, fired, memory, dormant),
    )


def revise(st: AgentState, p: Atom, q: Atom) -> AgentState:
    """Restructure the held belief q around the contradicting span of p."""
    target = st.memory.target(q, True)
    if target is None or target.atom != q:
        raise NoSuchBelief(f"no belief {print_formula(q)} in working memory")
    if intersect(p.interval(), q.interval()).is_empty():
        raise ValueError(
            f"{print_formula(p)} does not overlap {print_formula(q)}; nothing to restructure"
        )
    memory = st.memory.copy()
    event = memory.restructure(target, p.interval())
    return replace(st, memory=memory, trace=st.trace + (event,))


def conjoin(st: AgentState, left: Union[Formula, BeliefLit], right: Union[Formula, BeliefLit]) -> AgentState:
    """Record an explicit conjunction of two held beliefs."""
    a, b = _as_literal(left), _as_literal(right)
    for lit in (a, b):
        if not st.memory.covered(lit.atom, lit.positive):
            raise NoSuchBelief(f"cannot conjoin: {lit} is not believed")
    return replace(st, trace=st.trace + (Conjoined(str(a), str(b)),))


def query(st: AgentState, f: Formula) -> bool:
    """Belief-base entailment: B over ground atoms uses interval coverage,
    K over a rule checks long-term membership up to variable renaming,
    booleans combine as usual."""
    return _query(st.memory, st.rules, f)


def _query(memory: WorkingMemory, rules: tuple[Rule, ...], f: Formula) -> bool:
    """query() on a store and rules."""
    if isinstance(f, Belief):
        if not isinstance(f.body, Atom):
            raise UnsupportedQuery(f"B supports ground atoms only: {print_formula(f)}")
        if not f.body.is_ground():
            raise NonGround(f"query needs a ground atom: {print_formula(f)}")
        return memory.covered(f.body, True)
    if isinstance(f, Knowledge):
        try:
            asked = rule_from_formula(f)
        except MalformedRule as exc:
            raise UnsupportedQuery(f"K supports rules only: {print_formula(f)}") from exc
        # the key holds the conclusion's predicate and polarity, so only
        # the rules that share them are keyed
        wanted, pred, positive = asked.key, asked.conclusion.pred, asked.positive
        return any(
            r.key == wanted for r in rules if r.conclusion.pred == pred and r.positive == positive
        )
    if isinstance(f, Not):
        return not _query(memory, rules, f.body)
    if isinstance(f, And):
        return _query(memory, rules, f.left) and _query(memory, rules, f.right)
    if isinstance(f, Or):
        return _query(memory, rules, f.left) or _query(memory, rules, f.right)
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    raise UnsupportedQuery(
        f"query supports B-atoms, K-rules, ~, &, |: {print_formula(f)} (use the model layer)"
    )


def to_model(st: AgentState, horizon: int) -> TLekModel:
    """Bridge to the semantic layer: one world whose valuation closes the
    positive beliefs under sub-intervals, truncated at the horizon, with
    the single neighbourhood element making exactly those beliefs true.

    The beliefs are ground and were validated when they were made, so
    their atoms and the world are built without validating them again,
    and the world carries I(w): the lowest start and the highest
    truncated end of the beliefs that start by the horizon.  Each atom
    p(a, z, args) is built inline with its hash memo seeded: a literal
    TimeExpr hashes as its point, so hash((pred, a, z, args)) is
    Node.__hash__'s value, with no TimeExpr.__hash__ call.
    """
    if horizon == INF or not is_time_point(horizon):
        raise ValueError("horizon must be a finite natural")
    spans = []  # (atom, start, truncated end) of each belief that adds atoms
    for b in st.wm:
        lo = b.atom.start.offset
        if b.positive and lo <= horizon:
            spans.append((b.atom, lo, min(b.atom.end.offset, horizon)))
    closure = []  # p(a, z, args) with lo <= a <= z <= hi of each span
    for held, lo, hi in spans:
        pred, args = held.pred, held.args
        points = [(TimeExpr.lit(t), t) for t in range(lo, hi + 1)]
        for i, (start, a) in enumerate(points):
            for end, z in points[i:]:
                atom = _new(Atom)
                _set(atom, "pred", pred)
                _set(atom, "start", start)
                _set(atom, "end", end)
                _set(atom, "args", args)
                _set(atom, "_memo_hash", hash((pred, a, z, args)))
                closure.append(atom)
    atoms = frozenset(closure)
    iv = Interval(min(s[1] for s in spans), max(s[2] for s in spans)) if spans else None
    world = _trusted_world("w0", atoms, iv)
    nbhd = {"w0": [frozenset({"w0"})]} if atoms else {"w0": []}
    return TLekModel([world], [frozenset({"w0"})], nbhd)


def replay(rules: Iterable[Union[Rule, Formula, str]], trace: Sequence[TraceEvent]) -> AgentState:
    """Rebuild the final state from a recorded trace: each event redoes its step."""
    state = init(rules)
    memory = WorkingMemory()
    clock: TimePoint = state.clock
    for ev in _events(trace):
        clock = ev.redo(memory, clock)
    return replace(state, memory=memory, clock=clock, trace=tuple(trace))


# ---------------------------------------------------------------------------
# Scenario scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    line: int
    query_text: str
    expected: bool
    actual: bool

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass
class ScenarioResult:
    state: AgentState
    queries: list[tuple[int, str, bool]] = field(default_factory=list)
    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def run_scenario(text: str, budget: int = 10_000) -> ScenarioResult:
    """Execute a line-oriented scenario script.

    Directives: rule F / perceive LIT @ T / infer / query F / expect BOOL.
    Blank lines and # comments are ignored.  expect applies to the latest
    query; mismatches are collected, not raised.

    The result is what the calls perceive, infer_fixpoint and query give
    line by line, at what each line changes: perceptions edit one live
    store and append their events to one log, query lines read that store,
    and each infer line hands infer_fixpoint a state with an empty trace,
    appends the events it returns and carries on from a copy of its store.
    """
    state = init([])  # the last infer's state: its fired set and chaining record
    rules, memory, clock, log = state.rules, WorkingMemory(), state.clock, []
    result = ScenarioResult(state)
    last_query: Optional[tuple[int, str, bool]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if word == "rule":
                rules += (rule_from_formula(parse(rest)),)
            elif word == "perceive":
                lit_text, sep, at_text = rest.partition("@")
                if not sep:
                    raise ScenarioError("perceive needs 'literal @ time'", lineno)
                at_text = at_text.strip()
                if not at_text.isdecimal():
                    raise ScenarioError(f"bad perception time {at_text!r}", lineno)
                _perceive(memory, log, clock, parse(lit_text.strip()), int(at_text))
                clock = int(at_text)
            elif word == "infer":
                if rest:
                    raise ScenarioError("infer takes no argument", lineno)
                state = infer_fixpoint(
                    AgentState(rules, memory, clock, (), state.fired, state.chaining), budget=budget
                )
                log += state.trace
                memory = state.memory.copy()
            elif word == "query":
                value = _query(memory, rules, parse(rest))
                last_query = (lineno, rest, value)
                result.queries.append(last_query)
            elif word == "expect":
                if rest not in ("true", "false"):
                    raise ScenarioError(f"expect needs true or false, got {rest!r}", lineno)
                if last_query is None:
                    raise ScenarioError("expect without a preceding query", lineno)
                result.checks.append(
                    CheckOutcome(lineno, last_query[1], rest == "true", last_query[2])
                )
            else:
                raise ScenarioError(f"unknown directive {word!r}", lineno)
        except ScenarioError:
            raise
        except (FormulaSyntaxError, MalformedRule, ValueError, RuntimeError) as exc:
            raise ScenarioError(str(exc), lineno) from exc
    result.state = AgentState(rules, memory, clock, tuple(log), state.fired, state.chaining)
    return result


def run_scenario_file(path) -> ScenarioResult:
    with open(path, "r", encoding="utf-8") as fh:
        return run_scenario(fh.read())

