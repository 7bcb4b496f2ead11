"""Formulas of the timed belief/knowledge language: AST, parser, printer.

Concrete syntax (tightest to loosest): ~  &  |  ->  <->.  Prefix operators
bind like ~: B, K, box[lo,hi] (default interval [0,inf) elided as plain
"box"), and the dynamic prefixes [+lit], [and(f,g)], [inf(f,a)], [rev(a,b)].
Atoms carry their time bounds in the first two argument positions:
p(1,2), go(3,inf,shops), married(T+1,inf).  Variables start uppercase,
predicates and constants lowercase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Mapping, Optional, Sequence, Union

from .intervals import (
    INF,
    BadInterval,
    Interval,
    TimeExpr,
    TimePoint,
    _VAR_RE,
    _derived,
    _new,
    _set,
    difference,
    fmt_time,
    hull,
    is_time_point,
    subset,
)


class FormulaSyntaxError(ValueError):
    """Parse failure, with position and the tokens that would have fit."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        extra = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{extra}")


class NonGround(ValueError):
    """A ground formula was required but variables remain."""


class MalformedOp(ValueError):
    """A mental operation whose payload breaks its shape constraints."""


RESERVED = {"box", "true", "false", "inf", "and", "rev"}

_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")  # a whole name (fullmatch)


def is_var(name: str) -> bool:
    return bool(_VAR_RE.fullmatch(name))


def _check_bounds(head: str, start: TimeExpr, end: TimeExpr, brackets: str = "()") -> None:
    """Ground bounds must form an interval: a finite start no later than the end."""
    if start.var is None and start.offset == INF:
        raise BadInterval(f"{head}: start bound may not be inf")
    if start.var is None and end.var is None and start.offset > end.offset:
        raise BadInterval(
            f"{head}{brackets[0]}{start},{end}{brackets[1]}: start exceeds end"
        )


# The time memo's "not computed yet"; None is the time of true and false.
_UNSET = object()
_NO_VARS: frozenset[str] = frozenset()


class Node:
    """Base of the formula and mental-operation nodes: memoised facts.

    A node never changes, so its hash, free variables and time are each
    computed on first use, from its children's memoised values, and kept
    as attributes of the node; construction computes none of them.  The
    hash is the value the generated dataclass hash gives, so sets and
    dicts of nodes iterate in the same order as without the memo.
    """

    __slots__ = ()
    _values = None  # node -> its field values as a tuple; set per class by _node
    _timed = None  # the _parts whose hull is the node's time, where not all are
    _memo_hash = None
    _memo_free = None
    _memo_time = _UNSET

    def __hash__(self) -> int:
        h = self._memo_hash
        if h is None:
            h = hash(self._values(self))
            object.__setattr__(self, "_memo_hash", h)
        return h

    def __reduce__(self):
        # Rebuilt through the constructor, so no memo leaves the process:
        # a hash is only valid under the hash seed it was computed with.
        return type(self), self._values(self)

    def __str__(self) -> str:
        return print_formula(self)


_MEMOS = tuple(name for name in vars(Node) if name.startswith("_memo_"))


def _node(cls):
    """Make cls a frozen dataclass node with Node's memoised hash."""
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    if len(names) == 1:
        get = attrgetter(names[0])
        cls._values = staticmethod(lambda node: (get(node),))
    else:  # attrgetter of two or more names returns their tuple
        cls._values = staticmethod(attrgetter(*names) if names else lambda node: ())
    cls.__hash__ = Node.__hash__
    # CPython keeps an instance's attributes in a compact array shared with
    # its class while they are names the class had already seen when the
    # instance was made; a new name turns the instance's attributes into a
    # dict of their own (about 230 bytes more).  One throwaway instance
    # shows the class every field and memo name before any real instance
    # exists, so a memo costs 8 bytes whatever order the memos come in.
    proto = object.__new__(cls)
    for name in names + _MEMOS:
        object.__setattr__(proto, name, None)
    return cls


class Formula(Node):
    """Base of the formula nodes.

    Each node class names, in its _parts tuple, the fields that hold
    sub-formulas or mental operations; children() and rebuild() walk a
    node through them, so a traversal spells out only its special cases.
    A node whose time is not the hull of all its parts names, in _timed,
    the parts whose hull it is.
    """

    __slots__ = ()


class MentalOp(Node):
    """Base of the mental operations; _parts and _timed as for Formula."""

    __slots__ = ()


@_node
class Atom(Formula):
    """Timed atom p(start, end, extra args...)."""

    _parts = ()

    pred: str
    start: TimeExpr
    end: TimeExpr
    args: tuple[str, ...] = ()

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.pred) or self.pred in RESERVED:
            raise ValueError(f"bad predicate name {self.pred!r}")
        for a in self.args:
            if not (_NAME_RE.fullmatch(a) or _VAR_RE.fullmatch(a)):
                raise ValueError(f"bad atom argument {a!r}")
        _check_bounds(self.pred, self.start, self.end)

    def is_ground(self) -> bool:
        vs = self._memo_free
        return not (free_vars(self) if vs is None else vs)

    def interval(self) -> Interval:
        """[start, end] of a ground atom; memoised as the atom's time.
        Groundness is read off the bounds and arguments, and the interval
        is built unchecked: __post_init__ already checked the bounds."""
        iv = self._memo_time
        if iv is _UNSET:
            if self.start.var or self.end.var or any(map(is_var, self.args)):
                raise NonGround(f"atom {self} is not ground")
            iv = _derived(self.start.offset, self.end.offset)
            object.__setattr__(self, "_memo_time", iv)
        return iv


def _trusted_atom(pred: str, start: TimeExpr, end: TimeExpr, args: tuple[str, ...]) -> Atom:
    """pred(start, end, args) from parts that the parser or a valid atom
    has already checked: built without __post_init__, whose checks such
    parts always pass.  The fields are set in declaration order, as
    __init__ sets them, and no memo is seeded."""
    atom = _new(Atom)
    _set(atom, "pred", pred)
    _set(atom, "start", start)
    _set(atom, "end", end)
    _set(atom, "args", args)
    return atom


def _trusted_ground_atom(pred: str, iv: Interval, args: tuple[str, ...]) -> Atom:
    """pred(iv.lo, iv.hi, args) on the shared literals, built by _trusted_atom
    with its variables and time memos seeded.  Its hash is left to first
    use: a scenario run hashes none of the atoms it builds here."""
    atom = _trusted_atom(pred, TimeExpr.lit(iv.lo), TimeExpr.lit(iv.hi), args)
    _set(atom, "_memo_free", _NO_VARS)
    _set(atom, "_memo_time", iv)
    return atom


@_node
class Not(Formula):
    _parts = ("body",)

    body: Formula


@_node
class And(Formula):
    _parts = ("left", "right")

    left: Formula
    right: Formula


@_node
class Or(Formula):
    _parts = ("left", "right")

    left: Formula
    right: Formula


@_node
class Implies(Formula):
    _parts = ("left", "right")

    left: Formula
    right: Formula


@_node
class Iff(Formula):
    _parts = ("left", "right")

    left: Formula
    right: Formula


@_node
class Belief(Formula):
    _parts = ("body",)

    body: Formula


@_node
class Knowledge(Formula):
    _parts = ("body",)

    body: Formula


@_node
class Always(Formula):
    """box[start,end] body; bounds may contain variables before grounding."""

    _parts = ("body",)

    start: TimeExpr
    end: TimeExpr
    body: Formula

    def __post_init__(self):
        _check_bounds("box", self.start, self.end, "[]")

    def interval(self) -> Interval:
        """The label [start, end] of a ground box; memoised as its time,
        built unchecked as Atom.interval builds an atom's."""
        iv = self._memo_time
        if iv is _UNSET:
            if self.start.var or self.end.var:
                raise NonGround(f"box bounds [{self.start},{self.end}] are not ground")
            iv = _derived(self.start.offset, self.end.offset)
            object.__setattr__(self, "_memo_time", iv)
        return iv

    def is_default_interval(self) -> bool:
        return (
            self.start.is_ground()
            and self.end.is_ground()
            and self.start.offset == 0
            and self.end.offset == INF
        )


@_node
class Top(Formula):
    _parts = ()


@_node
class Bot(Formula):
    _parts = ()


@_node
class Learn(MentalOp):
    """+lit: turn a perceived literal (atom or negated atom) into a belief."""

    _parts = ("literal",)

    literal: Formula

    def __post_init__(self):
        if literal_parts(self.literal) is None:
            raise MalformedOp(f"+ needs an atom or negated atom, got {print_formula(self.literal)}")


@_node
class Conj(MentalOp):
    """and(f,g): conjoin two formulas already believed."""

    _parts = ("left", "right")

    left: Formula
    right: Formula


@_node
class Infer(MentalOp):
    """inf(f,a): one inference step from belief f and rule K(f -> a)."""

    _parts = ("premise", "conclusion")
    _timed = ("conclusion",)

    premise: Formula
    conclusion: Atom

    def __post_init__(self):
        if not isinstance(self.conclusion, Atom):
            raise MalformedOp("inf needs an atom conclusion")


@_node
class Revise(MentalOp):
    """rev(p,q): restructure belief q around the contradicting perception p."""

    _parts = ("trigger", "target")

    trigger: Atom
    target: Atom

    def __post_init__(self):
        if not (isinstance(self.trigger, Atom) and isinstance(self.target, Atom)):
            raise MalformedOp("rev needs two atoms")


@_node
class Dynamic(Formula):
    _parts = ("op", "body")
    _timed = ("op",)

    op: MentalOp
    body: Formula


def literal_parts(f: Formula) -> Optional[tuple[Atom, bool]]:
    """(atom, positive) of an atom or negated atom; None for any other formula."""
    positive = not isinstance(f, Not)
    atom = f if positive else f.body
    return (atom, positive) if isinstance(atom, Atom) else None


def children(f: Node) -> list[Node]:
    """The node's sub-formulas and mental operations, in _parts order."""
    try:
        names = f._parts
    except AttributeError:  # not a node
        raise TypeError(f"unknown formula node {f!r}") from None
    return [getattr(f, name) for name in names]


def rebuild(f: Node, parts: Sequence[Node]) -> Node:
    """A copy of f with its _parts replaced by parts; f itself if it has none."""
    if not f._parts:
        return f
    return replace(f, **dict(zip(f._parts, parts)))


# ---------------------------------------------------------------------------
# Syntax tables: the parser reads them by token, the printer by class
# ---------------------------------------------------------------------------

# Binary connectives, loosest first: token -> (class, level, right-associative).
_BINARY = {
    "<->": (Iff, 1, False),
    "->": (Implies, 2, True),
    "|": (Or, 3, False),
    "&": (And, 4, False),
}
_UNARY = len(_BINARY) + 1  # prefixes bind tighter than every binary connective
_PREFIX = {"~": Not, "B": Belief, "K": Knowledge}
_CONSTANT = {"true": Top, "false": Bot}

_BINARY_BY_CLASS = {cls: (tok, level, right) for tok, (cls, level, right) in _BINARY.items()}
_TOKEN = {cls: tok for table in (_PREFIX, _CONSTANT) for tok, cls in table.items()}


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One token.  re.split on it gives the text around the tokens too, which
# must be whitespace; a character there that is not is a stray one.
_TOKEN_RE = re.compile(r"(\d+|[a-z][A-Za-z0-9_]*|[A-Z][A-Za-z0-9_]*|<->|->|[()\[\],+\-~&|])")
_BLANK_RE = re.compile(r"\s*")

# A token's kind by its first character: NAME, VAR, NUM, or SYM for a
# symbol, which its value names.  The one other first character a token
# can have is a digit outside ASCII, which \d matches too: a NUM.
_KIND = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "NAME"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "VAR"),
    **dict.fromkeys("0123456789", "NUM"),
    **dict.fromkeys("()[],+-~&|<", "SYM"),
}


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column of an offset into text; a column counts the
    characters since the last newline, and only a newline ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lex(text: str) -> tuple[list[str], list[str], list[str]]:
    """The kinds and values of text's tokens, two parallel lists that end
    with EOF (value ""), and text split around them: gap, token, gap, ...,
    token, gap.  Token i starts where parts[: 2 * i + 1] ends, EOF at the
    end of text; that offset is summed only for an error."""
    parts = _TOKEN_RE.split(text)
    values = parts[1::2]
    gaps = parts[::2]
    if _BLANK_RE.fullmatch("".join(gaps)) is None:
        for k, gap in enumerate(gaps):
            blank = _BLANK_RE.match(gap).end()
            if blank < len(gap):
                pos = len("".join(parts[: 2 * k])) + blank
                raise FormulaSyntaxError(f"stray character {text[pos]!r}", *_position(text, pos))
    try:
        kinds = [_KIND[v[0]] for v in values]
    except KeyError:  # a digit outside ASCII
        kinds = [_KIND.get(v[0], "NUM") for v in values]
    kinds.append("EOF")
    values.append("")
    return kinds, values, parts


# ---------------------------------------------------------------------------
# Parser (precedence climbing over _BINARY, recursive descent below it)
# ---------------------------------------------------------------------------

# The deepest formula the parser accepts.  A formula's depth is the most
# levels on a path from its top to an atom or a constant, where each
# connective, prefix, box, dynamic prefix and mental operation is a level:
# p(1,1) has depth 0, ~~p(1,1) and B(~p(1,1)) depth 2, and n atoms joined
# by & depth n-1.  Under the default recursion limit, parse, print_formula,
# check, reduce_formula and tdlek run all handle B(...) nested 327 deep,
# the shallowest of the shapes probed (~, &, ->, B, K, box, dynamic
# prefixes, with and without parentheses), and the limit is half of that.
# Parentheses add no level, but the parser makes a call for each one open;
# it handles 982 open at once, so it accepts half of that.  Formulas built
# in code, past the parser, are not bounded.
MAX_DEPTH = 163
MAX_PARENS = 491

_SIGN = {"+": 1, "-": -1}
_INF_LIT = TimeExpr.lit(INF)


class _Parser:
    """Reads the lexer's lists by index: token i is kinds[i], values[i].
    A symbol is tested by its value, which no other kind of token has; a
    token's offset, line and column are found only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.values, self.parts = _lex(text)
        self.i = 0  # the token being read
        self.open = 0  # levels open above it
        self.parens = 0  # parentheses open there
        self.height = 0  # depth of the part a parse method returned last

    def error(self, message: str, i: int, expected: tuple[str, ...] = ()) -> FormulaSyntaxError:
        offset = len("".join(self.parts[: 2 * i + 1]))
        return FormulaSyntaxError(message, *_position(self.text, offset), expected)

    def fail(self, i: int, *expected: str):
        """Raise at token i, which none of expected is."""
        kind = self.kinds[i]
        msg = "unexpected end of input" if kind == "EOF" else f"unexpected {self.values[i]!r}"
        raise self.error(msg, i, expected)

    def expect(self, symbol: str) -> None:
        i = self.i
        if self.values[i] != symbol:
            self.fail(i, symbol)
        self.i = i + 1

    # The parse methods count levels as they go.  A method that returns a
    # part sets height to its depth; a level is entered before its parts
    # are parsed, so that deep nesting fails at the token that opens one
    # level too many, before the parser's own calls nest too deep.  The
    # calls that open a level or a parenthesis return before the parts are
    # parsed, so they add no nesting of their own.

    def enter(self, i: int) -> None:
        """Open the level of the node token i starts."""
        self.open += 1
        self.bound(self.open, i)

    def leave(self, height: int) -> None:
        """Close the level entered last, over parts of depth height."""
        self.open -= 1
        self.height = height + 1

    def bound(self, depth: int, i: int) -> None:
        """Fail at token i if it makes the formula deeper than MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH} levels", i)

    def open_paren(self) -> None:
        i = self.i
        self.i = i + 1
        self.parens += 1
        if self.parens > MAX_PARENS:
            raise self.error(f"more than {MAX_PARENS} nested parentheses", i)

    def close_paren(self) -> None:
        self.parens -= 1
        self.expect(")")

    def formula(self) -> Formula:
        f = self.binary()
        if self.kinds[self.i] != "EOF":
            self.fail(self.i, "end of input", "binary operator")
        return f

    def binary(self, min_level: int = 1) -> Formula:
        """The longest formula whose connectives bind at min_level or tighter."""
        values = self.values
        if values[self.i] == "(":  # as in unary, but nested parentheses then take one call each
            self.open_paren()
            f = self.binary()
            self.close_paren()
        else:
            f = self.unary()
        while True:
            i = self.i
            entry = _BINARY.get(values[i])
            if entry is None or entry[1] < min_level:
                return f
            self.i = i + 1
            cls, level, right = entry
            left = self.height
            self.enter(i)
            f = cls(f, self.binary(level if right else level + 1))
            self.leave(max(left, self.height))
            self.bound(self.open + self.height, i)

    def unary(self) -> Formula:
        i = self.i
        value = self.values[i]
        if value in _PREFIX:
            self.i = i + 1
            self.enter(i)
            body = self.unary()
            self.leave(self.height)
            return _PREFIX[value](body)
        if value in _CONSTANT:
            self.i = i + 1
            self.height = 0
            return _CONSTANT[value]()
        if value == "box":
            self.i = i + 1
            if self.values[i + 1] == "[":
                lo, hi = self.interval_bounds()
            else:
                lo, hi = TimeExpr.lit(0), _INF_LIT
            self.enter(i)
            body = self.unary()
            self.leave(self.height)
            try:
                return Always(lo, hi, body)
            except BadInterval as exc:
                raise self.error(str(exc), i) from exc
        if value == "[":
            self.i = i + 1
            self.enter(i)
            op = self.mental_op()
            height = self.height
            self.expect("]")
            body = self.unary()
            self.leave(max(height, self.height))
            return Dynamic(op, body)
        if value == "(":
            self.open_paren()
            f = self.binary()
            self.close_paren()
            return f
        if self.kinds[i] == "NAME" and value not in RESERVED:
            return self.atom()
        self.fail(i, *_PREFIX, "box", "[", "(", *_CONSTANT, "atom")

    def interval_bounds(self) -> tuple[TimeExpr, TimeExpr]:
        self.expect("[")
        lo = self.time_expr()
        self.expect(",")
        hi = self.time_expr()
        i = self.i
        if self.values[i] not in ("]", ")"):
            self.fail(i, "]", ")")
        self.i = i + 1
        return lo, hi

    def mental_op(self) -> MentalOp:
        i = self.i
        value = self.values[i]
        self.enter(i)
        if value == "+":
            self.i = i + 1
            op = Learn(self.literal())
            self.leave(self.height)
            return op
        if self.kinds[i] != "NAME" or value not in _MENTAL_OPS:
            self.fail(i, "+", *_MENTAL_OPS)
        self.i = i + 1
        cls, arg_parsers = _MENTAL_OPS[value]
        self.expect("(")
        args, height = [], 0
        for parse_arg in arg_parsers:
            if args:
                self.expect(",")
            args.append(parse_arg(self))
            height = max(height, self.height)
        self.expect(")")
        self.leave(height)
        return cls(*args)

    def literal(self) -> Formula:
        i = self.i
        if self.values[i] == "~":
            self.i = i + 1
            self.enter(i)
            body = self.atom()
            self.leave(0)
            return Not(body)
        return self.atom()

    def atom(self) -> Atom:
        """An atom, built without Atom.__post_init__: a NAME or VAR token
        matches _NAME_RE or _VAR_RE, so only the reserved names and the
        bounds are tested here.  A ground atom comes with its variables
        and time memos seeded."""
        kinds, values = self.kinds, self.values
        at = self.i
        pred = values[at]
        if kinds[at] != "NAME" or pred in RESERVED:
            self.fail(at, "predicate name")
        if values[at + 1] != "(":
            self.fail(at + 1, "(")
        self.i = at + 2
        start = self.time_expr()
        i = self.i
        if values[i] != ",":
            self.fail(i, ",")
        self.i = i + 1
        end = self.time_expr()
        i = self.i
        args = []
        ground = start.var is None and end.var is None
        while values[i] == ",":
            kind = kinds[i + 1]
            if kind != "NAME":
                if kind != "VAR":
                    self.fail(i + 1, "constant", "variable")
                ground = False
            args.append(values[i + 1])
            i += 2
        if values[i] != ")":
            self.fail(i, ")")
        self.i = i + 1
        self.height = 0
        try:
            _check_bounds(pred, start, end)
        except BadInterval as exc:
            raise self.error(str(exc), at) from exc
        if ground:
            return _trusted_ground_atom(pred, _derived(start.offset, end.offset), tuple(args))
        return _trusted_atom(pred, start, end, tuple(args))

    def time_expr(self) -> TimeExpr:
        i = self.i
        kind, value = self.kinds[i], self.values[i]
        self.i = i + 1
        if kind == "NUM":
            return TimeExpr.lit(int(value))
        if value == "inf":
            return _INF_LIT
        if kind == "VAR":
            sign = _SIGN.get(self.values[i + 1])
            if sign is None:
                return TimeExpr.at(value)
            if self.kinds[i + 2] != "NUM":
                self.fail(i + 2, "number")
            self.i = i + 3
            return TimeExpr.at(value, sign * int(self.values[i + 2]))
        self.fail(i, "number", "inf", "time variable")


# Mental operations written name(arg,...): name -> (class, argument parsers).
_MENTAL_OPS = {
    "and": (Conj, (_Parser.binary, _Parser.binary)),
    "inf": (Infer, (_Parser.binary, _Parser.atom)),
    "rev": (Revise, (_Parser.atom, _Parser.atom)),
}
_TOKEN.update((cls, name) for name, (cls, _) in _MENTAL_OPS.items())  # printed name(arg,...)


# A whole ground literal in one match, alone or in B(...): an optional B(,
# an optional ~, a predicate name, a number start, a number or inf end and
# constant arguments, with the whitespace the lexer allows around each
# token, and a ) where B( opened.  The groups are the B(, the ~, the name,
# the two bounds and the arguments with their commas.
_GROUND_LITERAL_RE = re.compile(
    r"\s*(B\s*\(\s*)?(~?)\s*([a-z][A-Za-z0-9_]*)\s*\(\s*(\d+)\s*,\s*(\d+|inf)\s*"
    r"((?:,\s*[a-z][A-Za-z0-9_]*\s*)*)\)\s*(?(1)\)\s*)"
)


def _ground_literal(text: str) -> Optional[Formula]:
    """The whole of text as _GROUND_LITERAL_RE matches it, with a predicate
    not reserved and a start no later than its end, built as _Parser
    builds it; None for any other text."""
    m = _GROUND_LITERAL_RE.fullmatch(text)
    if m is None or m[3] in RESERVED:
        return None
    belief, neg, pred, start, end, args = m.groups()
    start, end = int(start), INF if end == "inf" else int(end)
    if start > end:
        return None
    f = _trusted_ground_atom(pred, _derived(start, end), tuple(_NAME_RE.findall(args)))
    f = Not(f) if neg else f
    return Belief(f) if belief else f


def parse(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with line and column.

    A ground literal, or B of one, is read by one match (_ground_literal),
    any other text by _Parser, the only source of a FormulaSyntaxError."""
    f = _ground_literal(text)
    return _Parser(text).formula() if f is None else f


def parse_atom(text: str) -> Atom:
    a = _ground_literal(text)
    if type(a) is Atom:
        return a
    p = _Parser(text)
    a = p.atom()
    if p.kinds[p.i] != "EOF":
        p.fail(p.i, "end of input")
    return a


# ---------------------------------------------------------------------------
# Printer (minimal parentheses; parse(print_formula(f)) == f)
# ---------------------------------------------------------------------------


def _interval_suffix(lo: TimeExpr, hi: TimeExpr) -> str:
    closer = ")" if (hi.is_ground() and hi.offset == INF) else "]"
    return f"[{lo},{hi}{closer}"


def print_atom(a: Atom) -> str:
    """An atom's one text, its ground bounds written from their offsets."""
    s, e = a.start, a.end
    lo = s.offset if s.var is None else s
    hi = e.offset if e.var is None else e
    return f"{a.pred}({','.join((f'{lo}', f'{hi}', *a.args))})"


def _pf(f: Node, required: int) -> str:
    if isinstance(f, Atom):
        return print_atom(f)
    binary = _BINARY_BY_CLASS.get(type(f))
    if binary is not None:
        tok, level, right = binary
        # the operand on the associative side may share the level
        s = f"{_pf(f.left, level + right)} {tok} {_pf(f.right, level + (not right))}"
        return f"({s})" if level < required else s
    if isinstance(f, Not):
        return "~" + _pf(f.body, _UNARY)
    tok = _TOKEN.get(type(f))  # B, K, true, false, and, inf, rev
    if tok is not None:
        return f"{tok}({','.join([_pf(c, 0) for c in children(f)])})" if f._parts else tok
    if isinstance(f, Always):
        head = "box" if f.is_default_interval() else "box" + _interval_suffix(f.start, f.end)
        return f"{head}({_pf(f.body, 0)})"
    if isinstance(f, Dynamic):
        return f"[{_pf(f.op, 0)}] " + _pf(f.body, _UNARY)
    if isinstance(f, Learn):
        return "+" + _pf(f.literal, _UNARY)
    raise TypeError(f"unknown formula node {f!r}")


def print_formula(f: Node) -> str:
    """Render a formula so that parse(print_formula(f)) == f, or a mental
    operation as it stands inside a dynamic prefix's brackets."""
    return _pf(f, 0)


# ---------------------------------------------------------------------------
# Variables, substitution, matching
# ---------------------------------------------------------------------------


def free_vars(f: Node) -> frozenset[str]:
    """The node's variables, memoised on it.  A ground atom takes the shared
    _NO_VARS directly, and a compound node unions only nonempty part sets."""
    try:
        vs = f._memo_free
    except AttributeError:  # not a node
        raise TypeError(f"unknown formula node {f!r}") from None
    if vs is None:
        if isinstance(f, Atom):
            vs = _NO_VARS
            if f.start.var or f.end.var or any(map(is_var, f.args)):
                vs = f.start.vars() | f.end.vars() | frozenset(filter(is_var, f.args))
        else:
            vs = f.start.vars() | f.end.vars() if isinstance(f, Always) else _NO_VARS
            for name in f._parts:
                sub = free_vars(getattr(f, name))
                vs = vs | sub if vs and sub else vs or sub
            vs = vs or _NO_VARS  # a ground box's bounds give an empty set
        object.__setattr__(f, "_memo_free", vs)
    return vs


def is_ground(f: Node) -> bool:
    return not free_vars(f)


Substitution = Mapping[str, Union[TimePoint, str]]


def _sub_time(te: TimeExpr, s: Substitution) -> TimeExpr:
    if te.var is None or te.var not in s:
        return te
    value = s[te.var]
    if not is_time_point(value):
        raise BadInterval(f"time variable {te.var} bound to non-time value {value!r}")
    return TimeExpr.lit(te.eval({te.var: value}))


def _sub_arg(a: str, s: Substitution) -> str:
    if not is_var(a) or a not in s:
        return a
    value = s[a]
    if not isinstance(value, str):
        raise ValueError(f"object variable {a} bound to non-constant {value!r}")
    return value


def substitute(f: Node, s: Substitution) -> Node:
    """Uniformly replace bound variables; time expressions are evaluated.

    Unbound variables stay in place.  Grounded atoms and box labels are
    re-validated, so an instantiation that orders bounds badly raises
    BadInterval.  Mental operations are substituted through their payloads.
    """
    if isinstance(f, Atom):
        return Atom(
            f.pred,
            _sub_time(f.start, s),
            _sub_time(f.end, s),
            tuple(_sub_arg(a, s) for a in f.args),
        )
    if isinstance(f, Always):
        return Always(_sub_time(f.start, s), _sub_time(f.end, s), substitute(f.body, s))
    return rebuild(f, [substitute(c, s) for c in children(f)])


def _solve_time(te: TimeExpr, value: TimePoint, binding: dict) -> bool:
    """Extend binding so te evaluates to value, or report failure."""
    if te.var is None:
        return te.offset == value
    if te.var in binding:
        try:
            return te.eval({te.var: binding[te.var]}) == value
        except BadInterval:
            return False
    # unbound: te evaluates to value under candidate, so only a candidate
    # below 0 (value below the shift) fails
    candidate = value if value == INF else value - te.offset
    if candidate < 0:
        return False
    binding[te.var] = candidate
    return True


def match_atom(pattern: Atom, ground: Atom) -> Optional[dict]:
    """Most general substitution making pattern equal to ground, if any.

    Repeated variables must agree; time variables may bind to inf.
    """
    if not ground.is_ground():
        raise NonGround(f"match target {ground} is not ground")
    if pattern.pred != ground.pred or len(pattern.args) != len(ground.args):
        return None
    binding: dict = {}
    if not _solve_time(pattern.start, ground.start.offset, binding):
        return None
    if not _solve_time(pattern.end, ground.end.offset, binding):
        return None
    for pa, ga in zip(pattern.args, ground.args):
        if is_var(pa):
            if pa in binding:
                if binding[pa] != ga:
                    return None
            else:
                binding[pa] = ga
        elif pa != ga:
            return None
    return binding


# ---------------------------------------------------------------------------
# The time function
# ---------------------------------------------------------------------------


def merge_times(a: Optional[Interval], b: Optional[Interval]) -> Optional[Interval]:
    """Hull of two optional intervals; None (timeless) is the neutral element."""
    if a is None:
        return b
    if b is None:
        return a
    return hull(a, b)


def time_of(f: Node) -> Optional[Interval]:
    """Interval a ground formula or mental operation speaks about; None for
    the timeless true/false.

    Atoms carry their own bounds and box reports its label.  Every other
    node takes the hull of its parts, so B and K are transparent, except
    that a dynamic prefix reports its operation's interval, inf(f,a) its
    conclusion's, and rev(p,q) the hull of what p leaves of q, or q's own
    interval where p leaves nothing.
    """
    vs = free_vars(f)
    if vs:
        raise NonGround(f"time_of needs a ground formula; free: {sorted(vs)}")
    return _time(f)


def op_time(op: MentalOp) -> Optional[Interval]:
    """Interval a ground mental operation speaks about: its time_of."""
    return _time(op)


def _time(f: Node) -> Optional[Interval]:
    """time_of without the groundness test; memoised; hulls only later parts."""
    try:
        t = f._memo_time
    except AttributeError:  # not a node
        raise TypeError(f"unknown formula node {f!r}") from None
    if t is _UNSET:
        if isinstance(f, (Atom, Always)):
            return f.interval()
        if isinstance(f, Revise):
            target = f.target.interval()
            t = difference(target, f.trigger.interval()).hull()
            if t is None:
                t = target
        else:
            names = f._timed or f._parts
            t = _time(getattr(f, names[0])) if names else None
            for name in names[1:]:
                t = merge_times(t, _time(getattr(f, name)))
        object.__setattr__(f, "_memo_time", t)
    return t


def fits(t: Optional[Interval], within: Interval) -> bool:
    """Timing side condition: a timeless formula fits everywhere."""
    return t is None or subset(t, within)


# ---------------------------------------------------------------------------
# AST dump
# ---------------------------------------------------------------------------

def _te_dict(te: TimeExpr):
    if te.var is None:
        return fmt_time(te.offset) if te.offset == INF else te.offset
    return {"var": te.var, "shift": te.offset}


def ast_dict(f: Node) -> dict:
    """Machine-readable nested-record dump of the AST (JSON compatible).

    A formula's kind is under "node", a mental operation's under "op": its
    class name in lower case, or true/false for the constants.  The other
    keys are the node's field names.
    """
    kind = _TOKEN[type(f)] if type(f) in _CONSTANT.values() else type(f).__name__.lower()
    out = {"op" if isinstance(f, MentalOp) else "node": kind}
    for fld in fields(f):
        value = getattr(f, fld.name)
        if isinstance(value, TimeExpr):
            value = _te_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif fld.name in f._parts:
            value = ast_dict(value)
        out[fld.name] = value
    return out
