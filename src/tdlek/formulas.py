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
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from .intervals import (
    INF,
    BadInterval,
    Interval,
    TimeExpr,
    TimePoint,
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


RESERVED = {"box", "true", "false", "inf", "and", "rev"}

_NAME_RE = re.compile(r"^[a-z][A-Za-z0-9_]*$")
_VAR_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$")


def is_var(name: str) -> bool:
    return bool(_VAR_RE.match(name))


def _check_bounds(head: str, start: TimeExpr, end: TimeExpr, brackets: str = "()") -> None:
    """Ground bounds must form an interval: a finite start no later than the end."""
    if start.is_ground() and start.offset == INF:
        raise BadInterval(f"{head}: start bound may not be inf")
    if start.is_ground() and end.is_ground() and start.offset > end.offset:
        raise BadInterval(
            f"{head}{brackets[0]}{start},{end}{brackets[1]}: start exceeds end"
        )


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


class MentalOp:
    __slots__ = ()

    def __str__(self) -> str:
        return print_mental_op(self)


@dataclass(frozen=True)
class Atom(Formula):
    """Timed atom p(start, end, extra args...)."""

    pred: str
    start: TimeExpr
    end: TimeExpr
    args: tuple[str, ...] = ()

    def __post_init__(self):
        if not _NAME_RE.match(self.pred) or self.pred in RESERVED:
            raise ValueError(f"bad predicate name {self.pred!r}")
        for a in self.args:
            if not (_NAME_RE.match(a) or _VAR_RE.match(a)):
                raise ValueError(f"bad atom argument {a!r}")
        _check_bounds(self.pred, self.start, self.end)

    def is_ground(self) -> bool:
        return (
            self.start.is_ground()
            and self.end.is_ground()
            and not any(is_var(a) for a in self.args)
        )

    def interval(self) -> Interval:
        if not self.is_ground():
            raise NonGround(f"atom {self} is not ground")
        return Interval(int(self.start.offset), self.end.offset)


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Belief(Formula):
    body: Formula


@dataclass(frozen=True)
class Knowledge(Formula):
    body: Formula


@dataclass(frozen=True)
class Always(Formula):
    """box[start,end] body; bounds may contain variables before grounding."""

    start: TimeExpr
    end: TimeExpr
    body: Formula

    def __post_init__(self):
        _check_bounds("box", self.start, self.end, "[]")

    def is_default_interval(self) -> bool:
        return (
            self.start.is_ground()
            and self.end.is_ground()
            and self.start.offset == 0
            and self.end.offset == INF
        )


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Learn(MentalOp):
    """+lit: turn a perceived literal (atom or negated atom) into a belief."""

    literal: Formula


@dataclass(frozen=True)
class Conj(MentalOp):
    """and(f,g): conjoin two formulas already believed."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Infer(MentalOp):
    """inf(f,a): one inference step from belief f and rule K(f -> a)."""

    premise: Formula
    conclusion: Atom


@dataclass(frozen=True)
class Revise(MentalOp):
    """rev(p,q): restructure belief q around the contradicting perception p."""

    trigger: Atom
    target: Atom


@dataclass(frozen=True)
class Dynamic(Formula):
    op: MentalOp
    body: Formula


def mental_op_payloads(op: MentalOp) -> tuple[Formula, ...]:
    if isinstance(op, Learn):
        return (op.literal,)
    if isinstance(op, Conj):
        return (op.left, op.right)
    if isinstance(op, Infer):
        return (op.premise, op.conclusion)
    if isinstance(op, Revise):
        return (op.trigger, op.target)
    raise TypeError(f"unknown mental operation {op!r}")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<implies>->)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<sym>[()\[\],+\-~&|])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # NAME VAR NUM or the symbol itself; EOF at the end
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"stray character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "ws":
            pass
        elif m.lastgroup == "iff":
            toks.append(_Tok("<->", lexeme, line, col))
        elif m.lastgroup == "implies":
            toks.append(_Tok("->", lexeme, line, col))
        elif m.lastgroup == "num":
            toks.append(_Tok("NUM", lexeme, line, col))
        elif m.lastgroup == "name":
            kind = "VAR" if lexeme[0].isupper() else "NAME"
            toks.append(_Tok(kind, lexeme, line, col))
        else:
            toks.append(_Tok(lexeme, lexeme, line, col))
        for ch in lexeme:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"unexpected {tok.value!r}" if tok.kind != "EOF" else "unexpected end of input",
                tok.line,
                tok.col,
                expected=(what or kind,),
            )
        return self.take()

    def fail(self, *expected: str):
        tok = self.peek()
        msg = f"unexpected {tok.value!r}" if tok.kind != "EOF" else "unexpected end of input"
        raise FormulaSyntaxError(msg, tok.line, tok.col, expected=expected)

    # precedence chain -----------------------------------------------------

    def formula(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail("end of input", "binary operator")
        return f

    def iff(self) -> Formula:
        f = self.implies()
        while self.peek().kind == "<->":
            self.take()
            f = Iff(f, self.implies())
        return f

    def implies(self) -> Formula:
        f = self.disj()
        if self.peek().kind == "->":
            self.take()
            return Implies(f, self.implies())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek().kind == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            return Not(self.unary())
        if tok.kind == "VAR" and tok.value == "B":
            self.take()
            return Belief(self.unary())
        if tok.kind == "VAR" and tok.value == "K":
            self.take()
            return Knowledge(self.unary())
        if tok.kind == "NAME" and tok.value == "box":
            self.take()
            if self.peek().kind == "[":
                lo, hi = self.interval_bounds()
            else:
                lo, hi = TimeExpr.lit(0), TimeExpr.lit(INF)
            body = self.unary()
            try:
                return Always(lo, hi, body)
            except BadInterval as exc:
                raise FormulaSyntaxError(str(exc), tok.line, tok.col) from exc
        if tok.kind == "[":
            self.take()
            op = self.mental_op()
            self.expect("]")
            return Dynamic(op, self.unary())
        if tok.kind == "(":
            self.take()
            f = self.iff()
            self.expect(")")
            return f
        if tok.kind == "NAME" and tok.value == "true":
            self.take()
            return Top()
        if tok.kind == "NAME" and tok.value == "false":
            self.take()
            return Bot()
        if tok.kind == "NAME" and tok.value not in RESERVED:
            return self.atom()
        self.fail("~", "B", "K", "box", "[", "(", "true", "false", "atom")

    def interval_bounds(self) -> tuple[TimeExpr, TimeExpr]:
        self.expect("[")
        lo = self.time_expr()
        self.expect(",")
        hi = self.time_expr()
        tok = self.peek()
        if tok.kind in ("]", ")"):
            self.take()
        else:
            self.fail("]", ")")
        return lo, hi

    def mental_op(self) -> MentalOp:
        tok = self.peek()
        if tok.kind == "+":
            self.take()
            return Learn(self.literal())
        if tok.kind == "NAME" and tok.value == "and":
            self.take()
            self.expect("(")
            left = self.iff()
            self.expect(",")
            right = self.iff()
            self.expect(")")
            return Conj(left, right)
        if tok.kind == "NAME" and tok.value == "inf":
            self.take()
            self.expect("(")
            premise = self.iff()
            self.expect(",")
            concl = self.atom()
            self.expect(")")
            return Infer(premise, concl)
        if tok.kind == "NAME" and tok.value == "rev":
            self.take()
            self.expect("(")
            trigger = self.atom()
            self.expect(",")
            target = self.atom()
            self.expect(")")
            return Revise(trigger, target)
        self.fail("+", "and", "inf", "rev")

    def literal(self) -> Formula:
        if self.peek().kind == "~":
            self.take()
            return Not(self.atom())
        return self.atom()

    def atom(self) -> Atom:
        tok = self.peek()
        if tok.kind != "NAME" or tok.value in RESERVED:
            self.fail("predicate name")
        name = self.take()
        self.expect("(")
        start = self.time_expr()
        self.expect(",")
        end = self.time_expr()
        args = []
        while self.peek().kind == ",":
            self.take()
            t = self.peek()
            if t.kind not in ("NAME", "VAR"):
                self.fail("constant", "variable")
            args.append(self.take().value)
        self.expect(")")
        try:
            return Atom(name.value, start, end, tuple(args))
        except (BadInterval, ValueError) as exc:
            raise FormulaSyntaxError(str(exc), name.line, name.col) from exc

    def time_expr(self) -> TimeExpr:
        tok = self.peek()
        if tok.kind == "NUM":
            return TimeExpr.lit(int(self.take().value))
        if tok.kind == "NAME" and tok.value == "inf":
            self.take()
            return TimeExpr.lit(INF)
        if tok.kind == "VAR":
            var = self.take().value
            if self.peek().kind in ("+", "-"):
                sign = 1 if self.take().kind == "+" else -1
                num = self.expect("NUM", "number")
                return TimeExpr.at(var, sign * int(num.value))
            return TimeExpr.at(var)
        self.fail("number", "inf", "time variable")


def parse(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with line and column."""
    return _Parser(text).formula()


def parse_atom(text: str) -> Atom:
    p = _Parser(text)
    a = p.atom()
    if p.peek().kind != "EOF":
        p.fail("end of input")
    return a


# ---------------------------------------------------------------------------
# Printer (minimal parentheses; parse(print_formula(f)) == f)
# ---------------------------------------------------------------------------

_LEVEL_IFF, _LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 1, 2, 3, 4, 5


def _interval_suffix(lo: TimeExpr, hi: TimeExpr) -> str:
    closer = ")" if (hi.is_ground() and hi.offset == INF) else "]"
    return f"[{lo},{hi}{closer}"


def print_mental_op(op: MentalOp) -> str:
    if isinstance(op, Learn):
        return "+" + _pf(op.literal, _LEVEL_UNARY)
    if isinstance(op, Conj):
        return f"and({_pf(op.left, 0)},{_pf(op.right, 0)})"
    if isinstance(op, Infer):
        return f"inf({_pf(op.premise, 0)},{_pf(op.conclusion, 0)})"
    if isinstance(op, Revise):
        return f"rev({_pf(op.trigger, 0)},{_pf(op.target, 0)})"
    raise TypeError(f"unknown mental operation {op!r}")


def _pf(f: Formula, required: int) -> str:
    if isinstance(f, Atom):
        parts = [str(f.start), str(f.end), *f.args]
        return f"{f.pred}({','.join(parts)})"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Not):
        return "~" + _pf(f.body, _LEVEL_UNARY)
    if isinstance(f, Belief):
        return f"B({_pf(f.body, 0)})"
    if isinstance(f, Knowledge):
        return f"K({_pf(f.body, 0)})"
    if isinstance(f, Always):
        head = "box" if f.is_default_interval() else "box" + _interval_suffix(f.start, f.end)
        return f"{head}({_pf(f.body, 0)})"
    if isinstance(f, Dynamic):
        return f"[{print_mental_op(f.op)}] " + _pf(f.body, _LEVEL_UNARY)
    if isinstance(f, And):
        s = f"{_pf(f.left, _LEVEL_AND)} & {_pf(f.right, _LEVEL_AND + 1)}"
        level = _LEVEL_AND
    elif isinstance(f, Or):
        s = f"{_pf(f.left, _LEVEL_OR)} | {_pf(f.right, _LEVEL_OR + 1)}"
        level = _LEVEL_OR
    elif isinstance(f, Implies):
        s = f"{_pf(f.left, _LEVEL_IMPLIES + 1)} -> {_pf(f.right, _LEVEL_IMPLIES)}"
        level = _LEVEL_IMPLIES
    elif isinstance(f, Iff):
        s = f"{_pf(f.left, _LEVEL_IFF)} <-> {_pf(f.right, _LEVEL_IFF + 1)}"
        level = _LEVEL_IFF
    else:
        raise TypeError(f"unknown formula node {f!r}")
    return f"({s})" if level < required else s


def print_formula(f: Formula) -> str:
    """Render a formula so that parse(print_formula(f)) == f."""
    return _pf(f, 0)


# ---------------------------------------------------------------------------
# Variables, substitution, matching
# ---------------------------------------------------------------------------


def free_vars(f: Union[Formula, MentalOp]) -> frozenset[str]:
    if isinstance(f, Atom):
        vs = f.start.vars() | f.end.vars()
        return vs | frozenset(a for a in f.args if is_var(a))
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Belief, Knowledge)):
        return free_vars(f.body)
    if isinstance(f, Always):
        return f.start.vars() | f.end.vars() | free_vars(f.body)
    if isinstance(f, Dynamic):
        return free_vars(f.op) | free_vars(f.body)
    if isinstance(f, MentalOp):
        out: frozenset[str] = frozenset()
        for payload in mental_op_payloads(f):
            out |= free_vars(payload)
        return out
    raise TypeError(f"unknown formula node {f!r}")


def is_ground(f: Union[Formula, MentalOp]) -> bool:
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


def substitute(f: Formula, s: Substitution) -> Formula:
    """Uniformly replace bound variables; time expressions are evaluated.

    Unbound variables stay in place.  Grounded atoms are re-validated, so
    an instantiation that orders bounds badly raises BadInterval.
    """
    if isinstance(f, Atom):
        return Atom(
            f.pred,
            _sub_time(f.start, s),
            _sub_time(f.end, s),
            tuple(_sub_arg(a, s) for a in f.args),
        )
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(substitute(f.body, s))
    if isinstance(f, And):
        return And(substitute(f.left, s), substitute(f.right, s))
    if isinstance(f, Or):
        return Or(substitute(f.left, s), substitute(f.right, s))
    if isinstance(f, Implies):
        return Implies(substitute(f.left, s), substitute(f.right, s))
    if isinstance(f, Iff):
        return Iff(substitute(f.left, s), substitute(f.right, s))
    if isinstance(f, Belief):
        return Belief(substitute(f.body, s))
    if isinstance(f, Knowledge):
        return Knowledge(substitute(f.body, s))
    if isinstance(f, Always):
        return Always(_sub_time(f.start, s), _sub_time(f.end, s), substitute(f.body, s))
    if isinstance(f, Dynamic):
        return Dynamic(substitute_op(f.op, s), substitute(f.body, s))
    raise TypeError(f"unknown formula node {f!r}")


def substitute_op(op: MentalOp, s: Substitution) -> MentalOp:
    if isinstance(op, Learn):
        return Learn(substitute(op.literal, s))
    if isinstance(op, Conj):
        return Conj(substitute(op.left, s), substitute(op.right, s))
    if isinstance(op, Infer):
        return Infer(substitute(op.premise, s), substitute(op.conclusion, s))
    if isinstance(op, Revise):
        return Revise(substitute(op.trigger, s), substitute(op.target, s))
    raise TypeError(f"unknown mental operation {op!r}")


def _solve_time(te: TimeExpr, value: TimePoint, binding: dict) -> bool:
    """Extend binding so te evaluates to value, or report failure."""
    if te.var is None:
        return te.offset == value
    if te.var in binding:
        try:
            return te.eval({te.var: binding[te.var]}) == value
        except BadInterval:
            return False
    if value == INF:
        candidate: TimePoint = INF
    else:
        candidate = value - te.offset
        if candidate < 0:
            return False
    try:
        if te.eval({te.var: candidate}) != value:
            return False
    except BadInterval:
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


def op_time(op: MentalOp) -> Optional[Interval]:
    """Interval a ground mental operation speaks about."""
    if isinstance(op, Learn):
        return _time(op.literal)
    if isinstance(op, Conj):
        return merge_times(_time(op.left), _time(op.right))
    if isinstance(op, Infer):
        return _time(op.conclusion)
    if isinstance(op, Revise):
        restored = difference(op.target.interval(), op.trigger.interval())
        h = restored.hull()
        return h if h is not None else op.target.interval()
    raise TypeError(f"unknown mental operation {op!r}")


def time_of(f: Formula) -> Optional[Interval]:
    """Interval a ground formula speaks about; None for the timeless true/false.

    Atoms carry their own bounds, connectives take the hull of their parts,
    B and K are transparent, box reports its label, and dynamic prefixes
    report their operation's interval.
    """
    vs = free_vars(f)
    if vs:
        raise NonGround(f"time_of needs a ground formula; free: {sorted(vs)}")
    return _time(f)


def _time(f: Formula) -> Optional[Interval]:
    if isinstance(f, Atom):
        return f.interval()
    if isinstance(f, (Top, Bot)):
        return None
    if isinstance(f, Not):
        return _time(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return merge_times(_time(f.left), _time(f.right))
    if isinstance(f, (Belief, Knowledge)):
        return _time(f.body)
    if isinstance(f, Always):
        return Interval(int(f.start.offset), f.end.offset)
    if isinstance(f, Dynamic):
        return op_time(f.op)
    raise TypeError(f"unknown formula node {f!r}")


def fits(t: Optional[Interval], within: Interval) -> bool:
    """Timing side condition: a timeless formula fits everywhere."""
    return t is None or subset(t, within)


# ---------------------------------------------------------------------------
# Sugar normalization, AST dump, grounding enumeration
# ---------------------------------------------------------------------------


def normalize_sugar(f: Formula) -> Formula:
    """Rewrite | and <-> into the core connectives ~, &, ->."""
    if isinstance(f, Or):
        return Not(And(Not(normalize_sugar(f.left)), Not(normalize_sugar(f.right))))
    if isinstance(f, Iff):
        left, right = normalize_sugar(f.left), normalize_sugar(f.right)
        return And(Implies(left, right), Implies(right, left))
    if isinstance(f, Not):
        return Not(normalize_sugar(f.body))
    if isinstance(f, And):
        return And(normalize_sugar(f.left), normalize_sugar(f.right))
    if isinstance(f, Implies):
        return Implies(normalize_sugar(f.left), normalize_sugar(f.right))
    if isinstance(f, Belief):
        return Belief(normalize_sugar(f.body))
    if isinstance(f, Knowledge):
        return Knowledge(normalize_sugar(f.body))
    if isinstance(f, Always):
        return Always(f.start, f.end, normalize_sugar(f.body))
    if isinstance(f, Dynamic):
        return Dynamic(f.op, normalize_sugar(f.body))
    return f


def _te_dict(te: TimeExpr):
    if te.var is None:
        return fmt_time(te.offset) if te.offset == INF else te.offset
    return {"var": te.var, "shift": te.offset}


def ast_dict(f: Union[Formula, MentalOp]) -> dict:
    """Machine-readable nested-record dump of the AST (JSON compatible)."""
    if isinstance(f, Atom):
        return {
            "node": "atom",
            "pred": f.pred,
            "start": _te_dict(f.start),
            "end": _te_dict(f.end),
            "args": list(f.args),
        }
    if isinstance(f, Top):
        return {"node": "true"}
    if isinstance(f, Bot):
        return {"node": "false"}
    if isinstance(f, Not):
        return {"node": "not", "body": ast_dict(f.body)}
    if isinstance(f, (And, Or, Implies, Iff)):
        name = {And: "and", Or: "or", Implies: "implies", Iff: "iff"}[type(f)]
        return {"node": name, "left": ast_dict(f.left), "right": ast_dict(f.right)}
    if isinstance(f, Belief):
        return {"node": "belief", "body": ast_dict(f.body)}
    if isinstance(f, Knowledge):
        return {"node": "knowledge", "body": ast_dict(f.body)}
    if isinstance(f, Always):
        return {
            "node": "always",
            "start": _te_dict(f.start),
            "end": _te_dict(f.end),
            "body": ast_dict(f.body),
        }
    if isinstance(f, Dynamic):
        return {"node": "dynamic", "op": ast_dict(f.op), "body": ast_dict(f.body)}
    if isinstance(f, Learn):
        return {"op": "learn", "literal": ast_dict(f.literal)}
    if isinstance(f, Conj):
        return {"op": "conj", "left": ast_dict(f.left), "right": ast_dict(f.right)}
    if isinstance(f, Infer):
        return {"op": "infer", "premise": ast_dict(f.premise), "conclusion": ast_dict(f.conclusion)}
    if isinstance(f, Revise):
        return {"op": "revise", "trigger": ast_dict(f.trigger), "target": ast_dict(f.target)}
    raise TypeError(f"unknown node {f!r}")


def _time_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return f.start.vars() | f.end.vars()
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Not):
        return _time_vars(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return _time_vars(f.left) | _time_vars(f.right)
    if isinstance(f, (Belief, Knowledge)):
        return _time_vars(f.body)
    if isinstance(f, Always):
        return f.start.vars() | f.end.vars() | _time_vars(f.body)
    if isinstance(f, Dynamic):
        out = _time_vars(f.body)
        for payload in mental_op_payloads(f.op):
            out |= _time_vars(payload)
        return out
    raise TypeError(f"unknown formula node {f!r}")


def _temporally_well_formed(f: Formula) -> bool:
    """Ground check: every boxed body speaks within its box label."""
    if isinstance(f, Always):
        label = Interval(int(f.start.offset), f.end.offset)
        return fits(_time(f.body), label) and _temporally_well_formed(f.body)
    if isinstance(f, Not):
        return _temporally_well_formed(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return _temporally_well_formed(f.left) and _temporally_well_formed(f.right)
    if isinstance(f, (Belief, Knowledge)):
        return _temporally_well_formed(f.body)
    if isinstance(f, Dynamic):
        return _temporally_well_formed(f.body)
    return True


def ground_instances(
    f: Formula, horizon: int, constants: tuple[str, ...] = ()
) -> Iterator[dict]:
    """Enumerate substitutions producing valid ground instances of f.

    Time variables range over 0..horizon; object variables range over the
    given constants (default: constants already appearing in f).  Instances
    that break atom bounds or speak outside a box label are skipped.
    """
    tvars = sorted(_time_vars(f))
    ovars = sorted(free_vars(f) - frozenset(tvars))
    if not constants:
        constants = tuple(sorted(_constants_in(f))) or ("c",)

    def assign(i: int, binding: dict) -> Iterator[dict]:
        if i == len(tvars) + len(ovars):
            try:
                g = substitute(f, binding)
            except (BadInterval, ValueError):
                return
            if is_ground(g) and _temporally_well_formed(g):
                yield dict(binding)
            return
        if i < len(tvars):
            var, pool = tvars[i], range(horizon + 1)
        else:
            var, pool = ovars[i - len(tvars)], constants
        for value in pool:
            binding[var] = value
            yield from assign(i + 1, binding)
        del binding[var]

    yield from assign(0, {})


def count_ground_instances(f: Formula, horizon: int, constants: tuple[str, ...] = ()) -> int:
    return sum(1 for _ in ground_instances(f, horizon, constants))


def _constants_in(f: Formula) -> set[str]:
    out: set[str] = set()
    if isinstance(f, Atom):
        out |= {a for a in f.args if not is_var(a)}
    elif isinstance(f, Not):
        out |= _constants_in(f.body)
    elif isinstance(f, (And, Or, Implies, Iff)):
        out |= _constants_in(f.left) | _constants_in(f.right)
    elif isinstance(f, (Belief, Knowledge, Always)):
        out |= _constants_in(f.body)
    elif isinstance(f, Dynamic):
        out |= _constants_in(f.body)
        for payload in mental_op_payloads(f.op):
            out |= _constants_in(payload)
    return out
