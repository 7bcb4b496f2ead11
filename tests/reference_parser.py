"""Token-object reference parser, for differential tests.

This is the front end as it was before the lexer produced flat arrays:
``_lex`` builds one ``_Tok`` (kind, value, line, column) per token, the
parser reads them through ``peek``/``take``/``expect`` calls, and every
atom goes through the validating ``Atom`` constructor.  It is slow on
purpose and shares with ``tdlek.formulas`` only the node classes, the
syntax tables and the depth bounds; ``parse`` and ``parse_atom`` here
must give the same AST, or the same ``FormulaSyntaxError`` (message,
line and column), as theirs.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from tdlek.formulas import (
    _BINARY,
    _CONSTANT,
    _PREFIX,
    MAX_DEPTH,
    MAX_PARENS,
    RESERVED,
    Always,
    Atom,
    Conj,
    Dynamic,
    Formula,
    FormulaSyntaxError,
    Infer,
    Learn,
    MentalOp,
    Not,
    Revise,
)
from tdlek.intervals import INF, BadInterval, TimeExpr

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<NUM>\d+)
  | (?P<NAME>[a-z][A-Za-z0-9_]*)
  | (?P<VAR>[A-Z][A-Za-z0-9_]*)
  | (?P<sym><->|->|[()\[\],+\-~&|])
    """,
    re.VERBOSE,
)


class _Tok(NamedTuple):
    kind: str  # NAME VAR NUM or the symbol itself; EOF at the end
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    """The tokens of text, in one pass of _TOKEN_RE; a gap between two
    matches is a stray character.  A column counts the characters since
    the last newline, so only whitespace tokens move the line."""
    toks: list[_Tok] = []
    line, bol = 1, 0  # bol: the offset where the current line begins
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            lexeme = m.group()
            toks.append(_Tok(lexeme if kind == "sym" else kind, lexeme, line, start - bol + 1))
        elif "\n" in (blank := m.group()):
            line += blank.count("\n")
            bol = text.rindex("\n", start, pos) + 1
    if pos < len(text):
        raise FormulaSyntaxError(f"stray character {text[pos]!r}", line, pos - bol + 1)
    toks.append(_Tok("EOF", "", line, pos - bol + 1))
    return toks



class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.open = 0  # levels open above the token being read
        self.parens = 0  # parentheses open there
        self.height = 0  # depth of the part a parse method returned last

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

    # The parse methods count levels as they go.  A method that returns a
    # part sets height to its depth; a level is entered before its parts
    # are parsed, so that deep nesting fails at the token that opens one
    # level too many, before the parser's own calls nest too deep.  The
    # calls that open a level or a parenthesis return before the parts are
    # parsed, so they add no nesting of their own.

    def enter(self, tok: _Tok) -> None:
        """Open the level of the node tok starts."""
        self.open += 1
        self.bound(self.open, tok)

    def leave(self, height: int) -> None:
        """Close the level entered last, over parts of depth height."""
        self.open -= 1
        self.height = height + 1

    def bound(self, depth: int, tok: _Tok) -> None:
        """Fail at tok if it makes the formula deeper than MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_DEPTH} levels", tok.line, tok.col)

    def open_paren(self) -> None:
        tok = self.take()
        self.parens += 1
        if self.parens > MAX_PARENS:
            raise FormulaSyntaxError(f"more than {MAX_PARENS} nested parentheses", tok.line, tok.col)

    def close_paren(self) -> None:
        self.parens -= 1
        self.expect(")")

    def formula(self) -> Formula:
        f = self.binary()
        if self.peek().kind != "EOF":
            self.fail("end of input", "binary operator")
        return f

    def binary(self, min_level: int = 1) -> Formula:
        """The longest formula whose connectives bind at min_level or tighter."""
        if self.peek().kind == "(":  # as in unary, but nested parentheses then take one call each
            self.open_paren()
            f = self.binary()
            self.close_paren()
        else:
            f = self.unary()
        while True:
            tok = self.peek()
            entry = _BINARY.get(tok.kind)
            if entry is None or entry[1] < min_level:
                return f
            self.take()
            cls, level, right = entry
            left = self.height
            self.enter(tok)
            f = cls(f, self.binary(level if right else level + 1))
            self.leave(max(left, self.height))
            self.bound(self.open + self.height, tok)

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.value in _PREFIX:
            self.take()
            self.enter(tok)
            body = self.unary()
            self.leave(self.height)
            return _PREFIX[tok.value](body)
        if tok.value in _CONSTANT:
            self.take()
            self.height = 0
            return _CONSTANT[tok.value]()
        if tok.value == "box":
            self.take()
            if self.peek().kind == "[":
                lo, hi = self.interval_bounds()
            else:
                lo, hi = TimeExpr.lit(0), TimeExpr.lit(INF)
            self.enter(tok)
            body = self.unary()
            self.leave(self.height)
            try:
                return Always(lo, hi, body)
            except BadInterval as exc:
                raise FormulaSyntaxError(str(exc), tok.line, tok.col) from exc
        if tok.kind == "[":
            self.take()
            self.enter(tok)
            op = self.mental_op()
            height = self.height
            self.expect("]")
            body = self.unary()
            self.leave(max(height, self.height))
            return Dynamic(op, body)
        if tok.kind == "(":
            self.open_paren()
            f = self.binary()
            self.close_paren()
            return f
        if tok.kind == "NAME" and tok.value not in RESERVED:
            return self.atom()
        self.fail(*_PREFIX, "box", "[", "(", *_CONSTANT, "atom")

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
        self.enter(tok)
        if tok.kind == "+":
            self.take()
            op = Learn(self.literal())
            self.leave(self.height)
            return op
        if tok.kind != "NAME" or tok.value not in _MENTAL_OPS:
            self.fail("+", *_MENTAL_OPS)
        self.take()
        cls, arg_parsers = _MENTAL_OPS[tok.value]
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
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            self.enter(tok)
            body = self.atom()
            self.leave(0)
            return Not(body)
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
        self.height = 0
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


# Mental operations written name(arg,...): name -> (class, argument parsers).
_MENTAL_OPS = {
    "and": (Conj, (_Parser.binary, _Parser.binary)),
    "inf": (Infer, (_Parser.binary, _Parser.atom)),
    "rev": (Revise, (_Parser.atom, _Parser.atom)),
}


def parse(text: str) -> Formula:
    """Parse a formula; raises FormulaSyntaxError with line and column."""
    return _Parser(text).formula()


def parse_atom(text: str) -> Atom:
    p = _Parser(text)
    a = p.atom()
    if p.peek().kind != "EOF":
        p.fail("end of input")
    return a

