"""Parser, printer, time function, substitution, matching, AST dump."""

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from tdlek.intervals import INF, BadInterval, Interval, TimeExpr
from tdlek.formulas import (
    Always,
    And,
    Atom,
    Belief,
    Bot,
    Conj,
    Dynamic,
    Formula,
    FormulaSyntaxError,
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
    ast_dict,
    children,
    free_vars,
    is_ground,
    is_var,
    match_atom,
    op_time,
    parse,
    print_formula,
    substitute,
    time_of,
)
from tdlek.dynamics import reduce_formula
from tdlek.models import gen_random_model
from tdlek.randgen import gen_free_formula, gen_mental_op, model_vocab

from reference_checker import normalize_sugar


def atom(pred, lo, hi, *args):
    return Atom(pred, TimeExpr.lit(lo), TimeExpr.lit(hi), tuple(args))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_belief_atom():
    assert parse("B(raining(2,2))") == Belief(atom("raining", 2, 2))
    assert parse("B raining(2,2)") == Belief(atom("raining", 2, 2))


def test_parse_knowledge_rule_with_variables():
    f = parse("K(rain(T1,T2) -> take(T1,T2,umbrella))")
    assert isinstance(f, Knowledge)
    assert isinstance(f.body, Implies)
    assert free_vars(f) == {"T1", "T2"}


def test_parse_dynamic_learn_prefix():
    f = parse("[+p(1,1)] B p(1,1)")
    assert f == Dynamic(Learn(atom("p", 1, 1)), Belief(atom("p", 1, 1)))


def test_parse_rejects_misordered_ground_bounds():
    with pytest.raises(FormulaSyntaxError):
        parse("p(5,2)")
    with pytest.raises(FormulaSyntaxError):
        parse("p(inf,3)")


def test_atom_rejects_bad_names_when_built():
    one = TimeExpr.lit(1)
    # a name followed by a newline is not a name: Atom("p\n", ...) printed
    # as p\n(1,1), which parses as a different atom
    for pred in ("P", "1p", "", "p-q", "pé", "box", "inf", "true", "p\n"):
        with pytest.raises(ValueError, match=re.escape(f"bad predicate name {pred!r}")):
            Atom(pred, one, one)
    for arg in ("", "1", "a-b", "é", "_x", "a\n", "X\n"):
        with pytest.raises(ValueError, match=re.escape(f"bad atom argument {arg!r}")):
            Atom("p", one, one, ("a", arg))


def test_is_var_takes_only_a_whole_variable_name():
    assert is_var("X") and is_var("T1_a")
    for name in ("X\n", "x", "", "_X", "X-1", "X Y"):
        assert not is_var(name), name


def test_box_bounds_validated_at_construction():
    with pytest.raises(BadInterval):
        Always(TimeExpr.lit(5), TimeExpr.lit(2), atom("p", 1, 1))
    with pytest.raises(BadInterval):
        Always(TimeExpr.lit(INF), TimeExpr.lit(INF), atom("p", 1, 1))
    Always(TimeExpr.at("T", 5), TimeExpr.lit(2), atom("p", 1, 1))  # not ground: unchecked
    with pytest.raises(BadInterval):
        substitute(parse("box[T,2] p(1,1)"), {"T": 5})
    with pytest.raises(FormulaSyntaxError) as err:
        parse("false & box[5,2] p(1,1)")
    assert (err.value.line, err.value.col) == (1, 9)


def test_parse_error_carries_position_and_expectations():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p(1,2) &")
    assert err.value.line == 1
    assert err.value.col == 9
    assert err.value.expected


# input -> (message, line, col); the positions the character-stepping
# lexer gave, which the one-pass lexer keeps
STRAY_CHARACTERS = {
    "p(1,2)\n  & $q(1,2)": ("stray character '$'", 2, 5),
    "p(1,2) &\t\t@": ("stray character '@'", 1, 11),
    "p(1,2)#": ("stray character '#'", 1, 7),
    "\n\n\tp(1,2) \r\n !": ("stray character '!'", 4, 2),
    "p(1,2) & q(1,\n2)\t?": ("stray character '?'", 2, 4),
}


@pytest.mark.parametrize("text", list(STRAY_CHARACTERS))
def test_stray_character_position(text):
    message, line, col = STRAY_CHARACTERS[text]
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (f"{line}:{col}: {message}", line, col)


def test_token_positions_after_newlines_and_tabs():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("\tp(1,2)\n\t\t&\tq(1,2) r")
    assert (err.value.line, err.value.col) == (2, 12)
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p(1,2\n")  # the end of input sits after the last newline
    assert (err.value.line, err.value.col, err.value.expected) == (2, 1, (")",))


def test_parse_precedence_chain():
    f = parse("~a(1,1) & b(2,2) -> c(3,3) | d(4,4) <-> e(5,5)")
    want = Iff(
        Implies(
            And(Not(atom("a", 1, 1)), atom("b", 2, 2)),
            Or(atom("c", 3, 3), atom("d", 4, 4)),
        ),
        atom("e", 5, 5),
    )
    assert f == want


def test_parse_implies_right_associative():
    f = parse("a(1,1) -> b(2,2) -> c(3,3)")
    assert f == Implies(atom("a", 1, 1), Implies(atom("b", 2, 2), atom("c", 3, 3)))


def test_parse_box_variants():
    assert parse("box p(1,1)") == Always(TimeExpr.lit(0), TimeExpr.lit(INF), atom("p", 1, 1))
    assert parse("box[2,5](p(3,4))") == Always(TimeExpr.lit(2), TimeExpr.lit(5), atom("p", 3, 4))
    assert parse("box[0,inf) p(1,1)") == parse("box p(1,1)")
    f = parse("box[T,T+14] send(T1,T1)")
    assert free_vars(f) == {"T", "T1"}


def test_parse_mental_ops():
    assert parse("[+~p(1,2)] q(3,3)") == Dynamic(Learn(Not(atom("p", 1, 2))), atom("q", 3, 3))
    f = parse("[and(p(1,1),q(2,2))] B(p(1,1) & q(2,2))")
    assert f.op == Conj(atom("p", 1, 1), atom("q", 2, 2))
    f = parse("[inf(rain(2,2),take(2,2,umbrella))] B take(2,2,umbrella)")
    assert f.op == Infer(atom("rain", 2, 2), atom("take", 2, 2, "umbrella"))
    f = parse("[rev(p(1,2),q(0,9))] B q(0,0)")
    assert f.op == Revise(atom("p", 1, 2), atom("q", 0, 9))


def test_parse_constants_and_whitespace_insensitive():
    assert parse("true") == Top()
    assert parse("false") == Bot()
    assert parse("  B (  p ( 1 , 2 ) )  ") == parse("B(p(1,2))")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_print_cases():
    assert print_formula(Belief(atom("p", 1, 2))) == "B(p(1,2))"
    assert print_formula(parse("box p(1,1)")) == "box(p(1,1))"  # default interval elided
    assert "0,inf" not in print_formula(parse("box p(1,1)"))
    assert (
        print_formula(Dynamic(Revise(atom("p", 1, 2), atom("q", 0, 9)), Belief(atom("q", 0, 0))))
        == "[rev(p(1,2),q(0,9))] B(q(0,0))"
    )
    assert print_formula(atom("go", 3, INF, "shops")) == "go(3,inf,shops)"
    for value in (3, "p(1,1)", None):
        with pytest.raises(TypeError, match=re.escape(f"unknown formula node {value!r}")):
            print_formula(value)


def test_print_minimal_parens():
    f = parse("(p(1,1) & q(2,2)) | r(3,3)")
    assert print_formula(f) == "p(1,1) & q(2,2) | r(3,3)"
    g = parse("p(1,1) & (q(2,2) | r(3,3))")
    assert print_formula(g) == "p(1,1) & (q(2,2) | r(3,3))"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000_000))
def test_round_trip_random_asts(seed):
    f = gen_free_formula(random.Random(seed), depth=6)
    assert parse(print_formula(f)) == f
    # an operation prints as it stands inside a prefix's brackets
    op = gen_mental_op(random.Random(seed), model_vocab(gen_random_model(seed)), 10)
    assert print_formula(op) == str(op)
    assert parse(f"[{op}] true").op == op


# ---------------------------------------------------------------------------
# time_of
# ---------------------------------------------------------------------------


def test_time_of_core_clauses():
    assert time_of(parse("B(raining(2,2))")) == Interval(2, 2)
    assert time_of(parse("p(1,3) & q(5,6)")) == Interval(1, 6)
    assert time_of(parse("box[2,5] p(3,4)")) == Interval(2, 5)
    assert time_of(parse("~p(1,3)")) == Interval(1, 3)
    assert time_of(parse("K(p(0,9))")) == Interval(0, 9)


def test_time_of_dynamic_cases():
    assert time_of(parse("[+p(1,4)] q(2,2)")) == Interval(1, 4)
    assert time_of(parse("[and(p(1,2),q(5,8))] r(0,0)")) == Interval(1, 8)
    assert time_of(parse("[inf(p(1,2),q(5,8))] r(0,0)")) == Interval(5, 8)
    # restored span of the target after cutting out the trigger
    assert time_of(parse("[rev(p(9,9),q(6,12))] r(0,0)")) == Interval(6, 12)
    assert time_of(parse("[rev(p(6,12),q(6,12))] r(0,0)")) == Interval(6, 12)
    assert time_of(parse("[rev(p(9,12),q(6,12))] r(0,0)")) == Interval(6, 8)


def test_time_of_constants_are_timeless():
    assert time_of(Top()) is None
    assert time_of(parse("true & p(1,2)")) == Interval(1, 2)


def test_time_of_requires_ground():
    with pytest.raises(NonGround):
        time_of(parse("p(T,T)"))


NOT_NODES = ["p(1,1)", None, 3, TimeExpr.lit(1)]
NODE_ENTRIES = {
    "free_vars": free_vars,
    "is_ground": is_ground,
    "time_of": time_of,
    "op_time": op_time,
    "children": children,
    "substitute": lambda f: substitute(f, {"T": 1}),
    "reduce_formula": reduce_formula,
}


@pytest.mark.parametrize("entry", sorted(NODE_ENTRIES))
def test_node_entry_points_refuse_a_value_that_is_no_node(entry):
    """A value that is not a node raises print_formula's TypeError, at the
    top and, where the entry point walks the tree, below a connective."""
    call = NODE_ENTRIES[entry]
    for value in NOT_NODES:
        wrapped = [value] if entry == "children" else [value, And(atom("p", 1, 1), value)]
        for f in wrapped:
            with pytest.raises(TypeError, match=re.escape(f"unknown formula node {value!r}")):
                call(f)
        with pytest.raises(TypeError, match=re.escape(f"unknown formula node {value!r}")):
            print_formula(value)


def test_time_of_matches_brute_force_on_desugared_form():
    rng = random.Random(3)
    for _ in range(300):
        f = gen_free_formula(rng, depth=4, allow_vars=False)
        assert time_of(f) == time_of(normalize_sugar(f))


# ---------------------------------------------------------------------------
# free_vars / substitute / match_atom
# ---------------------------------------------------------------------------


def test_free_vars_cases():
    assert free_vars(parse("marryA(T,T)")) == {"T"}
    assert free_vars(parse("p(1,2)")) == set()
    assert free_vars(parse("enrollment(T,T,X)")) == {"T", "X"}


def test_substitute_cases():
    f = parse("married(T+1,inf)")
    assert substitute(f, {"T": 5}) == parse("married(6,inf)")
    g = parse("rain(T1,T2)")
    assert substitute(g, {"T1": 2, "T2": 2}) == parse("rain(2,2)")
    with pytest.raises(BadInterval):
        substitute(parse("p(T,T-1)"), {"T": 0})
    for value in ("a", -1, 1.5):
        with pytest.raises(BadInterval, match=re.escape(f"time variable T bound to non-time value {value!r}")):
            substitute(f, {"T": value})
    for value in (3, None, ("a",)):
        with pytest.raises(ValueError, match=re.escape(f"object variable X bound to non-constant {value!r}")):
            substitute(parse("p(1,1,X)"), {"X": value})


def test_substitute_partial_and_free_vars_law():
    rng = random.Random(11)
    for _ in range(200):
        f = gen_free_formula(rng, depth=4)
        vs = sorted(free_vars(f))
        if not vs:
            continue
        dom = {v: ("c" if v[0] in "XY" else 3) for v in vs[: len(vs) // 2 + 1]}
        try:
            g = substitute(f, dom)
        except BadInterval:
            continue
        assert free_vars(g) == free_vars(f) - set(dom)


def test_match_atom_cases():
    m = match_atom(parse("rain(T1,T2)"), parse("rain(2,2)"))
    assert m == {"T1": 2, "T2": 2}
    m = match_atom(parse("marryA(T,T)"), parse("marryA(5,5)"))
    assert m == {"T": 5}
    assert match_atom(parse("p(T,T)"), parse("p(1,2)")) is None


def test_match_atom_offsets_and_inf():
    assert match_atom(parse("married(T+1,inf)"), parse("married(6,inf)")) == {"T": 5}
    assert match_atom(parse("married(T,inf)"), parse("married(9,inf)")) == {"T": 9}
    assert match_atom(parse("p(T+3,T+3)"), parse("p(1,1)")) is None  # would need T = -2
    assert match_atom(parse("p(0,T)"), parse("p(0,inf)")) == {"T": INF}


def test_match_atom_soundness_randomized():
    rng = random.Random(21)
    from tdlek.randgen import gen_free_atom

    checked = 0
    while checked < 300:
        pattern = gen_free_atom(rng, allow_vars=True)
        values = {}
        for v in sorted(free_vars(pattern)):
            values[v] = "c" if v[0] in "XY" else rng.randint(0, 30)
        try:
            ground = substitute(pattern, values)
        except BadInterval:
            continue
        if not is_ground(ground):
            continue
        checked += 1
        m = match_atom(pattern, ground)
        assert m is not None
        assert substitute(pattern, m) == ground


def test_match_atom_requires_ground_target():
    with pytest.raises(NonGround):
        match_atom(parse("p(1,2)"), parse("p(T,2)"))


# ---------------------------------------------------------------------------
# The _parts table and the AST dump
# ---------------------------------------------------------------------------


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _walk(node):
    """Every node under node, found through its dataclass fields, not _parts."""
    yield node
    for fld in dataclasses.fields(node):
        value = getattr(node, fld.name)
        if isinstance(value, (Formula, MentalOp)):
            yield from _walk(value)


def test_parts_name_exactly_the_subformula_fields():
    # a node type whose _parts missed a field would silently drop out of
    # free_vars, substitute and reduce_formula
    rng = random.Random(17)
    formulas = [gen_free_formula(rng, depth=5) for _ in range(400)]
    formulas.append(parse("true -> ~false"))
    seen = set()
    for f in formulas:
        for node in _walk(f):
            subformula_fields = tuple(
                fld.name
                for fld in dataclasses.fields(node)
                if isinstance(getattr(node, fld.name), (Formula, MentalOp))
            )
            assert node._parts == subformula_fields, type(node).__name__
            seen.add(type(node))
    assert seen == set(_subclasses(Formula)) | set(_subclasses(MentalOp))


def test_ast_dict_is_json_ready():
    import json

    f = parse("[rev(p(1,2),q(0,9))] B(q(0,0) & married(T+1,inf))")
    blob = json.dumps(ast_dict(f), sort_keys=True)
    assert '"node": "dynamic"' in blob
    assert '"shift": 1' in blob

