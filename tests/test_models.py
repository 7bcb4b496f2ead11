"""Model structure, frame conditions, truth clauses, file round trips."""

import random
import re

import pytest

import tdlek.formulas
from tdlek.intervals import INF, Interval, TimeExpr
from tdlek.formulas import (
    Always,
    And,
    Atom,
    Belief,
    Dynamic,
    Iff,
    Knowledge,
    Learn,
    NonGround,
    Not,
    Revise,
    parse,
)
from tdlek.dynamics import check_dynamic, wider_belief_exists
from tdlek.models import (
    ModelFormatError,
    TLekModel,
    World,
    check,
    extension,
    gen_random_model,
    label,
    load_model,
    truth_set,
    save_model,
    valid_in_model,
    validate_model,
    world_interval,
)
from tdlek.randgen import gen_static, model_vocab

from reference_checker import normalize_sugar
from tdlek.suites import lek_axiom_instances, property1_suite, _instantiable


def atom(pred, lo, hi, *args):
    return Atom(pred, TimeExpr.lit(lo), TimeExpr.lit(hi), tuple(args))


def single_world_model(atoms, family=None):
    w = World("w0", frozenset(atoms))
    return TLekModel([w], [frozenset({"w0"})], {"w0": family or []})


# ---------------------------------------------------------------------------
# Worlds and derived intervals
# ---------------------------------------------------------------------------


def test_world_interval_cases():
    assert world_interval(World("w", frozenset({atom("p", 1, 3), atom("q", 2, 8)}))) == Interval(1, 8)
    assert world_interval(World("w", frozenset({atom("married", 6, INF)}))) == Interval(6, INF)
    assert world_interval(World("w", frozenset())) == Interval(0, INF)


def test_world_rejects_non_ground_atoms():
    with pytest.raises(NonGround):
        World("w", frozenset({parse("p(T,T)")}))


# ---------------------------------------------------------------------------
# Frame conditions
# ---------------------------------------------------------------------------


def test_validate_single_reflexive_world():
    m = single_world_model({atom("p", 1, 1)}, [frozenset({"w0"})])
    assert validate_model(m) == []


def test_validate_condition2_violation():
    w, v = World("w", frozenset({atom("p", 1, 1)})), World("v", frozenset({atom("p", 1, 1)}))
    m = TLekModel([w, v], [frozenset({"w", "v"})], {"w": [frozenset({"w"})], "v": []})
    violations = validate_model(m)
    assert any("condition 2" in text and "(w,v)" in text for text in violations)


def test_validate_condition1_violation():
    w, v = World("w", frozenset({atom("p", 1, 1)})), World("v", frozenset({atom("p", 1, 1)}))
    m = TLekModel(
        [w, v],
        [frozenset({"w"}), frozenset({"v"})],
        {"w": [frozenset({"w", "v"})], "v": []},
    )
    violations = validate_model(m)
    assert any("condition 1" in text for text in violations)


def test_model_constructor_rejects_bad_structure():
    w = World("w", frozenset())
    with pytest.raises(ValueError):
        TLekModel([w, w], [frozenset({"w"})], {})
    with pytest.raises(ValueError):
        TLekModel([w], [frozenset({"w", "ghost"})], {})
    with pytest.raises(ValueError):
        TLekModel([w], [], {})
    with pytest.raises(ValueError):
        TLekModel([w], [frozenset({"w"})], {"w": [frozenset({"ghost"})]})
    v = World("v", frozenset())
    with pytest.raises(ValueError, match="^world w appears in two classes$"):
        TLekModel([w, v], [frozenset({"w"}), frozenset({"v", "w"})], {})
    with pytest.raises(ValueError, match="^neighbourhood for unknown world ghost$"):
        TLekModel([w], [frozenset({"w"})], {"ghost": []})
    for wid in ("", "w 1", "w{", "w:1", "a,b"):
        with pytest.raises(ValueError, match=re.escape(f"bad world id {wid!r}")):
            World(wid, frozenset())


def test_model_equality_and_repr():
    m = single_world_model({atom("p", 1, 1)})
    assert m == single_world_model({atom("p", 1, 1)}) and m != single_world_model(set())
    assert m.__eq__("w0") is NotImplemented and m != "w0"
    assert repr(m) == "<TLekModel 1 worlds, 1 classes>"


def test_label_refuses_a_value_that_is_no_formula():
    m = single_world_model({atom("p", 1, 1)})
    for value in (Learn(atom("p", 1, 1)), "p(1,1)", None):
        with pytest.raises(TypeError, match=re.escape(f"unknown formula node {value!r}")):
            label(m, value)


def test_label_refuses_a_value_that_is_no_formula_at_any_depth():
    """The clauses label their children through the clause table, not
    through label, and still raise label's TypeError, never KeyError."""
    p = atom("p", 1, 1)
    m = single_world_model({p})
    box = lambda body: Always(TimeExpr.lit(0), TimeExpr.lit(INF), body)
    cases = [
        (Not(None), None),
        (And(p, "p"), "p"),
        (Iff(Learn(p), p), Learn(p)),
        (Belief(1), 1),
        (Knowledge(Not(Belief(None))), None),
        (box(2.5), 2.5),
        (Dynamic(Learn(p), None), None),
        (Not(Dynamic(Learn(p), And(p, "q"))), "q"),
    ]
    for f, value in cases:
        for entry in (label, truth_set):
            with pytest.raises(TypeError, match=re.escape(f"unknown formula node {value!r}")):
                entry(m, f)


@pytest.mark.parametrize("entry", ["check", "extension", "check_dynamic", "wider_belief_exists"])
def test_a_world_the_model_lacks_raises_value_error_naming_it(entry):
    """The world is looked up before any labelling: the formula here would
    raise TypeError if it were labelled."""
    p = atom("p", 1, 1)
    m = single_world_model({p})
    unlabelled = Dynamic(Learn(p), And(p, "x"))
    calls = {
        "check": lambda wid: check(m, wid, unlabelled),
        "extension": lambda wid: extension(m, wid, unlabelled),
        "check_dynamic": lambda wid: check_dynamic(m, wid, unlabelled),
        "wider_belief_exists": lambda wid: wider_belief_exists(m, wid, Revise(p, atom("p", 0, 3))),
    }
    with pytest.raises(ValueError, match=re.escape("no world 'nope' in the model")):
        calls[entry]("nope")
    if entry == "wider_belief_exists":
        assert calls[entry]("w0") is False
    else:
        with pytest.raises(TypeError, match=re.escape("unknown formula node 'x'")):
            calls[entry]("w0")


# ---------------------------------------------------------------------------
# Truth clauses
# ---------------------------------------------------------------------------


def test_atom_clause_exact_membership_and_timing():
    m = single_world_model({atom("p", 1, 2)})
    assert check(m, "w0", parse("p(1,2)"))
    assert not check(m, "w0", parse("p(1,3)"))
    assert not check(m, "w0", parse("p(1,1)"))  # membership is exact, not coverage


def test_atom_clause_timing_gate():
    # q(5,9) is in the valuation but the world interval is [1,2] in the
    # second model, so timing blocks it
    m = single_world_model({atom("p", 1, 2), atom("q", 1, 9)})
    assert check(m, "w0", parse("q(1,9)"))
    w = World("w0", frozenset({atom("p", 1, 2)}))
    m2 = TLekModel([w], [frozenset({"w0"})], {})
    assert not check(m2, "w0", parse("q(1,9)"))


def test_belief_clause():
    raining = atom("raining", 2, 2)
    w = World("w0", frozenset({raining}))
    base = TLekModel([w], [frozenset({"w0"})], {})
    m = TLekModel(base.worlds.values(), base.classes, {"w0": frozenset({extension(base, "w0", raining)})})
    assert check(m, "w0", parse("B(raining(2,2))"))
    assert not check(base, "w0", parse("B(raining(2,2))"))
    # extensional equality: a different formula with the same extension is believed
    assert check(m, "w0", parse("B(raining(2,2) & raining(2,2))"))


def test_knowledge_clause_two_worlds():
    p = atom("p", 1, 1)
    w1, w2 = World("w1", frozenset({p})), World("w2", frozenset({p}))
    m = TLekModel([w1, w2], [frozenset({"w1", "w2"})], {})
    assert check(m, "w1", parse("K p(1,1)"))
    assert check(m, "w2", parse("K p(1,1)"))
    w2b = World("w2", frozenset({atom("q", 1, 1)}))
    m2 = TLekModel([w1, w2b], [frozenset({"w1", "w2"})], {})
    assert not check(m2, "w1", parse("K p(1,1)"))


def test_box_clause_with_side_condition():
    p = atom("p", 1, 1)
    w1 = World("w1", frozenset({p, atom("q", 0, 5)}))
    w2 = World("w2", frozenset({p, atom("q", 0, 5)}))
    m = TLekModel([w1, w2], [frozenset({"w1", "w2"})], {})
    assert check(m, "w1", parse("box[1,1] p(1,1)"))
    assert check(m, "w1", parse("box[0,5] p(1,1)"))
    narrow = TLekModel(
        [World("w1", frozenset({p})), World("w2", frozenset({p}))],
        [frozenset({"w1", "w2"})],
        {},
    )
    # label [0,5] does not fit inside the world interval [1,1]
    assert not check(narrow, "w1", parse("box[0,5] p(1,1)"))


def test_extension_respects_reachability():
    p = atom("p", 1, 1)
    worlds = [World(i, frozenset({p})) for i in ("w1", "w2", "w3")]
    m = TLekModel(worlds, [frozenset({"w1", "w2"}), frozenset({"w3"})], {})
    assert extension(m, "w1", p) == {"w1", "w2"}  # w3 satisfies p but is unreachable
    assert extension(m, "w1", parse("q(1,1)")) == frozenset()


def test_valid_in_model_and_axiom_example():
    p = atom("p", 1, 1)
    m = TLekModel(
        [World("w1", frozenset({p})), World("w2", frozenset({p}))],
        [frozenset({"w1", "w2"})],
        {},
    )
    assert valid_in_model(m, parse("p(1,1) -> p(1,1)"))
    assert valid_in_model(m, parse("K p(1,1) -> p(1,1)"))
    m2 = TLekModel(
        [World("w1", frozenset({p})), World("w2", frozenset({atom("q", 1, 1)}))],
        [frozenset({"w1", "w2"})],
        {},
    )
    assert not valid_in_model(m2, p)


def test_check_requires_ground():
    m = single_world_model({atom("p", 1, 1)})
    with pytest.raises(NonGround):
        check(m, "w0", parse("p(T,T)"))


@pytest.mark.parametrize(
    "text",
    [
        "p(1,1) & q(T,2)",  # a time variable in an atom
        "B(p(1,1,X))",  # an object variable
        "p(1,1) | box[T,5](p(1,1))",  # a box bound
        "false & [+p(T,T)] p(1,1)",  # a dynamic prefix's op, under a false conjunct
        "K([inf(p(1,1),q(1,2,X))] p(1,1))",
        "[rev(p(T,2),p(1,5))] p(1,1)",
    ],
)
def test_check_names_the_whole_non_ground_formula(text):
    # groundness is found while labelling, wherever the variable sits
    m = single_world_model({atom("p", 1, 1), atom("p", 1, 5)})
    f = parse(text)
    for _ in range(2):
        with pytest.raises(NonGround) as raised:
            check(m, "w0", f)
        assert str(raised.value) == f"check needs a ground formula: {text}"


def test_check_agrees_with_desugared_brute_force():
    rng = random.Random(17)
    for i in range(120):
        m = gen_random_model(seed=2000 + i, max_worlds=4, max_predicates=3, horizon=8)
        vocab = model_vocab(m)
        for _ in range(4):
            f = gen_static(rng, vocab, 8, depth=3)
            for wid in m.worlds:
                assert check(m, wid, f) == check(m, wid, normalize_sugar(f))


# ---------------------------------------------------------------------------
# Generated models
# ---------------------------------------------------------------------------


def test_generator_postconditions():
    for seed in range(60):
        m = gen_random_model(seed, max_worlds=4, max_predicates=3, horizon=10)
        assert validate_model(m) == []
        covered = {wid for cls in m.classes for wid in cls}
        assert covered == set(m.worlds)
        # class mates share the derived interval, which keeps condition 2
        # stable under the mental-operation updates
        for cls in m.classes:
            ivs = {world_interval(m.worlds[w]) for w in cls}
            assert len(ivs) == 1


def test_generator_deterministic_and_seed_sensitive():
    a, b = gen_random_model(1), gen_random_model(1)
    assert a == b and save_model(a) == save_model(b)
    distinct = {save_model(gen_random_model(s)) for s in range(12)}
    assert len(distinct) > 6


def test_knowledge_constant_across_class():
    rng = random.Random(5)
    for i in range(40):
        m = gen_random_model(seed=900 + i)
        vocab = model_vocab(m)
        f = Knowledge(gen_static(rng, vocab, 10, 2))
        for cls in m.classes:
            values = {check(m, wid, f) for wid in cls}
            assert len(values) == 1


def test_belief_monotone_along_r():
    rng = random.Random(6)
    from tdlek.formulas import fits, time_of

    for i in range(60):
        m = gen_random_model(seed=1300 + i)
        vocab = model_vocab(m)
        f = Belief(gen_static(rng, vocab, 10, 1))
        for cls in m.classes:
            for w in cls:
                for v in cls:
                    if check(m, w, f) and fits(time_of(f.body), world_interval(m.worlds[v])):
                        assert check(m, v, f)


def test_lek_axioms_hold_on_generated_models():
    rng = random.Random(7)
    for i in range(150):
        m = gen_random_model(seed=3000 + i)
        cls = rng.choice(list(m.classes))
        gen = _instantiable(rng, m, cls, 10)
        phi, psi = gen(2), gen(2)
        for inst in lek_axiom_instances(phi, psi):
            for wid in cls:
                assert check(m, wid, inst), f"{inst} failed at {wid}\n{save_model(m)}"


def test_suites_fall_back_on_a_model_with_no_atoms():
    # with an empty vocabulary, revision draws no pair and an axiom
    # instance is built on p at the class interval's start
    m = single_world_model(set(), [frozenset({"w0"})])
    report = property1_suite([m], seed=1)
    assert report.ok and report.stats["applied_learn"] == 6 and report.stats["applied_revise"] == 0
    gen = _instantiable(random.Random(1), m, m.classes[0], 10)
    assert gen(2) == atom("p", 0, 0)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def test_save_load_identity_random_models():
    for seed in range(40):
        m = gen_random_model(seed)
        text = save_model(m)
        m2 = load_model(text)
        assert m2 == m
        assert save_model(m2) == text


def test_load_rejects_malformed_text():
    with pytest.raises(ModelFormatError):
        load_model("worlds:\n  w0: p(5,2)\n")
    with pytest.raises(ModelFormatError):
        load_model("junk\n")
    with pytest.raises(ModelFormatError):
        load_model("worlds:\n  w0:\nclasses:\n  w0\nnbhd:\n  w0: {w0} stray\n")
    with pytest.raises(ModelFormatError):
        load_model("worlds:\n  w0:\nclasses:\n  w0 w1\nnbhd:\n")
    with pytest.raises(ModelFormatError, match=re.escape("line 3: bad world id 'w{1'")):
        load_model("worlds:\n  w0: p(1,1)\n  w{1: p(1,1)\n")


def test_load_reports_bad_atom_with_line_number():
    for bad in ("p(5,2)", "p(1,1", "box(1,1)"):
        with pytest.raises(ModelFormatError, match=f"^line 3: bad atom {re.escape(repr(bad))}"):
            load_model(f"worlds:\n  w0: q(0,9)\n  w1: {bad}\n")


def test_load_reads_atoms_by_the_literal_match(monkeypatch):
    """Saved random models of a few hundred worlds load to equal models
    without building the recursive-descent parser; a chunk the ground-
    literal match refuses (a ~, a start after the end, a reserved name, a
    variable) goes to the descent, which gives the same messages."""
    made = []
    parser = tdlek.formulas._Parser
    monkeypatch.setattr(tdlek.formulas, "_Parser", lambda text: made.append(text) or parser(text))
    for seed in (0, 5, 6):
        m = gen_random_model(seed, max_worlds=400)
        assert len(m.worlds) > 150
        assert load_model(save_model(m)) == m
    assert made == []
    for bad, message in (
        ("~q(1,1)", "bad atom '~q(1,1)': 1:1: unexpected '~' (expected one of: predicate name)"),
        ("p(2,1)", "bad atom 'p(2,1)': 1:1: p(2,1): start exceeds end"),
        ("box(1,2)", "bad atom 'box(1,2)': 1:1: unexpected 'box' (expected one of: predicate name)"),
        ("B(p(1,2))", "bad atom 'B(p(1,2))': 1:1: unexpected 'B' (expected one of: predicate name)"),
        ("p(1,X)", "world w0: atom p(1,X) is not ground"),
    ):
        with pytest.raises(ModelFormatError, match=f"^line 2: {re.escape(message)}$"):
            load_model(f"worlds:\n  w0: {bad}\n")
    assert made == ["~q(1,1)", "p(2,1)", "box(1,2)", "B(p(1,2))", "p(1,X)"]


def test_load_rejects_second_nbhd_line_for_a_world():
    text = "worlds:\n  w0: p(1,1)\nclasses:\n  w0\nnbhd:\n  w0: {w0}\n  w0:\n"
    with pytest.raises(ModelFormatError, match="^line 7: duplicate nbhd line for world 'w0'$"):
        load_model(text)


def test_load_accepts_comments_and_blank_lines():
    text = """
# a tiny model
worlds:
  w0: p(1,2) q(2,8,box1)   # valuation
classes:
  w0
nbhd:
  w0: {w0} {}
"""
    m = load_model(text)
    assert check(m, "w0", parse("q(2,8,box1)"))
    assert frozenset() in m.n_of("w0")
