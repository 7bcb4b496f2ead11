"""Mental operations as model transformers, dynamic checking, reduction."""

import random
import re

import pytest

from tdlek.intervals import INF, TimeExpr, subset
from tdlek.formulas import (
    Always,
    And,
    Atom,
    Belief,
    Conj,
    Dynamic,
    Iff,
    Infer,
    Knowledge,
    Learn,
    NonGround,
    Not,
    Or,
    Revise,
    children,
    merge_times,
    parse,
    print_formula,
    time_of,
)
from tdlek.models import TLekModel, World, check, extension, gen_random_model, truth_set, validate_model
from tdlek.dynamics import (
    MalformedOp,
    UnreducibleShape,
    apply,
    check_dynamic,
    reduce_formula,
    wider_belief_exists,
)
from tdlek.randgen import gen_dynamic_formula, gen_mental_op, model_vocab
from tdlek.suites import _revise_fixture


def atom(pred, lo, hi, *args):
    return Atom(pred, TimeExpr.lit(lo), TimeExpr.lit(hi), tuple(args))


def covering_model():
    """Two reachable worlds whose intervals cover [0,9]."""
    raining = atom("raining", 2, 2)
    w1 = World("w1", frozenset({raining, atom("s", 0, 9)}))
    w2 = World("w2", frozenset({atom("s", 0, 9)}))
    return TLekModel([w1, w2], [frozenset({"w1", "w2"})], {}), raining


# ---------------------------------------------------------------------------
# apply: Learn
# ---------------------------------------------------------------------------


def test_learn_adds_extension_everywhere_it_fits():
    m, raining = covering_model()
    out = apply(m, Learn(raining))
    assert out.applied
    assert validate_model(out.model) == []
    for wid in m.worlds:
        assert extension(m, wid, raining) in out.model.n_of(wid)
        assert check(out.model, wid, Belief(raining))
    assert not check(m, "w1", Belief(raining))


def test_learn_skips_worlds_where_time_does_not_fit():
    w1 = World("w1", frozenset({atom("p", 5, 9)}))
    m = TLekModel([w1], [frozenset({"w1"})], {})
    out = apply(m, Learn(atom("q", 0, 2)))
    assert not out.applied
    assert out.model is m


def test_learn_idempotent():
    m, raining = covering_model()
    once = apply(m, Learn(raining)).model
    twice = apply(once, Learn(raining)).model
    assert once.nbhd == twice.nbhd


def test_learn_negated_literal():
    m, raining = covering_model()
    out = apply(m, Learn(Not(raining)))
    assert out.applied
    # only w2 lacks raining(2,2), so the extension is {w2}
    assert frozenset({"w2"}) in out.model.n_of("w1")
    assert check(out.model, "w1", parse("B(~raining(2,2))"))


def test_learn_rejects_non_literal():
    m, raining = covering_model()
    with pytest.raises(MalformedOp):
        apply(m, Learn(And(raining, raining)))
    with pytest.raises(MalformedOp):
        apply(m, Learn(Not(Not(raining))))
    with pytest.raises(NonGround, match="mental operation is not ground"):
        apply(m, Learn(parse("p(T,T)")))


def test_malformed_operations_are_rejected_when_built():
    # Built in code past the parser, each of these once got further: time_of
    # of the revision raised AttributeError, str of the learning printed
    # text that parse rejects, and reduce_formula rewrote the prefix that
    # check and apply refuse.
    p, q = atom("p", 1, 2), atom("q", 5, 6)
    with pytest.raises(MalformedOp, match="rev needs two atoms"):
        time_of(Revise(Not(p), p))
    with pytest.raises(MalformedOp, match=r"\+ needs an atom or negated atom"):
        str(Learn(And(p, p)))
    with pytest.raises(MalformedOp):
        reduce_formula(Dynamic(Learn(And(p, q)), Belief(q)))
    with pytest.raises(MalformedOp, match="inf needs an atom conclusion"):
        Infer(p, Not(q))
    with pytest.raises(MalformedOp):
        Revise(p, Not(q))
    # the shapes the parser builds are unchanged
    assert str(Learn(Not(p))) == "+~p(1,2)"
    assert parse("[rev(p(1,2),q(0,9))] true").op == Revise(p, atom("q", 0, 9))


# ---------------------------------------------------------------------------
# apply: Infer and Conj
# ---------------------------------------------------------------------------


def umbrella_model():
    # take holds in both worlds so its extension differs from raining's
    raining = atom("raining", 2, 2)
    take = atom("take", 2, 2, "umbrella")
    w1 = World("w1", frozenset({raining, take, atom("s", 0, 9)}))
    w2 = World("w2", frozenset({take, atom("s", 0, 9)}))
    base = TLekModel([w1, w2], [frozenset({"w1", "w2"})], {})
    fam = frozenset({extension(base, "w1", raining)})
    return TLekModel(base.worlds.values(), base.classes, {"w1": fam, "w2": fam}), raining, take


def test_infer_adds_conclusion_extension():
    m, raining, take = umbrella_model()
    assert check(m, "w1", Belief(raining))
    assert check(m, "w1", Knowledge(parse("raining(2,2) -> take(2,2,umbrella)")))
    out = apply(m, Infer(raining, take))
    assert out.applied
    assert check(out.model, "w1", Belief(take))
    assert validate_model(out.model) == []


def test_infer_otherwise_branch_is_identity():
    m, raining, take = umbrella_model()
    # no K(take -> missing), so the guard fails at every world
    out = apply(m, Infer(take, atom("missing", 2, 2)))
    assert not out.applied
    assert out.model is m
    assert out.delta == {}


def test_conj_adds_conjunction_extension():
    m, raining, take = umbrella_model()
    base = TLekModel(m.worlds.values(), m.classes, {})
    fam = frozenset(
        {extension(base, "w1", raining), extension(base, "w1", take)}
    )
    m2 = TLekModel(base.worlds.values(), base.classes, {"w1": fam, "w2": fam})
    out = apply(m2, Conj(raining, take))
    assert out.applied
    assert check(out.model, "w1", Belief(And(raining, take)))
    assert validate_model(out.model) == []


def test_conj_requires_both_beliefs():
    m, raining, take = umbrella_model()
    out = apply(m, Conj(raining, take))  # take is not believed
    assert not out.applied
    assert out.model is m


# ---------------------------------------------------------------------------
# apply: Revise
# ---------------------------------------------------------------------------


def test_revise_restructures_target_belief():
    m, divorced, married = _revise_fixture()
    op = Revise(divorced, married)
    out = apply(m, op)
    assert out.applied
    assert validate_model(out.model) == []
    assert check(out.model, "w1", Belief(atom("married", 6, 8)))
    assert check_dynamic(m, "w1", Dynamic(op, Belief(atom("married", 6, 8))))


def test_revise_blocked_by_wider_belief():
    m, divorced, married = _revise_fixture()
    # believe married over a wider window than the trigger as a separate atom
    wide = atom("married", 7, INF)
    w1 = m.worlds["w1"]
    worlds = [World("w1", w1.atoms | {wide}), m.worlds["w2"]]
    base = TLekModel(worlds, m.classes, {})
    fam = frozenset(
        {
            extension(base, "w1", married),
            extension(base, "w1", divorced),
            extension(base, "w1", wide),
        }
    )
    m2 = TLekModel(base.worlds.values(), base.classes, {"w1": fam, "w2": fam})
    assert check(m2, "w1", Belief(wide))
    assert wider_belief_exists(m2, "w1", Revise(divorced, married))
    out = apply(m2, Revise(divorced, married))
    assert not out.applied
    assert out.model is m2


def test_revise_requires_overlap():
    m, divorced, married = _revise_fixture()
    out = apply(m, Revise(atom("divorced", 0, 2), married))
    assert not out.applied


def test_revise_removes_cut_extension():
    # make the target's overlap atom present so removal is visible
    married = atom("married", 6, INF)
    cut = atom("married", 9, INF)
    trigger = atom("divorced", 9, INF)
    pad = atom("alive", 6, INF)
    w1 = World("w1", frozenset({married, cut, pad}))
    w2 = World("w2", frozenset({trigger, pad}))
    base = TLekModel([w1, w2], [frozenset({"w1", "w2"})], {})
    fam = frozenset(
        {
            extension(base, "w1", married),
            extension(base, "w1", trigger),
            extension(base, "w1", cut),
        }
    )
    m = TLekModel(base.worlds.values(), base.classes, {"w1": fam, "w2": fam})
    out = apply(m, Revise(trigger, married))
    assert out.applied
    removed = extension(m, "w1", cut)
    assert removed not in out.model.n_of("w1")
    assert out.delta["w1"]["removed"] == [sorted(removed)]


# ---------------------------------------------------------------------------
# check_dynamic
# ---------------------------------------------------------------------------


def test_check_dynamic_learn_then_believe():
    m, raining = covering_model()
    assert check_dynamic(m, "w1", parse("[+raining(2,2)] B raining(2,2)"))
    assert check(m, "w1", parse("[+raining(2,2)] B raining(2,2)"))  # via delegation
    for text in ("B(raining(2,2))", "~[+raining(2,2)] B(raining(2,2))"):
        with pytest.raises(TypeError, match=re.escape(f"check_dynamic needs a dynamic formula, got {text}")):
            check_dynamic(m, "w1", parse(text))


def test_check_dynamic_timing_gate():
    w1 = World("w1", frozenset({atom("p", 5, 9)}))
    m = TLekModel([w1], [frozenset({"w1"})], {})
    # body speaks about [0,2] which does not fit the world interval [5,9]
    assert not check_dynamic(m, "w1", parse("[+p(5,9)] q(0,2)"))
    # inf(f,a) speaks about its conclusion's time [5,6] alone, which fits
    # I(w0) = [5,6], whether or not time_of was asked about it first
    w0 = World("w0", frozenset({atom("q", 5, 6)}))
    m0 = TLekModel([w0], [frozenset({"w0"})], {})
    for time_first in (False, True):
        f = parse("~[inf(p(1,2),q(5,6))] false")
        if time_first:
            time_of(f.body.op)  # memoised on the operation before check reads it
        assert check(m0, "w0", f)


def test_dynamic_prefix_transparent_on_atoms():
    m, raining = covering_model()
    for formula in ("q(2,2)", "~q(2,2)", "s(0,9)"):
        plain = check(m, "w1", parse(formula))
        prefixed = check(m, "w1", parse(f"[+raining(2,2)] {formula}"))
        assert plain == prefixed


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_atom_and_negation():
    assert reduce_formula(parse("[+p(1,1)] p(1,1)")) == parse("p(1,1)")
    assert reduce_formula(parse("[+p(1,1)] ~q(2,2)")) == parse("~q(2,2)")
    assert reduce_formula(parse("[+p(1,1)] true")) == parse("true")


def test_reduce_learn_on_belief_shape():
    got = reduce_formula(parse("[+p(1,1)] B q(2,2)"))
    want = Or(
        Belief(atom("q", 2, 2)),
        Knowledge(Iff(atom("q", 2, 2), atom("p", 1, 1))),
    )
    assert got == want


def test_reduce_distributes_over_connectives_and_k():
    got = reduce_formula(parse("[+p(1,1)] K(q(2,2) & ~r(3,3))"))
    assert got == parse("K(q(2,2) & ~r(3,3))")
    got = reduce_formula(parse("[+p(1,1)] (B q(2,2) | r(3,3))"))
    assert isinstance(got, Or)


def test_reduce_nested_prefixes():
    f = parse("[+p(1,1)] [+q(2,2)] B r(3,3)")
    got = reduce_formula(f)
    assert "[" not in print_formula(got)


def test_reduce_infer_and_conj_shapes():
    got = reduce_formula(parse("[inf(p(1,1),q(2,2))] B q(2,2)"))
    want = Or(
        Belief(atom("q", 2, 2)),
        And(
            And(Belief(atom("p", 1, 1)), Knowledge(parse("p(1,1) -> q(2,2)"))),
            Knowledge(Iff(atom("q", 2, 2), atom("q", 2, 2))),
        ),
    )
    assert got == want
    got = reduce_formula(parse("[and(p(1,1),q(2,2))] B(p(1,1) & q(2,2))"))
    assert "[" not in print_formula(got)


def test_reduce_unreducible_shapes():
    with pytest.raises(UnreducibleShape):
        reduce_formula(parse("[rev(p(1,2),q(0,9))] B q(0,0)"))
    with pytest.raises(UnreducibleShape):
        reduce_formula(parse("[+p(1,1)] box[2,3] q(2,3)"))
    with pytest.raises(NonGround):
        reduce_formula(parse("[+p(1,1)] B q(T,T)"))
    # revision prefixes on non-belief shapes still reduce
    assert reduce_formula(parse("[rev(p(1,2),q(0,9))] K q(0,0)")) == parse("K q(0,0)")


def test_reduce_oracle_equivalence_on_full_span_models():
    rng = random.Random(13)
    for i in range(250):
        m = gen_random_model(seed=5000 + i, full_span=True)
        vocab = model_vocab(m)
        f = gen_dynamic_formula(rng, vocab, 10, dyn_depth=2)
        try:
            reduced = reduce_formula(f)
        except UnreducibleShape:
            continue
        assert "[" not in print_formula(reduced)
        for wid in m.worlds:
            assert check(m, wid, f) == check(m, wid, reduced), print_formula(f)


# ---------------------------------------------------------------------------
# Frame preservation
# ---------------------------------------------------------------------------


def test_frame_preserved_under_random_operations():
    rng = random.Random(4)
    for i in range(150):
        m = gen_random_model(seed=7000 + i)
        vocab = model_vocab(m)
        op = gen_mental_op(rng, vocab, 10)
        out = apply(m, op)
        assert validate_model(out.model) == [], print_formula(Dynamic(op, parse("true")))
        if not out.applied:
            assert out.model is m


# ---------------------------------------------------------------------------
# Documented boundaries: why the generator pins class intervals and why the
# oracle suite uses full-span models
# ---------------------------------------------------------------------------


def test_heterogeneous_class_intervals_can_break_condition_2():
    # the per-world Learn guard fires at w1 (interval [1,5]) but not at w2
    # (interval [2,3]), so N(w1) grows past N(w2); this is exactly what the
    # class-constant intervals of gen_random_model rule out
    w1 = World("w1", frozenset({atom("p", 1, 5)}))
    w2 = World("w2", frozenset({atom("q", 2, 3)}))
    m = TLekModel([w1, w2], [frozenset({"w1", "w2"})], {})
    assert validate_model(m) == []
    out = apply(m, Learn(atom("p", 1, 5)))
    assert any("condition 2" in v for v in validate_model(out.model))


def test_reduction_is_gate_sensitive_outside_full_span():
    # rewriting changes a node's structural time, so on a narrow world the
    # outer negation's gate sees different intervals before and after
    w = World("w", frozenset({atom("p", 1, 1)}))
    m = TLekModel([w], [frozenset({"w"})], {})
    f = parse("~([+p(1,1)] q(2,2))")
    reduced = reduce_formula(f)
    assert reduced == parse("~q(2,2)")
    assert check(m, "w", f) is True
    assert check(m, "w", reduced) is False


def _span(f):
    """Hull of the intervals of every atom and box label in f, those of
    its mental operations included; None where f has neither."""
    t = f.interval() if isinstance(f, (Atom, Always)) else None
    for c in children(f):
        t = merge_times(t, _span(c))
    return t


def test_reduction_agrees_where_the_world_interval_holds_the_formulas_span():
    """reduce is exact at every world whose I(w) holds the hull of the
    formula's atom and box intervals, on general-interval models too (the
    reduction-oracle suite's stream, without full_span).  Elsewhere the
    timing gates can tell the two apart, because a dynamic prefix is
    gated by its body's time but reports its operation's, which a
    rewrite moves; those disagreements are printed, not asserted on."""
    seed = 9173  # not used while the test was written (it was seed 0)
    rng = random.Random(seed)
    reduced_count = inside = outside = differ_outside = 0
    i = 0
    while reduced_count < 500:
        m = gen_random_model(seed * 104_729 + i, full_span=False)
        i += 1
        f = gen_dynamic_formula(rng, model_vocab(m), 10, dyn_depth=2)
        try:
            reduced = reduce_formula(f)
        except UnreducibleShape:
            continue
        reduced_count += 1
        span = _span(f)
        differ = truth_set(m, f) ^ truth_set(m, reduced)
        for bit, wid, iv in zip(m.frame.bits, m.frame.ids, m.frame.intervals):
            if span is None or subset(span, iv):
                inside += 1
                assert not differ & bit, (wid, print_formula(f), print_formula(reduced))
            else:
                outside += 1
                differ_outside += bool(differ & bit)
    print(f"{reduced_count} reduced of {i} formulas; {inside} world verdicts inside the span "
          f"agree; {differ_outside} of {outside} outside it disagree")
    assert inside > 300 and outside > 300
