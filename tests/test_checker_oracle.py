"""Differential tests: the labelling checker against the clause-by-clause reference.

Every check, extension, truth set and update is compared at every world
of its model: first on everything the four property suites generate over
many seeds, then on random static and dynamic formulas over random models with
and without full-span world intervals.  An update is compared by its
delta, its model, each world's neighbourhood against the reference's
world-id families, and the saved model text; every family an update
leaves equal must be the same object in its result.  Count guards check that
the update path builds no world-id set, that axioms-lek and
reduction-oracle label each formula they check once per model, and that
labelling builds a new interval only for a connective whose children's
times do not nest.
"""

import operator
import random
from collections import Counter

import pytest

import reference_checker as ref
from tdlek import dynamics, intervals, models, suites
from tdlek.formulas import (
    Always, And, Atom, Belief, Iff, Implies, Knowledge, Learn, Not, Or, Revise, Top, children, parse,
)
from tdlek.intervals import TimeExpr
from tdlek.randgen import gen_dynamic_formula, gen_mental_op, gen_static, model_vocab

SEEDS = range(50)


def assert_agree(m, f):
    for wid in sorted(m.worlds):
        assert models.check(m, wid, f) == ref.check(m, wid, f), (wid, str(f))
        assert models.extension(m, wid, f) == ref.extension(m, wid, f), (wid, str(f))


def assert_same_update(m, op):
    outcome = dynamics.apply(m, op)
    want_model, want_applied, want_delta, want_nbhd = ref.apply(m, op)
    assert outcome.applied == want_applied, str(op)
    assert outcome.delta == want_delta, str(op)
    assert outcome.model == want_model, str(op)
    assert (outcome.model is m) == (want_model is m), str(op)
    for wid in sorted(m.worlds):
        assert outcome.model.n_of(wid) == want_nbhd[wid], (wid, str(op))
    assert models.save_model(outcome.model) == models.save_model(want_model), str(op)


class Recorder:
    """Stands in for the checker functions the suites call, comparing each
    call with the reference before answering it."""

    def __init__(self):
        self.seen = set()
        self.keep = []  # holds the models so that their ids stay unique
        self.calls = 0

    def compare(self, m, f):
        self.calls += 1
        key = (id(m), f)
        if key not in self.seen:
            self.seen.add(key)
            self.keep.append(m)
            assert_agree(m, f)

    def check(self, m, wid, f):
        self.compare(m, f)
        return models.check(m, wid, f)

    def check_dynamic(self, m, wid, f):
        self.compare(m, f)
        return dynamics.check_dynamic(m, wid, f)

    def truth_set(self, m, f):
        self.compare(m, f)
        got = models.truth_set(m, f)
        assert m.frame.worlds_of(got) == {w for w in m.worlds if ref.check(m, w, f)}, str(f)
        return got

    def apply(self, m, op):
        assert_same_update(m, op)
        return dynamics.apply(m, op)

    def wider_belief_exists(self, m, wid, op):
        got = dynamics.wider_belief_exists(m, wid, op)
        assert got == ref.wider_belief_exists(m, wid, op), str(op)
        return got


@pytest.fixture
def recorder(monkeypatch):
    rec = Recorder()
    for name in ("check", "check_dynamic", "truth_set", "apply", "wider_belief_exists"):
        monkeypatch.setattr(suites, name, getattr(rec, name))
    return rec


def test_suites_agree_with_reference(recorder):
    for seed in SEEDS:
        assert suites.frame_suite(4, seed).ok
        assert suites.lek_axioms_suite(4, seed).ok
        assert suites.property1_suite(suites.property1_models(2, seed), seed, per_model=3).ok
        assert suites.reduction_oracle_suite(4, seed).ok
    assert recorder.calls > 1000


def test_suites_label_each_checked_formula_once_per_model(monkeypatch):
    """axioms-lek and reduction-oracle take one truth set per formula they
    check and read every world's bit from it: checking world by world
    would label the formula once per world."""
    labelled, generated = Counter(), []
    depth = 0
    label = models.label

    def counted_label(m, f):  # counts labellings, not their subformulas
        nonlocal depth
        labelled[id(m)] += depth == 0
        depth += 1
        try:
            return label(m, f)
        finally:
            depth -= 1

    def generate(*args, **kwargs):
        nonlocal depth
        depth += 1  # the generator's own truth sets are not the suite's checks
        try:
            generated.append(models.gen_random_model(*args, **kwargs))
        finally:
            depth -= 1
        return generated[-1]

    monkeypatch.setattr(models, "label", counted_label)
    monkeypatch.setattr(suites, "gen_random_model", generate)
    report = suites.lek_axioms_suite(40, seed=5)
    assert report.ok and [labelled[id(m)] for m in generated] == [5] * 40
    assert sum(len(cls) > 1 for m in generated for cls in m.classes) > 10
    generated.clear()
    labelled.clear()
    report = suites.reduction_oracle_suite(40, seed=5)
    checked = report.total - report.stats["unreduced"]
    assert report.ok and checked > 30
    assert sorted(labelled[id(m)] for m in generated) == [0] * (40 - checked) + [2] * checked
    assert sum(len(m.worlds) > 1 for m in generated) > 20


@pytest.mark.parametrize("full_span", [False, True])
def test_random_formulas_agree_with_reference(full_span):
    for seed in SEEDS:
        m = models.gen_random_model(seed, full_span=full_span)
        vocab = model_vocab(m)
        rng = random.Random(seed)
        for _ in range(6):
            assert_agree(m, gen_static(rng, vocab, 10, 3))
            assert_agree(m, gen_dynamic_formula(rng, vocab, 10))
            assert_same_update(m, gen_mental_op(rng, vocab, 10))


def test_revise_fixture_family_is_reference_extensions():
    m, trigger, target = suites._revise_fixture()
    want = frozenset({ref.extension(m, "w1", target), ref.extension(m, "w1", trigger)})
    assert m.n_of("w1") == m.n_of("w2") == want


def test_update_path_derives_no_world_sets(monkeypatch):
    """apply works on the neighbourhood masks: no world-id set is built."""
    fixture, trigger, target = suites._revise_fixture()
    cases = [(fixture, Revise(trigger, target))]
    for seed in SEEDS:
        m = models.gen_random_model(seed)
        rng = random.Random(seed)
        cases += [(m, gen_mental_op(rng, model_vocab(m), 10)) for _ in range(6)]
    calls = []
    worlds_of = models.Frame.worlds_of
    monkeypatch.setattr(models.Frame, "worlds_of", lambda fr, mask: calls.append(mask) or worlds_of(fr, mask))
    changed = sum(dynamics.apply(m, op).model is not m for m, op in cases)
    assert calls == []
    assert changed > 30


def test_update_keeps_every_family_it_leaves_equal():
    """An update rebuilds only the families it changes: every family equal
    before and after is the same object in the result, and an update that
    changes no family returns the model itself.  Covered: the fixture
    revision, whose gained extension every fired world already holds, the
    same revision after learning the atom it cuts, generated operations,
    and each applied Learn again on its result."""
    fixture, trigger, target = suites._revise_fixture()
    learned = dynamics.apply(fixture, Learn(parse("married(9,inf)"))).model  # holds the cut
    cases = [(fixture, Revise(trigger, target)), (learned, Revise(trigger, target))]
    for seed in SEEDS:
        m = models.gen_random_model(seed, max_worlds=5)
        rng = random.Random(seed)
        cases += [(m, gen_mental_op(rng, model_vocab(m), 10)) for _ in range(6)]
    kept = cut = relearned = 0
    for m, op in cases:
        assert_same_update(m, op)
        outcome = dynamics.apply(m, op)
        for before, after in zip(m.nbhd, outcome.model.nbhd):
            assert (after is before) == (after == before), str(op)
        if outcome.model.nbhd == m.nbhd:
            assert outcome.model is m, str(op)
        else:
            kept += any(map(operator.is_, m.nbhd, outcome.model.nbhd))
            cut += any(d["removed"] for d in outcome.delta.values())
        if isinstance(op, Learn) and outcome.applied:
            again = dynamics.apply(outcome.model, op)
            assert again.applied and again.model is outcome.model, str(op)
            assert_same_update(outcome.model, op)
            relearned += 1
    revised = dynamics.apply(*cases[0])  # married(6,8)'s extension is already held
    assert revised.applied and revised.model is fixture
    assert kept > 10 and cut > 0 and relearned > 20, (kept, cut, relearned)


def test_validate_model_agrees_with_reference():
    """Frame-condition checks on masks against the world-id reference, on
    valid random models and on models whose families are random subsets
    of all the worlds, which break both conditions."""
    broken = 0
    for seed in SEEDS:
        m = models.gen_random_model(seed, max_worlds=5)
        rng = random.Random(seed)
        ids = sorted(m.worlds)
        nbhd = {wid: [frozenset(v for v in ids if rng.random() < 0.5) for _ in range(rng.randint(0, 3))]
                for wid in ids}
        scrambled = models.TLekModel(m.worlds.values(), m.classes, nbhd)
        for model in (m, scrambled):
            got = models.validate_model(model)
            assert got == ref.validate_model(model), seed
            broken += bool(got)
    assert broken > 30


CONNECTIVES = (And, Or, Implies, Iff)


def _connectives_and_hulls(f):
    """(connective nodes of f, those of them whose children's times do not
    nest and so need a new hull), counted with repeats; times by the
    reference's fresh walk."""
    own = hull = 0
    if isinstance(f, CONNECTIVES):
        tl, tr = ref.time_of_ref(f.left), ref.time_of_ref(f.right)
        own = 1
        hull = not (tl is None or tr is None or intervals.subset(tl, tr) or intervals.subset(tr, tl))
    counts = [_connectives_and_hulls(c) for c in children(f)]
    return own + sum(c for c, _ in counts), hull + sum(h for _, h in counts)


def test_labelling_builds_an_interval_only_where_child_times_do_not_nest(monkeypatch):
    """Atoms and boxes time themselves without the Interval checks, and a
    connective reuses the interval of whichever child's time covers the
    other's: a ground static formula whose children's times nest is
    labelled without building any Interval.  Over the static formulas the
    suites draw, models builds exactly one hull per connective whose
    children's times do not nest, and the truth sets equal the reference."""
    at = lambda p, lo, hi: Atom(p, TimeExpr.lit(lo), TimeExpr.lit(hi))  # no time memo yet
    nested = Implies(  # (p(0,20) & (q(2,5) | ~B r(3,4))) -> K box[0,30] (s(1,2) <-> true)
        And(at("p", 0, 20), Or(at("q", 2, 5), Not(Belief(at("r", 3, 4))))),
        Knowledge(Always(TimeExpr.lit(0), TimeExpr.lit(30), Iff(at("s", 1, 2), Top()))),
    )
    cases = [(models.gen_random_model(3), nested)]
    for seed in range(30):
        m = models.gen_random_model(seed)
        rng = random.Random(seed)
        cases += [(m, gen_static(rng, model_vocab(m), 10, 3)) for _ in range(8)]
    built, hulls, got = [], [], []
    post_init, derived = intervals.Interval.__post_init__, models._derived
    monkeypatch.setattr(intervals.Interval, "__post_init__", lambda iv: built.append(iv) or post_init(iv))
    monkeypatch.setattr(models, "_derived", lambda lo, hi: hulls.append((lo, hi)) or derived(lo, hi))
    for m, f in cases:
        before = len(hulls)
        got.append((models.truth_set(m, f), len(hulls) - before))
    monkeypatch.undo()
    assert built == []
    needed = [_connectives_and_hulls(f) for _, f in cases]
    assert got[0][1] == needed[0][1] == 0
    assert [n for _, n in got] == [h for _, h in needed]
    for (m, f), (mask, _) in zip(cases, got):
        assert m.frame.worlds_of(mask) == {w for w in m.worlds if ref.check(m, w, f)}, str(f)
    assert sum(h for _, h in needed) > 20
    assert sum(h < c for c, h in needed) > 50  # some connective reuses a child's time
