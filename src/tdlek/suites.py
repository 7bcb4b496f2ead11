"""Randomized property suites behind the rand-test command.

Four suites: frame (the two neighbourhood conditions survive every mental
operation), axioms-lek (the five static axiom schemes hold on generated
models), property1 (the four operation validities hold, each with its
stated timing side conditions), and reduction-oracle (a prefixed formula
and its reduction agree at every world).  All suites are deterministic per
seed and report counterexamples instead of raising.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .intervals import INF, Interval, TimeExpr, _derived
from .formulas import (
    And,
    Atom,
    Belief,
    Dynamic,
    Formula,
    Iff,
    Implies,
    Infer,
    Knowledge,
    Learn,
    Conj,
    Not,
    Revise,
    _trusted_ground_atom,
    fits,
    print_formula,
    time_of,
)
from .models import (
    TLekModel,
    World,
    check,
    gen_random_model,
    save_model,
    truth_set,
    validate_model,
    world_interval,
)
from .dynamics import (
    UnreducibleShape,
    apply,
    check_dynamic,
    reduce_formula,
    residual_atoms,
    wider_belief_exists,
)
from .randgen import gen_dynamic_formula, gen_literal, gen_mental_op, gen_vocab_atom, model_vocab


@dataclass
class SuiteReport:
    name: str
    total: int = 0
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        passed = self.total - len(self.failures)
        extra = "".join(f", {k}={v}" for k, v in sorted(self.stats.items()))
        return f"{self.name}: {passed}/{self.total} ok{extra}"


def _fail_text(m: TLekModel, wid: str, f: Formula, note: str) -> str:
    return f"{note} at world {wid} for {print_formula(f)}\n{save_model(m)}"


# ---------------------------------------------------------------------------
# frame: conditions 1 and 2 survive apply()
# ---------------------------------------------------------------------------


def frame_suite(count: int = 1000, seed: int = 0,
                max_worlds: int = 4, max_predicates: int = 3, horizon: int = 10) -> SuiteReport:
    report = SuiteReport("frame")
    rng = random.Random(seed)
    for i in range(count):
        m = gen_random_model(seed * 100_003 + i, max_worlds, max_predicates, horizon)
        base_violations = validate_model(m)
        if base_violations:
            report.total += 1
            report.failures.append(f"generator broke frame conditions: {base_violations}")
            continue
        vocab = model_vocab(m)
        op = gen_mental_op(rng, vocab, horizon)
        outcome = apply(m, op)
        report.total += 1
        violations = validate_model(outcome.model)
        if violations:
            report.failures.append(
                f"[{op}] broke: {violations}\n{save_model(m)}"
            )
        report.stats["applied"] = report.stats.get("applied", 0) + int(outcome.applied)
    return report


# ---------------------------------------------------------------------------
# axioms-lek: the five static schemes
# ---------------------------------------------------------------------------


def _class_interval(m: TLekModel, cls: frozenset[str]) -> Interval:
    ivs = [world_interval(m.worlds[w]) for w in sorted(cls)]
    lo = max(iv.lo for iv in ivs)
    hi = min(iv.hi for iv in ivs)
    return Interval(lo, hi)


def _instantiable(rng: random.Random, m: TLekModel, cls: frozenset[str], horizon: int):
    """A small formula whose time sits inside every world interval of cls."""
    window = _class_interval(m, cls)
    vocab = [a for a in model_vocab(m) if fits(a.interval(), window)]

    def gen(depth: int) -> Formula:
        if not vocab:
            lo = window.lo
            hi = window.lo if window.hi == INF else rng.randint(lo, int(window.hi))
            return Atom("p", TimeExpr.lit(lo), TimeExpr.lit(hi))
        if depth <= 0 or rng.random() < 0.55:
            return rng.choice(vocab)
        roll = rng.random()
        if roll < 0.4:
            return Not(gen(depth - 1))
        if roll < 0.8:
            return And(gen(depth - 1), gen(depth - 1))
        return Belief(rng.choice(vocab))

    return gen


def lek_axiom_instances(phi: Formula, psi: Formula) -> list[Formula]:
    return [
        Implies(And(Knowledge(phi), Knowledge(Implies(phi, psi))), Knowledge(psi)),
        Implies(Knowledge(phi), phi),
        Implies(Knowledge(phi), Knowledge(Knowledge(phi))),
        Implies(Not(Knowledge(phi)), Knowledge(Not(Knowledge(phi)))),
        Implies(And(Belief(phi), Knowledge(Iff(phi, psi))), Belief(psi)),
    ]


def lek_axioms_suite(count: int = 1000, seed: int = 0,
                     max_worlds: int = 4, max_predicates: int = 3, horizon: int = 10) -> SuiteReport:
    report = SuiteReport("axioms-lek")
    rng = random.Random(seed)
    for i in range(count):
        m = gen_random_model(seed * 99_991 + i, max_worlds, max_predicates, horizon)
        cls = rng.choice(list(m.classes))
        gen = _instantiable(rng, m, cls, horizon)
        phi, psi = gen(2), gen(2)
        for idx, inst in enumerate(lek_axiom_instances(phi, psi), start=1):
            report.total += 1
            holds = truth_set(m, inst)
            for wid in sorted(cls):
                if not holds >> m.frame.index[wid] & 1:
                    report.failures.append(
                        _fail_text(m, wid, inst, f"axiom {idx} failed")
                    )
                    break
    return report


# ---------------------------------------------------------------------------
# property1: the four operation validities
# ---------------------------------------------------------------------------


def _revise_fixture() -> tuple[TLekModel, Atom, Atom]:
    """Two-world model where the revision guard genuinely holds."""

    def atom(pred, lo, hi, *args):
        return Atom(pred, TimeExpr.lit(lo), TimeExpr.lit(hi), tuple(args))

    married = atom("married", 6, INF)
    divorced = atom("divorced", 9, INF)
    pad = atom("alive", 6, INF)
    w1 = World("w1", frozenset({married, pad, atom("married", 6, 8)}))
    w2 = World("w2", frozenset({divorced, pad}))
    base = TLekModel([w1, w2], [frozenset({"w1", "w2"})], {})
    fr = base.frame
    r_w1 = fr.cls[fr.index["w1"]]
    fam = frozenset({truth_set(base, married) & r_w1, truth_set(base, divorced) & r_w1})
    return base.with_nbhd((fam, fam)), divorced, married


def property1_suite(models: list[TLekModel], seed: int = 0, per_model: int = 6) -> SuiteReport:
    """Check the four validities on every model, worlds and instantiations
    sampled deterministically; timing side conditions are applied as
    stated, and the revision bullet additionally requires the trigger
    inside the target and no wider believed target atom."""
    report = SuiteReport("property1")
    rng = random.Random(seed)
    applied = {"learn": 0, "conj": 0, "infer": 0, "revise": 0}
    for m in models:
        vocab = model_vocab(m)
        candidates = sorted({a.pred for a in vocab} | {"zz"})  # revision triggers' names
        horizon = max(
            [int(a.end.offset) for a in vocab if a.end.offset != INF] + [4]
        )
        for wid in sorted(m.worlds):
            iv = world_interval(m.worlds[wid])
            for _ in range(per_model):
                lit = gen_literal(rng, vocab, horizon)
                if not fits(time_of(lit), iv):
                    continue
                report.total += 1
                f = Dynamic(Learn(lit), Belief(lit))
                if not check_dynamic(m, wid, f):
                    report.failures.append(_fail_text(m, wid, f, "learn validity failed"))
                else:
                    applied["learn"] += 1
            for _ in range(per_model):
                a, b = gen_literal(rng, vocab, horizon), gen_literal(rng, vocab, horizon)
                if not (fits(time_of(a), iv) and fits(time_of(b), iv)):
                    continue
                report.total += 1
                f = Implies(
                    And(Belief(a), Belief(b)),
                    Dynamic(Conj(a, b), Belief(And(a, b))),
                )
                if not check(m, wid, f):
                    report.failures.append(_fail_text(m, wid, f, "conj validity failed"))
                elif check(m, wid, And(Belief(a), Belief(b))):
                    applied["conj"] += 1
            for _ in range(per_model):
                a = gen_literal(rng, vocab, horizon)
                c = gen_vocab_atom(rng, vocab, horizon)
                if not (fits(time_of(a), iv) and fits(time_of(c), iv)):
                    continue
                report.total += 1
                f = Implies(
                    And(Knowledge(Implies(a, c)), Belief(a)),
                    Dynamic(Infer(a, c), Belief(c)),
                )
                if not check(m, wid, f):
                    report.failures.append(_fail_text(m, wid, f, "infer validity failed"))
                elif check(m, wid, And(Knowledge(Implies(a, c)), Belief(a))):
                    applied["infer"] += 1
            for _ in range(per_model):
                pair = _revise_pair(rng, vocab, candidates)
                if pair is None:
                    continue
                trigger, target = pair
                op = Revise(trigger, target)
                if not (
                    fits(time_of(trigger), iv)
                    and fits(time_of(target), iv)
                    and fits(time_of(Dynamic(op, target)), iv)
                ):
                    continue
                antecedent = And(
                    Knowledge(Implies(trigger, Not(target))),
                    And(Belief(trigger), Belief(target)),
                )
                if not check(m, wid, antecedent):
                    continue
                if wider_belief_exists(m, wid, op):
                    continue
                applied["revise"] += _check_residuals(report, m, wid, op)
    report.stats.update({f"applied_{k}": v for k, v in applied.items()})
    return report


def _check_residuals(report: SuiteReport, m: TLekModel, wid: str, op: Revise) -> int:
    """Check [op] B r at wid for each residual atom r of the revision; the
    number that held."""
    held = 0
    for residual in residual_atoms(op):
        report.total += 1
        f = Dynamic(op, Belief(residual))
        if check_dynamic(m, wid, f):
            held += 1
        else:
            report.failures.append(_fail_text(m, wid, f, "revise validity failed"))
    return held


def _revise_pair(rng: random.Random, vocab, candidates: list[str]) -> tuple[Atom, Atom] | None:
    """Trigger named from candidates, strictly inside (or equal to) a target
    drawn from the vocabulary; built unchecked, as its parts are valid."""
    if not vocab:
        return None
    target = rng.choice(vocab)
    t_iv = target.interval()
    span = int(t_iv.hi) if t_iv.finite else t_iv.lo + 4
    lo = rng.randint(t_iv.lo, span)
    hi = rng.randint(lo, span) if t_iv.finite or rng.random() >= 0.5 else INF
    return _trusted_ground_atom(rng.choice(candidates), _derived(lo, hi), ()), target


def property1_models(count: int, seed: int,
                     max_worlds: int = 4, max_predicates: int = 3, horizon: int = 10) -> list[TLekModel]:
    models = [_revise_fixture()[0]]
    models += [
        gen_random_model(seed * 7919 + i, max_worlds, max_predicates, horizon)
        for i in range(count - 1)
    ]
    return models


def property1_runner(count: int = 1000, seed: int = 0,
                     max_worlds: int = 4, max_predicates: int = 3, horizon: int = 10) -> SuiteReport:
    report = property1_suite(property1_models(count, seed, max_worlds, max_predicates, horizon), seed)
    # deterministic revision instance on the handcrafted fixture, so the
    # suite always exercises an applied revision
    m, trigger, target = _revise_fixture()
    report.stats["applied_revise"] += _check_residuals(report, m, "w1", Revise(trigger, target))
    return report


# ---------------------------------------------------------------------------
# reduction-oracle: check_dynamic vs check of the reduced formula
# ---------------------------------------------------------------------------


def reduction_oracle_suite(count: int = 500, seed: int = 0,
                           max_worlds: int = 4, max_predicates: int = 3, horizon: int = 10) -> SuiteReport:
    """Generated prefixed formulas against full-span models.

    The rewrite rules are exact when no timing side condition can fail, so
    the models here give every world the interval [0,inf); unreduced
    shapes are counted and excluded, and the unreduced fraction is
    reported as a metric.
    """
    report = SuiteReport("reduction-oracle")
    rng = random.Random(seed)
    unreduced = 0
    for i in range(count):
        m = gen_random_model(
            seed * 104_729 + i, max_worlds, max_predicates, horizon, full_span=True
        )
        vocab = model_vocab(m)
        f = gen_dynamic_formula(rng, vocab, horizon, dyn_depth=2)
        report.total += 1
        try:
            reduced = reduce_formula(f)
        except UnreducibleShape:
            unreduced += 1
            continue
        dynamic, static = truth_set(m, f), truth_set(m, reduced)
        for i, wid in enumerate(m.frame.ids):  # the sorted world ids
            got, want = bool(dynamic >> i & 1), bool(static >> i & 1)
            if got != want:
                report.failures.append(
                    _fail_text(
                        m,
                        wid,
                        f,
                        f"reduction mismatch: dynamic={got} reduced={want} "
                        f"({print_formula(reduced)})",
                    )
                )
                break
    report.stats["unreduced"] = unreduced
    report.stats["unreduced_fraction"] = round(unreduced / max(1, report.total), 4)
    return report


SUITES = {
    "frame": frame_suite,
    "axioms-lek": lek_axioms_suite,
    "property1": property1_runner,
    "reduction-oracle": reduction_oracle_suite,
}
