"""WorkingMemory alone, against a point-set model, as a Hypothesis state machine.

Each store made in a run is paired with a model: per group (predicate,
arguments, polarity), the set of time points its beliefs cover over a
small horizon H, the point H + 1 standing for [H + 1, inf).  A store's
beliefs must be the maximal runs of its model's points, each group sorted
by start.  The steps are insert, restructure, swap, copy and a new empty
store, and any store may be edited, the source of a copy as much as the
copy.  After every step, every store made so far, each earlier copy
included, must still match its own model, so no edit reaches another
store through the groups dicts and groups that copies share.  And
added_since between any two of them must give what a scan of every group
by identity gives, so the groups dicts two stores share hold no edit of
either.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tdlek.agent import BeliefLit, NoSuchBelief, WorkingMemory
from tdlek.formulas import Atom
from tdlek.intervals import INF, TimeExpr

H = 8
PREDS = ("p", "q")
ARGS = ((), ("a",))


def points(lo: int, hi) -> set[int]:
    return set(range(lo, (H + 1 if hi == INF else hi) + 1))


def runs(pts: set[int]) -> list[tuple[int, object]]:
    """The maximal runs of consecutive points, as (lo, hi) bounds."""
    out: list[list[int]] = []
    for t in sorted(pts):
        if out and out[-1][1] == t - 1:
            out[-1][1] = t
        else:
            out.append([t, t])
    return [(lo, INF if hi == H + 1 else hi) for lo, hi in out]


def literal(pred: str, args: tuple, positive: bool, lo: int, hi) -> BeliefLit:
    return BeliefLit(Atom(pred, TimeExpr.lit(lo), TimeExpr.lit(hi), args), positive)


def shape(b: BeliefLit) -> tuple:
    return b.atom.pred, b.atom.args, b.positive, b.atom.start.offset, b.atom.end.offset


bounds = st.integers(0, H).flatmap(
    lambda lo: st.tuples(st.just(lo), st.one_of(st.integers(lo, H), st.just(INF)))
)
groups = st.tuples(st.sampled_from(PREDS), st.sampled_from(ARGS), st.booleans())


def added_by_scan(new: WorkingMemory, old: WorkingMemory) -> list[BeliefLit]:
    held = {id(b) for groups in old.preds.values() for group in groups.values() for b in group}
    return [
        b
        for groups in new.preds.values()
        for (_, positive), group in groups.items()
        if positive
        for b in group
        if id(b) not in held
    ]


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.stores = [WorkingMemory()]
        self.models: list[dict[tuple, set[int]]] = [{}]

    def pick(self, data) -> int:
        return data.draw(st.integers(0, len(self.stores) - 1))

    def held(self, i: int) -> list[BeliefLit]:
        return sorted(self.stores[i].beliefs(), key=BeliefLit.key)

    @initialize(data=st.data())
    def shared(self, data):
        """Start from a store with a few beliefs and a copy of it."""
        for _ in range(3):
            self.insert(data, data.draw(groups), data.draw(bounds))
        self.copy(data)

    @rule()
    def new(self):
        self.stores.append(WorkingMemory())
        self.models.append({})

    @rule(data=st.data())
    def copy(self, data):
        i = self.pick(data)
        self.stores.append(self.stores[i].copy())
        self.models.append({g: set(pts) for g, pts in self.models[i].items()})

    @rule(data=st.data(), group=groups, span=bounds)
    def insert(self, data, group, span):
        i = self.pick(data)
        pts = self.models[i].setdefault(group, set())
        new = points(*span)
        covered = new <= pts
        # the points that a held belief overlapping or adjacent to the span has
        near = pts & points(max(span[0] - 1, 0), span[1] if span[1] == INF else span[1] + 1)
        pts |= new
        lit = literal(*group, *span)
        added = self.stores[i].insert(lit)
        if covered:
            assert added is None
        else:
            (run,) = [r for r in runs(pts) if r[0] <= span[0] and points(*r) >= new]
            assert shape(added) == (*group, *run)
            assert (added is lit) == (not near)
            assert self.stores[i].holds(added)

    @rule(data=st.data(), denied=bounds)
    def restructure(self, data, denied):
        i = self.pick(data)
        held = self.held(i)
        if not held:
            return
        target = data.draw(st.sampled_from(held))
        group = shape(target)[:3]
        cut = points(*shape(target)[3:]) & points(*denied)
        event = self.stores[i].restructure(target, literal(*group, *denied).interval())
        assert event.removed is target
        left = points(*shape(target)[3:]) - cut
        assert [shape(p)[3:] for p in event.parts] == runs(left)
        self.models[i][group] -= cut

    @rule(data=st.data())
    def swap(self, data):
        i = self.pick(data)
        held = self.held(i)
        if not held or data.draw(st.booleans()):
            # a belief the store does not hold is refused, and nothing changes
            group, span = data.draw(groups), data.draw(bounds)
            if (*group, *span) not in map(shape, held):
                with pytest.raises(NoSuchBelief):
                    self.stores[i].swap(literal(*group, *span), [])
            return
        old = data.draw(st.sampled_from(held))
        group, old_points = shape(old)[:3], points(*shape(old)[3:])
        kept = set(data.draw(st.lists(st.sampled_from(sorted(old_points)), unique=True)))
        self.stores[i].swap(old, [literal(*group, *r) for r in runs(kept)])
        self.models[i][group] = (self.models[i][group] - old_points) | kept

    @invariant()
    def every_store_matches_its_model(self):
        for store, model in zip(self.stores, self.models):
            want = {(*g, *r) for g, pts in model.items() for r in runs(pts)}
            assert {shape(b) for b in store.beliefs()} == want
            for groups_of_pred in store.preds.values():
                for group in groups_of_pred.values():
                    assert group and list(group) == sorted(group, key=lambda b: b.atom.start.offset)

    @invariant()
    def added_since_is_the_scan_between_any_two_stores(self):
        for new in self.stores:
            for old in self.stores:
                got = list(new.added_since(old))
                assert got == added_by_scan(new, old)
                values = {shape(b) for b in old.beliefs()}
                assert {shape(b) for b in got} >= {
                    shape(b) for b in new.beliefs() if b.positive and shape(b) not in values
                }


def test_copy_shares_each_groups_dict_until_either_store_edits_it():
    """Right after copy(), the copy holds its source's groups dicts
    themselves; an edit through either store then copies the dict it
    edits, and leaves the other store's groups as they were."""
    source = WorkingMemory()
    for pred in PREDS:
        for args in ARGS:
            source.insert(literal(pred, args, True, 1, 2))
    copy = source.copy()
    assert all(copy.preds[pred] is groups for pred, groups in source.preds.items())
    before = {pred: dict(groups) for pred, groups in source.preds.items()}
    copy.insert(literal("p", (), True, 5, 6))
    source.insert(literal("q", ("a",), True, 6, 7))
    assert copy.preds["p"] is not source.preds["p"] and copy.preds["q"] is not source.preds["q"]
    assert source.preds["p"] == before["p"] and copy.preds["q"] == before["q"]
    assert [shape(b) for b in copy.preds["p"][((), True)]] == [("p", (), True, 1, 2), ("p", (), True, 5, 6)]
    assert list(copy.added_since(source)) == [copy.preds["p"][((), True)][1]]


def test_equal_stores_hash_alike_and_print_their_beliefs_in_order():
    one, other = WorkingMemory(), WorkingMemory()
    late, early = literal("q", (), True, 5, 6), literal("p", ("a",), False, 1, 2)
    for lit in (late, early):
        one.insert(lit)
    for lit in (early, late):
        other.insert(lit)
    assert one == other and hash(one) == hash(other) and one != one.beliefs()
    assert repr(one) == f"WorkingMemory({[early, late]!r})"


def test_insert_keeps_the_literal_it_is_given_when_nothing_merges():
    """insert holds the literal it is given when no held belief of its
    group overlaps it or is adjacent to it, and otherwise a new hull, even
    one equal to the literal."""
    store = WorkingMemory()
    first, apart = literal("p", (), True, 2, 3), literal("p", (), True, 6, 6)
    for lit in (first, apart, literal("p", ("a",), True, 3, 4)):
        assert store.insert(lit) is lit and store.holds(lit)
    touching = literal("p", (), True, 4, 5)
    hull = store.insert(touching)
    assert hull is not touching and shape(hull) == ("p", (), True, 2, 6)
    assert store.holds(hull) and not store.holds(first) and not store.holds(touching)
    around = literal("p", ("a",), True, 2, 5)
    wider = store.insert(around)
    assert wider is not around and wider == around and store.holds(wider)
    assert store.insert(literal("p", (), True, 3, 3)) is None


def test_holds_bisects_a_large_group():
    """holds finds each belief of a group by bisecting it at the belief's
    start: on a group of 1,024 beliefs, one probe reads at most 12 of them
    (11 to bisect, one to compare), and an equal belief that is not the
    one held is refused."""
    store, n = WorkingMemory(), 1024
    held = [literal("p", ("a",), True, 2 * t, 2 * t) for t in range(n)]
    for lit in held:
        store.insert(lit)
    reads = []

    class Counted(tuple):  # the group, counting the beliefs read from it
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

        def __iter__(self):
            for i in range(len(self)):
                yield self[i]

    groups = store.preds["p"]
    groups[("a",), True] = Counted(groups[("a",), True])
    for lit in held[:: n // 16]:
        reads.clear()
        assert store.holds(lit) and len(reads) <= 12
    reads.clear()
    assert store.holds(*held) and len(reads) <= 12 * n
    assert not store.holds(held[0], literal("p", ("a",), True, 2, 2))
    assert not store.holds(literal("p", ("a",), True, 1, 1)) and not store.holds(literal("p", ("b",), True, 0, 0))


StoreMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
test_working_memory_against_point_sets = StoreMachine.TestCase
