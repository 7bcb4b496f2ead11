"""How fast the host runs right now, from a fixed pure-Python task.

The benchmark shares a few cores of a host whose speed drifts by 20-80%
over minutes, and the drift moves every item alike.  A reference block,
a fixed task that does not touch tdlek, is timed between items, once for
every ``EVERY_S`` seconds that passed since the last one.  The median of
the blocks within ``WINDOW_S`` of an item gives the host's speed around
it, and the item's time is scaled to a host on which one block takes
``NOMINAL_S`` seconds.  The block mixes what tdlek spends its time on:
recursive evaluation of small trees of tuples and hashing of small
tuples into dicts and frozensets, which stay in a core's cache, and a
short-lived table of 16,000 entries, which does not.  The host slows
cache-resident and memory-bound work by different amounts: with the
cache-resident part alone, bridge's large worlds drifted from the scale.

Changing this file rescales every reported time, so it must stay fixed
for results to be comparable across commits.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_S = 0.020
EVERY_S = 0.2
MAX_BURST = 10
WINDOW_S = 1.0


def _eval(node, env) -> bool:
    op = node[0]
    if op == "v":
        return env[node[1]]
    if op == "not":
        return not _eval(node[1], env)
    a = _eval(node[1], env)
    if op == "and":
        return a and _eval(node[2], env)
    return a or _eval(node[2], env)


def _tree(depth: int, k: int):
    if depth == 0:
        return ("v", k % 7)
    op = ("and", "or", "not")[k % 3]
    if op == "not":
        return ("not", _tree(depth - 1, k * 3 + 1))
    return (op, _tree(depth - 1, k * 3 + 1), _tree(depth - 1, k * 3 + 2))


TREES = [_tree(6, k) for k in range(8)]


def reference_block() -> int:
    """The fixed task: evaluation and set algebra over small tuples, then
    a dict of 16,000 entries built, scanned and dropped."""
    total = 0
    for r in range(6):
        env = {i: (i * r) % 3 == 0 for i in range(7)}
        for t in TREES:
            total += _eval(t, env)
        atoms = {(("p", i % 11), i, i + r % 5): i for i in range(600)}
        keys = frozenset(k for k in atoms if k[1] % 3)
        other = frozenset((("p", i % 11), i, i + r % 5) for i in range(0, 600, 2))
        total += len(keys & other) + len(keys | other)
        total += sum(atoms[k] for k in other if k in atoms) % 97
    table = {("p", i % 13, (i, i + 1)): (i, float(i)) for i in range(16000)}
    live = frozenset(k for k in table if k[1] % 2)
    return total + len(live) + sum(1 for k in table if k in live)


class HostSpeed:
    """Reference blocks timed through one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.ends: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        """Time one reference block, with the collector off so the
        workload's heap does not enter the measurement."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_block()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(t1 - t0)
        self.ends.append(t1)
        self.last = t1

    def maybe_sample(self) -> None:
        """Sample as many blocks as EVERY_S periods passed, so that the
        samples cover the run evenly in time whatever the item length."""
        due = int((time.perf_counter() - self.last) / EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def scale_at(self, begin: float, end: float) -> float:
        """Factor that turns a time measured from begin to end into a nominal
        time: from the blocks that ended within WINDOW_S of that interval,
        or from all of them when none did."""
        lo = bisect.bisect_left(self.ends, begin - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.samples[lo:hi] or self.samples)
