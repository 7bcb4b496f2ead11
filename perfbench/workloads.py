"""The three benchmark workloads.

Each workload draws item i's input from (workload seed, i) alone, builds it
outside the timed region, times only the calls into tdlek, and verifies
the outputs afterwards.  Sizes follow a fixed schedule that repeats every
``pass_len`` items; the seed picks the content, not the sizes, so
percentiles stay put from seed to seed.

* ``suites``: one derived seed pushed through the four property suites.
  These are the paper's validities, so every report must be ok.  This is
  the traffic for models, dynamics and formulas.time_of; agent does no
  work here.
* ``scenarios``: one generated scenario script run through
  ``tdlek.cli.main(["run", ...])`` in-process, with every query's answer
  known by construction.  This exercises agent, cli and parse; models and
  dynamics do no work here.  Chaining cost grows faster than linearly
  with the script, so the size schedule has a heavy tail.
* ``bridge``: one agent state built with perceive only; the timed part is
  ``to_model`` and then ``check`` of each B-query at w0 beside ``query`` on
  the state.  One world of 1.4x10^4 to 2.1x10^4 atoms, where ``suites``
  builds thousands of tiny models.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from scenario_gen import make_scenario

INF = float("inf")


def derived_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class Suites:
    name = "suites"

    def __init__(self, td, seed: int, size: str, workdir: str):
        self.td, self.seed = td, seed
        self.pass_len = 100
        self.traced_items = 100 if size == "full" else 5

    def item_input(self, i: int):
        return derived_seed(self.seed, i)

    def run(self, s: int):
        suites, models = self.td.suites, self.td.models
        return (
            suites.frame_suite(1, s),
            suites.lek_axioms_suite(1, s),
            suites.property1_suite([models.gen_random_model(s * 7 + 3)], s),
            suites.reduction_oracle_suite(1, s),
        )

    def verify(self, s: int, reports) -> tuple[bool, str]:
        # property1 skips instances whose timing does not fit the world, but
        # every generated model keeps some; each other suite checks a fixed count.
        totals = [r.total for r in reports]
        ok = (all(r.ok for r in reports) and totals[0] == 1 and totals[1] == 5
              and totals[2] > 0 and totals[3] == 1)
        return ok, _digest(*(r.summary() for r in reports))

    def release(self, s: int) -> None:
        pass


# Scenario sizes (perceptions per script), one pass of 20 items.  p50 falls
# inside the middle tier of one size and p90 inside the top tier, not on a
# boundary; a tier of one size keeps the percentile off the slope between
# sizes.
SCENARIO_SIZES = {
    "full": [12, 14, 16, 18, 20, 12, 14, 16, 40, 40,
             40, 40, 40, 40, 64, 70, 64, 110, 110, 110],
    "tiny": [4, 6, 8, 10],
}


class Scenarios:
    name = "scenarios"

    def __init__(self, td, seed: int, size: str, workdir: str):
        self.td, self.seed, self.workdir = td, seed, workdir
        self.sizes = SCENARIO_SIZES[size]
        self.pass_len = self.traced_items = len(self.sizes)

    def item_input(self, i: int):
        sc = make_scenario(derived_seed(self.seed, i), self.sizes[i % len(self.sizes)])
        path = os.path.join(self.workdir, f"item{i}.scn")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sc.text)
        return sc, path, os.path.join(self.workdir, f"item{i}.jsonl")

    def run(self, inp):
        _, path, trace_path = inp
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.td.cli.main(["run", path, "--trace", trace_path])
        return code, out.getvalue(), err.getvalue()

    def verify(self, inp, result) -> tuple[bool, str]:
        sc, _, trace_path = inp
        code, stdout, stderr = result
        if not os.path.exists(trace_path):
            return False, _digest(stdout)
        with open(trace_path, encoding="utf-8") as fh:
            trace = fh.read()
        lines = stdout.splitlines()
        want = [f"query {q} = {'true' if v else 'false'}" for q, v in sc.expected]
        records = [json.loads(line) for line in trace.splitlines()]
        perceived = sum(1 for r in records if r.get("event") == "perceived")
        ok = (
            code == 0
            and not stderr
            and lines[: len(want)] == want
            and len(lines) == len(want) + 1
            and records[0] == {"schema_version": 1}
            and perceived == sc.events
        )
        return ok, _digest(stdout, trace)

    def release(self, inp) -> None:
        for path in inp[1:]:
            if os.path.exists(path):
                os.remove(path)


# Bridge horizons, one pass of 10 items: about 1.4x10^4 atoms at 90 and
# 2.1x10^4 at 110; atoms grow with the square of the horizon.  p50 falls
# inside the 100 tier and p90 inside the top tier, each of one horizon.
# An item takes about a third of a second, so a run holds about a
# hundred of them.
BRIDGE_HORIZONS = {
    "full": [90, 90, 100, 100, 100, 100, 100, 100, 110, 110],
    "tiny": [16, 20, 24],
}
BRIDGE_QUERIES = 6


class Bridge:
    name = "bridge"

    def __init__(self, td, seed: int, size: str, workdir: str):
        self.td, self.seed = td, seed
        self.horizons = BRIDGE_HORIZONS[size]
        self.pass_len = self.traced_items = len(self.horizons)

    def item_input(self, i: int):
        """A state built with perceive only, plus B-queries with known answers.

        Four beliefs start near 0 and mostly never end.  Each is perceived
        in two adjacent halves that working memory merges, and the first is
        then cut by a negative perception near the middle of the horizon.
        Queries stay within the horizon, where to_model is exact.
        """
        parse, agent = self.td.formulas.parse, self.td.agent
        rng = random.Random(derived_seed(self.seed, i))
        horizon = self.horizons[i % len(self.horizons)]
        preds = rng.sample(["p", "q", "r", "s", "u", "v"], 4)
        args = [rng.choice(["a", "b", "c"]) for _ in preds]
        parts: dict[tuple[str, str], list[tuple[int, float]]] = {}
        st = agent.init([])
        clock = 0
        for pred, arg in zip(preds, args):
            lo = rng.randint(0, 3)
            hi = INF if rng.random() < 0.75 else horizon + rng.randint(0, 20)
            first_hi = lo + horizon // 3
            st = agent.perceive(st, parse(f"{pred}({lo},{first_hi},{arg})"), clock)
            clock += 1
            st = agent.perceive(st, parse(f"{pred}({first_hi + 1},{_t(hi)},{arg})"), clock)
            clock += 1
            parts[(pred, arg)] = [(lo, hi)]
        cut_pred, cut_arg = preds[0], args[0]
        (lo, hi), = parts[(cut_pred, cut_arg)]
        c = max(lo + 2, horizon // 2 + rng.randint(-3, 3))
        w = rng.randint(1, 3)
        st = agent.perceive(st, parse(f"~{cut_pred}({c},{c + w - 1},{cut_arg})"), clock)
        parts[(cut_pred, cut_arg)] = [(lo, c - 1), (c + w, hi)]

        queries = []
        for k in range(BRIDGE_QUERIES):
            pred, arg = rng.choice(sorted(parts))
            if k % 3 == 2 and (pred, arg) == (cut_pred, cut_arg):
                qlo, qhi = max(0, c - rng.randint(1, 3)), c + w - 1 + rng.randint(0, 2)
                truth = False
            elif k % 3 == 2:
                qlo, qhi, arg, truth = 0, rng.randint(0, horizon), "z", False
            else:
                plo, phi = rng.choice(parts[(pred, arg)])
                top = int(min(phi, horizon))
                qlo = rng.randint(plo, top)
                qhi = rng.randint(qlo, top)
                truth = True
            queries.append((parse(f"B({pred}({qlo},{qhi},{arg}))"), truth))
        return st, horizon, queries

    def run(self, inp):
        st, horizon, queries = inp
        agent, models = self.td.agent, self.td.models
        m = agent.to_model(st, horizon)
        checked = [models.check(m, "w0", q) for q, _ in queries]
        queried = [agent.query(st, q) for q, _ in queries]
        return len(m.worlds["w0"].atoms), checked, queried

    def verify(self, inp, result) -> tuple[bool, str]:
        _, horizon, queries = inp
        atoms, checked, queried = result
        truth = [t for _, t in queries]
        ok = checked == queried == truth and atoms > 0
        return ok, _digest(str(horizon), str(atoms), repr(checked))

    def release(self, inp) -> None:
        pass


def _t(v) -> str:
    return "inf" if v == INF else str(v)


WORKLOADS = {w.name: w for w in (Suites, Scenarios, Bridge)}
