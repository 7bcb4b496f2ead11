#!/usr/bin/env python3
"""tdlek benchmark runner: one workload, one process, one closed loop.

    python3 perfbench/run.py --workload {suites,scenarios,bridge} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the package is imported from
``src/``.  A single client sends the next item only after the previous one
finished.  Item inputs come from the seed and are built outside the timed
region; only the calls into tdlek are timed, and every output is verified.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh imports plus input preparation), items per second of time
spent in the timed calls, item latency p50 and p90, the share of items
that verified, and peak RSS.  Times are scaled to a nominal host speed
measured with the reference block of ``reference.py``; the raw ones are
in the meta record.  ``--trace 1`` runs a fixed list of items once
plain and once traced, and reports the per-layer metrics from the spans.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is a ``meta`` record
(Python version, nproc, commit, seeds, ``src/`` line count, output
digests, trace overhead).  The exit code is 1 if any item failed
verification and 2 on a usage error or a checkout without ``src/tdlek``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000
SETUP_REPEATS = 7
MODULES = ("intervals", "formulas", "models", "dynamics", "agent", "suites", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("suites", "scenarios", "bridge"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for a quick smoke run")
    return p.parse_args(argv)


def _personality(flags: int) -> int:
    try:
        return ctypes.CDLL(None, use_errno=True).personality(flags)
    except (OSError, AttributeError):
        return -1


def aslr_off() -> bool:
    current = _personality(0xFFFFFFFF)
    return current >= 0 and bool(current & ADDR_NO_RANDOMIZE)


def pin_process() -> None:
    """Re-execute once under a fixed PYTHONHASHSEED and fixed addresses.

    Iteration order over frozensets of world ids and of atoms follows
    their hashes, and short-circuiting all(...) or any(...) over them
    changes how often check and subset run.  String hashes follow
    PYTHONHASHSEED; under Python 3.11 hash(None), and so the hash of every
    ground time expression, is the address of None, which is fixed only
    with address-space randomisation off.  The personality flag that
    turns it off applies to this process alone.
    """
    restart = os.environ.get("PYTHONHASHSEED") != HASH_SEED
    current = _personality(0xFFFFFFFF)
    if current >= 0 and not current & ADDR_NO_RANDOMIZE:
        restart |= _personality(current | ADDR_NO_RANDOMIZE) >= 0
    if restart:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)


def fresh_import() -> SimpleNamespace:
    for name in [m for m in sys.modules if m == "tdlek" or m.startswith("tdlek.")]:
        del sys.modules[name]
    importlib.import_module("tdlek")
    return SimpleNamespace(**{m: importlib.import_module(f"tdlek.{m}") for m in MODULES})


def set_up(workload_cls, args, workdir, speed):
    """Import the package afresh and prepare one pass of inputs, several times.

    Returns the median set-up seconds, the workload built by the last
    repeat and its prepared inputs.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        gc.collect()  # start each repeat from the heap a new process would have
        t0 = time.perf_counter()
        td = fresh_import()
        wl = workload_cls(td, args.seed, args.size, workdir)
        inputs = [wl.item_input(i) for i in range(wl.pass_len)]
        times.append(time.perf_counter() - t0)
        if len(times) < SETUP_REPEATS:
            for inp in inputs:
                wl.release(inp)
    return statistics.median(times), wl, inputs


def percentile(values, q: int) -> float:
    """q-th percentile of the samples (statistics.quantiles, n=100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_item(wl, inp):
    """The item's output, or the exception the program raised on it."""
    try:
        return wl.run(inp)
    except Exception as exc:  # a crash is a failed item, not a failed benchmark
        return exc


def checked(wl, inp, out) -> tuple[bool, str]:
    """Verify one item's output; an exception raised by the program fails it."""
    if isinstance(out, Exception):
        print(f"item raised {out!r}", file=sys.stderr)
        return False, type(out).__name__
    return wl.verify(inp, out)


def closed_loop(wl, first_pass, seconds: float, speed):
    """Run whole passes of the size schedule until the wall clock passes `seconds`.

    Host speed is sampled between items.  Returns each item's latency,
    raw and scaled to the host speed around it, verification result and
    output digest.
    """
    starts, latencies, oks, digests = [], [], [], []
    clock = time.perf_counter
    started = clock()
    i = 0
    while True:
        inp = first_pass[i] if i < len(first_pass) else wl.item_input(i)
        t0 = clock()
        out = run_item(wl, inp)
        latencies.append(clock() - t0)
        starts.append(t0)
        ok, digest = checked(wl, inp, out)
        wl.release(inp)
        oks.append(ok)
        digests.append(digest)
        speed.maybe_sample()
        i += 1
        if i % wl.pass_len == 0 and clock() - started >= seconds:
            break
    scaled = [lat * speed.scale_at(t0, t0 + lat) for t0, lat in zip(starts, latencies)]
    return latencies, scaled, oks, digests


def traced_pass(wl, inputs):
    """The traced item list, once plain and once traced.

    An item passes when it verifies in both passes with the same digest.
    """
    from tracer import Tracer

    def one_pass(tracer=None):
        results = []
        t0 = time.perf_counter()
        for i, inp in enumerate(inputs):
            if tracer is not None:
                tracer.item = i
            results.append(checked(wl, inp, run_item(wl, inp)))
        return time.perf_counter() - t0, results

    plain_wall, plain = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    oks = [a[0] and b[0] and a[1] == b[1] for a, b in zip(plain, traced)]
    return tracer, plain_wall, traced_wall, oks, [d for _, d in traced]


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def code_id() -> str:
    """Digest of the sources of the package and of the benchmark."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def compare_digests(args, code: str, digests) -> list[bool]:
    """Record this seed's output digests and compare them with an earlier run's.

    The store is keyed by the code digest as well as the workload, size and
    seed, so it checks that the same code repeats its output; a change that
    alters the output on purpose starts a new store.  Items are compared by
    index over the prefix both runs reached; the result tells for each item
    whether it matched.
    """
    store = ROOT / ".bench_results"
    store.mkdir(exist_ok=True)
    path = store / f"{args.workload}-{args.size}-seed{args.seed}-{code}.json"
    earlier = json.loads(path.read_text()) if path.exists() else []
    if len(digests) > len(earlier):
        path.write_text(json.dumps(digests))
    return [i >= len(earlier) or d == earlier[i] for i, d in enumerate(digests)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tdlek" / "__init__.py").is_file():
        print(f"no tdlek sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    pin_process()
    sys.path.insert(0, str(SRC))
    from reference import HostSpeed
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        speed = HostSpeed()
        setup_began = time.perf_counter()
        setup_s, wl, first_pass = set_up(WORKLOADS[args.workload], args, str(workdir), speed)
        setup_scale = speed.scale_at(setup_began, time.perf_counter())
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "aslr_off": aslr_off(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": commit_id(),
            "code_id": code_id(),
            "src_lines": src_lines(),
            "setup_repeats": SETUP_REPEATS,
        }
        if args.trace:
            inputs = first_pass[: wl.traced_items]
            tracer, plain_wall, traced_wall, oks, digests = traced_pass(wl, inputs)
            metrics = tracer.metrics()
            meta.update(
                spans=tracer.span_count(),
                untraced_wall_s=plain_wall,
                traced_wall_s=traced_wall,
                trace_overhead_s=traced_wall - plain_wall,
                to_model_atoms_by_horizon=tracer.atoms_by_horizon(),
                infer_wm_size_and_seconds=tracer.infer_by_item(),
            )
        else:
            latencies, scaled, oks, digests = closed_loop(wl, first_pass, args.seconds, speed)
        matched = compare_digests(args, meta["code_id"], digests)
        attempted = len(oks)
        failed = sum(not (ok and same) for ok, same in zip(oks, matched))
        meta.update(items=attempted, failed_frac=failed / attempted,
                    digest_mismatches=matched.count(False), first_digests=digests[:5])
        if not args.trace:
            raw = {
                "setup_s": setup_s,
                "items_per_s": attempted / sum(latencies),
                "item_p50_ms": percentile(latencies, 50) * 1e3,
                "item_p90_ms": percentile(latencies, 90) * 1e3,
            }
            metrics = {
                "setup_s": (setup_s * setup_scale, "s"),
                "items_per_s": (attempted / sum(scaled), "1/s"),
                "item_p50_ms": (percentile(scaled, 50) * 1e3, "ms"),
                "item_p90_ms": (percentile(scaled, 90) * 1e3, "ms"),
                "ok_frac": ((attempted - failed) / attempted, "ratio"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            meta.update(passes=attempted // wl.pass_len, busy_s=sum(latencies), raw=raw,
                        host_scale=sum(scaled) / sum(latencies), setup_scale=setup_scale,
                        reference_blocks=len(speed.samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:32s} {value:14.6g} {unit}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
