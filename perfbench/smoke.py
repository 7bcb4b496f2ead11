#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload, untraced and traced.

    python3 perfbench/smoke.py

For each workload this runs perfbench/run.py at its tiny size, for one
second and with seed 1, once with --trace 0 and twice with --trace 1, then
checks that

* every run exits 0 and reports correct with no failed item;
* every end-to-end and per-layer metric named in BENCHMARK.json is printed,
  with its unit, in both the table and the final JSON line;
* the two traced runs give identical counts.

It prints the end-to-end metrics of all workloads by name, with units, and
exits 1 if any check fails.  It takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SIZE, SECONDS, SEED = "tiny", 1, 1


def run_once(workload: str, trace: int) -> tuple[dict, list[str], list[str]]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace), "--size", SIZE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {}, lines, problems + ["no JSON result on the last line"]
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    return result, lines, problems


def check_metrics(result: dict, lines: list[str], expected: list[dict], tag: str) -> list[str]:
    problems = []
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"{tag}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"{tag}: {m['name']} missing or not in {m['unit']}")
        table = [ln.split() for ln in lines[:-2]]
        if not any(len(t) == 4 and t[1] == m["name"] and t[3] == m["unit"] for t in table):
            problems.append(f"{tag}: table line for {m['name']} [{m['unit']}] missing")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    problems: list[str] = []
    for wl in (w["name"] for w in bench["workloads"]):
        result, lines, errs = run_once(wl, 0)
        problems += [f"{wl} trace 0: {e}" for e in errs]
        problems += check_metrics(result, lines, bench["end_to_end"], f"{wl} trace 0")
        for name, m in result.get("metrics", {}).items():
            print(f"{wl:10s} {name:14s} {m['value']:14.6g} {m['unit']}")

        traced = []
        for attempt in (1, 2):
            result, lines, errs = run_once(wl, 1)
            problems += [f"{wl} trace 1 run {attempt}: {e}" for e in errs]
            problems += check_metrics(result, lines, bench["per_layer"], f"{wl} trace 1")
            traced.append({k: m["value"] for k, m in result.get("metrics", {}).items()
                           if m["unit"] == "count"})
        if traced[0] != traced[1]:
            diff = {k: (traced[0].get(k), traced[1].get(k))
                    for k in set(traced[0]) | set(traced[1]) if traced[0].get(k) != traced[1].get(k)}
            problems.append(f"{wl}: traced counts differ between two runs: {diff}")
        else:
            print(f"{wl:10s} traced counts repeat exactly ({len(traced[0])} counters)")

    for line in problems:
        print("FAIL", line, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
