"""Command-line front end.

Subcommands: parse, check, reduce, run, rand-test.  Results go to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 logical failure (an
expect mismatch, a counterexample, an unreducible formula), 2 usage or
parse errors.  Identical argv and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .agent import ScenarioError, run_scenario_file, trace_json_lines
from .dynamics import UnreducibleShape, reduce_formula
from .formulas import FormulaSyntaxError, NonGround, ast_dict, is_ground, parse, print_formula
from .models import ModelFormatError, check, load_model_file
from .suites import SUITES

USAGE_ERROR, LOGICAL_ERROR, OK = 2, 1, 0


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_parse(args) -> int:
    f = parse(args.formula)
    print(print_formula(f))
    if args.dump:
        print(json.dumps(ast_dict(f), sort_keys=True))
    return OK


def cmd_check(args) -> int:
    try:
        model = load_model_file(args.model)
    except (OSError, UnicodeDecodeError, ModelFormatError) as exc:
        _err(f"cannot load model: {exc}")
        return USAGE_ERROR
    if args.world not in model.worlds:
        _err(f"no world {args.world!r} in {args.model}")
        return USAGE_ERROR
    f = parse(args.formula)
    if not is_ground(f):
        _err("check needs a ground formula")
        return USAGE_ERROR
    print("true" if check(model, args.world, f) else "false")
    return OK


def cmd_reduce(args) -> int:
    f = parse(args.formula)
    try:
        print(print_formula(reduce_formula(f)))
    except NonGround as exc:
        _err(str(exc))
        return USAGE_ERROR
    except UnreducibleShape as exc:
        _err(f"unreducible: {exc}")
        return LOGICAL_ERROR
    return OK


def cmd_run(args) -> int:
    try:
        result = run_scenario_file(args.scenario)
    except (OSError, UnicodeDecodeError) as exc:
        _err(f"cannot read scenario: {exc}")
        return USAGE_ERROR
    except ScenarioError as exc:
        _err(f"scenario error: {exc}")
        return USAGE_ERROR
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(trace_json_lines(result.state.trace))
        except OSError as exc:
            _err(f"cannot write trace: {exc}")
            return USAGE_ERROR
    lines = [f"query {text} = {'true' if value else 'false'}" for _, text, value in result.queries]
    lines.append(result.state.render_wm())
    print("\n".join(lines))
    bad = [c for c in result.checks if not c.ok]
    for c in bad:
        _err(
            f"expect mismatch at line {c.line}: {c.query_text} "
            f"expected {'true' if c.expected else 'false'}, "
            f"got {'true' if c.actual else 'false'}"
        )
    return LOGICAL_ERROR if bad else OK


def cmd_rand_test(args) -> int:
    suite = SUITES[args.suite]
    report = suite(
        count=args.count,
        seed=args.seed,
        max_worlds=args.max_worlds,
        max_predicates=args.max_predicates,
        horizon=args.horizon,
    )
    print(report.summary())
    if report.failures:
        _err(f"{len(report.failures)} counterexample(s); first:")
        _err(report.failures[0])
        return LOGICAL_ERROR
    return OK


def size(text: str) -> int:
    """argparse type for counts and sizes: an int of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser: built on the first call, then shared, so
    callers must not change it."""
    p = argparse.ArgumentParser(
        prog="tdlek",
        description=(
            "Reasoning engine for timed belief/knowledge formulas: parse and "
            "print, model-check over neighbourhood models, reduce dynamic "
            "prefixes, run agent scenarios, and drive randomized property suites."
        ),
        epilog="Exit codes: 0 success, 1 logical failure, 2 usage/parse error.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a formula and print its canonical form")
    sp.add_argument("formula")
    sp.add_argument("--dump", action="store_true", help="also print the AST as JSON")
    sp.set_defaults(fn=cmd_parse)

    sc = sub.add_parser("check", help="evaluate a ground formula at a world of a model file")
    sc.add_argument("-m", "--model", required=True, help="model file (.tlek)")
    sc.add_argument("-w", "--world", required=True, help="world id")
    sc.add_argument("formula")
    sc.set_defaults(fn=cmd_check)

    sr = sub.add_parser("reduce", help="rewrite away dynamic prefixes")
    sr.add_argument("formula")
    sr.set_defaults(fn=cmd_reduce)

    sn = sub.add_parser("run", help="run a scenario script and print the final working memory")
    sn.add_argument("scenario")
    sn.add_argument("--trace", help="write the event trace as JSON lines to this file")
    sn.set_defaults(fn=cmd_run)

    st = sub.add_parser("rand-test", help="run a randomized property suite")
    st.add_argument("suite", choices=sorted(SUITES))
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--count", type=size, default=100)
    st.add_argument("--max-worlds", type=size, default=4)
    st.add_argument("--max-predicates", type=size, default=3)
    st.add_argument("--horizon", type=size, default=10)
    st.set_defaults(fn=cmd_rand_test)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    try:
        return args.fn(args)
    except FormulaSyntaxError as exc:
        _err(f"parse error: {exc}")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
