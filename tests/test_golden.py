"""Golden CLI outputs: exact stdout and exit code for fixed argv.

The expected values were recorded from the clause-by-clause checker, the
rescan-everything forward chainer, the hand-written formula walkers and
the one-method-per-level parser, so they pin byte-identical output,
traces and the suites' random streams across rewrites of the model
checker, the dynamics, the agent, the formula traversals and the parser.
Two count guards on gen110.scn pin the short paths its ground literals
take: the literal match reads them, and print_atom writes them.
"""

import json
import random
from pathlib import Path

import pytest

import reference_parser as ref
import tdlek.agent
import tdlek.formulas
from tdlek.agent import run_scenario, trace_json_lines
from tdlek.cli import main
from tdlek.formulas import Atom, Belief, Formula, Not, children, parse, print_formula
from tdlek.models import gen_random_model
from tdlek.randgen import gen_dynamic_formula, gen_free_formula, model_vocab

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# script -> its directory; tests/golden holds <name>.stdout and <name>.jsonl.
# gen040 and gen110 are make_scenario(40, 40) and make_scenario(110, 110)
# of perfbench/scenario_gen.py; mixed.scn has every rule shape the chainer
# handles; shifts.scn has the instances it skips because a premise, a box
# bound or a conclusion makes no interval.
RUN_SCRIPTS = {
    "umbrella": SCENARIO_DIR,
    "marriage": SCENARIO_DIR,
    "mixed": GOLDEN_DIR,
    "gen040": GOLDEN_DIR,
    "gen110": GOLDEN_DIR,
    "shifts": GOLDEN_DIR,
}

SUITE_OUTPUT = {
    "frame": "frame: 100/100 ok, applied=51\n",
    "axioms-lek": "axioms-lek: 500/500 ok\n",
    "property1": (
        "property1: 2987/2987 ok, applied_conj=325, applied_infer=309, "
        "applied_learn=1082, applied_revise=179\n"
    ),
    "reduction-oracle": "reduction-oracle: 100/100 ok, unreduced=5, unreduced_fraction=0.05\n",
}

MODEL = (
    "worlds:\n"
    "  w0: raining(2,2) s(0,9)\n"
    "  w1: s(0,9)\n"
    "classes:\n"
    "  w0 w1\n"
    "nbhd:\n"
    "  w0: {w0}\n"
    "  w1: {w0}\n"
)

# formula -> (stdout at w0, stdout at w1); every answer exits 0
CHECK_OUTPUT = {
    "true": ("true", "true"),
    "false": ("false", "false"),
    "raining(2,2)": ("true", "false"),
    "~raining(2,2)": ("false", "true"),
    "~raining(20,20)": ("false", "false"),
    "raining(2,2) & s(0,9)": ("true", "false"),
    "raining(2,2) | s(1,1)": ("true", "false"),
    "raining(2,2) -> s(0,9)": ("true", "true"),
    "raining(2,2) <-> s(0,9)": ("true", "false"),
    "B(raining(2,2))": ("true", "true"),
    "B(s(0,9))": ("false", "false"),
    "K(s(0,9))": ("true", "true"),
    "K(raining(2,2))": ("false", "false"),
    "box[0,9] s(0,9)": ("true", "true"),
    "box s(0,9)": ("false", "false"),
    "box[2,2] raining(2,2)": ("false", "false"),
    "B(raining(2,2)) & K(s(0,9) | ~s(0,9))": ("true", "true"),
    "[+raining(2,2)] B raining(2,2)": ("true", "true"),
    "[+~raining(2,2)] B ~raining(2,2)": ("true", "true"),
    "[and(raining(2,2),s(0,9))] B(raining(2,2) & s(0,9))": ("true", "true"),
    "[inf(raining(2,2),s(0,9))] B s(0,9)": ("true", "true"),
    "[rev(raining(2,2),s(0,9))] B s(3,9)": ("false", "false"),
    "[+s(0,9)] [+raining(2,2)] K B raining(2,2)": ("true", "true"),
}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("suite", sorted(SUITE_OUTPUT))
def test_rand_test_stdout_is_golden(capsys, suite):
    assert run(capsys, "rand-test", suite, "--count", "100", "--seed", "0") == (
        0,
        SUITE_OUTPUT[suite],
    )


@pytest.mark.parametrize("formula", list(CHECK_OUTPUT))
def test_check_stdout_is_golden(capsys, tmp_path, formula):
    path = tmp_path / "model.tlek"
    path.write_text(MODEL)
    for world, want in zip(("w0", "w1"), CHECK_OUTPUT[formula]):
        assert run(capsys, "check", "-m", str(path), "-w", world, formula) == (0, want + "\n")


@pytest.mark.parametrize("name", list(RUN_SCRIPTS))
def test_run_stdout_and_trace_are_golden(capsys, tmp_path, name):
    trace = tmp_path / "trace.jsonl"
    script = RUN_SCRIPTS[name] / f"{name}.scn"
    code, out = run(capsys, "run", str(script), "--trace", str(trace))
    assert (code, out) == (0, (GOLDEN_DIR / f"{name}.stdout").read_text())
    assert trace.read_text() == (GOLDEN_DIR / f"{name}.jsonl").read_text()


def parse_dump_argv() -> list[list[str]]:
    """tdlek parse --dump on 200 free formulas, variables included."""
    rng = random.Random(2024)
    return [["parse", "--dump", print_formula(gen_free_formula(rng, depth=4))] for _ in range(200)]


def reduce_argv() -> list[list[str]]:
    """tdlek reduce on 300 ground prefixed formulas over random model
    vocabularies, then 120 free formulas of every node kind, one in six
    with variables (exit 2); some are unreducible (exit 1)."""
    rng = random.Random(2025)
    cases = []
    for i in range(300):
        m = gen_random_model(seed=i, max_worlds=4, max_predicates=3, horizon=10)
        f = gen_dynamic_formula(rng, model_vocab(m), 10, dyn_depth=3)
        cases.append(["reduce", print_formula(f)])
    rng = random.Random(2026)
    for i in range(120):
        f = gen_free_formula(rng, depth=4, allow_vars=i % 6 == 0)
        cases.append(["reduce", print_formula(f)])
    return cases


BINARY_OPS = ("&", "|", "->", "<->")

# one input per parser error branch, some spread over several lines
PARSE_ERRORS = [
    "p(1,1) $ q(1,1)",
    "p(1,1)\n  & q(1,1) @",
    "p(1,1) q(1,1)",
    "p(1,1) & & q(1,1)",
    "p(1,1))",
    "p(1,1) &",
    "",
    "~",
    "(p(1,1) & q(1,1)",
    "((p(1,1))",
    "[+p(1,1) p(1,1)",
    "box[1,2 p(1,1)",
    "box[1 2] p(1,1)",
    "box[] p(1,1)",
    "p(1 1)",
    "p(1,1 q)",
    "p(1,1,",
    "p(1,1,2)",
    "p",
    "p(X+,1)",
    "p(X+Y,1)",
    "p(a,1)",
    "p(5,2)",
    "p(inf,inf)",
    "box(1,1)",
    "rev(1,1) & p(1,1)",
    "inf(1,1)",
    "[+B p(1,1)] p(1,1)",
    "[+~~p(1,1)] p(1,1)",
    "[inf(p(1,1),true)] p(1,1)",
    "[rev(p(1,1),and(1,1))] p(1,1)",
    "[and(p(1,1) q(1,1))] p(1,1)",
    "[and(p(1,1),q(1,1)] p(1,1)",
    "box[5,2] p(1,1)",
    "box[inf,inf]\n\tp(1,1)",
    "false & box[5,2] p(1,1)",
    "[foo(p(1,1))] p(1,1)",
    "[] p(1,1)",
    "[+p(1,1)",
    "B",
    "K K",
]

# tokens a mutation may insert, wrong or right
MUTATION_TOKENS = (
    "~", "&", "|", "->", "<->", "(", ")", "[", "]", ",", "+", "-",
    "B", "K", "box", "true", "inf", "and", "7", "X", "$", " ",
)


def _mutations(rng: random.Random, f) -> list[str]:
    """One input per mutation of f's printed text: drop a character,
    insert a token, strip the spaces, and parenthesise a sub-formula."""
    text = print_formula(f)
    at = rng.randrange(len(text))
    drop = text[:at] + text[at + 1:]
    at = rng.randrange(len(text) + 1)
    insert = text[:at] + rng.choice(MUTATION_TOKENS) + text[at:]
    subs, stack = [], [f]
    while stack:
        node = stack.pop()
        subs.append(node)
        stack.extend(children(node))
    sub = print_formula(rng.choice([s for s in subs if isinstance(s, Formula)]))
    return [drop, insert, text.replace(" ", ""), text.replace(sub, f"({sub})", 1)]


def parse_text_argv() -> list[list[str]]:
    """tdlek parse --dump on hand-written text: every ordered pair of binary
    operators, bare, under stacked prefixes, in redundant parentheses and
    with tabs and newlines; one input per parser error branch; then seeded
    mutations of 100 printed free formulas."""
    texts = []
    for op1 in BINARY_OPS:
        for op2 in BINARY_OPS:
            texts.append(f"p(1,1) {op1} q(1,1) {op2} r(1,1)")
            texts.append(f"~B p(1,1) {op1} K box q(1,1) {op2} [+~r(1,1)] ~r(1,1)")
            texts.append(f"box[1,T+2] (p(1,1) {op1} q(1,1)) {op2} B(K r(1,1))")
            texts.append(f"((p(1,1)) {op1} (q(1,1) {op2} (r(1,1))))")
            texts.append(f"p(1,1)\t{op1}\n(q(1,1)\n\t{op2}  r(1,1))")
    texts += [
        "[and(p(1,1) -> q(1,1), r(1,1) | s(1,1))] B p(1,1) & q(1,1)",
        "[inf(p(1,1) <-> q(1,1), r(X,inf,a))] K ~r(X,inf,a) -> p(1,1)",
        "[rev(p(1,2), q(0,9,b))] B q(3,9,b) | true <-> false",
        "box[0,inf) box[T-1,T+1] p(T,T) & ~~false",
    ]
    texts += PARSE_ERRORS
    rng = random.Random(2027)
    for _ in range(100):
        texts += _mutations(rng, gen_free_formula(rng, depth=4))
    return [["parse", "--dump", text] for text in texts]


# golden file -> the argv it was recorded for; each line of the file is
# {"argv", "code", "stdout", "stderr"} as main() gave them
RECORDED = {"parse_dump": parse_dump_argv, "reduce": reduce_argv, "parse_text": parse_text_argv}


@pytest.mark.parametrize("name", list(RECORDED))
def test_recorded_cli_runs_are_golden(capsys, name):
    records = [json.loads(line) for line in (GOLDEN_DIR / f"{name}.jsonl").read_text().splitlines()]
    assert [r["argv"] for r in records] == RECORDED[name]()
    mismatches = []
    for r in records:
        code = main(r["argv"])
        out, err = capsys.readouterr()
        if (code, out, err) != (r["code"], r["stdout"], r["stderr"]):
            mismatches.append(r["argv"])
    assert not mismatches, f"{len(mismatches)} of {len(records)} differ; first: {mismatches[0]}"


# ---------------------------------------------------------------------------
# The ground literals of a run take the short paths
# ---------------------------------------------------------------------------

GEN110 = GOLDEN_DIR / "gen110.scn"


def _is_literal_query(text: str) -> bool:
    """B of one literal, as the reference parser reads text."""
    f = ref.parse(text)
    return isinstance(f, Belief) and isinstance(f.body.body if isinstance(f.body, Not) else f.body, Atom)


def test_run_builds_the_parser_only_for_rules_k_and_compound_queries(monkeypatch):
    """The recursive descent is built for gen110.scn's rule lines, its K
    queries and its queries that join B-literals by |, in file order, and
    for no perception and no query of B of one literal."""
    made = []
    parser = tdlek.formulas._Parser
    monkeypatch.setattr(tdlek.formulas, "_Parser", lambda text: made.append(text) or parser(text))
    text = GEN110.read_text()
    assert run_scenario(text).ok
    lines = [line.partition(" ")[::2] for line in text.splitlines()]
    want = [rest for word, rest in lines
            if word == "rule" or (word == "query" and not _is_literal_query(rest))]
    assert made == want
    words = [word for word, _ in lines]
    assert (words.count("rule"), words.count("query"), words.count("perceive")) == (8, 30, 110)
    queries = want[words.count("rule"):]  # the rules come first
    assert len(queries) == 9 and sum(q.startswith("K(") for q in queries) == 6


def test_run_writes_trace_and_memory_without_the_formula_printer(monkeypatch):
    """trace_json_lines and render_wm write gen110.scn's golden trace and
    final memory with the atom formatter alone: print_formula and _pf are
    not called."""
    state = run_scenario(GEN110.read_text()).state
    calls = []

    def counted(name, original):
        return lambda *args: calls.append(name) or original(*args)

    for module, name in ((tdlek.formulas, "_pf"), (tdlek.formulas, "print_formula"),
                         (tdlek.agent, "print_formula")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    trace, memory = trace_json_lines(state.trace), state.render_wm()
    assert calls == []
    assert trace == (GOLDEN_DIR / "gen110.jsonl").read_text()
    assert memory == (GOLDEN_DIR / "gen110.stdout").read_text().splitlines()[-1]
    tdlek.agent.print_formula(parse("p(1,1)"))
    assert calls == ["print_formula", "_pf"]  # the counters do count
