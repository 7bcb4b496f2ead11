"""The parser against its token-object reference, and the exit-code
contract of the text front ends under fuzzing.

``tests/reference_parser.py`` is the front end the flat-array parser
replaced.  Both must give, for every input, the same AST (its
``ast_dict``, its printed form, and its hash, variables and time, which
read the memos a parsed atom comes with) or the same ``FormulaSyntaxError``
(message, line, column and expected tokens); any other exception must
match by type and message.  The inputs are the printed output of the
``randgen`` formulas and character insertions, deletions and swaps of the
golden parse inputs, newlines included.  ``load_model`` on random text
raises only ``ModelFormatError``, ``run_scenario`` on mutated and
recombined scenario scripts raises only ``ScenarioError``, and parsing
builds every atom without ``Atom.__post_init__``.
"""

import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference_parser as ref
from tdlek.agent import ScenarioError, run_scenario
from tdlek.formulas import (
    Atom,
    FormulaSyntaxError,
    ast_dict,
    free_vars,
    parse,
    parse_atom,
    print_formula,
    time_of,
)
from tdlek.intervals import TimeExpr
from tdlek.models import ModelFormatError, load_model
from tdlek.randgen import gen_free_formula

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

GOLDEN_INPUTS = [
    json.loads(line)["argv"][-1]
    for name in ("parse_text", "parse_dump")
    for line in (GOLDEN_DIR / f"{name}.jsonl").read_text().splitlines()
]

# Characters the mutations insert: every token's characters, whitespace
# and newlines, stray characters, and a digit outside ASCII.
ALPHABET = "pqB K~&|-><()[],+0129infboxtrueandrevTX_\n\t\r $é٣"


def outcome(parser, text: str) -> tuple:
    try:
        f = parser(text)
    except FormulaSyntaxError as exc:
        return "syntax", str(exc), exc.line, exc.col, exc.expected
    except Exception as exc:  # e.g. int() of a number too long to convert
        return "other", type(exc).__name__, str(exc)
    # the memos a parsed atom comes with show in its ancestors' facts
    facts = hash(f), sorted(free_vars(f)), None if free_vars(f) else str(time_of(f))
    return "ok", json.dumps(ast_dict(f), sort_keys=True), print_formula(f), facts


def assert_same(text: str) -> None:
    assert outcome(parse, text) == outcome(ref.parse, text), text
    assert outcome(parse_atom, text) == outcome(ref.parse_atom, text), text


mutation = st.tuples(
    st.sampled_from(("insert", "delete", "swap")), st.integers(0, 10_000), st.sampled_from(ALPHABET)
)


def mutate(text: str, edits) -> str:
    chars = list(text)
    for op, pos, ch in edits:
        pos %= len(chars) + 1
        if op == "insert":
            chars.insert(pos, ch)
        elif op == "delete" and pos < len(chars):
            del chars[pos]
        elif op == "swap" and pos + 1 < len(chars):
            chars[pos], chars[pos + 1] = chars[pos + 1], chars[pos]
    return "".join(chars)


def test_golden_inputs_agree_with_reference():
    for text in GOLDEN_INPUTS:
        assert_same(text)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 10_000_000), st.lists(mutation, max_size=3))
def test_randgen_formulas_agree_with_reference(seed, edits):
    text = print_formula(gen_free_formula(random.Random(seed), depth=5))
    assert_same(text)
    assert_same(mutate(text, edits))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(GOLDEN_INPUTS), st.lists(mutation, min_size=1, max_size=4))
def test_mutated_golden_inputs_agree_with_reference(text, edits):
    assert_same(mutate(text, edits))


def test_error_positions_agree_with_reference():
    for text in (
        "p(1,1) &\n\n  $",
        "p(1,1)\r\n& q(",
        "\n\n",
        "p(1,1)\n",
        "p(٣,٤) & q(1,\n0)",
        "p(1," + "9" * 5000 + ")",
        "(" * 492 + "p(1,1)" + ")" * 492,
        "~" * 164 + "p(1,1)",
        "box[3,1] p(1,1)",
        "[rev(p(1,1),q(2,2)) ~p(1,1)",
    ):
        assert_same(text)


MODEL_LINES = (
    "worlds:",
    "classes:",
    "nbhd:",
    "  w0: raining(2,2) s(0,9)",
    "  w1: s(0,9) p(1,inf,a)",
    "  w0 w1",
    "  w0: {w0}",
    "  w1: {w0 w1} {}",
    "# comment",
    "",
)


@settings(max_examples=250, deadline=None)
@given(
    st.lists(st.sampled_from(MODEL_LINES) | st.text(ALPHABET + ":{}#w", max_size=20), max_size=8),
    st.lists(mutation, max_size=4),
)
def test_load_model_raises_only_model_format_error(lines, edits):
    try:
        load_model(mutate("\n".join(lines), edits))
    except ModelFormatError:
        pass


SCENARIO_TEXTS = [
    path.read_text()
    for path in sorted([*(ROOT / "scenarios").glob("*.scn"), *GOLDEN_DIR.glob("*.scn")])
]
# the scripts' lines by first word, so that rules, infers and queries are
# drawn as often as the far more numerous perceptions
SCENARIO_LINES: dict[str, list[str]] = {}
for line in (line for text in SCENARIO_TEXTS for line in text.splitlines()):
    SCENARIO_LINES.setdefault(line.partition(" ")[0], []).append(line)
scenario_line = st.one_of(*map(st.sampled_from, SCENARIO_LINES.values()))


def spliced(text: str, inserts) -> str:
    """text with each (position, line) inserted among its lines."""
    lines = text.splitlines()
    for pos, line in inserts:
        lines.insert(pos % (len(lines) + 1), line)
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(
    st.builds(mutate, st.sampled_from(SCENARIO_TEXTS), st.lists(mutation, min_size=1, max_size=4))
    | st.lists(scenario_line, max_size=30).map("\n".join)
    | st.builds(
        spliced,
        st.sampled_from(SCENARIO_TEXTS),
        st.lists(
            st.tuples(st.integers(0, 10_000), st.sampled_from(SCENARIO_LINES["rule"])),
            min_size=1,
            max_size=4,
        ),
    ),
    st.sampled_from((0, 1, 5, 10_000)),
)
def test_run_scenario_raises_only_scenario_error(text, budget):
    """Scripts with character mutations, scripts recombined from their
    lines, and scripts with rules spliced in.  In the last two a rule may
    follow an infer, so that the next infer finds a chaining record made
    for other rules."""
    try:
        run_scenario(text, budget=budget)
    except ScenarioError:
        pass


def _scenario_formulas() -> list[str]:
    texts = []
    for path in sorted([*(ROOT / "scenarios").glob("*.scn"), *GOLDEN_DIR.glob("*.scn")]):
        for raw in path.read_text().splitlines():
            word, _, rest = raw.split("#", 1)[0].strip().partition(" ")
            if word in ("rule", "query"):
                texts.append(rest.strip())
            elif word == "perceive":
                texts.append(rest.partition("@")[0].strip())
    return texts


def test_parse_runs_no_atom_validation(monkeypatch):
    calls = [0]
    original = Atom.__post_init__

    def counted(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Atom, "__post_init__", counted)
    texts = GOLDEN_INPUTS + _scenario_formulas()
    parsed = 0
    for text in texts:
        try:
            parse(text)
            parsed += 1
        except FormulaSyntaxError:
            pass
    assert parsed > 800
    assert calls[0] == 0
    Atom("p", TimeExpr.lit(1), TimeExpr.lit(2))
    assert calls[0] == 1  # the counter does count
