"""The parser against its token-object reference, and the exit-code
contract of the text front ends under fuzzing.

``tests/reference_parser.py`` is the front end the flat-array parser
replaced.  Both must give, for every input, the same AST (its
``ast_dict``, its printed form, and its hash, variables and time, which
read the memos a parsed atom comes with) or the same ``FormulaSyntaxError``
(message, line, column and expected tokens); any other exception must
match by type and message.  The inputs are the printed output of the
``randgen`` formulas and character insertions, deletions and swaps of the
golden parse inputs, newlines included, and texts shaped like a ground
literal or ``B`` of one, which ``parse`` reads by one pattern match: for
those the memos of the literal's nodes must also equal the ones the
recursive descent seeds.  The atom formatter's text of random atoms and
literals must parse back, through the reference, to the same node.
``load_model`` on random text
raises only ``ModelFormatError``, ``run_scenario`` on mutated and
recombined scenario scripts raises only ``ScenarioError``, ``cli.main``
on argv built from its subcommands and options exits 0, 1 or 2 without a
traceback, and parsing builds every atom without ``Atom.__post_init__``.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import reference_parser as ref
from tdlek.agent import ScenarioError, run_scenario
from tdlek.cli import main
import tdlek.formulas
from tdlek.agent import BeliefLit
from tdlek.formulas import (
    _MEMOS,
    Atom,
    Belief,
    FormulaSyntaxError,
    Not,
    _Parser,
    ast_dict,
    free_vars,
    parse,
    parse_atom,
    print_atom,
    print_formula,
    time_of,
)
from tdlek.intervals import INF, TimeExpr
from tdlek.models import ModelFormatError, gen_random_model, load_model, save_model
from tdlek.randgen import gen_dynamic_formula, gen_free_formula, gen_static, model_vocab
from tdlek.suites import SUITES

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


def mostly(common, rare):
    """A strategy drawing from common three times in four, else from rare,
    so that most inputs get past the first checks.  Rare is the largest
    integer's, since Hypothesis draws the least one more often."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 3 else common)


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


# Ground literals, read by one match, and texts that look like one but
# that only the recursive descent may accept or reject: Unicode spaces,
# digits outside ASCII and leading zeros, inf as a start, a start after
# the end, reserved predicates, variable and reserved arguments.
LITERAL_TEXTS = (
    "p(1,2)",
    " p ( 1 , 2 ) ",
    "p(1,\n2)",
    "\tp\u00a0(1,2)\r\n",
    "p(1,2,\u2003a ,\u3000bC_1)",
    "p(1,2,a\x1c)",
    "p(\u0663,5)",
    "p(1,\u0661\u0662)",
    "p(007,010)",
    "p(0,inf)",
    "p(inf,5)",
    "p(inf,inf)",
    "p(5,2)",
    "~p(5,2)",
    "p(2,2)",
    "box(1,2)",
    "inf(1,2)",
    "true(1,2)",
    "and(1,2)",
    "rev(1,2)",
    "p(1,2,X)",
    "p(1,2,inf)",
    "p(1,2,box)",
    "p(1,2,1)",
    "~ p(1,2)",
    "~\np(1,2,a)",
    "~~p(1,2)",
    "B p(1,2)",
    "p(1,2) & q(1,2)",
    "p(1,2",
    "p(1,2))",
    "p(1,,2)",
    "p(1,2,)",
    "p(1 2,3)",
    "p(1,infx)",
    "pé(1,2)",
    # B of a literal, read by the same match, and texts only the descent reads
    "B(p(1,2))",
    " B ( p ( 1 , 2 ) ) ",
    "B(~p(1,2))",
    "B( ~ q(3,inf,a) )",
    "B\n(\np(1,2)\n)\n",
    "B\u00a0(p(1,2,\u2003a))",
    "B(p(\u0663,5))",
    "B(p(007,010))",
    "B(p(5,2))",
    "B(~p(5,2))",
    "B(box(1,2))",
    "B(inf(1,2))",
    "B(true(1,2))",
    "B(p(inf,5))",
    "B(p(1,2,X))",
    "B(p(1,2,inf))",
    "B(p(1,2)",
    "B(p(1,2)))",
    "B((p(1,2)))",
    "B p(1,2)",
    "B ~p(1,2)",
    "B(~~p(1,2))",
    "B(B(p(1,2)))",
    "~B(p(1,2))",
    "K(p(1,2))",
    "b(p(1,2))",
    "B()",
    "B(p(1,2),)",
    "B(p(1,2)) & q(1,2)",
    "B(p(1,2) & q(1,2))",
)


def usually(common: tuple, rare: tuple):
    """One of common three times in four, else one of rare."""
    return mostly(st.sampled_from(common), st.sampled_from(rare))


GAP = usually(("", "", "", " ", "\n"), ("\t", "\u00a0", "\u2003", "\r\n", "\x1c", "$"))


@st.composite
def literal_text(draw) -> str:
    """A text shaped like a ground literal or B of one, mostly one: gaps of
    whitespace (or a stray character) between its tokens, and, now and
    then, a bound that is a variable, inf or digits outside ASCII, a
    reserved name, a variable argument, another prefix or parentheses that
    do not balance."""
    name = usually(("p", "q1", "aB_c"), ("box", "inf", "true", "and", "X", "B"))
    start = usually(("0", "1", "7", "12"), ("007", "\u0663", "inf", "X", "T+1"))
    end = usually(("7", "12", "inf"), ("0", "\u0661\u0662", "X", "T-1"))
    arg = usually(("a", "bC", "c_1"), ("X", "inf", "box", "1", "é"))
    outer = draw(usually(((), (), ("B", "(")), (("B",), ("B", "(", "("), ("~", "B", "("), ("K", "("))))
    closers = outer.count("(") if draw(st.integers(0, 7)) else draw(st.integers(0, 2))
    parts = [*outer, draw(usually(("", "~"), ("~~", "B ", "~(")))]
    parts += [draw(name), "(", draw(start), ",", draw(end)]
    for a in draw(st.lists(arg, max_size=3)):
        parts += [",", a]
    parts += [")"] * (1 + closers)
    return "".join(draw(GAP) + part for part in parts) + draw(GAP)


def literal_memos(f) -> list:
    """The memo slots of f and, under each ~ or B, of the node below."""
    nodes = [f]
    while isinstance(nodes[-1], (Not, Belief)):
        nodes.append(nodes[-1].body)
    return [[getattr(node, name) for name in _MEMOS] for node in nodes]


def assert_same_literal(text: str) -> None:
    """parse against the reference, and the memos its result comes with
    against those of the recursive descent's result."""
    try:
        got, want = parse(text), _Parser(text).formula()
    except (FormulaSyntaxError, ValueError):
        pass  # assert_same compares the errors
    else:
        assert literal_memos(got) == literal_memos(want), text
    assert_same(text)


def test_literal_texts_agree_with_reference():
    for text in LITERAL_TEXTS:
        assert_same_literal(text)


@settings(max_examples=300, deadline=None)
@given(literal_text())
def test_generated_literal_texts_agree_with_reference(text):
    assert_same_literal(text)


def test_ground_literals_are_read_without_the_parser(monkeypatch):
    made = []
    monkeypatch.setattr(tdlek.formulas, "_Parser", lambda text: made.append(text) or _Parser(text))
    read = ("p(1,2)", " ~ q ( 3 , inf , a ) ", "p(\u0663,5)", "p(1,2,inf)", "B(p(1,2))",
            " B ( ~ q ( 3 , inf , a ) ) ")
    for text in read:
        parse(text)
    assert made == []
    descended = ("p(5,2)", "box(1,2)", "p(inf,5)", "p(1,2,X)", "~~p(1,2)", "B(p(5,2))",
                 "B(p(1,2)", "B p(1,2)", "B((p(1,2)))")
    for text in descended:
        try:
            parse(text)
        except FormulaSyntaxError:
            pass
    assert made == list(descended)


def _random_atom(rng) -> Atom:
    """An atom with literal, variable and shifted bounds, inf ends and
    constant and variable arguments; bounds are drawn until they fit."""
    def bound():
        roll = rng.random()
        if roll < 0.5:
            return TimeExpr.lit(rng.choice((0, 1, 7, 12, 4096, INF)))
        return TimeExpr.at(rng.choice(("T", "U1", "Start_2")), rng.choice((0, 0, 1, -1, 12, -30)))

    while True:
        start, end = bound(), bound()
        names = ("a", "bC", "c_1", "inf", "box", "X", "Y_2")
        args = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        try:
            return Atom(rng.choice(("p", "q1", "aB_c")), start, end, args)
        except ValueError:
            continue


def test_atom_text_parses_back_to_the_same_node():
    """print_atom, the one text of an atom, which the printer and the
    belief literals share, gives for random atoms and literals a text
    that the reference parser reads back as the same node, and the text
    the printer built from TimeExpr.__str__ before; a ground literal's
    text is its BeliefLit's."""
    rng = random.Random(26)
    ground = 0
    for _ in range(3_000):
        atom = _random_atom(rng)
        text = print_atom(atom)
        assert text == f"{atom.pred}({','.join([str(atom.start), str(atom.end), *atom.args])})"
        assert ref.parse(text) == atom == ref.parse_atom(text)
        assert print_formula(Not(atom)) == "~" + text and ref.parse("~" + text) == Not(atom)
        if atom.is_ground():
            assert str(BeliefLit(atom)) == text and str(BeliefLit(atom, False)) == "~" + text
            ground += 1
    assert ground > 250


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


def rule_after_first_infer(text: str, which: int) -> str:
    """text with its rule line rules[which] moved to just after its first
    infer and followed by another infer, which therefore finds a chaining
    record made for other rules."""
    lines = text.splitlines()
    rules = [i for i, line in enumerate(lines) if line.partition(" ")[0] == "rule"]
    moved = lines.pop(rules[which])
    at = next(i for i, line in enumerate(lines) if line.partition(" ")[0] == "infer")
    lines[at + 1 : at + 1] = [moved, "infer"]
    return "\n".join(lines)


def examples(*cases):
    """Each case, a tuple of arguments, as an explicit hypothesis example."""

    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return decorate


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
@examples(
    *((rule_after_first_infer(text, which), 10_000) for text in SCENARIO_TEXTS for which in (0, -1))
)
def test_run_scenario_raises_only_scenario_error(text, budget):
    """Scripts with character mutations, scripts recombined from their
    lines, and scripts with rules spliced in.  In the last two a rule may
    follow an infer, so that the next infer finds a chaining record made
    for other rules; the explicit examples, every script with its first or
    its last rule moved after its first infer, always reach that infer."""
    try:
        run_scenario(text, budget=budget)
    except ScenarioError:
        pass


edits = mostly(st.just([]), st.lists(mutation, min_size=1, max_size=2))
# File arguments, made in a fresh directory for each example: ("text", s)
# and ("bytes", b) are files of that content, ("dir",) a directory,
# ("missing",) a path in a directory that does not exist, and ("new",) a
# path not yet made in one that does.
NOT_UTF8 = ("bytes", b"worlds:\n  w0: p(1,1)\xff\xfe\nrule \xc3(\n")
bad_file = st.sampled_from((NOT_UTF8, ("dir",), ("missing",), ("new",)))
scenario_file = mostly(
    st.builds(lambda text, e: ("text", mutate(text, e)), st.sampled_from(SCENARIO_TEXTS), edits),
    bad_file,
)
trace_file = mostly(st.just(("new",)), st.sampled_from((("dir",), ("missing",))))
number = st.integers(0, 3).map(str)
# a stray token; after an option it takes the place of the option's value
STRAY = ("-h", "--bogus", "-", "", "--", "p(1,1)", "-1", "x", "1.5", "٣")
stray = mostly(st.just(()), st.sampled_from(STRAY).map(lambda t: (t,)))


@st.composite
def model_and_formula(draw) -> tuple[str, list[str], str]:
    """A random model's saved text and world ids, and a printed formula,
    static or dynamic over that model's atoms, or free with or without
    variables; the text and the formula are sometimes mutated."""
    m = gen_random_model(draw(st.integers(0, 10_000)), max_worlds=3, horizon=8)
    rng = random.Random(draw(st.integers(0, 10_000_000)))
    kind = draw(st.sampled_from(("static", "dynamic", "free", "ground")))
    if kind == "static":
        f = gen_static(rng, model_vocab(m), 8)
    elif kind == "dynamic":
        f = gen_dynamic_formula(rng, model_vocab(m), 8)
    else:
        f = gen_free_formula(rng, depth=3, allow_vars=kind == "free")
    formula = mutate(print_formula(f), draw(edits))
    return mutate(save_model(m), draw(edits)), sorted(m.worlds), formula


@st.composite
def cli_argv(draw) -> list:
    """argv for one subcommand: its arguments and options in a random
    order, each kept nine times in ten, and sometimes a stray token.
    rand-test always gets a --count of at most 3, and the suite's name
    with it, so no run is large."""
    command = draw(st.sampled_from(("parse", "check", "reduce", "run", "rand-test")))
    model_text, worlds, formula = draw(model_and_formula())
    if command == "parse":
        chunks = [[formula], ["--dump"]]
    elif command == "reduce":
        chunks = [[formula]]
    elif command == "check":
        model = draw(mostly(st.just(("text", model_text)), bad_file))
        world = draw(mostly(st.sampled_from(worlds), st.text(ALPHABET, max_size=4)))
        chunks = [
            [draw(st.sampled_from(("-m", "--model"))), model],
            [draw(st.sampled_from(("-w", "--world"))), world],
            [formula],
        ]
    elif command == "run":
        chunks = [[draw(scenario_file)], ["--trace", draw(trace_file)]]
    else:
        suite = draw(mostly(st.sampled_from(sorted(SUITES)), st.text(ALPHABET, max_size=4)))
        chunks = [[suite, "--count", draw(number)]] + [
            [option, draw(number)]
            for option in ("--seed", "--max-worlds", "--max-predicates", "--horizon")
        ]
    chunks = [c for c in draw(st.permutations(chunks)) if draw(st.integers(0, 9)) < 9]
    argv = [command] + [token for chunk in chunks for token in chunk]
    for token in draw(stray):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def made(arg, directory: Path, i: int) -> str:
    """The argument itself, or the path of the file argument it names."""
    if isinstance(arg, str):
        return arg
    path = directory / f"arg{i}"
    if arg[0] == "text":
        path.write_text(arg[1], encoding="utf-8")
    elif arg[0] == "bytes":
        path.write_bytes(arg[1])
    elif arg[0] == "dir":
        path.mkdir()
    elif arg[0] == "missing":
        path = directory / "missing" / f"arg{i}"
    return str(path)


@settings(max_examples=120, deadline=None)
@given(cli_argv())
def test_cli_main_exits_0_1_or_2_without_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        args = [made(arg, Path(tmp), i) for i, arg in enumerate(argv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2), (args, code)
    assert "Traceback" not in err.getvalue(), (args, err.getvalue())


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
