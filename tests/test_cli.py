"""Command-line behavior: subcommands, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from tdlek.cli import main
from tdlek.suites import SUITES, SuiteReport

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_prints_canonical_form(capsys):
    code, out, err = run(capsys, "parse", "B (raining( 2 , 2 ))")
    assert code == 0
    assert out == "B(raining(2,2))\n"
    assert err == ""


def test_parse_dump_emits_json(capsys):
    code, out, _ = run(capsys, "parse", "--dump", "p(1,2)")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[1])["node"] == "atom"


def test_consecutive_main_calls_share_no_state(capsys):
    # the parser is built once per process; no parsed value may carry over
    assert run(capsys, "parse", "--dump", "p(1,2)")[0] == 0
    assert run(capsys, "parse", "p(1,2)") == (0, "p(1,2)\n", "")
    code, out, err = run(capsys, "check", "p(1,2)")
    assert (code, out) == (2, "") and "required" in err
    assert run(capsys, "parse", "q(3,inf)") == (0, "q(3,inf)\n", "")
    assert run(capsys, "check", "p(1,2)") == (code, out, err)


def test_parse_survives_300_parentheses(capsys):
    code, out, err = run(capsys, "parse", "(" * 300 + "p(1,1)" + ")" * 300)
    assert (code, out, err) == (0, "p(1,1)\n", "")


# ROADMAP item 2's depth probes, each past the parser's limits
DEPTH_PROBES = {
    "deep ~": "~" * 600 + "p(1,1)",
    "long & chain": " & ".join(["p(1,1)"] * 600),
    "nested B": "B(" * 400 + "p(1,1)" + ")" * 400,
    "nested parentheses": "(" * 600 + "p(1,1)" + ")" * 600,
    "long -> chain": " -> ".join(["p(1,1)"] * 5000),
    "deep box": "box[0,9] " * 5000 + "p(1,1)",
    "nested dynamic prefixes": "[and(" * 400 + "p(1,1),p(1,1))] " * 400 + "p(1,1)",
}


@pytest.mark.parametrize("probe", list(DEPTH_PROBES))
def test_depth_probes_exit_2_with_a_message(capsys, tmp_path, probe):
    text = DEPTH_PROBES[probe]
    model = tmp_path / "m.tlek"
    model.write_text("worlds:\n  w0: p(1,1)\nclasses:\n  w0\nnbhd:\n  w0: {w0}\n")
    script = tmp_path / "s.scn"
    script.write_text(f"query {text}\n")
    rule = tmp_path / "r.scn"
    rule.write_text(f"rule K({text} -> q(1,1))\n")
    for argv in (
        ["parse", text],
        ["check", "-m", str(model), "-w", "w0", text],
        ["reduce", text],
        ["run", str(script)],
        ["run", str(rule)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, (probe, argv[0])
        assert "nested" in err and "Traceback" not in err, (probe, argv[0], err[:200])


def test_depth_limits_are_exact(capsys, tmp_path):
    from tdlek.formulas import MAX_DEPTH, MAX_PARENS

    model = tmp_path / "m.tlek"
    model.write_text("worlds:\n  w0: p(1,1)\nclasses:\n  w0\nnbhd:\n  w0: {w0}\n")
    atom = "p(1,1)"
    at_limit = {
        "~" * MAX_DEPTH + atom: "~" * MAX_DEPTH + atom,
        " & ".join([atom] * (MAX_DEPTH + 1)): " & ".join([atom] * (MAX_DEPTH + 1)),
        "B(" * MAX_DEPTH + atom + ")" * MAX_DEPTH: "B(" * MAX_DEPTH + atom + ")" * MAX_DEPTH,
        "(" * MAX_PARENS + atom + ")" * MAX_PARENS: atom,
    }
    for text, printed in at_limit.items():
        code, out, err = run(capsys, "parse", text)
        assert (code, err) == (0, "")
        assert out == printed + "\n"
        assert run(capsys, "reduce", text)[0] == 0
        assert run(capsys, "check", "-m", str(model), "-w", "w0", text)[0] == 0
    past = {
        "~" * (MAX_DEPTH + 1) + atom: f"1:{MAX_DEPTH + 1}: formula nested deeper than {MAX_DEPTH} levels",
        "B(" * (MAX_DEPTH + 1) + atom + ")" * (MAX_DEPTH + 1): (
            f"1:{2 * MAX_DEPTH + 1}: formula nested deeper than {MAX_DEPTH} levels"
        ),
        # the connective that makes the chain one level too deep
        " & ".join([atom] * (MAX_DEPTH + 2)): (
            f"1:{9 * MAX_DEPTH + 8}: formula nested deeper than {MAX_DEPTH} levels"
        ),
        "(" * (MAX_PARENS + 1) + atom + ")" * (MAX_PARENS + 1): (
            f"1:{MAX_PARENS + 1}: more than {MAX_PARENS} nested parentheses"
        ),
    }
    for text, message in past.items():
        assert run(capsys, "parse", text) == (2, "", f"parse error: {message}\n")


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "parse", "p(5,2)")
    assert code == 2
    assert "parse error" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.tlek"
    path.write_text(
        "worlds:\n"
        "  w0: raining(2,2) s(0,9)\n"
        "  w1: s(0,9)\n"
        "classes:\n"
        "  w0 w1\n"
        "nbhd:\n"
        "  w0: {w0}\n"
        "  w1: {w0}\n"
    )
    return str(path)


def test_check_true_and_false(capsys, model_file):
    code, out, _ = run(capsys, "check", "-m", model_file, "-w", "w0", "B(raining(2,2))")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "check", "-m", model_file, "-w", "w1", "raining(2,2)")
    assert (code, out) == (0, "false\n")


def test_check_dynamic_formula(capsys, model_file):
    code, out, _ = run(capsys, "check", "-m", model_file, "-w", "w1", "[+s(0,9)] B s(0,9)")
    assert (code, out) == (0, "true\n")


@pytest.mark.parametrize(
    "formula", ["box[5,2] p(1,1)", "box[inf,inf] p(1,1)", "false & box[5,2] p(1,1)"]
)
def test_bad_box_bounds_exit_2(capsys, model_file, formula):
    for argv in (["parse", formula], ["check", "-m", model_file, "-w", "w0", formula]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ") and "Traceback" not in err


def test_check_non_ground_formula_exits_2(capsys, model_file):
    code, out, err = run(capsys, "check", "-m", model_file, "-w", "w0", "p(T,1)")
    assert (code, out, err) == (2, "", "check needs a ground formula\n")


def test_check_bad_world_exits_2(capsys, model_file):
    code, _, err = run(capsys, "check", "-m", model_file, "-w", "nope", "p(1,1)")
    assert code == 2
    assert "no world" in err


def test_check_missing_model_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", "-m", str(tmp_path / "none.tlek"), "-w", "w0", "p(1,1)")
    assert code == 2


def test_check_model_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "model.tlek"
    path.write_bytes(b"worlds:\n  w0: p(1,1)\xff\n")
    code, out, err = run(capsys, "check", "-m", str(path), "-w", "w0", "p(1,1)")
    assert (code, out) == (2, "")
    assert err.startswith("cannot load model: ") and err.count("\n") == 1


def test_check_model_with_second_nbhd_line_exits_2(capsys, tmp_path):
    path = tmp_path / "model.tlek"
    path.write_text("worlds:\n  w0: p(1,1)\nclasses:\n  w0\nnbhd:\n  w0: {w0}\n  w0:\n")
    code, out, err = run(capsys, "check", "-m", str(path), "-w", "w0", "B p(1,1)")
    assert (code, out) == (2, "")
    assert err == "cannot load model: line 7: duplicate nbhd line for world 'w0'\n"


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_prints_static_formula(capsys):
    code, out, _ = run(capsys, "reduce", "[+p(1,1)] B p(1,1)")
    assert code == 0
    assert out == "B(p(1,1)) | K(p(1,1) <-> p(1,1))\n"


def test_reduce_unreducible_exits_1(capsys):
    code, _, err = run(capsys, "reduce", "[rev(p(1,2),q(0,9))] B q(0,0)")
    assert code == 1
    assert "unreducible" in err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_marriage_scenario(capsys):
    code, out, err = run(capsys, "run", str(SCENARIO_DIR / "marriage.scn"))
    assert code == 0
    assert "married(6,8)" in out
    assert "divorced(9,inf)" in out
    assert err == ""


def test_run_emits_trace(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, "run", str(SCENARIO_DIR / "umbrella.scn"), "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert json.loads(lines[0]) == {"schema_version": 1}
    assert any(json.loads(l)["event"] == "fired" for l in lines[1:])


def test_run_expect_mismatch_exits_1(capsys, tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text("perceive p(1,1) @ 1\nquery B(p(2,2))\nexpect true\n")
    code, out, err = run(capsys, "run", str(scn))
    assert code == 1
    assert "expect mismatch" in err


def test_run_scenario_error_exits_2(capsys, tmp_path):
    scn = tmp_path / "broken.scn"
    scn.write_text("perceive p(1,1)\n")
    code, _, err = run(capsys, "run", str(scn))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "script, message",
    [
        ("perceive p(1,1) @ x\n", "line 1: bad perception time 'x'"),
        ("perceive p(1,1) @ 1\ninfer now\n", "line 2: infer takes no argument"),
        ("query true\nexpect maybe\n", "line 2: expect needs true or false, got 'maybe'"),
        ("query B(p(T,1))\n", "line 1: query needs a ground atom: B(p(T,1))"),
    ],
)
def test_run_bad_directive_exits_2(capsys, tmp_path, script, message):
    scn = tmp_path / "bad.scn"
    scn.write_text(script)
    code, out, err = run(capsys, "run", str(scn))
    assert (code, out, err) == (2, "", f"scenario error: {message}\n")


def test_run_perception_time_is_read_as_decimal_digits(capsys, tmp_path):
    """A perception time is taken as int() and the lexer's \\d take it:
    decimal digits, ASCII or not; a superscript digit is refused with
    the scenario's own message, not int()'s."""
    scn = tmp_path / "times.scn"
    scn.write_text("perceive p(1,1) @ \u0663\nquery B(p(1,1))\nexpect true\n", encoding="utf-8")
    assert run(capsys, "run", str(scn)) == (0, "query B(p(1,1)) = true\np(1,1)\n", "")
    scn.write_text("perceive p(1,1) @ \u00b2\n", encoding="utf-8")
    code, out, err = run(capsys, "run", str(scn))
    assert (code, out, err) == (2, "", "scenario error: line 1: bad perception time '\u00b2'\n")


def test_run_scenario_not_utf8_exits_2(capsys, tmp_path):
    scn = tmp_path / "latin1.scn"
    scn.write_bytes("perceive caf\u00e9(1,1) @ 1\n".encode("latin-1"))
    code, out, err = run(capsys, "run", str(scn))
    assert (code, out) == (2, "")
    assert err.startswith("cannot read scenario: ") and err.count("\n") == 1


@pytest.mark.parametrize("trace", ["missing/trace.jsonl", "."])
def test_run_unwritable_trace_exits_2(capsys, tmp_path, trace):
    scenario = str(SCENARIO_DIR / "umbrella.scn")
    code, out, err = run(capsys, "run", scenario, "--trace", str(tmp_path / trace))
    assert (code, out) == (2, "")
    assert err.startswith("cannot write trace: ") and err.count("\n") == 1


def test_run_box_bound_at_inf_skips_the_binding(capsys, tmp_path):
    scn = tmp_path / "inf_box.scn"
    scn.write_text(
        "rule K(box[T,T] p(0,T) -> q(0,0))\n"
        "perceive p(0,inf) @ 1\n"
        "infer\n"
        "query B(q(0,0))\n"
        "expect false\n"
    )
    code, out, err = run(capsys, "run", str(scn))
    assert code == 0
    assert "Traceback" not in err
    assert out == "query B(q(0,0)) = false\np(0,inf)\n"


@pytest.mark.parametrize(
    "script, var",
    [
        ("rule K(p(T,T) & q(0,0,T) -> r(0,0))\nperceive p(1,1) @ 1\nperceive q(0,0,a) @ 1\ninfer\n", "T"),
        ("rule K(p(T,T) -> r(0,0,T))\nperceive p(1,1) @ 1\ninfer\n", "T"),
        ("rule K(q(0,0,X) & p(X,X) -> r(0,0))\nperceive q(0,0,a) @ 1\nperceive p(1,1) @ 1\ninfer\n", "X"),
    ],
)
def test_run_rule_variable_used_as_time_and_object_exits_2(capsys, tmp_path, script, var):
    scn = tmp_path / "mixed.scn"
    scn.write_text(script)
    code, out, err = run(capsys, "run", str(scn))
    assert (code, out) == (2, "")
    assert err.startswith(f"scenario error: line 1: variables ['{var}'] used both as times and as objects")


def test_run_query_of_rule_with_mixed_variable_exits_2(capsys, tmp_path):
    scn = tmp_path / "mixed_query.scn"
    scn.write_text("query K(p(T,T) -> r(0,0,T))\n")
    code, out, err = run(capsys, "run", str(scn))
    assert (code, out) == (2, "")
    assert err.startswith("scenario error: line 1: K supports rules only")


# ---------------------------------------------------------------------------
# rand-test
# ---------------------------------------------------------------------------


def test_rand_test_suites_small(capsys):
    for suite in ("frame", "axioms-lek", "property1", "reduction-oracle"):
        code, out, err = run(capsys, "rand-test", suite, "--count", "20", "--seed", "3")
        assert code == 0, (suite, err)
        assert suite in out


def test_rand_test_deterministic_output(capsys):
    argv = ["rand-test", "reduction-oracle", "--count", "30", "--seed", "11"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_rand_test_counterexample_exits_1(capsys, monkeypatch):
    def failing(**_):
        return SuiteReport("frame", total=1, failures=["a counterexample"])

    monkeypatch.setitem(SUITES, "frame", failing)
    code, out, err = run(capsys, "rand-test", "frame", "--count", "1")
    assert (code, out) == (1, "frame: 0/1 ok\n")
    assert err.startswith("1 counterexample(s); first:\n") and "a counterexample" in err


def test_usage_error_exits_2(capsys):
    assert main(["rand-test", "unknown-suite"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["frame", "--horizon", "-1"],
        ["property1", "--horizon", "-3", "--count", "5"],
        ["reduction-oracle", "--count", "5", "--horizon", "-2"],
        ["frame", "--count", "-1"],
        ["axioms-lek", "--max-worlds", "-1"],
        ["axioms-lek", "--max-predicates", "-2"],
    ],
)
def test_rand_test_negative_size_exits_2(capsys, argv):
    code, out, err = run(capsys, "rand-test", *argv)
    assert (code, out) == (2, "")
    assert "must be at least 0" in err and "Traceback" not in err
