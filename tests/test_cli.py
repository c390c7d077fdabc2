"""CLI behaviour: golden outputs, exit codes, formats."""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from riordan import cli
from riordan.cli import build_parser, main
from riordan.flows import ApproachingProblem, project_flow
from riordan.fps import Fps
from riordan.group import RiordanMatrix, TriMatrix
from riordan.lie import (
    ExactModeIrrational,
    LieElement,
    MonomialGenerator,
    characteristic_solution,
    exp_monomial,
    exp_truncated_oracle,
)

from oracles import dense, first_commutation_failure, recurrence_holds

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# -- golden files -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["triangle", "pascal", "--rows", "8"], "triangle_pascal_rows8.json"),
        (
            ["exp", "--a", "1", "--b", "1", "--n", "1", "--t", "1", "--trunc", "8"],
            "exp_creation_t1_trunc8.json",
        ),
        (
            ["check", "time-reversal", "--a", "1", "--b", "1", "--n", "1", "--dim", "6"],
            "check_time_reversal_n1_dim6.json",
        ),
    ],
)
def test_golden_outputs_are_byte_identical(argv, golden):
    code, out, _ = run_cli(argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_identical_invocations_are_deterministic():
    argv = ["check", "ftrm", "--dim", "6", "--seed", "3", "--count", "5"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


# -- triangle ------------------------------------------------------------------


def test_triangle_named_m():
    code, out, _ = run_cli(["triangle", "m", "--rows", "4"])
    assert code == 0
    assert json.loads(out)["rows"] == [["1"], ["0", "-1"], ["0", "0", "1"], ["0", "0", "0", "-1"]]


def test_triangle_custom_coefficients():
    code, out, _ = run_cli(["triangle", "--f", "1", "--g", "1,-1", "--rows", "3"])
    assert code == 0
    assert json.loads(out)["rows"] == [["1"], ["1", "1"], ["1", "2", "1"]]


def test_triangle_csv_format():
    code, out, _ = run_cli(["triangle", "pascal", "--rows", "3", "--format", "csv"])
    assert code == 0
    assert out == "1\n1,1\n1,2,1\n"


def test_triangle_pretty_alignment():
    code, out, _ = run_cli(["triangle", "pascal", "--rows", "3", "--pretty"])
    assert code == 0
    assert out == "1\n1 1\n1 2 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["triangle", "pascal", "--rows", "3"],
        ["exp", "--a", "1", "--b", "1", "--n", "1", "--t", "1"],
        ["apply", "--f", "1", "--g", "1,-1", "--gamma", "1"],
        ["flow", "--dim", "2", "--x0", "1,0", "--t", "1"],
    ],
)
def test_pretty_is_refused_under_csv(argv):
    code, out, err = run_cli(argv + ["--format", "csv", "--pretty"])
    want = "error: --pretty indents JSON output; drop it or use --format json\n"
    assert (code, out, err) == (2, "", want)
    assert run_cli(argv + ["--format", "csv"])[0] == 0


@pytest.mark.parametrize("extra", [["--f", "2", "--g", "1"], ["--f", "2"], ["--g", "1,-1"]])
def test_triangle_name_with_coefficients_is_refused(extra):
    code, out, err = run_cli(["triangle", "pascal", "--rows", "3", *extra])
    assert (code, out, err) == (2, "", "error: triangle 'pascal' takes no --f or --g\n")


def test_unknown_triangle_name_is_a_usage_error():
    code, _, err = run_cli(["triangle", "cantor", "--rows", "3"])
    assert code == 2
    assert "unknown triangle" in err


def test_malformed_coefficients_are_a_usage_error():
    code, _, err = run_cli(["triangle", "--f", "1", "--g", "one,minus-one", "--rows", "3"])
    assert code == 2
    assert "cannot parse rational" in err


def test_zero_constant_term_is_rejected():
    code, _, err = run_cli(["triangle", "--f", "0,1", "--g", "1", "--rows", "3"])
    assert code == 2
    assert "constant term" in err


# -- exp --------------------------------------------------------------------------


def test_exp_b_zero_prints_exponential_series():
    code, out, _ = run_cli(["exp", "--a", "1", "--b", "0", "--n", "2", "--t", "1", "--trunc", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["f"]["coeffs"] == ["1", "0", "1", "0", "1/2", "0", "1/6"]
    assert doc["g"]["coeffs"] == ["1", "0", "0", "0", "0", "0", "0"]
    assert doc["oracle_check"] == "pass"


def test_exp_at_time_zero_is_identity():
    code, out, _ = run_cli(["exp", "--a", "1", "--b", "1", "--n", "1", "--t", "0", "--trunc", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["f"]["coeffs"][0] == "1"
    assert all(c == "0" for c in doc["f"]["coeffs"][1:])
    assert doc["g"] == doc["f"]


def test_exp_accepts_rational_and_decimal_time():
    code, out, _ = run_cli(["exp", "--a", "1", "--b", "1", "--n", "1", "--t", "0.5", "--trunc", "3"])
    assert code == 0
    assert json.loads(out)["g"]["coeffs"] == ["1", "-1/2", "0", "0"]


def test_exp_diagonal_exact_mode_violation():
    code, _, err = run_cli(["exp", "--a", "1", "--b", "1", "--n", "0", "--t", "1"])
    assert code == 3
    assert "float mode" in err


def test_exp_diagonal_float_mode():
    code, out, _ = run_cli(
        ["exp", "--a", "1", "--b", "1", "--n", "0", "--t", "1", "--trunc", "3", "--mode", "float"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == [1.0]
    assert abs(doc["g"][0] - 0.36787944117144233) < 1e-15
    rows = doc["matrix"]["rows"]
    assert [rows[j][j] for j in range(4)] == [math.exp(j + 1) for j in range(4)]
    assert all(rows[i][j] == 0.0 for i in range(4) for j in range(i))


@pytest.mark.parametrize(
    "argv",
    [
        ["exp", "--a", "1", "--b", "1", "--n", "0", "--t", "800", "--mode", "float"],
        ["exp", "--a", "1", "--b", "1", "--n", "0", "--t=-800", "--mode", "float"],
        ["exp", "--a", "1", "--b", "1", "--n", "0", "--t", "300", "--trunc", "2", "--mode", "float"],
        ["flow", "--n", "0", "--dim", "2", "--x0", "1,1", "--t", "800", "--mode", "float"],
    ],
)
def test_float_overflow_is_a_clean_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: float overflow") and err.count("\n") == 1


@pytest.mark.parametrize("t", ["--t=1e308", "--t=-1e308"])
def test_float_flow_at_an_infinite_scale_is_refused_not_looped(t):
    # the scaled section's norm is inf, which no halving brings down to 0.5;
    # a subprocess with a timeout, so that a hang fails the test
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = ["flow", "--mode", "float", "--dim", "3", "--x0", "1,0,0", t, "--a", "10", "--b", "10"]
    proc = subprocess.run(
        [sys.executable, "-m", "riordan", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: float overflow") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("mode,n", [("float", "0"), ("float", "1"), ("exact", "0"), ("exact", "1")])
def test_exp_refuses_a_negative_truncation(mode, n):
    # refused before either branch builds a section
    argv = ["exp", "--a", "1", "--b", "1", "--n", n, "--t", "1", "--trunc", "-1", "--mode", mode]
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", "error: --trunc must be >= 0, got -1\n")


@pytest.mark.parametrize("n", ["1", "3"])
def test_exp_float_mode_needs_a_diagonal_generator(n):
    # Only the n = 0 section has a float-only exponential; n >= 1 is exact.
    argv = ["exp", "--a", "1", "--b", "1", "--n", n, "--t", "1", "--trunc", "2", "--mode", "float"]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"error: --mode float needs --n 0 (a diagonal section), got --n {n}\n"


# -- apply ------------------------------------------------------------------------------


def test_apply_pascal_to_one():
    code, out, _ = run_cli(["apply", "--f", "1", "--g", "1,-1", "--gamma", "1", "--trunc", "6"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1"] * 7


def test_apply_identity_echoes():
    code, out, _ = run_cli(["apply", "--f", "1", "--g", "1", "--gamma", "2,0,5", "--trunc", "4"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["2", "0", "5", "0", "0"]


def test_apply_pascal_to_x_counts():
    code, out, _ = run_cli(["apply", "--f", "1", "--g", "1,-1", "--gamma", "0,1", "--trunc", "5"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "1", "2", "3", "4", "5"]


def test_apply_rejects_non_riordan_pair():
    code, _, err = run_cli(["apply", "--f", "0,1", "--g", "1", "--gamma", "1"])
    assert code == 2


# -- flow --------------------------------------------------------------------------------


def test_flow_moment_curve_rows():
    code, out, _ = run_cli(
        ["flow", "--dim", "3", "--x0", "1,0,0", "--t", "0,1,2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["x"] for row in doc["rows"]] == [
        ["1", "0", "0"],
        ["1", "1", "1"],
        ["1", "2", "4"],
    ]


def test_flow_time_zero_echoes_state():
    code, out, _ = run_cli(["flow", "--dim", "2", "--x0", "3,-1/2", "--t", "0"])
    assert code == 0
    assert json.loads(out)["rows"][0]["x"] == ["3", "-1/2"]


def test_flow_dim_two_line():
    code, out, _ = run_cli(["flow", "--dim", "2", "--x0", "1,0", "--t", "3"])
    assert code == 0
    assert json.loads(out)["rows"][0]["x"] == ["1", "3"]


def test_flow_rk4_columns_and_error_summary():
    argv = ["flow", "--dim", "3", "--x0", "1,0,0", "--t", "0,1,2", "--rk4", "400"]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["header"] == ["t", "x0", "x1", "x2"]
    assert [row["x"] for row in doc["rows"]] == [["1", "0", "0"], ["1", "1", "1"], ["1", "2", "4"]]
    assert doc["rk4_steps"] == 400
    assert doc["max_error"] < 1e-9
    assert all(len(row["rk4"]) == 3 for row in doc["rows"])
    code, out, _ = run_cli(argv + ["--format", "csv"])
    lines = out.splitlines()
    assert code == 0 and lines[0] == "t,x0,x1,x2,rk4_x0,rk4_x1,rk4_x2"
    assert [line.split(",")[:4] for line in lines[1:4]] == [
        ["0", "1", "0", "0"], ["1", "1", "1", "1"], ["2", "1", "2", "4"]
    ]
    assert lines[4] == f"# max_error,{doc['max_error']}" and len(lines) == 5


def test_flow_csv_format():
    code, out, _ = run_cli(
        ["flow", "--dim", "2", "--x0", "1,0", "--t", "0,1", "--format", "csv"]
    )
    assert code == 0
    assert out == "t,x0,x1\n0,1,0\n1,1,1\n"


def test_flow_diagonal_generator_needs_float_mode():
    code, _, err = run_cli(["flow", "--n", "0", "--dim", "3", "--x0", "1,0,0", "--t", "1"])
    assert code == 3
    code, out, _ = run_cli(
        ["flow", "--n", "0", "--dim", "2", "--x0", "1,1", "--t", "1", "--mode", "float"]
    )
    assert code == 0
    doc = json.loads(out)
    import math

    assert abs(doc["rows"][0]["x"][0] - math.e) < 1e-11
    assert abs(doc["rows"][0]["x"][1] - math.e**2) < 1e-10


def test_flow_exact_refusal_on_a_nonzero_diagonal_is_the_library_error():
    code, out, err = run_cli(["flow", "--n", "0", "--dim", "3", "--x0", "1,0,0", "--t", "0,1"])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "float mode" in err


def test_flow_exact_on_a_nonzero_diagonal_at_time_zero_echoes_state():
    code, out, err = run_cli(["flow", "--n", "0", "--dim", "3", "--x0", "1,2/3,3", "--t", "0"])
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"] == [{"t": "0", "x": ["1", "2/3", "3"]}]


def test_every_exact_mode_refusal_gives_the_one_message():
    genr, t, h = MonomialGenerator(2, -1, 0), Fraction(1, 2), Fps([1, 2, 3])
    messages = set()
    for route in (
        lambda: exp_monomial(genr, t, 2),
        lambda: characteristic_solution(genr, h, t),
        lambda: exp_truncated_oracle(LieElement(Fps([0, 1]), Fps([1, 1])), t, 1),
        lambda: project_flow(ApproachingProblem(genr, 2), (1, 2, 3), t),
    ):
        with pytest.raises(ExactModeIrrational) as caught:
            route()
        messages.add(f"error: {caught.value}\n")
    generator = ["--a=2", "--b=-1", "--n", "0", "--t=1/2"]
    for argv in (["exp", *generator], ["flow", *generator, "--dim", "3", "--x0=1,2,3"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (3, "")
        messages.add(err)
    assert len(messages) == 1 and "use float mode" in messages.pop()
    # t = 0, and a = b = 0 at any t, stay exact: the identity in Fractions
    for genr, t in ((genr, 0), (MonomialGenerator(0, 0, 0), t)):
        assert exp_monomial(genr, t, 2) == RiordanMatrix.identity(2)
        assert characteristic_solution(genr, h, t) == h
        section = exp_truncated_oracle(genr.lie_element(2), t, 2)
        assert section == TriMatrix.identity(3)
        assert all(type(x) is Fraction for row in section.rows for x in row)
        assert project_flow(ApproachingProblem(genr, 2), (1, 2, 3), t) == h.coeffs


def test_flow_state_length_is_checked_before_the_regime():
    code, out, err = run_cli(["flow", "--n", "0", "--dim", "3", "--x0", "1,0", "--t", "1"])
    assert (code, out, err) == (2, "", "error: --x0 needs 3 components, got 2\n")


def test_flow_wrong_state_length():
    code, _, err = run_cli(["flow", "--dim", "3", "--x0", "1,0", "--t", "1"])
    assert code == 2


def test_flow_rk4_needs_a_step():
    code, out, err = run_cli(["flow", "--dim", "2", "--x0", "1,0", "--t", "1", "--rk4", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: steps must be >= 1, got 0\n"


def test_flow_needs_a_sample_time():
    code, out, err = run_cli(["flow", "--dim", "2", "--x0", "1,0", "--t", ",", "--rk4", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: --t needs at least one sample time\n"


# -- check --------------------------------------------------------------------------------


def test_check_symmetry_even_n_passes():
    code, out, _ = run_cli(["check", "symmetry", "--a", "1", "--b", "1", "--n", "2", "--dim", "6"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_symmetry_builds_no_section(monkeypatch):
    # the suite decides by the parity of n
    calls = []
    monkeypatch.setattr(TriMatrix, "mul", lambda *a: calls.append("mul"))
    monkeypatch.setattr(LieElement, "to_matrix", lambda *a: calls.append("section"))
    for what, code_wanted in (("symmetry", 0), ("time-reversal", 1)):
        code, out, _ = run_cli(["check", what, "--n", "2", "--dim", "8"])
        assert code == code_wanted and json.loads(out)["passed"] is (code_wanted == 0)
    assert calls == []


def test_check_symmetry_matches_the_dense_commutation_oracle():
    # M = diag(1, -1, 1, ...) against the dense section of L(a x^n, b x^n), n < dim
    rng, codes = Random(24), set()
    for _ in range(80):
        a, b = rng.choice(("0", "1", "-2", "3/2")), rng.choice(("0", "1", "-1/2", "2"))
        n = rng.randint(0, 3)
        dim = rng.randint(n + 1, 9)
        what = rng.choice(("symmetry", "time-reversal"))
        code, out, _ = run_cli(["check", what, f"--a={a}", f"--b={b}", f"--n={n}", f"--dim={dim}"])
        m = [[Fraction((-1) ** i * (i == j)) for j in range(dim)] for i in range(dim)]
        gen = [
            [(i - j == n) * (Fraction(a) + j * Fraction(b)) for j in range(dim)] for i in range(dim)
        ]
        want = first_commutation_failure(m, gen, 1 if what == "symmetry" else -1)
        assert code == (want is not None)
        assert json.loads(out)["counterexample"] == (want and {"involution": "M"} | want)
        codes.add(code)
    assert codes == {0, 1}


def test_check_time_reversal_even_n_fails_with_counterexample():
    code, out, _ = run_cli(
        ["check", "time-reversal", "--a", "1", "--b", "1", "--n", "2", "--dim", "6"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["counterexample"]["involution"] == "M"
    assert {"i", "j", "lhs", "rhs"} <= set(doc["counterexample"])


def test_check_pseudo_involution_odd_vs_even():
    code, out, _ = run_cli(
        ["check", "pseudo-involution", "--a", "2", "--b", "3", "--n", "1", "--t", "1/2"]
    )
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run_cli(
        ["check", "pseudo-involution", "--a", "1", "--b", "1", "--n", "2"]
    )
    assert code == 1 and json.loads(out)["passed"] is False


def test_check_oracle_exp():
    code, out, _ = run_cli(
        ["check", "oracle-exp", "--a", "-2", "--b", "3", "--n", "2", "--t", "1/2", "--trunc", "10"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_ftrm_and_a_sequence_suites():
    code, out, _ = run_cli(["check", "ftrm", "--dim", "6", "--seed", "1", "--count", "10"])
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run_cli(["check", "a-sequence", "--depth", "8", "--seed", "1", "--count", "5"])
    assert code == 0 and json.loads(out)["passed"] is True


def test_check_a_sequence_reports_the_first_failing_cell(monkeypatch):
    # perturb A_2: the recurrence first fails at row 3 of the first case
    real = RiordanMatrix.a_sequence
    seen = []

    def perturbed(self):
        cs = list(real(self).coeffs)
        cs[2] += 1
        seen.append((self, cs))
        return Fps(cs, len(cs) - 1)

    monkeypatch.setattr(RiordanMatrix, "a_sequence", perturbed)
    code, out, _ = run_cli(["check", "a-sequence", "--depth", "6", "--seed", "4", "--count", "3"])
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False and doc["counterexample"]["case"] == 0 and len(seen) == 1
    r, a = seen[0]
    entries = dense(r.to_matrix(6))
    held, (i, j) = recurrence_holds(entries, a, 6)
    assert not held
    rhs = sum(a[k] * entries[i - 1][j - 1 + k] for k in range(i - j + 1))
    want = {"case": 0, "i": i, "j": j, "lhs": str(entries[i][j]), "rhs": str(rhs)}
    assert doc["counterexample"] == want


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["check", "a-sequence", "--depth", "0"], "--depth"),
        (["check", "pseudo-involution", "--depth", "0"], "--depth"),
        (["check", "oracle-exp", "--trunc", "0"], "--trunc"),
        (["check", "ftrm", "--count", "0"], "--count"),
        (["check", "a-sequence", "--count", "0"], "--count"),
        (["check", "ftrm", "--dim", "0"], "--dim"),
        (["check", "ftrm", "--dim", "-3"], "--dim"),
    ],
)
def test_check_refuses_sizes_that_examine_no_case(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be >= 1, got {argv[argv.index(flag) + 1]}\n"


@pytest.mark.parametrize(
    "n,size,what",
    [
        (2, 2, "symmetry"),
        (2, 2, "time-reversal"),
        (3, 1, "symmetry"),
        (3, 1, "time-reversal"),
        (2, 1, "pseudo-involution"),
        (3, 2, "oracle-exp"),
    ],
)
def test_check_refuses_a_section_the_generator_misses(n, size, what):
    # A section of dim <= n (index < n) is all zero and would pass vacuously.
    flag = {"pseudo-involution": "--depth", "oracle-exp": "--trunc"}.get(what, "--dim")
    argv = ["check", what, "--a", "1", "--b", "1", "--n", str(n), flag, str(size)]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    bound = f"> --n ({n})" if flag == "--dim" else f">= --n ({n})"
    assert err == f"error: {flag} must be {bound}, got {size}\n"


def test_check_examines_a_section_that_just_reaches_the_generator():
    # At index n the section holds the generator, so the suite runs and can fail.
    code, out, _ = run_cli(["check", "pseudo-involution", "--n", "2", "--depth", "2"])
    assert code == 1 and json.loads(out)["counterexample"] is not None
    code, out, _ = run_cli(["check", "oracle-exp", "--n", "3", "--trunc", "3"])
    assert code == 0 and json.loads(out)["params"]["trunc"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "pseudo-involution", "--depth", "3"],
        ["check", "symmetry", "--n", "2", "--dim", "4"],
        ["check", "time-reversal", "--dim", "4"],
        ["check", "ftrm", "--dim", "3", "--count", "1"],
        ["check", "a-sequence", "--depth", "2", "--count", "1"],
    ],
)
def test_check_refuses_trunc_outside_oracle_exp(argv):
    code, out, err = run_cli(argv + ["--trunc", "3"])
    assert (code, out, err) == (2, "", "error: --trunc is read only by check oracle-exp\n")
    assert run_cli(argv)[0] == 0


#: The flags each suite reads, and the values the sweep below passes.
SUITE_FLAGS = {
    "pseudo-involution": {"a", "b", "n", "t", "depth"},
    "symmetry": {"a", "b", "n", "dim"},
    "time-reversal": {"a", "b", "n", "dim"},
    "oracle-exp": {"a", "b", "n", "t", "trunc"},
    "ftrm": {"dim", "count"},
    "a-sequence": {"depth", "count"},
}
FLAG_VALUES = {
    "a": "2", "b": "-1", "n": "1", "t": "1/2", "dim": "3", "depth": "2", "count": "1", "trunc": "3"
}


@pytest.mark.parametrize("what", list(SUITE_FLAGS))
def test_check_refuses_every_flag_its_suite_does_not_read(what):
    # --dim stands in for an absent --depth; symmetry suites still take an unread --t
    for flag, value in FLAG_VALUES.items():
        accepted = SUITE_FLAGS[what] | {"seed"}
        accepted |= {"dim"} if "depth" in accepted else set()
        accepted |= {"t"} if what in ("symmetry", "time-reversal") else set()
        code, out, err = run_cli(["check", what, f"--{flag}", value, "--seed", "2"])
        if flag in accepted:
            assert code in (0, 1) and err == "" and json.loads(out)["params"]["seed"] == 2
        else:
            suites = ", ".join(w for w in SUITE_FLAGS if flag in SUITE_FLAGS[w])
            assert (code, out, err) == (2, "", f"error: --{flag} is read only by check {suites}\n")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["check", "pseudo-involution", "--depth", "2", "--dim", "5"], "--dim"),
        (["check", "a-sequence", "--depth", "2", "--dim", "5"], "--dim"),
        (["check", "ftrm", "--dim", "3", "--count", "1", "--a", "1/0"], "--a"),
    ],
)
def test_check_refuses_an_unread_flag_before_parsing_it(argv, flag):
    code, out, err = run_cli(argv)
    assert code == 2 and out == "" and err.startswith(f"error: {flag} is read only by check ")


GENERATOR = {"a": "1", "b": "1", "n": 1}


@pytest.mark.parametrize(
    "argv,params",
    [
        (["check", "pseudo-involution"], GENERATOR | {"t": "1", "depth": 7}),
        (["check", "pseudo-involution", "--dim", "1"], GENERATOR | {"t": "1", "depth": 1}),
        (["check", "symmetry", "--n", "2"], GENERATOR | {"n": 2, "dim": 8}),
        (["check", "oracle-exp"], GENERATOR | {"t": "1", "trunc": 12}),
        (["check", "ftrm", "--count", "1"], {"dim": 8, "count": 1}),
        (["check", "a-sequence", "--dim", "5", "--count", "1"], {"depth": 4, "count": 1}),
    ],
)
def test_check_applies_the_defaults_of_the_flags_its_suite_reads(argv, params):
    code, out, err = run_cli(argv)
    assert code == 0 and err == "" and json.loads(out)["params"] == params | {"seed": 0}


def test_check_unknown_suite_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["check", "trace-formula"])
    assert exc.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


def test_main_builds_the_parser_once_per_process():
    cli._parser.cache_clear()
    assert run_cli(TRIANGLE)[0] == 0
    with pytest.raises(SystemExit):  # a usage error reuses it too
        run_cli([])
    assert run_cli(FLOW)[0] == 0
    assert cli._parser.cache_info()[:2] == (2, 1)  # hits, misses


TRIANGLE = ["triangle", "pascal", "--rows", "3"]
EXP = ["exp", "--a", "1", "--b", "1", "--n", "1", "--t", "1"]
APPLY = ["apply", "--f", "1", "--g", "1,-1", "--gamma", "1"]
FLOW = ["flow", "--dim", "2", "--x0", "1,0", "--t", "1"]
CHECK = ["check", "symmetry", "--n", "2", "--dim", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        *(base + ["--tol", "1e-6"] for base in (TRIANGLE, EXP, APPLY, FLOW, CHECK)),
        TRIANGLE + ["--mode", "float"],
        APPLY + ["--seed", "1"],
        FLOW + ["--trunc", "4"],
        CHECK + ["--format", "csv"],
        TRIANGLE + ["--trunc", "5"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_readme_flag_table_lists_exactly_the_flags_each_subcommand_takes():
    (commands,) = [
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    taken = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, p in commands.items()
    }
    documented = {name: set() for name in commands}
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    for flag_cell, command_cell in re.findall(r"^\| (`--.*) \| (.*) \|$", readme, re.M):
        names = set(commands) if command_cell == "all" else re.findall(r"`([\w-]+)`", command_cell)
        for name in set(names) & set(commands):  # skips suite names such as `oracle-exp`
            documented[name].update(re.findall(r"`(--[\w-]+)", flag_cell))
    assert documented == taken
