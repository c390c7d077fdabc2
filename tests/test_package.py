"""The package surface: exported names, the `python -m riordan` entry point, the
independence of the test oracles from the package, the benchmark's own checks, and
the pytest configuration's report of a failing Hypothesis test."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riordan

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).parent / "golden"


def test_public_names_are_exactly_the_documented_set():
    assert set(riordan.__all__) == {
        # fps
        "CompositionNeedsPositiveOrder", "ExpNeedsZeroConstantTerm", "Fps", "INFINITE_ORDER",
        "InvalidTruncation", "NotAUnit", "NotInvertibleUnderComposition",
        "PowNeedsUnitConstantOne", "SeriesError", "as_fraction",
        # group
        "InsufficientTruncation", "NotRiordan", "RiordanMatrix", "TriMatrix", "involution_m",
        "is_involution", "is_pseudo_involution",
        # lie
        "ExactModeIrrational", "LieElement", "MonomialGenerator", "bracket",
        "characteristic_solution", "conj_transport", "exp_monomial", "exp_truncated_oracle",
        # flows
        "ApproachingProblem", "UnsupportedGenerator", "check_symmetry", "check_time_reversal",
        "equilibria_check", "flow_trace", "orbit_symmetric_under", "project_flow",
        "projected_involution", "pseudo_involution_flow_check", "rk4_integrate",
    }
    assert all(hasattr(riordan, name) for name in riordan.__all__)


def test_module_entry_point_prints_the_golden_triangle():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "riordan", "triangle", "pascal", "--rows", "8"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / "triangle_pascal_rows8.json").read_bytes()


@pytest.mark.parametrize("path", ["tests/oracles.py", "perfbench/naive.py"])
def test_oracles_import_nothing_from_the_package(path):
    # agreement with an oracle only means something if the oracle shares no code
    tree = ast.parse((ROOT / path).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not any(
        name == "riordan" or name.startswith(("riordan.", ".")) for name in imported
    ), imported


@pytest.mark.parametrize("workload", ["exp-check", "cli-small"])
def test_benchmark_checks_accept_one_pass(workload, tmp_path, monkeypatch):
    # one pass of seed 201's ops, each judged by the benchmark's own check;
    # series-group is left out, its naive checks take about 9 s
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    ops = workloads.WORKLOADS[workload](201)
    if workload == "cli-small":
        workloads.ChildRunner(str(ROOT), str(tmp_path)).bind(ops)
    failed = [op.spec for op in ops if not op.check(op.run())]
    assert not failed


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    # the repo's warning filters must let pytest report the failure itself
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_fails.py::test_fails" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
