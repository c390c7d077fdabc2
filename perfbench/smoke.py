"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one pass untraced and twice
traced with the same seed.  Fails (exit 1) unless each run prints a result
line of the contracted shape whose metric names and units are exactly the
ones BENCHMARK.json declares, every output checks, and the exact counts
(per-function calls, `fps.max_coeff_bits`) and input digests repeat.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def check_result(result: dict, declared: dict, label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        problems.append(f"{label}: missing {missing}, undeclared {extra}, unit mismatch {units}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        _, plain = run(workload, 0)
        problems += check_result(plain, e2e, f"{workload} trace=0")
        traced = [run(workload, 1) for _ in range(2)]
        for record, result in traced:
            problems += check_result(result, layers, f"{workload} trace=1")
        (rec1, res1), (rec2, res2) = traced
        exact = [n for n in layers if n.endswith(".calls") or n == "fps.max_coeff_bits"]
        for name in exact:
            if res1["metrics"][name]["value"] != res2["metrics"][name]["value"]:
                problems.append(f"{workload}: {name} differs between identical runs")
        for key in ("inputs_digest", "source_digest", "ops_per_pass"):
            if rec1[key] != rec2[key]:
                problems.append(f"{workload}: {key} differs between identical runs")
        print(f"{workload}: checked", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
