"""Benchmark for the riordan package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one caller, closed loop: each operation starts when
the previous one has finished.  The seed fixes the inputs and every pass
replays the same operation sequence (see ``workloads.py`` for the
workloads and why each exists).  Passes repeat until ``--seconds`` of
timed work is done; only whole passes are measured, so every run does the
same mix.  Each op's latency is the median of its replays, each rescaled
to the quietest moment of the run (see `end_to_end`).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run: two untraced passes, then one pass with every public function of
``fps``, ``group``, ``lie``, ``flows`` and ``cli`` wrapped in spans, and
prints per-layer self times and call counts per pass.  Spans are written
to ``.perfbench_out/``.  The last stdout line is the result object; the
line before it records the run (Python, nproc, commit, input digest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

START_PROBES = 7
TAIL_BEYOND = 10


def load_riordan() -> None:
    """Import riordan from this checkout's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "riordan", "__init__.py")):
        sys.exit(f"error: no riordan package under {SRC}")
    sys.path.insert(0, SRC)
    import riordan

    if not os.path.abspath(riordan.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: riordan imported from {riordan.__file__}, not {SRC}")


def inputs_digest(ops) -> str:
    blob = json.dumps([[op.kind, op.spec] for op in ops], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "riordan")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of a .git directory at the checkout root; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def timed_child(argv, env=None) -> float:
    t0 = perf_counter()
    subprocess.run(argv, check=True, env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - t0


def reference() -> float:
    """Time a fixed pure-Python Fraction loop: about 3 ms on a quiet host."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Time from spawning a fresh benchmark process to its first op, and the
    mean of the reference timings taken just before and after."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--probe"]
    before = reference()
    t0 = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed, (before + reference()) / 2


def fingerprint(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


class Player:
    """Plays passes of ops, times each op, and checks each output."""

    def __init__(self, ops):
        self.ops = ops
        self.verdicts = [None] * len(ops)  # (fingerprint, ok) from the first check
        self.passes: list[list[float]] = []  # per pass, each op's latency
        self.refs: list[list[float]] = []  # per pass, reference timings around the ops
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.first_error: str | None = None

    def play_pass(self, tracer=None) -> float:
        latencies, refs = [], [reference()]
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            error = None
            t0 = perf_counter()
            try:
                output = op.run()
            except Exception:
                error = traceback.format_exc()
            latencies.append(perf_counter() - t0)
            refs.append(reference())
            if tracer is not None:
                tracer.op = None
            self.attempted += 1
            if error is not None and self.first_error is None:
                self.first_error = error
            if error is not None or not self._verify(i, output):
                self.failed += 1
                self.failures[op.kind] += 1
        self.passes.append(latencies)
        self.refs.append(refs)
        return sum(latencies)

    def _verify(self, i: int, output) -> bool:
        mark = fingerprint(output)
        if self.verdicts[i] is None:
            try:
                ok = bool(self.ops[i].check(output))
            except Exception:
                ok = False
                if self.first_error is None:
                    self.first_error = traceback.format_exc()
            self.verdicts[i] = (mark, ok)
        first, ok = self.verdicts[i]
        return ok and mark == first


def tail(samples):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def end_to_end(args, ops, runner) -> tuple:
    """Replay whole passes for --seconds of timed work.

    This host's speed changes from one tenth of a second to the next with
    other tenants' load, by up to a factor of two, and a whole run can fall
    in a slow spell.  So every timing is bracketed by a fixed reference
    loop, and is rescaled to the run's fastest reference timing:
    ``t * ref_min / mean(ref before, ref after)``.  That is the time the
    op would take at the quietest moment seen in the run.  Every replay of
    an op does identical work, and an op's latency is the median of its
    rescaled replays.  Percentiles are over the ops of one pass.  Set-up
    is probed twice before each pass and twice after the last, and is
    rescaled the same way.  The run record keeps the unscaled figures.
    """
    player = Player(ops)
    probes = []
    timed = 0.0
    while timed < args.seconds:
        probes += [setup_probe(args.workload, args.seed) for _ in range(2)]
        timed += player.play_pass()
    probes += [setup_probe(args.workload, args.seed) for _ in range(2)]
    if runner is not None:
        rss_kb = runner.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    all_refs = [r for refs in player.refs for r in refs]
    ref_min = min(all_refs + [ref for _, ref in probes])
    per_op, raw_per_op = [], []
    for i in range(len(ops)):
        replays = [(lat[i], (refs[i] + refs[i + 1]) / 2) for lat, refs in zip(player.passes, player.refs)]
        per_op.append(statistics.median(t * ref_min / ref for t, ref in replays))
        raw_per_op.append(statistics.median(t for t, _ in replays))
    tail_s, tail_pct, beyond = tail(per_op)
    ok_ratio = (player.attempted - player.failed) / player.attempted
    metrics = {
        "setup_s": (statistics.median(t * ref_min / ref for t, ref in probes), "s"),
        "ops_per_s": (ok_ratio * len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    info = {
        "passes": len(player.passes),
        "timed_s": timed,
        "setup_probes": len(probes),
        "latency_samples": len(per_op),
        "tail_percentile": round(tail_pct, 2),
        "tail_samples_beyond": beyond,
        "fail_ratio": player.failed / player.attempted,
        "ref_min_ms": ref_min * 1e3,
        "ref_median_ms": statistics.median(all_refs) * 1e3,
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in probes),
            "ops_per_s": ok_ratio * len(raw_per_op) / sum(raw_per_op),
            "op_p50_ms": statistics.median(raw_per_op) * 1e3,
            "op_tail_ms": tail(raw_per_op)[0] * 1e3,
        },
    }
    return player, metrics, info


def traced(args, ops, runner) -> tuple:
    """One checking pass, one untraced reference pass, one traced pass.

    Self times and calls are for the traced pass; fresh-process start-up
    times split the cli-small latency into interpreter, import and command.
    """
    import tracer as tracing

    os.makedirs(OUT, exist_ok=True)
    player = Player(ops)
    player.play_pass()  # checks each output; the reference pass follows
    untraced_s = player.play_pass()
    if runner is None:
        tracer = tracing.Tracer()
        tracer.install()
        traced_s = player.play_pass(tracer)
        spans, max_bits = tracer.spans, tracer.max_bits
        absent = tracer.absent
    else:
        runner.tracer_script = os.path.join(HERE, "trace_child.py")
        traced_s = player.play_pass()
        spans, max_bits, absent = merge_child_spans(runner.span_files)
    with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
    totals = tracing.aggregate(spans)
    env = dict(os.environ, PYTHONPATH=SRC)
    interp = statistics.median(timed_child([sys.executable, "-c", "pass"]) for _ in range(START_PROBES))
    imported = statistics.median(
        timed_child([sys.executable, "-c", "import riordan"], env) for _ in range(START_PROBES)
    )
    metrics = {}
    for name in [*tracing.LAYERS, *tracing.NAMED]:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["fps.max_coeff_bits"] = (max_bits, "bits")
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (imported - interp, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    busy = sum(own for name, (_, own) in totals.items() if name in tracing.LAYERS)
    info = {
        "absent": absent,
        "spans": len(spans),
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "layer_share_of_traced_pass": {
            layer: totals.get(layer, (0, 0.0))[1] / traced_s for layer in tracing.LAYERS
        },
        "traced_s_outside_layers": traced_s - busy,
    }
    return player, metrics, info


def merge_child_spans(paths):
    spans, max_bits, absent = [], 0, set()
    for op, path in enumerate(paths):
        with open(path) as fh:
            doc = json.load(fh)
        os.unlink(path)
        base = len(spans)
        for name, start, end, parent, _ in doc["spans"]:
            spans.append([name, start, end, None if parent is None else parent + base, op])
        max_bits = max(max_bits, doc["max_coeff_bits"])
        absent.update(doc["absent"])
    return spans, max_bits, sorted(absent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_riordan()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0

    runner = None
    if args.workload == "cli-small":
        os.makedirs(OUT, exist_ok=True)
        runner = workloads.ChildRunner(ROOT, OUT)
        runner.bind(ops)
    measure = traced if args.trace else end_to_end
    player, metrics, info = measure(args, ops, runner)
    if runner is not None:
        runner.tracer_script = None
        edges = [{"argv": argv, "passed": workloads.edge_ok(runner.run(argv))}
                 for argv in workloads.EDGE_ARGV]
        info["edge_inputs"] = edges
        info["edge_failed"] = sum(not e["passed"] for e in edges)
    if player.first_error:
        print(player.first_error, file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "inputs_digest": inputs_digest(ops),
        "ops_per_pass": len(ops),
        "mix": dict(Counter(op.kind for op in ops)),
        "failures": dict(player.failures),
        **info,
    }
    print(json.dumps({"run": record}, sort_keys=True))
    result = {
        "correct": player.failed == 0,
        "attempted": player.attempted,
        "failed": player.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
