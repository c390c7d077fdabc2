"""The three workloads: seeded inputs, the operations, and their checks.

Each workload is a list of `Op`s, one pass.  A run replays the same pass
until its time is up.  Every op's output is checked once, outside the
timed region, by an independent route in `naive` arithmetic; later passes
must reproduce the checked output exactly.

* ``series-group`` - in-process library calls on series.  Each pass has
  the same stated mix (`SERIES_MIX`) on two kinds of input: sparse integer
  pairs (f, g of degree <= 3) at trunc 64 and dense small-rational pairs
  at trunc 32.  `Fps.__mul__`, driven by `compose`, dominates; coefficient
  bit-height grows to hundreds of bits.
* ``exp-check`` - `riordan.cli.main(argv)` in-process: `exp` at trunc
  16-24 over the acceptance grid, the `check` suites, and `flow` at dim 12
  in exact mode and in float mode with RK4.  `TriMatrix.mul`, called from
  `exp_truncated_oracle`, dominates.
* ``cli-small`` - golden-sized commands, each a real ``python -m riordan``
  subprocess, plus a share of error-path calls.  Interpreter start-up and
  ``import riordan`` dominate.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Callable

# Timed calls go through module attributes and method lookups at call time,
# so that the traced run sees them once the tracer has rebound the names.
from riordan import cli, lie
from riordan.fps import Fps
from riordan.group import RiordanMatrix
from riordan.lie import LieElement, MonomialGenerator

import naive

GRID_AB = ["-2", "-1", "1", "2", "3"]
GRID_N = [1, 2, 3]
GRID_T = ["-1", "1/2", "1", "2"]


@dataclass
class Op:
    kind: str  # the op's place in the stated mix
    spec: Any  # JSON-serialisable description of the inputs
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# -- series-group ---------------------------------------------------------------

#: Ops per pass, by input kind and trunc.  Sorted by cost they form three
#: groups: 14 dense products, inverses and transports; 8 dense applies and
#: A-sequences; then 14 cheaper ops.  The tail (the 11th slowest op) falls
#: inside the first group and the median inside the second, never on a gap
#: between groups, so they do not jump from seed to seed.  The sparse inputs
#: run neither the compositional inverse (0.5-0.7 s a call at trunc 64) nor
#: the transport, whose cost on them swings with the seed across groups.
SERIES_MIX = {
    ("sparse64", 64): {"product": 2, "apply": 4, "characteristic_solution": 2, "exp_monomial": 2},
    ("dense32", 32): {"product": 5, "inverse": 5, "conj_transport": 4, "apply": 4,
                      "a_sequence": 4, "characteristic_solution": 2, "exp_monomial": 2},
}


def _coeff_spec(rng: Inputs, kind: str, trunc: int, unit: bool) -> list[str]:
    if kind.startswith("sparse"):
        cs = [rng.choice((-1, 1)) if unit else rng.randint(-2, 2)]
        cs += [rng.randint(-2, 2) for _ in range(3)]
        return [str(c) for c in cs]
    cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(trunc + 1)]
    while unit and cs[0] == 0:
        cs[0] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return [str(c) for c in cs]


class Inputs(Random):
    """The seeded input source of one workload."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self._drawn = 0

    def generator(self, ns=GRID_N) -> list:
        """[a, b, n, t] from the acceptance grid.

        n and t cycle through their grids and every fifth b is 0, so a pass
        has the same structural mix, and about the same cost, whatever the
        seed; the seed picks a and the nonzero b.
        """
        k = self._drawn
        self._drawn += 1
        b = "0" if k % 5 == 4 else self.choice(GRID_AB)
        return [self.choice(GRID_AB), b, ns[k % len(ns)], GRID_T[k % len(GRID_T)]]


def _series(spec: list[str], trunc: int) -> Fps:
    return Fps([Fraction(c) for c in spec], trunc)


def _riordan(spec, trunc: int) -> RiordanMatrix:
    return RiordanMatrix(_series(spec[0], trunc), _series(spec[1], trunc))


def _generator(spec) -> tuple[MonomialGenerator, Fraction]:
    a, b, n, t = spec
    return MonomialGenerator(Fraction(a), Fraction(b), n), Fraction(t)


def _coeffs(spec: list[str], trunc: int) -> list[Fraction]:
    return [Fraction(c) for c in spec] + [Fraction(0)] * (trunc + 1 - len(spec))


def _basis(trunc: int) -> tuple[list, list]:
    """The series 1 and x; their images fix a Riordan or Lie element."""
    one, x = [Fraction(0)] * (trunc + 1), [Fraction(0)] * (trunc + 1)
    one[0] = x[1] = Fraction(1)
    return one, x


def _matvec(rows: list[list], vec: list) -> list:
    return [sum(r * v for r, v in zip(row, vec)) for row in rows]


def _series_op(name: str, kind: str, trunc: int, rng: Inputs) -> Op:
    """One library call; its check runs in `naive` arithmetic only."""
    def pair():
        return [_coeff_spec(rng, kind, trunc, True), _coeff_spec(rng, kind, trunc, True)]

    def lists(spec):
        return [_coeffs(part, trunc) for part in spec]

    basis = _basis(trunc)
    if name == "product":
        spec = [pair(), pair()]
        r1, r2 = _riordan(spec[0], trunc), _riordan(spec[1], trunc)
        (f1, g1), (f2, g2) = lists(spec[0]), lists(spec[1])

        def check(p):
            # T1 T2 acts on 1 and x as T1 acting on T2's images.
            f, g = list(p.f.coeffs), list(p.g.coeffs)
            return len(f) == trunc + 1 and all(
                naive.apply(f, g, h) == naive.apply(f1, g1, naive.apply(f2, g2, h)) for h in basis
            )

        return Op(f"{name}/{kind}", spec, lambda: r1 * r2, check)
    if name == "inverse":
        spec = pair()
        r = _riordan(spec, trunc)
        f, g = (c[:trunc] for c in lists(spec))

        def check(q):
            # T(f|g) undoes its inverse on 1 and x, to trunc - 1.
            qf, qg = list(q.f.coeffs), list(q.g.coeffs)
            return len(qf) == trunc and all(
                naive.apply(f, g, naive.apply(qf, qg, h[:trunc])) == h[:trunc] for h in basis
            )

        return Op(f"{name}/{kind}", spec, lambda: r.inverse(), check)
    if name == "apply":
        spec = [pair(), _coeff_spec(rng, kind, trunc, False)]
        r, h = _riordan(spec[0], trunc), _series(spec[1], trunc)
        (f, g), hs = lists(spec[0]), _coeffs(spec[1], trunc)

        def check(s):
            # Fundamental theorem: the action is the matrix-vector product.
            return list(s.coeffs) == _matvec(naive.section(f, g, trunc + 1), hs)

        return Op(f"{name}/{kind}", spec, lambda: r.apply(h), check)
    if name == "a_sequence":
        spec = pair()
        r = _riordan(spec, trunc)
        f, g = lists(spec)

        def check(a):
            # x/A inverts x/g under composition.
            a = list(a.coeffs)
            x_over_a = [Fraction(0)] + naive.inv(a)
            return len(a) == trunc and naive.compose(naive.xmul(naive.inv(g)), x_over_a) == basis[1]

        return Op(f"{name}/{kind}", spec, lambda: r.a_sequence(), check)
    if name == "conj_transport":
        spec = [pair(), [_coeff_spec(rng, kind, trunc, False), _coeff_spec(rng, kind, trunc, False)]]
        r = _riordan(spec[0], trunc)
        elt = LieElement(_series(spec[1][0], trunc), _series(spec[1][1], trunc))
        (f, g), (chi, alpha) = lists(spec[0]), lists(spec[1])

        def check(moved):
            # T L = L~ T, tested on 1 and x, which fix (chi~, alpha~).
            mchi, malpha = list(moved.chi.coeffs), list(moved.alpha.coeffs)
            return all(
                naive.apply(f, g, naive.act(chi, alpha, h))
                == naive.act(mchi, malpha, naive.apply(f, g, h))
                for h in basis
            )

        return Op(f"{name}/{kind}", spec, lambda: lie.conj_transport(r, elt), check)
    if name == "characteristic_solution":
        spec = [rng.generator(), _coeff_spec(rng, kind, trunc, False)]
        (genr, t), h = _generator(spec[0]), _series(spec[1], trunc)
        a, b, n, _ = spec[0]
        hs = _coeffs(spec[1], trunc)

        def check(u):
            return list(u.coeffs) == naive.flow(a, b, n, t, hs)

        return Op(f"{name}/{kind}", spec, lambda: lie.characteristic_solution(genr, h, t), check)
    if name == "exp_monomial":
        spec = rng.generator()
        genr, t = _generator(spec)
        a, b, n, _ = spec

        def check(e):
            f, g = list(e.f.coeffs), list(e.g.coeffs)
            return all(naive.apply(f, g, h) == naive.flow(a, b, n, t, h) for h in basis)

        return Op(f"{name}/{kind}", spec, lambda: lie.exp_monomial(genr, t, trunc), check)
    raise ValueError(name)


def series_group(seed: int) -> list[Op]:
    rng = Inputs(seed)
    return [
        _series_op(name, kind, trunc, rng)
        for (kind, trunc), mix in SERIES_MIX.items()
        for name, count in mix.items()
        for _ in range(count)
    ]


# -- shared CLI output checks ---------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def _json(text: str):
    """Parse one strict RFC 8259 JSON document (no NaN or Infinity)."""
    return json.loads(text, parse_constant=_reject_constant)


def _clean_error(out: str, err: str) -> bool:
    """A refusal as the user sees it: one `error:` line, no traceback."""
    lines = err.splitlines()
    return out == "" and len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err


def _check_exp_payload(doc: dict, spec: list, trunc: int) -> bool:
    """(f, g) act on 1 and x as the Taylor sum of e^(tL) does; the matrix
    is the section of T(f|g)."""
    a, b, n, t = spec
    f = [Fraction(c) for c in doc["f"]["coeffs"]]
    g = [Fraction(c) for c in doc["g"]["coeffs"]]
    if len(f) != trunc + 1 or len(g) != trunc + 1 or doc["oracle_check"] != "pass":
        return False
    if any(naive.apply(f, g, h) != naive.flow(a, b, n, Fraction(t), h) for h in _basis(trunc)):
        return False
    rows = [[str(v) for v in row] for row in naive.section(f, g, trunc + 1)]
    return doc["matrix"] == {"dim": trunc + 1, "rows": rows}


def _close(got, want, rtol: float) -> bool:
    scale = max([1.0] + [abs(w) for w in want])
    return len(got) == len(want) and all(abs(g - w) <= rtol * scale for g, w in zip(got, want))


def _flow_reference(genr: MonomialGenerator, x0: list[Fraction], t: Fraction) -> list:
    """e^(tA) x0: the Taylor sum, exact; the closed form in floats when n = 0."""
    if genr.n == 0:
        return [math.exp(float(t * (genr.a + j * genr.b))) * float(v) for j, v in enumerate(x0)]
    return naive.flow(genr.a, genr.b, genr.n, t, x0)


def _check_flow_payload(doc, genr, x0, times, mode: str, rk4: int | None) -> bool:
    if len(doc["rows"]) != len(times):
        return False
    max_err = 0.0
    for row, t in zip(doc["rows"], times):
        want = _flow_reference(genr, x0, t)
        if mode == "exact":
            if row["t"] != str(t) or row["x"] != [str(v) for v in want]:
                return False
        else:
            want = [float(v) for v in want]
            if row["t"] != float(t) or not _close(row["x"], want, 1e-9):
                return False
        if rk4 is not None:
            if not _close(row["rk4"], [float(v) for v in want], 1e-4):
                return False
            exact = [float(Fraction(v)) if mode == "exact" else v for v in row["x"]]
            max_err = max([max_err] + [abs(e - r) for e, r in zip(exact, row["rk4"])])
    if rk4 is None:
        return "rk4_steps" not in doc
    return doc["rk4_steps"] == rk4 and math.isclose(doc["max_error"], max_err, rel_tol=1e-9, abs_tol=1e-300)


def _check_passed(doc: dict, what: str) -> bool:
    return doc["check"] == what and doc["passed"] is True and doc["counterexample"] is None


# -- exp-check ------------------------------------------------------------------------

EXP_TRUNCS = (16, 20, 24)
FLOW_DIM = 12
RK4_STEPS = 400
FLOAT_T = ["-1", "1/2", "1"]


def _gen_args(spec) -> list[str]:
    a, b, n, t = spec
    return [f"--a={a}", f"--b={b}", "--n", str(n), f"--t={t}"]


def _x0_spec(rng: Inputs, dim: int) -> list[str]:
    return [str(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(dim)]


def _exp_op(rng: Inputs, trunc: int) -> tuple[list[str], Callable]:
    spec = rng.generator()
    return ["exp", *_gen_args(spec), "--trunc", str(trunc)], lambda doc: _check_exp_payload(doc, spec, trunc)


def _check_op(rng: Inputs, what: str) -> tuple[list[str], Callable]:
    if what == "symmetry":
        # Even subdiagonals commute with M = diag(1, -1, 1, ...).
        spec = [rng.choice(GRID_AB), rng.choice(GRID_AB + ["0"]), 2, "1"]
        extra = ["--dim", str(FLOW_DIM)]
    else:
        # Odd subdiagonals anticommute with M.
        spec = rng.generator(ns=(1, 3))
        extra = {"oracle-exp": ["--trunc", "14"], "pseudo-involution": ["--depth", "10"],
                 "time-reversal": ["--dim", "10"]}[what]
    argv = ["check", what, *_gen_args(spec), *extra]
    return argv, lambda doc: _check_passed(doc, what)


def _flow_op(rng: Inputs, mode: str, n: int | None) -> tuple[list[str], Callable]:
    spec = rng.generator()
    if n is not None:
        spec[2] = n
    genr, _ = _generator(spec)
    x0 = _x0_spec(rng, FLOW_DIM)
    # RK4's relative error is about steps * (h * max|a + jb|)^5 / 120; with
    # |t| <= 1 it stays below 1e-4 at dim 12 and RK4_STEPS steps.
    times = [rng.choice(GRID_T if mode == "exact" else FLOAT_T) for _ in range(3)]
    argv = ["flow", *_gen_args(spec[:3] + [",".join(times)]), "--dim", str(FLOW_DIM),
            "--x0=" + ",".join(x0), "--mode", mode]
    rk4 = RK4_STEPS if mode == "float" else None
    if rk4 is not None:
        argv += ["--rk4", str(rk4)]
    xs = [Fraction(v) for v in x0]
    ts = [Fraction(v) for v in times]

    def check(doc):
        return _check_flow_payload(doc, genr, xs, ts, mode, rk4)

    return argv, check


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _ok_json(check: Callable[[dict], bool]) -> Callable:
    def verify(result) -> bool:
        code, out, err = result
        return code == 0 and err == "" and check(_json(out))

    return verify


#: (kind, count, op factory) for one exp-check pass.  Sorted by cost: trunc-24
#: and trunc-20 `exp`, time-reversal checks and float flows (14 ops, the
#: tail falls among the float flows); then trunc-16 `exp` (the median); then
#: exact flows and the cheaper checks.
EXP_MIX = (
    *((f"exp/trunc{n}", count, lambda rng, n=n: _exp_op(rng, n))
      for n, count in zip(EXP_TRUNCS, (6, 3, 3))),
    ("check/oracle-exp", 4, lambda rng: _check_op(rng, "oracle-exp")),
    ("check/pseudo-involution", 2, lambda rng: _check_op(rng, "pseudo-involution")),
    ("check/symmetry", 2, lambda rng: _check_op(rng, "symmetry")),
    ("check/time-reversal", 2, lambda rng: _check_op(rng, "time-reversal")),
    ("flow/exact", 6, lambda rng: _flow_op(rng, "exact", None)),
    ("flow/float-rk4", 4, lambda rng: _flow_op(rng, "float", None)),
    ("flow/float-rk4-diagonal", 2, lambda rng: _flow_op(rng, "float", 0)),
)


def exp_check(seed: int) -> list[Op]:
    rng = Inputs(seed)
    ops = []
    for kind, count, build in EXP_MIX:
        for _ in range(count):
            argv, check = build(rng)
            ops.append(Op(kind, argv, lambda argv=argv: _in_process(argv), _ok_json(check)))
    return ops


# -- cli-small ------------------------------------------------------------------------


def _triangle_op(rng: Inputs):
    rows = rng.choice((6, 8, 10))
    want = {"dim": rows, "rows": [[str(math.comb(i, j)) for j in range(i + 1)] for i in range(rows)]}
    return ["triangle", "pascal", "--rows", str(rows)], lambda doc: doc == want


def _apply_op(rng: Inputs):
    f = [rng.choice(("1", "-1", "2"))] + [rng.choice(("-1", "0", "1", "2")) for _ in range(2)]
    g = [rng.choice(("1", "-1"))] + [rng.choice(("-1", "0", "1")) for _ in range(2)]
    gamma = _x0_spec(rng, 4)
    argv = ["apply", "--f=" + ",".join(f), "--g=" + ",".join(g), "--gamma=" + ",".join(gamma)]
    trunc = 8
    rows = naive.section(_coeffs(f, trunc), _coeffs(g, trunc), trunc + 1)
    want = _matvec(rows, _coeffs(gamma, trunc))
    return argv, lambda doc: doc == {"coeffs": [str(v) for v in want], "trunc": trunc}


def _small_exp_op(rng: Inputs):
    spec = rng.generator()
    return ["exp", *_gen_args(spec), "--trunc", "8"], lambda doc: _check_exp_payload(doc, spec, 8)


def _small_flow_op(rng: Inputs):
    a, b = rng.choice(GRID_AB), rng.choice(GRID_AB + ["0"])
    genr = MonomialGenerator(Fraction(a), Fraction(b), 1)
    x0 = _x0_spec(rng, 3)
    times = [rng.choice(GRID_T) for _ in range(2)]
    argv = ["flow", *_gen_args([a, b, 1, ",".join(times)]), "--dim", "3",
            "--x0=" + ",".join(x0), "--rk4", "2000"]
    xs, ts = [Fraction(v) for v in x0], [Fraction(v) for v in times]
    return argv, lambda doc: _check_flow_payload(doc, genr, xs, ts, "exact", 2000)


def _diagonal_exp_op(rng: Inputs):
    a, b, t = rng.choice(GRID_AB), rng.choice(GRID_AB + ["0"]), rng.choice(GRID_T)
    argv = ["exp", f"--a={a}", f"--b={b}", "--n", "0", f"--t={t}", "--trunc", "3", "--mode", "float"]
    a, b, t = Fraction(a), Fraction(b), Fraction(t)

    def check(doc):
        diag = [doc["matrix"]["rows"][j][j] for j in range(4)]
        want = [math.exp(float(t * (a + j * b))) for j in range(4)]
        return (
            all(math.isclose(d, w, rel_tol=1e-11) for d, w in zip(diag, want))
            and math.isclose(doc["f"][0], math.exp(float((a - b) * t)), rel_tol=1e-12)
            and math.isclose(doc["g"][0], math.exp(float(-b * t)), rel_tol=1e-12)
        )

    return argv, check


#: Float-overflow edge inputs.  Each passes if it prints JSON without NaN,
#: or exits non-zero with one `error:` line and no traceback.  They run
#: once per cli-small run, outside the timed mix, which must not fail.
EDGE_ARGV = (
    ["exp", "--a", "1", "--b", "1", "--n", "0", "--t", "800", "--mode", "float"],
    ["exp", "--a", "1", "--b", "1", "--n", "0", "--t=-800", "--mode", "float"],
)


def edge_ok(result) -> bool:
    code, out, err = result
    if code != 0:
        return _clean_error(out, err)
    try:
        _json(out)
    except ValueError:
        return False
    return "Traceback" not in err


def _refusal_argv(rng: Inputs) -> list[tuple[list[str], int]]:
    """Inputs the CLI must refuse with one `error:` line: (argv, exit code)."""
    a, b, t = rng.choice(GRID_AB), rng.choice(GRID_AB), rng.choice(GRID_T)
    return [
        (["exp", f"--a={a}", f"--b={b}", "--n", "0", f"--t={t}"], 3),  # irrational in exact mode
        (["flow", f"--a={a}", f"--b={b}", "--n", "0", "--dim", "3", "--x0=1,1,1", f"--t={t}"], 3),
        (["triangle", "pascal", "--rows", "0"], 2),
        (["apply", "--f=1", "--g=0,1", "--gamma=1"], 2),  # g(0) = 0: not Riordan
        (["exp", f"--a={a}", "--b=1/0", "--n", "1", "--t=1"], 2),
    ]


#: (kind, count, op factory) for one cli-small pass; error-path calls are 5 of 24.
SMALL_MIX = (
    ("triangle", 2, _triangle_op),
    ("exp", 4, _small_exp_op),
    ("apply", 4, _apply_op),
    ("flow-rk4", 5, _small_flow_op),
    ("exp-diagonal-float", 2, _diagonal_exp_op),
    ("check/time-reversal", 2, lambda rng: (
        ["check", "time-reversal", *_gen_args(rng.generator(ns=(1, 3))), "--dim", "6"],
        lambda doc: _check_passed(doc, "time-reversal"))),
)


def cli_small(seed: int) -> list[Op]:
    rng = Inputs(seed)
    ops = []
    for kind, count, build in SMALL_MIX:
        for _ in range(count):
            argv, check = build(rng)
            ops.append(Op(kind, argv, None, _ok_json(check)))
    for argv, code in _refusal_argv(rng):
        ops.append(Op("error-path", argv, None, lambda res, code=code: res[0] == code and _clean_error(*res[1:])))
    return ops


class ChildRunner:
    """Runs ``python -m riordan`` children and records each one's peak RSS."""

    def __init__(self, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        self.tracer_script = None  # set for the traced pass
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.peak_rss_kb = 0
        self.span_files: list[str] = []

    def run(self, argv: list[str]) -> tuple[int, str, str]:
        env = self.env
        command = [sys.executable, "-m", "riordan", *argv]
        if self.tracer_script is not None:
            command = [sys.executable, self.tracer_script, *argv]
            fd, spans = tempfile.mkstemp(suffix=".json", dir=self.scratch)
            os.close(fd)
            self.span_files.append(spans)
            env = dict(env, RIORDAN_BENCH_SPANS=spans)
        with tempfile.TemporaryFile(dir=self.scratch) as out, tempfile.TemporaryFile(dir=self.scratch) as err:
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode()

    def bind(self, ops: list[Op]) -> None:
        for op in ops:
            op.run = lambda argv=op.spec: self.run(argv)


WORKLOADS = {"series-group": series_group, "exp-check": exp_check, "cli-small": cli_small}
