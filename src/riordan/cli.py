"""Command-line front end.

Subcommands: triangle, exp, apply, flow, check.  Output is JSON by
default (CSV via --format csv); identical invocations produce identical
bytes.  Each subcommand takes only the shared flags it reads.  Exit
codes: 0 success or check passed, 1 check failed, 2 usage or parse error
or float overflow, 3 exact-mode violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from random import Random

from .fps import Fps, SeriesError
from .group import (
    NotRiordan,
    RiordanMatrix,
    TriMatrix,
    involution_m,
)
from .lie import (
    ExactModeIrrational,
    MonomialGenerator,
    exp_monomial,
    exp_truncated_oracle,
)
from .flows import ApproachingProblem, project_flow, rk4_integrate

NAMED_TRIANGLES = ("pascal", "identity", "m", "minus-m")
CHECKS = ("pseudo-involution", "symmetry", "time-reversal", "oracle-exp", "ftrm", "a-sequence")


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part.strip() != ""]


def emit(args, payload: dict, csv_text: str | None = None) -> None:
    """Write the payload as JSON, or csv_text under --format csv.

    The JSON is built in either format, so that an overflowed float
    (inf or NaN) is refused rather than printed.
    """
    try:
        indent = 2 if args.pretty else None
        text = json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:
        raise OverflowError("result is inf or NaN") from None
    sys.stdout.write(csv_text if args.format == "csv" else text + "\n")


#: The flags several subcommands share; each subcommand takes those it reads.
_SHARED_FLAGS = {
    "--format": dict(choices=("json", "csv"), default="json"),
    "--trunc": dict(type=int, default=None, help="truncation order"),
    "--mode": dict(choices=("exact", "float"), default="exact"),
    "--seed": dict(type=int, default=0, help="seed for randomized checks"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Riordan triangles, Lie-algebra exponentials, and flow checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.add_argument("--pretty", action="store_true", help="indent output for humans")
        return p

    p = add_command("triangle", "print a triangle section", "--format")
    p.add_argument("name", nargs="?", default=None, help="|".join(NAMED_TRIANGLES))
    p.add_argument("--f", default=None, help="comma-separated coefficients of f")
    p.add_argument("--g", default=None, help="comma-separated coefficients of g")
    p.add_argument("--rows", type=int, default=8)

    p = add_command("exp", "one-parameter subgroup member", "--trunc", "--mode", "--format")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", required=True)

    p = add_command("apply", "act on a series", "--trunc", "--format")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--gamma", required=True, help="series to act on")

    p = add_command("flow", "sample a finite flow", "--mode", "--format")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t", required=True, help="comma-separated sample times")
    p.add_argument("--rk4", type=int, default=None, metavar="STEPS")

    p = add_command("check", "run a named invariant suite", "--trunc", "--seed")
    p.set_defaults(format="json")
    p.add_argument("what", choices=CHECKS)
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", default="1")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--count", type=int, default=20)

    return parser


#: The parser of this process, built on first use; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


# -- triangle ----------------------------------------------------------------


def _pretty_matrix(mat: TriMatrix) -> str:
    cells = [[str(x) for x in row] for row in mat.rows]
    width = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells) + "\n"


def cmd_triangle(args) -> int:
    if args.rows < 1:
        raise ValueError(f"--rows must be >= 1, got {args.rows}")
    n = args.rows - 1
    if args.name is None:
        if args.f is None or args.g is None:
            raise ValueError("give a triangle name or both --f and --g")
        r = RiordanMatrix(Fps(parse_rational_list(args.f), n), Fps(parse_rational_list(args.g), n))
    elif args.name == "pascal":
        r = RiordanMatrix.pascal(n)
    elif args.name == "identity":
        r = RiordanMatrix.identity(n)
    elif args.name == "m":
        r = involution_m(1, n)
    elif args.name == "minus-m":
        r = involution_m(-1, n)
    else:
        raise ValueError(f"unknown triangle {args.name!r}; expected one of {NAMED_TRIANGLES}")
    mat = r.to_matrix(n)
    if args.pretty:
        sys.stdout.write(_pretty_matrix(mat))
        return 0
    emit(args, mat.to_json_dict(), mat.to_csv())
    return 0


# -- exp -----------------------------------------------------------------------


def cmd_exp(args) -> int:
    genr = MonomialGenerator(parse_rational(args.a), parse_rational(args.b), args.n)
    t = parse_rational(args.t)
    trunc = args.trunc if args.trunc is not None else 8
    if trunc < 0:
        raise ValueError(f"--trunc must be >= 0, got {trunc}")
    if args.mode == "float" and genr.n != 0:
        raise ValueError(f"--mode float needs --n 0 (a diagonal section), got --n {genr.n}")
    payload: dict = {"generator": genr.to_json_dict(), "t": str(t), "trunc": trunc}
    if args.mode == "float":
        # The section is diagonal with entries e^(t(a + jb)); math.exp raises
        # OverflowError where an entry is out of float range.
        f0 = math.exp(float((genr.a - genr.b) * t))
        g0 = math.exp(float(-genr.b * t))
        diagonal = [math.exp(float(t * (genr.a + j * genr.b))) for j in range(trunc + 1)]
        mat = TriMatrix.diagonal(diagonal)
        payload.update(
            {"f": [f0], "g": [g0], "matrix": mat.to_json_dict(), "oracle_check": "skipped"}
        )
        emit(args, payload, _exp_csv([str(f0)], [str(g0)], mat))
        return 0
    r = exp_monomial(genr, t, trunc)
    mat = r.to_matrix(trunc)
    ok = _oracle_diff(genr, t, mat) is None
    payload.update(
        {
            "f": r.f.to_dict(),
            "g": r.g.to_dict(),
            "matrix": mat.to_json_dict(),
            "oracle_check": "pass" if ok else "fail",
        }
    )
    emit(args, payload, _exp_csv(r.f.to_strings(), r.g.to_strings(), mat))
    return 0 if ok else 1


def _exp_csv(f_strings, g_strings, mat: TriMatrix) -> str:
    return (
        "f," + ",".join(f_strings) + "\n"
        "g," + ",".join(g_strings) + "\n" + mat.to_csv()
    )


# -- apply ------------------------------------------------------------------------


def cmd_apply(args) -> int:
    fc = parse_rational_list(args.f)
    gc = parse_rational_list(args.g)
    hc = parse_rational_list(args.gamma)
    trunc = args.trunc if args.trunc is not None else max(len(fc), len(gc), len(hc), 9) - 1
    r = RiordanMatrix(Fps(fc, trunc), Fps(gc, trunc))
    image = r.apply(Fps(hc, trunc))
    emit(args, image.to_dict(), ",".join(image.to_strings()) + "\n")
    return 0


# -- flow --------------------------------------------------------------------------


def cmd_flow(args) -> int:
    genr = MonomialGenerator(parse_rational(args.a), parse_rational(args.b), args.n)
    if args.dim < 1:
        raise ValueError(f"--dim must be >= 1, got {args.dim}")
    problem = ApproachingProblem(genr, args.dim - 1)
    x0 = parse_rational_list(args.x0)
    if len(x0) != args.dim:
        raise ValueError(f"--x0 needs {args.dim} components, got {len(x0)}")
    times = parse_rational_list(args.t)
    if not times:
        raise ValueError("--t needs at least one sample time")
    if args.mode == "float":
        x0, times = [float(v) for v in x0], [float(t) for t in times]

    shown = str if args.mode == "exact" else float  # rationals print as "p/q" strings
    header = ["t"] + [f"x{i}" for i in range(args.dim)]
    rk4_header = [] if args.rk4 is None else [f"rk4_x{i}" for i in range(args.dim)]
    rows, csv_lines, max_err = [], [",".join(header + rk4_header)], 0.0
    for t in times:
        state = project_flow(problem, x0, t)
        row = {"t": shown(t), "x": [shown(v) for v in state]}
        if args.rk4 is not None:
            row["rk4"] = approx = rk4_integrate(problem, x0, float(t), args.rk4)
            max_err = max(max_err, max(abs(float(e) - r) for e, r in zip(state, approx)))
        rows.append(row)
        csv_lines.append(",".join(map(str, [row["t"], *row["x"], *row.get("rk4", ())])))
    payload = {"header": header, "rows": rows}
    if args.rk4 is not None:
        payload |= {"rk4_steps": args.rk4, "max_error": max_err}
        csv_lines.append(f"# max_error,{max_err}")
    emit(args, payload, "\n".join(csv_lines) + "\n")
    return 0


# -- check -------------------------------------------------------------------------


def _first_matrix_diff(a: TriMatrix, b: TriMatrix):
    for i in range(a.dim):
        for j in range(i + 1):
            if a.entry(i, j) != b.entry(i, j):
                return {"i": i, "j": j, "lhs": str(a.entry(i, j)), "rhs": str(b.entry(i, j))}
    return None


def _oracle_diff(genr: MonomialGenerator, t, closed: TriMatrix):
    """First cell where a closed-form section differs from exp_truncated_oracle."""
    n = closed.dim - 1
    return _first_matrix_diff(closed, exp_truncated_oracle(genr.lie_element(n), t, n))


def _a_sequence_diff(r: RiordanMatrix, depth: int):
    """First cell (i, j), 1 <= j <= i <= depth, where d(i,j) = sum_k A_k d(i-1, j-1+k) fails.

    The recurrence is the production-matrix identity: d without its first
    row and column equals d.principal(depth) times the Toeplitz section of A.
    """
    a = r.a_sequence()
    d = r.to_matrix(depth)
    toeplitz = TriMatrix([[a[i - j] for j in range(i + 1)] for i in range(depth)])
    shifted = TriMatrix([row[1:] for row in d.rows[1:]])
    diff = _first_matrix_diff(shifted, d.principal(depth).mul(toeplitz))
    if diff:  # back to the indices of d
        diff["i"], diff["j"] = diff["i"] + 1, diff["j"] + 1
    return diff


def _rand_series(rng: Random, trunc: int, *, unit: bool) -> Fps:
    cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(trunc + 1)]
    while unit and cs[0] == 0:
        cs[0] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Fps(cs, trunc)


def cmd_check(args) -> int:
    genr = MonomialGenerator(parse_rational(args.a), parse_rational(args.b), args.n)
    t = parse_rational(args.t)
    depth = args.depth if args.depth is not None else max(args.dim - 1, 1)
    if args.trunc is not None and args.what != "oracle-exp":
        raise ValueError("--trunc is read only by check oracle-exp")
    # Sizes at which a suite would examine no case and pass vacuously.
    if args.what in ("pseudo-involution", "a-sequence") and depth < 1:
        raise ValueError(f"--depth must be >= 1, got {depth}")
    if args.what in ("ftrm", "a-sequence") and args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.what == "ftrm" and args.dim < 1:
        raise ValueError(f"--dim must be >= 1, got {args.dim}")
    # The generator lives on subdiagonal n, so a section of index < n is all zero.
    if args.what in ("symmetry", "time-reversal") and args.dim <= genr.n:
        raise ValueError(f"--dim must be > --n ({genr.n}), got {args.dim}")
    if args.what == "pseudo-involution" and depth < genr.n:
        raise ValueError(f"--depth must be >= --n ({genr.n}), got {depth}")
    counterexample = None
    params: dict = {"seed": args.seed}

    if args.what == "pseudo-involution":
        params.update(genr.to_json_dict() | {"t": str(t), "depth": depth})
        em = exp_monomial(genr, t, depth) * involution_m(1, depth)
        square = (em * em).to_matrix(depth)
        counterexample = _first_matrix_diff(square, TriMatrix.identity(depth + 1))

    elif args.what in ("symmetry", "time-reversal"):
        # S A S^-1 = A (symmetry) or -A (time reversal), read as S A = +-A S;
        # S = -M poses the same equation as S = M.  M = diag((-1)^i) scales the
        # cell (n + j, j) = a + j b of A by (-1)^(n+j) on the left and by
        # (-1)^j on the right, so only the parity of n and a + j b can break it.
        params.update(genr.to_json_dict() | {"dim": args.dim})
        sign = 1 if args.what == "symmetry" else -1
        j = next((j for j in range(args.dim - genr.n) if genr.a + j * genr.b), None)
        if (-1) ** genr.n != sign and j is not None:
            lhs = (-1) ** (genr.n + j) * (genr.a + j * genr.b)
            cell = {"i": genr.n + j, "j": j, "lhs": str(lhs), "rhs": str(-lhs)}
            counterexample = {"involution": "M"} | cell

    elif args.what == "oracle-exp":
        trunc = args.trunc if args.trunc is not None else 12
        if trunc < 1:
            raise ValueError(f"--trunc must be >= 1, got {trunc}")
        if trunc < genr.n:
            raise ValueError(f"--trunc must be >= --n ({genr.n}), got {trunc}")
        params.update(genr.to_json_dict() | {"t": str(t), "trunc": trunc})
        counterexample = _oracle_diff(genr, t, exp_monomial(genr, t, trunc).to_matrix(trunc))

    elif args.what == "ftrm":
        params.update({"dim": args.dim, "count": args.count})
        rng = Random(args.seed)
        n_sec, trunc = args.dim - 1, 2 * args.dim
        for case in range(args.count):
            f, g = _rand_series(rng, trunc, unit=True), _rand_series(rng, trunc, unit=True)
            r = RiordanMatrix(f, g)
            gamma = _rand_series(rng, trunc, unit=False)
            got = r.apply(gamma).prefix(n_sec)
            want = r.to_matrix(n_sec).matvec(list(gamma.prefix(n_sec)))
            if tuple(got) != tuple(want):
                counterexample = {
                    "case": case,
                    "lhs": [str(v) for v in got],
                    "rhs": [str(v) for v in want],
                }
                break

    elif args.what == "a-sequence":
        params.update({"depth": depth, "count": args.count})
        rng = Random(args.seed)
        trunc = 2 * depth + 2
        for case in range(args.count):
            f, g = _rand_series(rng, trunc, unit=True), _rand_series(rng, trunc, unit=True)
            r = RiordanMatrix(f, g)
            diff = _a_sequence_diff(r, depth)
            if diff:
                counterexample = {"case": case} | diff
                break

    payload = {
        "check": args.what,
        "params": params,
        "passed": counterexample is None,
        "counterexample": counterexample,
    }
    emit(args, payload)
    return 0 if counterexample is None else 1


COMMANDS = {
    "triangle": cmd_triangle,
    "exp": cmd_exp,
    "apply": cmd_apply,
    "flow": cmd_flow,
    "check": cmd_check,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.pretty and args.format == "csv":
            raise ValueError("--pretty indents JSON output; drop it or use --format json")
        return COMMANDS[args.command](args)
    except ExactModeIrrational as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotRiordan, SeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
