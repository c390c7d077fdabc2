"""Acceptance suite: one test per criterion, each printing a verdict line.

Every identity is exact (zero tolerance) unless the criterion itself pins a
float tolerance.  Run with ``pytest tests/test_acceptance.py -v`` for the
per-criterion lines.
"""

import io
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

from riordan.cli import main as cli_main
from riordan.flows import (
    ApproachingProblem,
    check_symmetry,
    check_time_reversal,
    project_flow,
    rk4_integrate,
)
from riordan.fps import Fps
from riordan.group import RiordanMatrix, TriMatrix, involution_m, is_pseudo_involution
from riordan.lie import (
    LieElement,
    MonomialGenerator,
    characteristic_solution,
    conj_transport,
    exp_monomial,
    exp_truncated_oracle,
)

from oracles import dense, mat_mul, mat_vec, rand_coeffs, rand_fraction, recurrence_holds

F = Fraction

GRID_AB = [F(-2), F(-1), F(1), F(2), F(3)]
GRID_N = [1, 2, 3]
GRID_T = [F(-1), F(1, 2), F(1), F(2)]


def verdict(number: int, passed: bool, description: str) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_pascal_identity():
    start = time.perf_counter()
    section = exp_monomial(MonomialGenerator(F(1), F(1), 1), 1, 32).to_matrix(32)
    ok = all(
        section.entry(i, j) == math.comb(i, j)
        for i in range(33)
        for j in range(i + 1)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(1, ok, f"exp of the creation element at t=1 is the binomial triangle ({elapsed:.2f}s)")


def test_criterion_2_theorem_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    cells = 0
    for n in GRID_N:
        for a in GRID_AB:
            for b in GRID_AB + [F(0)]:
                lie = MonomialGenerator(a, b, n).lie_element(12)
                for t in GRID_T:
                    closed = exp_monomial(MonomialGenerator(a, b, n), t, 12).to_matrix(12)
                    oracle = exp_truncated_oracle(lie, t, 12)
                    cells += 1
                    if closed != oracle:
                        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 20.0
    verdict(2, ok, f"closed form equals nilpotent exponential on {cells} grid cells ({elapsed:.1f}s)")


def test_criterion_3_one_parameter_group_law():
    rng = Random(103)
    ok = True
    for _ in range(50):
        genr = MonomialGenerator(rand_fraction(rng), rand_fraction(rng), rng.randint(1, 3))
        s = rand_fraction(rng)
        t = rand_fraction(rng)
        prod = exp_monomial(genr, s, 16) * exp_monomial(genr, t, 16)
        direct = exp_monomial(genr, s + t, 16)
        if prod.f != direct.f or prod.g != direct.g:
            ok = False
    verdict(3, ok, "exp(sL) exp(tL) = exp((s+t)L) exactly at trunc 16, 50 seeded cases")


def test_criterion_4_riordan_group_axioms():
    rng = Random(104)
    ok = True
    for _ in range(100):
        r1 = RiordanMatrix(
            Fps(rand_coeffs(rng, 20, unit=True), 20), Fps(rand_coeffs(rng, 20, unit=True), 20)
        )
        r2 = RiordanMatrix(
            Fps(rand_coeffs(rng, 20, unit=True), 20), Fps(rand_coeffs(rng, 20, unit=True), 20)
        )
        if dense((r1 * r2).to_matrix(8)) != mat_mul(dense(r1.to_matrix(8)), dense(r2.to_matrix(8))):
            ok = False
        if (r1 * r1.inverse()).to_matrix(8) != TriMatrix.identity(9):
            ok = False
        gamma = Fps(rand_coeffs(rng, 20), 20)
        if list(r1.apply(gamma).prefix(8)) != mat_vec(dense(r1.to_matrix(8)), list(gamma.prefix(8))):
            ok = False
        held, _ = recurrence_holds(dense(r1.to_matrix(10)), list(r1.a_sequence().prefix(10)), 10)
        if not held:
            ok = False
    verdict(4, ok, "product/inverse/action sections and A-sequence recurrence, 100 seeded pairs")


def test_criterion_5_conjugation_transport():
    rng = Random(105)
    ok = True
    for _ in range(50):
        r = RiordanMatrix(
            Fps(rand_coeffs(rng, 14, unit=True), 14), Fps(rand_coeffs(rng, 14, unit=True), 14)
        )
        elt = LieElement(Fps(rand_coeffs(rng, 14), 14), Fps(rand_coeffs(rng, 14), 14))
        moved = conj_transport(r, elt)
        p = dense(r.to_matrix(10))
        if mat_mul(p, dense(elt.to_matrix(10))) != mat_mul(dense(moved.to_matrix(10)), p):
            ok = False
    m = involution_m(1, 12)
    for n in GRID_N:
        for a in GRID_AB:
            for b in GRID_AB:
                elt = MonomialGenerator(a, b, n).lie_element(12)
                moved = conj_transport(m, elt)
                want = elt.scale(F((-1) ** n))
                if moved != LieElement(want.chi, want.alpha):
                    ok = False
    verdict(5, ok, "transport intertwines sections; M-conjugation scales by (-1)^n on the grid")


def test_criterion_6_symmetry_and_time_reversal():
    ok = True
    for dim in range(2, 11):
        for n in (1, 2, 3, 4):
            if n > dim - 1:
                continue
            problem = ApproachingProblem(MonomialGenerator(F(2), F(-3), n), dim - 1)
            for sign in (1, -1):
                s = involution_m(sign, dim - 1).to_matrix(dim - 1)
                if n % 2 == 0:
                    if not check_symmetry(s, problem) or check_time_reversal(s, problem):
                        ok = False
                else:
                    if not check_time_reversal(s, problem) or check_symmetry(s, problem):
                        ok = False
    for n in (1, 3):
        for a in GRID_AB:
            for b in GRID_AB:
                for t in GRID_T:
                    if not is_pseudo_involution(
                        exp_monomial(MonomialGenerator(a, b, n), t, 10), 10
                    ):
                        ok = False
    verdict(6, ok, "M and -M: symmetry for even n, time reversal and pseudo-involutions for odd n")


def test_criterion_7_flows():
    ok = True
    for n in range(1, 11):
        p = ApproachingProblem.creation(n + 1)
        x0 = (F(1),) + (F(0),) * n
        for t in (F(2), F(-1), F(3, 2)):
            if project_flow(p, x0, t) != tuple(t**k for k in range(n + 1)):
                ok = False
    rng = Random(107)
    for dim in (2, 4, 6, 8):
        p = ApproachingProblem.creation(dim)
        x0 = tuple(F(rng.randint(-100, 100), 100) for _ in range(dim))
        for t in (F(-2), F(-1, 2), F(1), F(2)):
            exact = project_flow(p, x0, t)
            approx = rk4_integrate(p, x0, float(t), 2000)
            if max(abs(float(e) - v) for e, v in zip(exact, approx)) > 1e-9:
                ok = False
    for _ in range(20):
        n = rng.randint(1, 3)
        p = ApproachingProblem(MonomialGenerator(rand_fraction(rng), rand_fraction(rng), n), 6)
        x0 = tuple(rand_fraction(rng) for _ in range(7))
        if project_flow(p, x0, rand_fraction(rng))[0] != x0[0]:
            ok = False
    verdict(7, ok, "moment curve exact to n=10, RK4 within 1e-9, hyperplane confinement exact")


def test_criterion_8_pde_residual():
    delta = F(1, 100000)
    h = Fps([1, 1, 1], 16)
    ok = True
    for n in GRID_N:
        for a in GRID_AB:
            for b in GRID_AB + [F(0)]:
                genr = MonomialGenerator(a, b, n)
                lie = genr.lie_element(16)
                for t in GRID_T:
                    u = characteristic_solution(genr, h, t)
                    rhs = lie.act(u).to_floats()
                    plus = characteristic_solution(genr, h, t + delta).to_floats()
                    minus = characteristic_solution(genr, h, t - delta).to_floats()
                    for k in range(12):
                        lhs = (plus[k] - minus[k]) / (2.0 * float(delta))
                        if not math.isclose(lhs, rhs[k], rel_tol=1e-6, abs_tol=1e-6):
                            ok = False
    verdict(8, ok, "central-difference time derivative matches chi*u + x*alpha*u_x to 1e-6")


def test_criterion_9_cli_golden_files():
    golden = Path(__file__).parent / "golden"
    cases = [
        (["triangle", "pascal", "--rows", "8"], "triangle_pascal_rows8.json"),
        (
            ["exp", "--a", "1", "--b", "1", "--n", "1", "--t", "1", "--trunc", "8"],
            "exp_creation_t1_trunc8.json",
        ),
        (
            ["check", "time-reversal", "--a", "1", "--b", "1", "--n", "1", "--dim", "6"],
            "check_time_reversal_n1_dim6.json",
        ),
    ]
    ok = True
    for argv, name in cases:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        if code != 0 or buf.getvalue().encode() != (golden / name).read_bytes():
            ok = False
    verdict(9, ok, "three committed CLI outputs reproduced byte for byte")
