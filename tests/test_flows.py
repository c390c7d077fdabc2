"""Finite approximating systems: flows, equilibria, symmetry structure."""

from fractions import Fraction
from random import Random

import pytest

from riordan.flows import (
    ApproachingProblem,
    UnsupportedGenerator,
    check_symmetry,
    check_time_reversal,
    equilibria_check,
    flow_trace,
    orbit_symmetric_under,
    project_flow,
    projected_involution,
    pseudo_involution_flow_check,
    rk4_integrate,
)
from riordan.fps import Fps
from riordan.group import RiordanMatrix, TriMatrix
from riordan.lie import ExactModeIrrational, LieElement, MonomialGenerator

from oracles import (
    dense,
    mat_identity,
    mat_mul,
    nilpotent_exp,
    rand_coeffs,
    rand_fraction,
    rk4_stages,
)

F = Fraction


def monomial_problem(a, b, n, dim):
    return ApproachingProblem(MonomialGenerator(F(a), F(b), n), dim - 1)


# -- exact flow evaluation ---------------------------------------------------


def test_creation_flow_from_e0_is_the_moment_curve():
    p = ApproachingProblem.creation(3)
    for t in (F(1), F(2), F(-1, 2)):
        assert project_flow(p, (1, 0, 0), t) == (1, t, t * t)


def test_flow_at_time_zero_is_the_initial_state():
    p = monomial_problem(2, -3, 2, 5)
    x0 = (F(1), F(-2), F(3), F(0), F(5))
    assert project_flow(p, x0, 0) == x0


def test_dim_two_flow_is_the_line():
    p = ApproachingProblem.creation(2)
    a, b, t = F(3), F(-1, 2), F(7)
    assert project_flow(p, (a, b), t) == (a, a * t + b)


def test_moment_curve_identity_up_to_dim_eleven():
    for n in range(1, 11):
        p = ApproachingProblem.creation(n + 1)
        x0 = (1,) + (0,) * n
        for t in (F(1), F(3), F(-2), F(5, 3)):
            assert project_flow(p, x0, t) == tuple(t**k for k in range(n + 1))


def test_hyperplane_confinement():
    rng = Random(41)
    for _ in range(20):
        n = rng.randint(1, 3)
        p = ApproachingProblem(
            MonomialGenerator(rand_fraction(rng), rand_fraction(rng), n),
            rng.randint(1, 6),
        )
        x0 = tuple(rand_fraction(rng) for _ in range(p.dim))
        t = rand_fraction(rng)
        assert project_flow(p, x0, t)[0] == x0[0]


def test_state_length_validated():
    with pytest.raises(ValueError):
        project_flow(ApproachingProblem.creation(3), (1, 0), 1)


def test_float_flow_raises_on_overflow():
    p = monomial_problem(1, 1, 0, 2)
    with pytest.raises(OverflowError):
        project_flow(p, (1.0, 1.0), 800.0)


def test_rk4_raises_on_overflow():
    p = monomial_problem(1, 1, 1, 4)
    # the zero state too: the step matrix holds inf, and inf * 0.0 = nan
    for x0 in ((1.0,) * 4, (0.0,) * 4):
        with pytest.raises(OverflowError):
            rk4_integrate(p, x0, 1e200, 1)


# -- RK4 oracle ---------------------------------------------------------------


def _rk4_case(rng, case):
    """A seeded problem, state, time and step count; every fifth generator is a
    LieElement with a nonzero diagonal."""
    dim = 1 + case % 12
    if case % 5 == 4:
        trunc = dim - 1
        gen = LieElement(
            Fps(rand_coeffs(rng, trunc, unit=True), trunc), Fps(rand_coeffs(rng, trunc), trunc)
        )
    else:
        gen = MonomialGenerator(rand_fraction(rng), rand_fraction(rng), rng.randint(0, 3))
    x0 = [rand_fraction(rng) for _ in range(dim)]
    t = (F(-1), F(-3, 2), F(0), F(1, 2), F(1), F(2))[case % 6]
    steps = (1, 2, 5, 40, 500)[case // 6 % 5]
    return ApproachingProblem(gen, dim - 1), x0, t, steps


def test_rk4_matches_its_stage_form():
    rng = Random(8)
    for case in range(240):
        p, x0, t, steps = _rk4_case(rng, case)
        got = rk4_integrate(p, x0, float(t), steps)
        want = rk4_stages(dense(p.matrix.as_float()), x0, t, steps)
        err = max(abs(g - w) for g, w in zip(got, want))
        assert err <= 1e-12 * max(map(abs, want)), (case, p.dim, t, steps)
        if t == 0:
            assert got == tuple(map(float, x0))


def test_rk4_approaches_the_exact_flow():
    p = ApproachingProblem.creation(3)
    got = rk4_integrate(p, (1, 0, 0), 1.0, 1000)
    assert max(abs(g - w) for g, w in zip(got, (1.0, 1.0, 1.0))) < 1e-9


def test_rk4_at_time_zero():
    p = ApproachingProblem.creation(4)
    assert rk4_integrate(p, (1.0, 2.0, 3.0, 4.0), 0.0, 7) == (1.0, 2.0, 3.0, 4.0)


def test_rk4_on_dim_two_quadrature():
    p = ApproachingProblem.creation(2)
    got = rk4_integrate(p, (1, 0), 2.0, 100)
    assert abs(got[0] - 1.0) < 1e-10 and abs(got[1] - 2.0) < 1e-10


def test_rk4_agrees_with_exact_flow_on_random_states():
    rng = Random(42)
    for dim in (2, 4, 6, 8):
        p = ApproachingProblem.creation(dim)
        x0 = tuple(F(rng.randint(-100, 100), 100) for _ in range(dim))
        for t in (F(-2), F(-1, 2), F(1), F(2)):
            exact = project_flow(p, x0, t)
            approx = rk4_integrate(p, x0, float(t), 2000)
            err = max(abs(float(e) - a) for e, a in zip(exact, approx))
            assert err <= 1e-9


# -- equilibria ------------------------------------------------------------------


def test_last_axis_is_all_equilibria():
    p = ApproachingProblem.creation(4)
    assert equilibria_check(p, (0, 0, 0, F(7, 3)))
    assert equilibria_check(p, (0, 0, 0, 0))


def test_e0_is_not_an_equilibrium():
    assert not equilibria_check(ApproachingProblem.creation(4), (1, 0, 0, 0))


def test_zero_generator_has_only_equilibria():
    p = ApproachingProblem(MonomialGenerator(F(0), F(0), 1), 2)
    assert equilibria_check(p, (F(1), F(-2), F(5)))


def test_equilibria_are_unstable_liapunov_witness():
    # perturbing an equilibrium along e_(n-1) leaves the ball of radius 2
    # around it by t = 4/delta
    for dim in (2, 3, 5):
        p = ApproachingProblem.creation(dim)
        equilibrium = (F(0),) * (dim - 1) + (F(5),)
        assert equilibria_check(p, equilibrium)
        for delta in (F(1, 10), F(1, 100)):
            x0 = list(equilibrium)
            x0[dim - 2] += delta
            moved = project_flow(p, tuple(x0), 4 / delta)
            dist = max(abs(m - e) for m, e in zip(moved, equilibrium))
            assert dist > 2


# -- symmetries and time reversal --------------------------------------------------


def test_m_is_a_symmetry_for_even_subdiagonals():
    p = monomial_problem(1, 1, 2, 4)
    assert check_symmetry(projected_involution(1, 3), p)


def test_minus_identity_is_a_symmetry_of_the_creation_problem():
    p = ApproachingProblem.creation(4)
    minus_i = TriMatrix.diagonal([F(-1)] * 4)
    assert check_symmetry(minus_i, p)


def test_m_is_not_a_symmetry_for_odd_subdiagonals():
    p = ApproachingProblem.creation(4)
    assert not check_symmetry(projected_involution(1, 3), p)


def test_m_is_a_time_reversal_for_the_creation_problem():
    p = ApproachingProblem.creation(2)
    assert check_time_reversal(projected_involution(1, 1), p)
    assert check_time_reversal(projected_involution(-1, 1), p)


def test_identity_is_not_a_time_reversal():
    p = ApproachingProblem.creation(3)
    assert not check_time_reversal(TriMatrix.identity(3), p)


def test_symmetry_vs_time_reversal_by_parity():
    for n in (1, 2, 3, 4):
        for a, b in ((F(1), F(1)), (F(-2), F(3))):
            p = ApproachingProblem(MonomialGenerator(a, b, n), 9)
            for sign in (1, -1):
                s = projected_involution(sign, 9)
                if n % 2 == 0:
                    assert check_symmetry(s, p)
                    assert not check_time_reversal(s, p)
                else:
                    assert check_time_reversal(s, p)
                    assert not check_symmetry(s, p)


def test_time_reversal_transforms_solutions():
    # S x(-t) solves the problem started from S x0, for odd-n generators
    rng = Random(43)
    for n in (1, 3):
        p = ApproachingProblem(MonomialGenerator(F(2), F(-1), n), 7)
        x0 = tuple(rand_fraction(rng) for _ in range(8))
        for sign in (1, -1):
            s = projected_involution(sign, 7)
            for t in (F(1, 2), F(2), F(-1)):
                lhs = s.matvec(project_flow(p, x0, -t))
                rhs = project_flow(p, s.matvec(x0), t)
                assert lhs == rhs


def test_pseudo_involution_at_flow_level_for_odd_n():
    for n in (1, 3):
        for t in (F(1), F(-1, 2)):
            assert pseudo_involution_flow_check(
                MonomialGenerator(F(2), F(3), n), t, depth=8
            )
    assert not pseudo_involution_flow_check(MonomialGenerator(F(1), F(1), 2), F(1), depth=8)


def test_pseudo_involution_flow_check_matches_squared_section_oracle():
    # (e M)^2 = I on dense sections, e from the nilpotent Taylor sum, M = diag(1, -1, 1, ...)
    rng = Random(47)
    seen = set()
    for n in (1, 2, 3, 4):
        for depth in (n, 6):
            genr = MonomialGenerator(rand_fraction(rng, zero_ok=False), rand_fraction(rng), n)
            t = rand_fraction(rng, zero_ok=False)
            e = nilpotent_exp(dense(genr.lie_element(depth).to_matrix(depth)), t)
            em = [[x * (-1) ** j for j, x in enumerate(row)] for row in e]  # e M, column signs
            want = mat_mul(em, em) == mat_identity(depth + 1)
            assert pseudo_involution_flow_check(genr, t, depth) == want
            seen.add((n % 2, want))
    assert seen == {(1, True), (0, False)}


# -- orbit geometry -----------------------------------------------------------------


def test_line_orbits_are_m_symmetric():
    p = ApproachingProblem.creation(2)
    m = projected_involution(1, 1)
    for a, b in ((F(1), F(0)), (F(-2), F(7)), (F(1, 3), F(-1))):
        assert orbit_symmetric_under(m, p, (a, b))


def test_line_orbits_are_not_minus_m_symmetric():
    p = ApproachingProblem.creation(2)
    minus_m = projected_involution(-1, 1)
    for a, b in ((F(1), F(0)), (F(-2), F(7))):
        assert not orbit_symmetric_under(minus_m, p, (a, b))


def test_fixed_equilibrium_orbits_are_symmetric():
    p = ApproachingProblem.creation(2)
    m = projected_involution(1, 1)
    assert orbit_symmetric_under(m, p, (F(0), F(0)))
    # M fixes (0, b) only at b = 0; elsewhere the singleton moves
    assert not orbit_symmetric_under(m, p, (F(0), F(3)))
    minus_m = projected_involution(-1, 1)
    assert orbit_symmetric_under(minus_m, p, (F(0), F(3)))


def test_parabola_orbits():
    p = ApproachingProblem.creation(3)
    m = projected_involution(1, 2)
    minus_m = projected_involution(-1, 2)
    for a, b, c in ((F(1), F(2), F(3)), (F(-1), F(0), F(5))):
        assert orbit_symmetric_under(m, p, (a, b, c))
        assert not orbit_symmetric_under(minus_m, p, (a, b, c))


def test_orbit_invariants_are_exact_on_an_int_state():
    # c - b^2/a must not become a float when the state is given as ints
    p, m = ApproachingProblem.creation(3), projected_involution(1, 2)
    assert orbit_symmetric_under(m, p, (3, 1, 1))
    assert orbit_symmetric_under(m, p, (F(3), F(1), F(1)))
    with pytest.raises(TypeError):
        orbit_symmetric_under(m, p, (3.0, 1.0, 1.0))


def test_orbit_is_not_symmetric_when_only_x0_lands_on_it():
    # S x0 = (3, -19, -12) is on the parabola through x0, no other image is
    s = TriMatrix([[F(1)], [F(0), F(19, 20)], [F(0), F(0), F(-12)]])
    assert not orbit_symmetric_under(s, ApproachingProblem.creation(3), (F(3), F(-20), F(1)))


def test_singular_s_collapsing_the_orbit_is_not_a_symmetry():
    # S sends the whole line x0 = 1 to the point (1, 0)
    s = TriMatrix([[F(1)], [F(0), F(0)]])
    assert not orbit_symmetric_under(s, ApproachingProblem.creation(2), (F(1), F(0)))


def test_singular_s_fixing_a_line_orbit_is_a_symmetry():
    # diag(0, 1, 1) fixes the orbit {(0, 1, z)} pointwise: its zero entry
    # scales only the first coordinate, which is 0 on the whole orbit
    s = TriMatrix.diagonal([F(0), F(1), F(1)])
    assert orbit_symmetric_under(s, ApproachingProblem.creation(3), (F(0), F(1), F(0)))


def test_orbit_analysis_limited_to_the_creation_family():
    p = monomial_problem(2, 1, 1, 2)
    with pytest.raises(UnsupportedGenerator):
        orbit_symmetric_under(projected_involution(1, 1), p, (F(1), F(0)))
    big = ApproachingProblem.creation(5)
    with pytest.raises(UnsupportedGenerator):
        orbit_symmetric_under(projected_involution(1, 4), big, (F(1),) * 5)


# -- structure of the projections ------------------------------------------------------


def test_projection_compatibility():
    rng = Random(44)
    for _ in range(10):
        r = RiordanMatrix(
            Fps(rand_coeffs(rng, 14, unit=True), 14),
            Fps(rand_coeffs(rng, 14, unit=True), 14),
        )
        for n in (3, 6):
            assert r.to_matrix(n + 1).principal(n + 1) == r.to_matrix(n)


def test_flow_escapes_to_infinity_on_the_sampled_grid():
    # the grid {4, 8, 16} only sees the eventual growth if the escape time
    # is below 4; a leading component >= 1/2 with small tail guarantees that
    rng = Random(45)
    for dim in (2, 3, 5):
        p = ApproachingProblem.creation(dim)
        for _ in range(5):
            lead = F(rng.choice([-1, 1]) * rng.randint(50, 100), 100)
            x0 = (lead,) + tuple(F(rng.randint(-25, 25), 100) for _ in range(dim - 1))
            if equilibria_check(p, x0):
                continue
            for direction in (1, -1):
                norms = [
                    max(abs(v) for v in project_flow(p, x0, direction * t))
                    for t in (4, 8, 16)
                ]
                assert norms[0] < norms[1] < norms[2]


# -- traces ------------------------------------------------------------------------------


def test_flow_trace_rows_and_error_summary():
    p = ApproachingProblem.creation(3)
    out = flow_trace(p, (1, 0, 0), [F(0), F(1), F(2)], rk4_steps=400)
    assert out["header"] == ["t", "x0", "x1", "x2"]
    assert [row["x"] for row in out["rows"]] == [
        (1, 0, 0),
        (1, 1, 1),
        (1, 2, 4),
    ]
    assert out["max_error"] < 1e-9


def test_problem_from_lie_element_with_nonzero_diagonal_uses_floats():
    p = ApproachingProblem(LieElement(Fps.one(4), Fps.one(4)), 2)
    moved = project_flow(p, (1.0, 1.0, 1.0), 0.0)
    assert all(abs(m - 1.0) < 1e-12 for m in moved)
    with pytest.raises(ExactModeIrrational, match="float mode"):
        project_flow(p, (1, 1, 1), 1)


def test_exact_flow_on_a_nonzero_diagonal():
    p = ApproachingProblem(MonomialGenerator(F(1), F(1), 0), 2)
    with pytest.raises(ExactModeIrrational, match="float mode"):
        project_flow(p, (F(1), F(0), F(0)), 1)
    for t in (0, F(0)):  # t = 0 is the exact identity
        got = project_flow(p, (F(1), F(2), F(3)), t)
        assert got == (F(1), F(2), F(3)) and all(type(v) is Fraction for v in got)


def test_rational_t_takes_a_rational_state():
    p = ApproachingProblem.creation(2)
    with pytest.raises(TypeError, match="float"):
        flow_trace(p, (1.0, 0.0), [F(1)])
    with pytest.raises(TypeError, match="float"):
        project_flow(p, (F(1), 0.5), 2)
    got = project_flow(p, (1, 0), 2)  # an int state is rational
    assert got == (1, 2) and all(type(v) is Fraction for v in got)
    # a float t keeps the float regime, whatever the state's type
    assert project_flow(p, (F(1), 0), 2.0) == (1.0, 2.0)
