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
    orbit_symmetric_under,
    project_flow,
    rk4_integrate,
)
from riordan.fps import Fps, InsufficientTruncation, InvalidTruncation
from riordan.group import RiordanMatrix, TriMatrix, involution_m, is_pseudo_involution
from riordan.lie import (
    ExactModeIrrational,
    LieElement,
    MonomialGenerator,
    exp_monomial,
    exp_truncated_oracle,
)

from oracles import (
    dense,
    mat_identity,
    mat_mul,
    mat_vec,
    nilpotent_exp,
    orbit_signature,
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


def test_exact_monomial_flow_matches_the_section_exponential():
    rng = Random(46)
    for case in range(150):
        n, dim = case % 5, rng.randint(1, 10)  # n >= dim on some draws
        a, b = rand_fraction(rng), rand_fraction(rng)
        if case % 3 == 0:
            b = F(0)
        if n == 0 and case % 2 == 0:
            a = b = F(0)
        genr = MonomialGenerator(a, b, n)
        p = ApproachingProblem(genr, dim - 1)
        elt = genr.lie_element(dim - 1)
        x0 = tuple(rand_fraction(rng) for _ in range(dim))
        t = (F(0), F(1, 2), F(-2, 3), F(2), F(5))[case // 5 % 5]
        if n == 0 and t != 0 and (a, b) != (0, 0):
            with pytest.raises(ExactModeIrrational):
                project_flow(p, x0, t)
            with pytest.raises(ExactModeIrrational):
                exp_truncated_oracle(elt, t, dim - 1)
            continue
        got = project_flow(p, x0, t)
        assert got == exp_truncated_oracle(elt, t, dim - 1).matvec(x0), (case, genr, t)
        # at n = 0 the section is zero (a = b = 0), or t = 0
        want = mat_vec(nilpotent_exp(dense(elt.to_matrix(dim - 1)), t), x0)
        assert list(got) == want, (case, genr, t)


def test_exact_monomial_flow_reads_no_section_exponential(monkeypatch):
    calls = {"oracle": 0, "mul": 0, "section": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        "riordan.flows.exp_truncated_oracle", counted("oracle", exp_truncated_oracle)
    )
    monkeypatch.setattr(TriMatrix, "mul", counted("mul", TriMatrix.mul))
    monkeypatch.setattr(LieElement, "to_matrix", counted("section", LieElement.to_matrix))
    p = monomial_problem(F(3, 2), F(-1, 2), 1, 12)
    x0 = tuple(F(k, 3) for k in range(12))
    for t in (F(0), F(-2, 3), F(5)):
        project_flow(p, x0, t)
    # neither the problem nor its exact flows build the section
    assert calls == {"oracle": 0, "mul": 0, "section": 0}
    project_flow(p, tuple(map(float, x0)), 0.5)
    assert calls["oracle"] == 1 and calls["section"] == 1
    rk4_integrate(p, x0, 0.5, 4)
    assert calls["section"] == 2


def test_exact_flow_of_a_zero_diagonal_lie_element():
    rng = Random(47)
    for case in range(30):
        trunc = rng.randint(0, 9)
        chi, alpha = rand_coeffs(rng, trunc), rand_coeffs(rng, trunc)
        chi[0] = alpha[0] = F(0)
        elt = LieElement(Fps(chi, trunc), Fps(alpha, trunc))
        n = rng.randint(0, trunc)
        x0 = tuple(rand_fraction(rng) for _ in range(n + 1))
        t = (F(1, 2), F(-2, 3), F(3))[case % 3]
        want = mat_vec(nilpotent_exp(dense(elt.to_matrix(n)), t), x0)
        assert list(project_flow(ApproachingProblem(elt, n), x0, t)) == want


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
    assert check_symmetry(involution_m(1, 3).to_matrix(3), p)


def test_minus_identity_is_a_symmetry_of_the_creation_problem():
    p = ApproachingProblem.creation(4)
    minus_i = TriMatrix.diagonal([F(-1)] * 4)
    assert check_symmetry(minus_i, p)


def test_m_is_not_a_symmetry_for_odd_subdiagonals():
    p = ApproachingProblem.creation(4)
    assert not check_symmetry(involution_m(1, 3).to_matrix(3), p)


def test_m_is_a_time_reversal_for_the_creation_problem():
    p = ApproachingProblem.creation(2)
    assert check_time_reversal(involution_m(1, 1).to_matrix(1), p)
    assert check_time_reversal(involution_m(-1, 1).to_matrix(1), p)


def test_identity_is_not_a_time_reversal():
    p = ApproachingProblem.creation(3)
    assert not check_time_reversal(TriMatrix.identity(3), p)


def test_symmetry_vs_time_reversal_by_parity():
    for n in (1, 2, 3, 4):
        for a, b in ((F(1), F(1)), (F(-2), F(3))):
            p = ApproachingProblem(MonomialGenerator(a, b, n), 9)
            for sign in (1, -1):
                s = involution_m(sign, 9).to_matrix(9)
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
            s = involution_m(sign, 7).to_matrix(7)
            for t in (F(1, 2), F(2), F(-1)):
                lhs = s.matvec(project_flow(p, x0, -t))
                rhs = project_flow(p, s.matvec(x0), t)
                assert lhs == rhs


def test_pseudo_involution_at_flow_level_for_odd_n():
    for n in (1, 3):
        for t in (F(1), F(-1, 2)):
            assert is_pseudo_involution(exp_monomial(MonomialGenerator(F(2), F(3), n), t, 8), 8)
    assert not is_pseudo_involution(exp_monomial(MonomialGenerator(F(1), F(1), 2), F(1), 8), 8)


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
            assert is_pseudo_involution(exp_monomial(genr, t, depth), depth) == want
            seen.add((n % 2, want))
    assert seen == {(1, True), (0, False)}


# -- orbit geometry -----------------------------------------------------------------


def test_line_orbits_are_m_symmetric():
    p = ApproachingProblem.creation(2)
    m = involution_m(1, 1).to_matrix(1)
    for a, b in ((F(1), F(0)), (F(-2), F(7)), (F(1, 3), F(-1))):
        assert orbit_symmetric_under(m, p, (a, b))


def test_line_orbits_are_not_minus_m_symmetric():
    p = ApproachingProblem.creation(2)
    minus_m = involution_m(-1, 1).to_matrix(1)
    for a, b in ((F(1), F(0)), (F(-2), F(7))):
        assert not orbit_symmetric_under(minus_m, p, (a, b))


def test_fixed_equilibrium_orbits_are_symmetric():
    p = ApproachingProblem.creation(2)
    m = involution_m(1, 1).to_matrix(1)
    assert orbit_symmetric_under(m, p, (F(0), F(0)))
    # M fixes (0, b) only at b = 0; elsewhere the singleton moves
    assert not orbit_symmetric_under(m, p, (F(0), F(3)))
    minus_m = involution_m(-1, 1).to_matrix(1)
    assert orbit_symmetric_under(minus_m, p, (F(0), F(3)))


def test_parabola_orbits():
    p = ApproachingProblem.creation(3)
    m = involution_m(1, 2).to_matrix(2)
    minus_m = involution_m(-1, 2).to_matrix(2)
    for a, b, c in ((F(1), F(2), F(3)), (F(-1), F(0), F(5))):
        assert orbit_symmetric_under(m, p, (a, b, c))
        assert not orbit_symmetric_under(minus_m, p, (a, b, c))


def test_orbit_invariants_are_exact_on_an_int_state():
    # c - b^2/a must not become a float when the state is given as ints
    p, m = ApproachingProblem.creation(3), involution_m(1, 2).to_matrix(2)
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


def test_singular_s_stopping_the_flow_is_not_a_symmetry():
    # the orbit through (0, 1, 0) is the line {(0, 1, z)}; diag(1, 1, 0) sends it to one point
    s = TriMatrix.diagonal([F(1), F(1), F(0)])
    assert not orbit_symmetric_under(s, ApproachingProblem.creation(3), (F(0), F(1), F(0)))


def test_orbit_analysis_refuses_a_nonzero_diagonal():
    p = monomial_problem(1, 1, 0, 3)
    with pytest.raises(UnsupportedGenerator):
        orbit_symmetric_under(involution_m(1, 2).to_matrix(2), p, (F(1), F(0), F(0)))


#: Flow times whose points, with x0, decide _orbit_by_invariants.
_ORBIT_TIMES = (0, -2, -1, F(1, 2), 1, 2)


def _orbit_by_invariants(s, flow_maps, x0):
    """The dims 2-3 creation-family decision from the orbit invariants.

    A non-equilibrium orbit is a line or a vertical parabola, which S maps
    onto itself iff it sends the points at the `_ORBIT_TIMES`, x0 among
    them, to six distinct points of it.
    """
    sig = orbit_signature(x0)
    if sig is None:
        return mat_vec(s, x0) == list(x0)
    images = {tuple(mat_vec(s, mat_vec(e, x0))) for e in flow_maps}
    return len(images) == len(flow_maps) and all(orbit_signature(y) == sig for y in images)


def test_orbit_rule_matches_the_creation_family_invariants():
    rng = Random(48)
    entries = (F(0), F(0), F(1), F(-1), F(2), F(-1, 3))
    problems = {dim: ApproachingProblem.creation(dim) for dim in (2, 3)}
    sections = {dim: dense(p.matrix) for dim, p in problems.items()}
    flow_maps = {dim: [nilpotent_exp(a, t) for t in _ORBIT_TIMES] for dim, a in sections.items()}
    seen = []
    for case in range(300):
        dim, kind = 2 + case % 2, case // 2 % 4
        x0 = tuple(rng.choice(entries) for _ in range(dim))
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        if kind == 0:  # a diagonal involution
            s = [[F(signs[i]) if i == j else F(0) for j in range(dim)] for i in range(dim)]
        elif kind == 1:  # a singular diagonal
            s = [[rng.choice(entries) if i == j else F(0) for j in range(dim)] for i in range(dim)]
        elif kind == 2:  # a rational lower-triangular matrix
            s = [[rand_fraction(rng) if j <= i else F(0) for j in range(dim)] for i in range(dim)]
        else:  # a flow map composed with the involution M or -M
            m = [[F(signs[0] * (-1) ** i) if i == j else F(0) for j in range(dim)] for i in range(dim)]
            s = mat_mul(m, nilpotent_exp(sections[dim], rand_fraction(rng)))
        want = _orbit_by_invariants(s, flow_maps[dim], x0)
        got = orbit_symmetric_under(
            TriMatrix([row[: i + 1] for i, row in enumerate(s)]), problems[dim], x0
        )
        assert got == want, (s, x0)
        seen.append((kind, want))
    assert set(seen) == {(kind, want) for kind in range(4) for want in (True, False)}


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_m_maps_orbits_onto_themselves_at_every_dim(n, dim):
    # M fixes x0 and is a time reversal (odd n) or a symmetry (even n), so it
    # maps the orbit onto itself; -M flips the constant first coordinate
    p = monomial_problem(F(3, 2), F(-1, 2), n, dim)
    x0 = tuple(F((i + 1) % 2) for i in range(dim))
    assert orbit_symmetric_under(involution_m(1, dim - 1).to_matrix(dim - 1), p, x0)
    assert not orbit_symmetric_under(involution_m(-1, dim - 1).to_matrix(dim - 1), p, x0)


def test_orbits_of_a_zero_diagonal_lie_element():
    # odd chi and alpha: M A M = -A, so M x(t) = x(-t) once M fixes x0
    n = 5
    elt = LieElement(Fps([0, 1, 0, F(-2, 3), 0, 3], n), Fps([0, 2, 0, 0, 0, F(1, 2)], n))
    p = ApproachingProblem(elt, n)
    x0 = (F(1), F(0), F(2), F(0), F(1, 2), F(0))
    m = involution_m(1, n).to_matrix(n)
    assert orbit_symmetric_under(m, p, x0)
    assert orbit_symmetric_under(m.mul(exp_truncated_oracle(elt, 1, n)), p, x0)
    assert not orbit_symmetric_under(involution_m(-1, n).to_matrix(n), p, x0)
    assert not orbit_symmetric_under(TriMatrix.diagonal([F(1)] * n + [F(2)]), p, x0)
    # a LieElement problem takes the section route, a monomial one the characteristic curves
    genr = MonomialGenerator(F(3, 2), F(-1, 2), 2)
    monomial = ApproachingProblem(genr, 5)
    section = ApproachingProblem(genr.lie_element(5), 5)
    for s in (m, involution_m(-1, 5).to_matrix(5), exp_truncated_oracle(elt, F(1, 2), 5)):
        assert orbit_symmetric_under(s, monomial, x0) == orbit_symmetric_under(s, section, x0)
    with pytest.raises(UnsupportedGenerator):
        orbit_symmetric_under(m, ApproachingProblem(LieElement(Fps.one(n), elt.alpha), n), x0)


def test_equilibrium_and_orbit_tests_read_no_section(monkeypatch):
    calls = []
    to_matrix = LieElement.to_matrix
    monkeypatch.setattr(LieElement, "to_matrix", lambda *args: calls.append(1) or to_matrix(*args))
    p = monomial_problem(F(3, 2), F(-1, 2), 1, 6)
    x0 = (F(1), F(0), F(1), F(0), F(1), F(0))
    assert not equilibria_check(p, x0)
    assert orbit_symmetric_under(TriMatrix.identity(6), p, x0)
    assert calls == []


def test_equilibria_check_refuses_a_float_state():
    p = ApproachingProblem.creation(3)
    with pytest.raises(TypeError, match="float"):
        equilibria_check(p, (0.0, 0.0, 1.0))


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
        project_flow(p, (F(1), 0.5), 2)
    got = project_flow(p, (1, 0), 2)  # an int state is rational
    assert got == (1, 2) and all(type(v) is Fraction for v in got)
    # a float t keeps the float regime, whatever the state's type
    assert project_flow(p, (F(1), 0), 2.0) == (1.0, 2.0)


_TRUNC = 4
_NILPOTENT = MonomialGenerator(F(3, 2), F(-1, 2), 1).lie_element(_TRUNC)
_DIAGONAL = LieElement(Fps([1, 2, 0, 1, 3]), Fps([2, -1, 1, 0, 1]))
_SECTION_BUILDERS = {
    "riordan-to-matrix": lambda n: RiordanMatrix.pascal(_TRUNC).to_matrix(n),
    "lie-to-matrix": lambda n: _DIAGONAL.to_matrix(n),
    "oracle-zero-diagonal": lambda n: exp_truncated_oracle(_NILPOTENT, F(1, 2), n),
    "oracle-nonzero-diagonal": lambda n: exp_truncated_oracle(_DIAGONAL, F(1, 2), n),
    "oracle-float-t": lambda n: exp_truncated_oracle(_DIAGONAL, 0.5, n),
    "problem-lie-element": lambda n: ApproachingProblem(_DIAGONAL, n),
    "problem-monomial": lambda n: ApproachingProblem(MonomialGenerator(1, 1, 1), n),
    "fps-prefix": lambda n: Fps.one(_TRUNC).prefix(n),
}


@pytest.mark.parametrize(
    "builder,n",
    [(b, -1) for b in _SECTION_BUILDERS]
    + [(b, _TRUNC + 1) for b in _SECTION_BUILDERS if b != "problem-monomial"],
)
def test_a_section_index_outside_the_truncation_is_an_invalid_truncation(builder, n):
    # A monomial problem builds its own series at order n, so only n < 0 is out of range.
    with pytest.raises(InvalidTruncation) as caught:
        _SECTION_BUILDERS[builder](n)
    assert isinstance(caught.value, InsufficientTruncation) == (n > _TRUNC)


def test_sections_below_the_stored_order_are_top_left_blocks():
    rng = Random(2801)
    t = F(-2, 3)
    for _ in range(3):
        chi, alpha = rand_coeffs(rng, 10), rand_coeffs(rng, 10)
        chi[0] = alpha[0] = F(0)
        elt = LieElement(Fps(chi), Fps(alpha))
        r = RiordanMatrix(Fps(rand_coeffs(rng, 10, unit=True)), Fps(rand_coeffs(rng, 10, unit=True)))
        full, full_exp, full_r = elt.to_matrix(10), exp_truncated_oracle(elt, t, 10), r.to_matrix(10)
        for n in range(11):
            assert elt.to_matrix(n) == full.principal(n + 1)
            assert r.to_matrix(n) == full_r.principal(n + 1)
            assert exp_truncated_oracle(elt, t, n) == full_exp.principal(n + 1)
            x0 = rand_coeffs(rng, n)
            short = LieElement(elt.chi.truncate(n), elt.alpha.truncate(n))
            got = project_flow(ApproachingProblem(elt, n), x0, t)
            assert got == project_flow(ApproachingProblem(short, n), x0, t)
            assert got == full_exp.principal(n + 1).matvec(x0)
