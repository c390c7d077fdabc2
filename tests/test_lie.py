"""Lie algebra pattern, bracket, transport, and the exponential map."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riordan.fps import Fps
from riordan.group import RiordanMatrix, TriMatrix, involution_m
from riordan.lie import (
    ExactModeIrrational,
    LieElement,
    MonomialGenerator,
    bracket,
    characteristic_solution,
    conj_transport,
    exp_monomial,
    exp_truncated_oracle,
)

from oracles import (
    dense,
    extract_generator,
    log_unitriangular,
    lower_tri_inverse,
    mat_mul,
    mat_sub,
    nilpotent_exp,
    rand_coeffs,
    rand_fraction,
    riordan_from_columns,
)

F = Fraction


def elem(chi_coeffs, alpha_coeffs, trunc):
    return LieElement(Fps(chi_coeffs, trunc), Fps(alpha_coeffs, trunc))


def creation(trunc):
    return elem([0, 1], [0, 1], trunc)


def rand_elem(rng, trunc, zero_diag=False):
    chi = rand_coeffs(rng, trunc)
    alpha = rand_coeffs(rng, trunc)
    if zero_diag:
        chi[0] = F(0)
        alpha[0] = F(0)
    return elem(chi, alpha, trunc)


# -- matrix pattern -------------------------------------------------------


def test_diagonal_element_section():
    assert elem([1], [1], 4).to_matrix(3) == TriMatrix.diagonal([F(1), F(2), F(3), F(4)])


def test_creation_element_section():
    got = creation(4).to_matrix(3)
    assert got == TriMatrix([[0], [1, 0], [0, 2, 0], [0, 0, 3, 0]])


def test_zero_element_section():
    assert elem([0], [0], 5).to_matrix(4) == TriMatrix.diagonal([F(0)] * 5)


def test_pattern_matches_action_on_monomials():
    rng = Random(31)
    for _ in range(10):
        l = rand_elem(rng, 12)
        section = l.to_matrix(10)
        for j in range(11):
            image = l.act(Fps.monomial(1, j, 12))
            for i in range(11):
                assert section.entry(i, j) == image[i]


# -- action ------------------------------------------------------------------


def test_creation_action_on_one():
    assert creation(5).act(Fps.one(5)) == Fps.x(5)


def test_creation_action_raises_monomial_degree():
    h = creation(8)
    for j in range(7):
        assert h.act(Fps.monomial(1, j, 8)) == Fps.monomial(j + 1, j + 1, 8)


def test_diagonal_action_scales():
    assert elem([1], [1], 6).act(Fps.monomial(1, 2, 6)) == Fps.monomial(3, 2, 6)


# -- bracket -----------------------------------------------------------------


def test_self_bracket_vanishes():
    h = creation(6)
    b = bracket(h, h)
    assert not any(b.chi.coeffs) and not any(b.alpha.coeffs)


def test_bracket_of_first_two_subdiagonal_elements():
    got = bracket(creation(12), elem([0, 0, 1], [0, 0, 1], 12))
    assert got == elem([0, 0, 0, 1], [0, 0, 0, 1], 11)
    # matrix-commutator oracle on the 12-sections
    a = dense(creation(12).to_matrix(12))
    b = dense(elem([0, 0, 1], [0, 0, 1], 12).to_matrix(12))
    comm = mat_sub(mat_mul(a, b), mat_mul(b, a))
    assert [row[:12] for row in comm[:12]] == dense(got.to_matrix(11))


def test_bracket_of_diagonal_with_creation_frozen_regression():
    # computed once by the commutator-and-fit route and frozen
    got = bracket(elem([1], [1], 12), creation(12))
    assert got == creation(11)


def test_bracket_closure_on_random_pairs():
    # oracle: the commutator of the sections, fitted back to a Lie element
    rng = Random(32)
    for _ in range(100):
        l1 = rand_elem(rng, rng.randint(2, 10))
        l2 = rand_elem(rng, rng.randint(2, 10))
        n = min(l1.trunc, l2.trunc)
        a, b = dense(l1.to_matrix(n)), dense(l2.to_matrix(n))
        want = extract_generator(mat_sub(mat_mul(a, b), mat_mul(b, a)))
        got = bracket(l1, l2)
        assert (list(got.chi.coeffs), list(got.alpha.coeffs)) == want
        assert got.trunc == n - 1


def test_bracket_antisymmetry_and_jacobi_at_matrix_level():
    rng = Random(33)
    for _ in range(10):
        l1, l2, l3 = (rand_elem(rng, 10) for _ in range(3))
        lhs = bracket(l1, l2)
        rhs = bracket(l2, l1)
        assert lhs.to_matrix(8) == rhs.to_matrix(8).scale(F(-1))
        jacobi = (
            dense(bracket(l1, bracket(l2, l3)).to_matrix(8)),
            dense(bracket(l2, bracket(l3, l1)).to_matrix(8)),
            dense(bracket(l3, bracket(l1, l2)).to_matrix(8)),
        )
        total = [
            [x + y + z for x, y, z in zip(r1, r2, r3)]
            for r1, r2, r3 in zip(*jacobi)
        ]
        assert all(not any(row) for row in total)


# -- pattern extraction (the oracle the bracket is checked against) ---------------


def test_extract_diagonal_pattern():
    got = extract_generator(dense(TriMatrix.diagonal([F(1), F(2), F(3), F(4)])))
    assert got == ([1, 0, 0], [1, 0, 0])


def test_extract_creation_pattern():
    got = extract_generator(dense(TriMatrix([[0], [1, 0], [0, 2, 0], [0, 0, 3, 0]])))
    assert got == ([0, 1, 0], [0, 1, 0])


def test_extract_rejects_pattern_violation():
    # entry (2,1) = 7 pins alpha_1 = 7, which entry (3,2) then contradicts
    bad = dense(TriMatrix([[0], [0, 0], [0, 7, 0], [0, 0, 0, 0]]))
    with pytest.raises(ValueError, match="does not fit"):
        extract_generator(bad)


def test_extract_accepts_lone_subdiagonal_entry_at_dim_three():
    # at dim 3 the same entry just reads back as alpha = 7x
    fits = dense(TriMatrix([[0], [0, 0], [0, 7, 0]]))
    assert extract_generator(fits) == ([0, 0], [0, 7])


def test_extract_needs_three_rows():
    with pytest.raises(ValueError, match="dim >= 3"):
        extract_generator(dense(TriMatrix.identity(2)))


# -- conjugation transport --------------------------------------------------------


def test_transport_by_m_flips_sign_with_parity():
    m = involution_m(1, 12)
    for n in (0, 1, 2, 3):
        for a, b in ((F(1), F(1)), (F(-2), F(3)), (F(1, 2), F(-1, 3))):
            l = MonomialGenerator(a, b, n).lie_element(12)
            got = conj_transport(m, l)
            want = l.scale(F((-1) ** n))
            assert got == LieElement(want.chi, want.alpha)


def test_transport_by_identity_is_trivial():
    rng = Random(34)
    l = rand_elem(rng, 10)
    assert conj_transport(RiordanMatrix.identity(10), l) == l


def test_transport_by_pascal_matches_matrix_conjugation():
    l = creation(12)
    r = RiordanMatrix.pascal(12)
    got = conj_transport(r, l)
    p = dense(r.to_matrix(10))
    want = mat_mul(mat_mul(p, dense(l.to_matrix(10))), lower_tri_inverse(p))
    assert dense(got.to_matrix(10)) == want


def test_transport_intertwines_sections_on_random_inputs():
    rng = Random(35)
    for _ in range(20):
        f = Fps(rand_coeffs(rng, 14, unit=True), 14)
        g = Fps(rand_coeffs(rng, 14, unit=True), 14)
        r = RiordanMatrix(f, g)
        l = rand_elem(rng, 14)
        transported = conj_transport(r, l)
        p = dense(r.to_matrix(10))
        lhs = mat_mul(p, dense(l.to_matrix(10)))
        rhs = mat_mul(dense(transported.to_matrix(10)), p)
        assert lhs == rhs


# -- closed-form exponential -------------------------------------------------------


def test_exponential_of_creation_at_time_one_is_pascal():
    got = exp_monomial(MonomialGenerator(F(1), F(1), 1), 1, 8)
    assert got == RiordanMatrix.pascal(8)


def test_exponential_of_creation_at_any_time():
    for t in (F(2), F(1, 2), F(-3)):
        got = exp_monomial(MonomialGenerator(F(1), F(1), 1), t, 6)
        assert got.f == Fps.one(6)
        assert got.g == Fps([1, -t], 6)


def test_exponential_on_second_subdiagonal_matches_nilpotent_oracle():
    genr = MonomialGenerator(F(1), F(1), 2)
    got = exp_monomial(genr, 1, 12)
    assert got.g == (Fps.one(12) - Fps.monomial(2, 2, 12)).pow_rational(F(1, 2))
    assert got.f == Fps.one(12)
    oracle = exp_truncated_oracle(genr.lie_element(12), 1, 12)
    assert got.to_matrix(12) == oracle


def test_exponential_with_b_zero_is_toeplitz():
    for a, t in ((F(2), F(1)), (F(-1), F(1, 2))):
        got = exp_monomial(MonomialGenerator(a, F(0), 2), t, 10)
        assert got.f == Fps.monomial(a * t, 2, 10).exp()
        assert got.g == Fps.one(10)


def test_exponential_diagonal_case_identity_at_time_zero():
    assert exp_monomial(MonomialGenerator(F(3), F(-2), 0), 0, 5) == RiordanMatrix.identity(5)


def test_exponential_diagonal_case_rejects_exact_mode():
    with pytest.raises(ExactModeIrrational):
        exp_monomial(MonomialGenerator(F(1), F(1), 0), 1, 5)


def test_one_parameter_group_law():
    rng = Random(36)
    for _ in range(12):
        genr = MonomialGenerator(
            rand_fraction(rng), rand_fraction(rng), rng.randint(1, 3)
        )
        s = rand_fraction(rng)
        t = rand_fraction(rng)
        prod = exp_monomial(genr, s, 16) * exp_monomial(genr, t, 16)
        direct = exp_monomial(genr, s + t, 16)
        assert prod.f == direct.f and prod.g == direct.g


def test_oracle_equivalence_spot_cells():
    for a, b, n, t in (
        (F(2), F(-1), 1, F(1, 2)),
        (F(-2), F(3), 2, F(-1)),
        (F(3), F(2), 3, F(2)),
        (F(1), F(0), 3, F(1)),
    ):
        genr = MonomialGenerator(a, b, n)
        closed = exp_monomial(genr, t, 12).to_matrix(12)
        oracle = exp_truncated_oracle(genr.lie_element(12), t, 12)
        assert closed == oracle


# -- truncated exponential oracle ----------------------------------------------------


def test_oracle_two_by_two():
    got = exp_truncated_oracle(creation(4), 1, 1)
    assert got == TriMatrix([[F(1)], [F(1), F(1)]])


def test_oracle_five_by_five_is_pascal():
    got = exp_truncated_oracle(creation(6), 1, 4)
    assert got == RiordanMatrix.pascal(6).to_matrix(4)


def test_oracle_float_diagonal():
    got = exp_truncated_oracle(elem([1], [1], 4), 1.0, 2)
    for j, want in enumerate((math.e, math.e**2, math.e**3)):
        assert abs(got.entry(j, j) - want) < 1e-12 * want


def test_oracle_refuses_a_nonzero_diagonal_at_rational_t():
    with pytest.raises(ExactModeIrrational, match="float mode"):
        exp_truncated_oracle(LieElement(Fps.one(4), Fps.one(4)), 1, 2)
    with pytest.raises(ExactModeIrrational, match="float mode"):
        exp_truncated_oracle(MonomialGenerator(F(1), F(1), 0).lie_element(2), F(-1, 2), 2)


def test_oracle_at_time_zero_is_the_exact_identity_on_a_nonzero_diagonal():
    got = exp_truncated_oracle(LieElement(Fps.one(4), Fps.one(4)), 0, 2)
    assert got == TriMatrix.identity(3)
    assert all(type(x) is Fraction for row in got.rows for x in row)


def test_float_oracle_matches_the_diagonal_closed_form_at_large_times():
    # n = 0: the section of L(a, b) is diagonal, and its exponential has
    # entries exp(t(a + jb)); scaling and squaring must hold them to 1e-11
    vals = [F(-3), F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(3, 2), F(3)]
    times = [s * m for s in (-1, 1) for m in (F(1, 3), F(1), F(5, 2), F(10), F(33), F(100))]
    n, examined = 5, 0
    for a in vals:
        for b in vals:
            for t in times:
                exponents = [t * (a + j * b) for j in range(n + 1)]
                if max(map(abs, exponents)) > 100:
                    continue
                got = exp_truncated_oracle(MonomialGenerator(a, b, 0).lie_element(n), float(t), n)
                for i, row in enumerate(got.rows):
                    assert row[:i] == (0.0,) * i
                    want = math.exp(exponents[i])
                    assert abs(row[i] - want) <= 1e-11 * want, (a, b, t, i)
                examined += 1
    assert examined > 600


def test_float_oracle_agrees_with_exact_on_nilpotent_input():
    l = creation(8)
    exact = exp_truncated_oracle(l, F(3, 2), 6)
    approx = exp_truncated_oracle(l, 1.5, 6)
    diff = max(
        abs(float(x) - y) for r, s in zip(exact.rows, approx.rows) for x, y in zip(r, s)
    )
    assert diff < 1e-10


def test_float_oracle_raises_on_overflow():
    with pytest.raises(OverflowError):
        exp_truncated_oracle(elem([1], [1], 4), 800.0, 2)
    # entries e^(-800 (j+1)) underflow to zero, which is finite
    low = exp_truncated_oracle(elem([1], [1], 4), -800.0, 2)
    assert all(x == 0.0 for row in low.rows for x in row)


# -- recovering the Riordan pair from the exponential's columns -----------------------


def recover(l, t, trunc):
    """T(f|g) read off the columns of the exact section exponential, through trunc - 1."""
    f, g = riordan_from_columns(dense(exp_truncated_oracle(l, F(t), trunc)))
    return RiordanMatrix(Fps(f), Fps(g))


def test_recover_pascal_from_creation_exponential():
    assert recover(creation(10), 1, 10) == RiordanMatrix.pascal(9)


def test_recover_identity_at_time_zero():
    rng = Random(37)
    l = rand_elem(rng, 8, zero_diag=True)
    assert recover(l, 0, 8) == RiordanMatrix.identity(7)


def test_recover_frozen_regression_value():
    # e^L for L(x + x^2, x); group law checked for four (s, t) pairs before freezing
    l = elem([0, 1, 1], [0, 1], 14)
    got = recover(l, 1, 12)
    assert got.g == Fps([1, -1], 11)
    assert got.f.to_strings() == [
        "1", "0", "1", "1", "3/2", "2", "8/3", "7/2", "109/24", "35/6", "297/40", "75/8",
    ]
    s, t = F(1, 2), F(1, 3)
    prod = recover(l, s, 12) * recover(l, t, 12)
    direct = recover(l, s + t, 12)
    assert prod.f.prefix(10) == direct.f.prefix(10)
    assert prod.g.prefix(10) == direct.g.prefix(10)


# -- characteristic curves -------------------------------------------------------------


def test_characteristic_solution_of_creation_on_one():
    for t in (F(1), F(1, 2), F(-2)):
        got = characteristic_solution(MonomialGenerator(F(1), F(1), 1), Fps.one(10), t)
        assert got == Fps([t**k for k in range(11)], 10)


def test_characteristic_solution_at_time_zero_is_initial_condition():
    h = Fps([2, -1, "1/3", 4], 9)
    got = characteristic_solution(MonomialGenerator(F(2), F(-3), 2), h, 0)
    assert got == h


def test_characteristic_solution_b_zero():
    h = Fps([1, 1], 8)
    got = characteristic_solution(MonomialGenerator(F(1), F(0), 2), h, 1)
    assert got == Fps.monomial(1, 2, 8).exp() * h


def test_characteristic_solution_agrees_with_ftrm_route():
    rng = Random(38)
    for _ in range(15):
        genr = MonomialGenerator(
            rand_fraction(rng), rand_fraction(rng), rng.randint(1, 3)
        )
        h = Fps(rand_coeffs(rng, 12), 12)
        t = rand_fraction(rng)
        via_curves = characteristic_solution(genr, h, t)
        via_matrix = exp_monomial(genr, t, 12).apply(h)
        assert via_curves == via_matrix


def test_pde_residual_spot_cells():
    delta = F(1, 100000)
    h = Fps([1, 1, 1], 16)
    for a, b, n, t in ((F(1), F(1), 1, F(1)), (F(-2), F(3), 2, F(1, 2)), (F(3), F(-1), 3, F(2))):
        genr = MonomialGenerator(a, b, n)
        u = characteristic_solution(genr, h, t)
        rhs = genr.lie_element(16).act(u)
        plus = characteristic_solution(genr, h, t + delta).to_floats()
        minus = characteristic_solution(genr, h, t - delta).to_floats()
        for k in range(12):
            lhs_k = (plus[k] - minus[k]) / (2 * float(delta))
            assert math.isclose(lhs_k, float(rhs[k]), rel_tol=1e-6, abs_tol=1e-6)


# -- exact matrix logarithm (the oracle's inverse of the section exponential) ------------


def test_log_recovers_the_generator_section():
    rng = Random(39)
    for _ in range(10):
        l = rand_elem(rng, 9, zero_diag=True)
        t = rand_fraction(rng, zero_ok=False)
        recovered = log_unitriangular(dense(exp_truncated_oracle(l, t, 9)))
        assert recovered == dense(l.to_matrix(9).scale(t))


def test_log_rejects_non_unit_diagonal():
    with pytest.raises(ValueError, match="unit diagonal"):
        log_unitriangular(dense(TriMatrix.diagonal([F(2), F(2)])))


# -- the exact/float regime rule ---------------------------------------------------------

small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
rational_t = st.one_of(small, st.integers(-3, 3))


def sections(diagonal):
    """(elt, n): an element at trunc 0..6 with (chi(0), alpha(0)) drawn from
    diagonal, and a section index n <= trunc."""
    def at(trunc):
        tail = st.lists(small, min_size=trunc, max_size=trunc)
        elts = st.builds(
            lambda d, chi, alpha: elem([d[0], *chi], [d[1], *alpha], trunc), diagonal, tail, tail
        )
        return st.tuples(elts, st.integers(0, trunc))

    return st.integers(0, 6).flatmap(at)


any_diagonal = st.tuples(small, small)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(sections(st.just((F(0), F(0)))), rational_t)
def test_rational_t_on_a_zero_diagonal_is_the_exact_taylor_sum(section, t):
    elt, n = section
    got = exp_truncated_oracle(elt, t, n)
    assert dense(got) == nilpotent_exp(dense(elt.to_matrix(n)), t)
    assert all(type(x) is Fraction for row in got.rows for x in row)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(sections(any_diagonal), st.floats(-2, 2))
def test_float_t_gives_floats(section, t):
    elt, n = section
    got = exp_truncated_oracle(elt, t, n)
    assert all(type(x) is float for row in got.rows for x in row)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(sections(any_diagonal.filter(any)), rational_t.filter(bool))
def test_rational_t_on_a_nonzero_diagonal_raises(section, t):
    elt, n = section
    with pytest.raises(ExactModeIrrational, match="float mode"):
        exp_truncated_oracle(elt, t, n)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(sections(any_diagonal), st.sampled_from([0, F(0)]))
def test_rational_t_zero_is_the_exact_identity(section, t):
    elt, n = section
    got = exp_truncated_oracle(elt, t, n)
    assert got == TriMatrix.identity(n + 1)
    assert all(type(x) is Fraction for row in got.rows for x in row)


# -- the exact section exponential on integer numerators ----------------------------------

# denominators that share factors with each other and with t's
shared_entries = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 9]))
shared_times = st.one_of(st.builds(F, st.integers(-7, 7), st.sampled_from([3, 6])), st.integers(-2, 2))


def square(dim, diagonal):
    """An element at trunc dim - 1 with (chi(0), alpha(0)) drawn from diagonal."""
    tail = st.lists(shared_entries, min_size=dim - 1, max_size=dim - 1)
    return st.builds(
        lambda d, chi, alpha: elem([d[0], *chi], [d[1], *alpha], dim - 1), diagonal, tail, tail
    )


exact_cases = st.integers(1, 14).flatmap(
    lambda dim: st.one_of(
        st.tuples(square(dim, st.just((F(0), F(0)))), shared_times),
        st.tuples(square(dim, st.tuples(shared_entries, shared_entries).filter(any)), st.just(F(0))),
    )
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(exact_cases)
def test_exact_exponential_equals_the_dense_taylor_oracle(case):
    elt, t = case
    n = elt.trunc
    got = exp_truncated_oracle(elt, t, n)
    assert dense(got) == nilpotent_exp(dense(elt.to_matrix(n)), t)
    assert all(type(x) is Fraction for row in got.rows for x in row)


def test_only_the_float_exponential_takes_section_products(monkeypatch):
    calls = []
    product = TriMatrix.mul
    monkeypatch.setattr(TriMatrix, "mul", lambda a, b: calls.append(1) or product(a, b))
    elt = MonomialGenerator(F(3, 2), F(-1, 2), 1).lie_element(12)
    exp_truncated_oracle(elt, F(2, 3), 12)
    assert calls == []
    exp_truncated_oracle(elt, 2 / 3, 12)
    assert calls
