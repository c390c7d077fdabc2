"""Riordan group operations against the finite-matrix oracles."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riordan.fps import Fps
from riordan.group import (
    InsufficientTruncation,
    NotRiordan,
    RiordanMatrix,
    TriMatrix,
    involution_m,
    is_involution,
    is_pseudo_involution,
)
from riordan.lie import LieElement, exp_truncated_oracle

from oracles import (
    dense,
    lower_tri_inverse,
    mat_mul,
    mat_vec,
    rand_coeffs,
    recurrence_holds,
    riordan_from_columns,
    solve_a_sequence,
)

F = Fraction


def rand_riordan(rng, trunc):
    return RiordanMatrix(
        Fps(rand_coeffs(rng, trunc, unit=True), trunc),
        Fps(rand_coeffs(rng, trunc, unit=True), trunc),
    )


# -- construction and sections ------------------------------------------


def test_pascal_triangle_rows():
    rows = RiordanMatrix.pascal(5).to_matrix(3).rows
    assert rows == ((F(1),), (F(1), F(1)), (F(1), F(2), F(1)), (F(1), F(3), F(3), F(1)))


def test_identity_section():
    assert RiordanMatrix.identity(4).to_matrix(2) == TriMatrix.identity(3)


def test_m_is_the_alternating_diagonal():
    m = involution_m(1, 5)
    assert m.to_matrix(3) == TriMatrix.diagonal([F(1), F(-1), F(1), F(-1)])
    assert m.f == Fps([-1], 5) and m.g == Fps([-1], 5)


def test_minus_m_is_the_other_alternating_diagonal():
    assert involution_m(-1, 5).to_matrix(3) == TriMatrix.diagonal(
        [F(-1), F(1), F(-1), F(1)]
    )


def test_involution_m_rejects_other_signs():
    with pytest.raises(ValueError):
        involution_m(2, 4)


def test_not_riordan_on_zero_constant():
    with pytest.raises(NotRiordan):
        RiordanMatrix(Fps.x(4), Fps.one(4))
    with pytest.raises(NotRiordan):
        RiordanMatrix(Fps.one(4), Fps.x(4))


def test_section_beyond_trunc_rejected():
    with pytest.raises(InsufficientTruncation):
        RiordanMatrix.pascal(4).to_matrix(5)


def test_diagonal_is_a_geometric_progression():
    rng = Random(21)
    for _ in range(20):
        r = rand_riordan(rng, 12)
        section = r.to_matrix(8)
        ratio = 1 / r.g.constant()
        expected = r.f.constant() * ratio
        for j in range(9):
            assert section.entry(j, j) == expected
            expected *= ratio


# -- product --------------------------------------------------------------


def test_product_with_identity():
    p = RiordanMatrix.pascal(8)
    assert p * RiordanMatrix.identity(8) == p
    assert RiordanMatrix.identity(8) * p == p


def test_pascal_times_its_mirror_is_identity():
    p = RiordanMatrix.pascal(18)
    q = RiordanMatrix(Fps.one(18), Fps([1, 1], 18))
    prod = p * q
    assert prod.f == Fps.one(18)
    assert prod.g == Fps.one(18)
    # matrix-product oracle at n = 8
    got = dense(prod.to_matrix(8))
    want = mat_mul(dense(p.to_matrix(8)), dense(q.to_matrix(8)))
    assert got == want


def test_m_squares_to_identity():
    m = involution_m(1, 8)
    assert m * m == RiordanMatrix.identity(8)


def test_product_is_a_matrix_homomorphism():
    rng = Random(22)
    for _ in range(50):
        r1 = rand_riordan(rng, 20)
        r2 = rand_riordan(rng, 20)
        got = dense((r1 * r2).to_matrix(8))
        want = mat_mul(dense(r1.to_matrix(8)), dense(r2.to_matrix(8)))
        assert got == want


# -- inverse ----------------------------------------------------------------


def test_inverse_of_identity():
    assert RiordanMatrix.identity(6).inverse() == RiordanMatrix.identity(5)


def test_inverse_of_pascal_matches_triangular_inversion_oracle():
    p = RiordanMatrix.pascal(18)
    inv = p.inverse()
    assert inv.g == Fps([1, 1], 17)
    got = dense(inv.to_matrix(8))
    want = lower_tri_inverse(dense(p.to_matrix(8)))
    assert got == want


def test_m_is_its_own_inverse():
    m = involution_m(1, 9)
    assert m.inverse() == involution_m(1, 8)


def test_inverse_round_trips_on_random_pairs():
    rng = Random(23)
    for _ in range(50):
        r = rand_riordan(rng, 20)
        section = (r * r.inverse()).to_matrix(8)
        assert section == TriMatrix.identity(9)


# -- action on series ----------------------------------------------------------


def test_pascal_applied_to_one_is_geometric():
    p = RiordanMatrix.pascal(8)
    assert p.apply(Fps.one(8)) == Fps([1] * 9, 8)


def test_identity_acts_trivially():
    gamma = Fps([2, "1/3", -5, 7], 8)
    assert RiordanMatrix.identity(8).apply(gamma) == gamma


def test_pascal_applied_to_x_counts():
    p = RiordanMatrix.pascal(10)
    got = p.apply(Fps.x(10))
    assert got == Fps(list(range(11)), 10)
    want = mat_vec(dense(p.to_matrix(8)), [F(0), F(1)] + [F(0)] * 7)
    assert list(got.prefix(8)) == want


def test_apply_matches_matrix_vector_product():
    rng = Random(24)
    for _ in range(30):
        r = rand_riordan(rng, 16)
        gamma = Fps(rand_coeffs(rng, 16), 16)
        got = r.apply(gamma)
        want = mat_vec(dense(r.to_matrix(8)), list(gamma.prefix(8)))
        assert list(got.prefix(8)) == want


# -- A-sequence -------------------------------------------------------------------


def test_pascal_a_sequence_is_one_plus_x():
    a = RiordanMatrix.pascal(12).a_sequence()
    assert a == Fps([1, 1], 11)
    # independently: solve the recurrence from the entries
    entries = dense(RiordanMatrix.pascal(12).to_matrix(10))
    assert solve_a_sequence(entries, 8) == [F(1), F(1)] + [F(0)] * 6


def test_identity_a_sequence_is_one():
    assert RiordanMatrix.identity(6).a_sequence() == Fps.one(5)


def test_mirror_pascal_a_sequence_satisfies_recurrence():
    r = RiordanMatrix(Fps.one(22), Fps([1, 1], 22))
    a = r.a_sequence()
    entries = dense(r.to_matrix(12))
    fitted = solve_a_sequence(entries, 11)
    assert fitted == list(a.prefix(10))
    ok, where = recurrence_holds(entries, list(a.prefix(12)), 10)
    assert ok, where


def test_a_sequence_recurrence_on_random_pairs():
    rng = Random(25)
    for _ in range(25):
        r = rand_riordan(rng, 22)
        a = r.a_sequence()
        entries = dense(r.to_matrix(10))
        ok, where = recurrence_holds(entries, list(a.prefix(10)), 10)
        assert ok, where


# -- involutions and pseudo-involutions ----------------------------------------------


def test_m_is_an_involution():
    assert is_involution(involution_m(1, 10), 8)
    assert is_involution(involution_m(-1, 10), 8)


def test_pascal_is_not_an_involution():
    assert not is_involution(RiordanMatrix.pascal(10), 8)


def test_identity_is_an_involution():
    assert is_involution(RiordanMatrix.identity(10), 8)


def test_pascal_is_a_pseudo_involution():
    assert is_pseudo_involution(RiordanMatrix.pascal(20), 8)


def test_identity_is_a_pseudo_involution():
    assert is_pseudo_involution(RiordanMatrix.identity(20), 8)


def test_exponential_diagonal_is_not_a_pseudo_involution_in_float_mode():
    # section of T(1 | e^-1): diagonal e^(j+1), produced by the float oracle
    diag = exp_truncated_oracle(LieElement(Fps.one(6), Fps.one(6)), 1.0, 5)
    for j in range(6):
        assert abs(diag.entry(j, j) - math.exp(j + 1)) < 1e-10
    q = diag.mul(involution_m(1, 5).to_matrix(5).as_float())
    assert not q.mul(q).is_identity()


def test_conjugation_by_m_preserves_the_riordan_property():
    rng = Random(26)
    m = involution_m(1, 16)
    for _ in range(20):
        r = rand_riordan(rng, 16)
        conj = m * r * m
        # re-validating through the constructor must succeed
        rebuilt = RiordanMatrix(conj.f, conj.g)
        assert rebuilt == conj
        got = dense(conj.to_matrix(6))
        mm = dense(m.to_matrix(6))
        want = mat_mul(mat_mul(mm, dense(r.to_matrix(6))), mm)
        assert got == want


# -- matrix-level helpers ---------------------------------------------------------


def test_matrix_involution_checks():
    for sign in (1, -1):
        p = involution_m(sign, 4).to_matrix(4)
        assert p.mul(p).is_identity()
    p = dense_pascal_section()
    assert not p.mul(p).is_identity()


@pytest.mark.parametrize("dim", [1, 2, 13])
def test_trimatrix_mul_matches_dense_oracle(dim):
    rng = Random(40 + dim)
    for _ in range(3):
        a, b = (
            TriMatrix([rand_coeffs(rng, i) for i in range(dim)]) for _ in range(2)
        )
        got = a.mul(b)
        assert dense(got) == mat_mul(dense(a), dense(b))
        assert all(type(x) is Fraction for row in got.rows for x in row)


def test_trimatrix_mul_of_floats_stays_float():
    a = TriMatrix([[0.5], [0.25, 2.0], [-1.0, 0.0, 3.0]])
    b = TriMatrix([[2.0], [4.0, -0.5], [1.0, 8.0, 0.25]])
    got = a.mul(b)
    assert all(type(x) is float for row in got.rows for x in row)
    assert dense(got) == mat_mul(dense(a), dense(b))


def dense_pascal_section():
    return RiordanMatrix.pascal(6).to_matrix(4)


def test_principal_section_deletes_last_row_and_column():
    p = RiordanMatrix.pascal(8)
    assert p.to_matrix(6).principal(6) == p.to_matrix(5)


def test_trimatrix_rejects_upper_entries():
    with pytest.raises(ValueError):
        TriMatrix([[F(1), F(2)], [F(0), F(1)]])


def test_trimatrix_takes_ragged_rows_only():
    # a dense square input is refused even when its upper triangle is zero
    with pytest.raises(ValueError, match="row 0 must have 1 entries"):
        TriMatrix([[1, 0], [1, 1]])


def test_trimatrix_serialization():
    m = TriMatrix([[F(1)], [F(1, 2), F(3)]])
    assert m.to_json_dict() == {"dim": 2, "rows": [["1"], ["1/2", "3"]]}
    assert m.to_csv() == "1\n1/2,3\n"


# -- properties at the truncation edges ------------------------------------------------

small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


def riordan_at(trunc):
    """T(f|g) at the given truncation, with small rational coefficients."""
    series = st.lists(small, min_size=trunc + 1, max_size=trunc + 1).filter(lambda cs: cs[0])
    return st.builds(lambda f, g: RiordanMatrix(Fps(f, trunc), Fps(g, trunc)), series, series)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(riordan_at(0))
def test_inverse_and_a_sequence_need_trunc_one(r):
    with pytest.raises(InsufficientTruncation):
        r.inverse()
    with pytest.raises(InsufficientTruncation):
        r.a_sequence()


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(1, 6).flatmap(riordan_at))
def test_inverse_is_two_sided_and_loses_one_order(r):
    inv = r.inverse()
    assert inv.trunc == r.a_sequence().trunc == r.trunc - 1
    identity = RiordanMatrix.identity(r.trunc - 1)
    assert r * inv == identity and inv * r == identity


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(riordan_at(k), st.integers(1, k))))
def test_section_columns_give_back_f_and_g_less_one_order(case):
    r, n = case
    f, g = riordan_from_columns(dense(r.to_matrix(n)))
    assert (tuple(f), tuple(g)) == (r.f.prefix(n - 1), r.g.prefix(n - 1))
