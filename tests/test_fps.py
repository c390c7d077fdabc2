"""Series arithmetic: worked examples plus the algebraic laws, all exact."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riordan.fps import (
    CompositionNeedsPositiveOrder,
    ExpNeedsZeroConstantTerm,
    Fps,
    InvalidTruncation,
    NotAUnit,
    NotInvertibleUnderComposition,
    PowNeedsUnitConstantOne,
)

from oracles import (
    binomial_series,
    poly_compose,
    poly_exp,
    poly_mul,
    poly_pow_rational,
    poly_reciprocal,
    rand_coeffs,
    rand_fraction,
)

F = Fraction


# -- construction ------------------------------------------------------


def test_constant_series_pads_with_zeros():
    f = Fps([1], 3)
    assert f.coeffs == (F(1), F(0), F(0), F(0))
    assert f.trunc == 3


def test_identity_series():
    assert Fps([0, 1], 2) == Fps.x(2)


def test_pascal_denominator_series():
    f = Fps([1, -1], 4)
    assert f.coeffs == (F(1), F(-1), F(0), F(0), F(0))


def test_negative_trunc_rejected():
    with pytest.raises(InvalidTruncation):
        Fps([1], -1)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Fps([0.5], 2)
    with pytest.raises(TypeError):
        Fps([0.5])


def test_string_coefficients_parse_exactly():
    assert Fps(["1/2", "0.25"], 1).coeffs == (F(1, 2), F(1, 4))


# -- linear ops ----------------------------------------------------------


def test_add():
    assert Fps([1, 1], 3) + Fps([1, -1], 3) == Fps([2], 3)


def test_sub_self_is_zero():
    f = Fps([1, 1], 3)
    assert f - f == Fps.zero(f.trunc)


def test_scale():
    assert Fps(["1/2", 1], 3).scale(3) == Fps(["3/2", 3], 3)
    assert 3 * Fps(["1/2", 1], 3) == Fps(["3/2", 3], 3)


def test_mixed_trunc_takes_minimum():
    assert (Fps([1], 5) + Fps([1], 3)).trunc == 3


# -- multiplication -------------------------------------------------------


def test_mul_telescopes():
    assert Fps([1, -1], 3) * Fps([1, 1, 1, 1], 3) == Fps.one(3)


def test_mul_shifts():
    assert Fps.x(4) * Fps.x(4) == Fps.monomial(1, 2, 4)


def test_mul_square():
    assert Fps([1, 1], 4) * Fps([1, 1], 4) == Fps([1, 2, 1], 4)


# -- product and reciprocal against the Fraction oracles ---------------------

BIG = 2**1000 + 7  # coefficients of 1,000+ bits
DENSE_64 = rand_coeffs(Random(64), 64, unit=True)
SPARSE_64 = [F(1), F(-2), F(0), F(1, 3)] + [F(0)] * 61  # degree 3 at trunc 64

DIFFERENTIAL_PAIRS = [
    ([F(3, 2)], [F(-5, 7)]),  # trunc 0
    ([F(1, 2), F(-1, 3)], [F(2), F(5, 6)]),  # trunc 1
    ([F(-1, 4), F(0), F(7, 9)], [F(1, 6), F(-3, 10), F(2, 15)]),  # trunc 2
    ([0, 0, 0, 0], [F(1, 3), F(2), F(-1), F(5, 4)]),  # zero series
    ([F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)], [F(-2, 3), 1]),  # different truncs
    ([F(-1, 6), F(5, -4), F(-7, 10), F(3, 8)], [F(9, -14), F(1, 21), F(-4), F(0)]),
    ([F(BIG, 3), F(-1, BIG), F(BIG, BIG + 2)], [F(1, BIG), F(BIG), F(-BIG, 5)]),
    (DENSE_64, SPARSE_64),
    (SPARSE_64, SPARSE_64),
]


@pytest.mark.parametrize("a,b", DIFFERENTIAL_PAIRS)
def test_mul_matches_fraction_oracle(a, b):
    a, b = [F(c) for c in a], [F(c) for c in b]
    trunc = min(len(a), len(b)) - 1
    assert (Fps(a) * Fps(b)).coeffs == tuple(poly_mul(a, b, trunc))
    assert (Fps(b) * Fps(a)).coeffs == tuple(poly_mul(b, a, trunc))


@pytest.mark.parametrize(
    "a",
    [
        [F(5, 3)],  # trunc 0
        [F(-2, 7), F(3, 4)],  # trunc 1, negative constant term
        [F(-1), F(1, 2), F(-1, 3)],  # trunc 2, constant term -1
        [F(3, 5), F(-1, 6), F(0), F(7, 10), F(-2, 9), F(1, 4)],  # mixed denominators
        [F(1), F(0), F(0), F(0), F(0)],  # degree 0 at trunc 4
        [F(BIG, 7), F(-3, BIG), F(1), F(BIG)],  # 1,000+ bit coefficients
        DENSE_64,
        SPARSE_64,
    ],
)
def test_reciprocal_matches_fraction_oracle(a):
    assert Fps(a).reciprocal().coeffs == tuple(poly_reciprocal(a))


small_fractions = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 50))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_fractions, min_size=1, max_size=14),
    st.lists(small_fractions, min_size=1, max_size=14),
)
def test_mul_matches_fraction_oracle_randomized(a, b):
    trunc = min(len(a), len(b)) - 1
    assert (Fps(a) * Fps(b)).coeffs == tuple(poly_mul(a, b, trunc))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_fractions, min_size=1, max_size=14).filter(lambda a: a[0] != 0))
def test_reciprocal_matches_fraction_oracle_randomized(a):
    assert Fps(a).reciprocal().coeffs == tuple(poly_reciprocal(a))


def test_kernel_outputs_are_fractions():
    f = Fps([2, 0, "1/3"], 3)
    for series in (f * f, f.reciprocal()):
        assert len(series.coeffs) == 4
        assert all(type(c) is F for c in series.coeffs)


# -- derivative, as the Euler operator x d/dx (xderiv) ---------------------


def test_derivative():
    assert Fps([1, 1, 1], 4).xderiv() == Fps([0, 1, 2], 4)


def test_derivative_of_constant():
    assert Fps([5], 3).xderiv() == Fps.zero(3)


def test_derivative_of_cube():
    # x d/dx keeps the truncation order: the top coefficient is not lost
    assert Fps.monomial(1, 3, 5).xderiv() == Fps.monomial(3, 3, 5)
    assert Fps.monomial(1, 5, 5).xderiv() == Fps.monomial(5, 5, 5)


# -- reciprocal ------------------------------------------------------------


def test_reciprocal_geometric():
    assert Fps([1, -1], 6).reciprocal() == Fps([1] * 7, 6)


def test_reciprocal_constant():
    assert Fps([2], 3).reciprocal() == Fps(["1/2"], 3)


def test_reciprocal_alternating():
    assert Fps([1, 1], 5).reciprocal() == Fps([1, -1, 1, -1, 1, -1], 5)


def test_reciprocal_needs_unit():
    with pytest.raises(NotAUnit):
        Fps.x(3).reciprocal()


# -- composition ------------------------------------------------------------


def test_compose_geometric_with_square():
    geom = Fps([1, -1], 6).reciprocal()
    assert geom.compose(Fps.monomial(1, 2, 6)) == Fps([1, 0, 1, 0, 1, 0, 1], 6)


def test_compose_with_x_is_identity():
    f = Fps([3, "1/2", -2, 5], 8)
    assert f.compose(Fps.x(8)) == Fps([3, "1/2", -2, 5], 8)


def test_compose_mobius_pair_gives_x():
    # x/(1-x) composed with x/(1+x), exact composition at trunc 10
    f = Fps.x(10) * Fps([1, -1], 10).reciprocal()
    g = Fps.x(10) * Fps([1, 1], 10).reciprocal()
    assert f.compose(g) == Fps.x(10)
    assert g.compose(f) == Fps.x(10)


@pytest.mark.parametrize(
    "outer,inner",
    [
        ([F(0)] * 9, [F(0), F(1, 2), F(-3)] + [F(0)] * 6),  # zero series
        ([F(7, 3)] + [F(0)] * 8, [F(0), F(2), F(1, 5)] + [F(0)] * 6),  # constant
        (SPARSE_64, [F(0), F(1), F(-1, 2)] + [F(0)] * 62),  # degree 3 at trunc 64
        (SPARSE_64, [F(0), F(-3, 4), F(0), F(5)] + [F(0)] * 7),  # inner trunc 10
        (rand_coeffs(Random(20), 20, unit=True), rand_coeffs(Random(21), 20, order_one=True)),
    ],
)
def test_compose_matches_fraction_horner_oracle(outer, inner):
    trunc = min(len(outer), len(inner)) - 1
    assert Fps(outer).compose(Fps(inner)).coeffs == tuple(poly_compose(outer, inner, trunc))


def test_compose_needs_positive_order():
    with pytest.raises(CompositionNeedsPositiveOrder):
        Fps([1, 1], 3).compose(Fps.one(3))


# -- compositional inverse ---------------------------------------------------


def test_compositional_inverse_of_x():
    assert Fps.x(5).compositional_inverse() == Fps.x(5)


def test_compositional_inverse_mobius():
    f = Fps.x(12) * Fps([1, -1], 12).reciprocal()  # x/(1-x)
    inv = f.compositional_inverse()
    expected = Fps.x(12) * Fps([1, 1], 12).reciprocal()  # x/(1+x)
    assert inv == expected
    assert f.compose(inv) == Fps.x(12)
    assert inv.compose(f) == Fps.x(12)


def test_compositional_inverse_of_scaling():
    assert Fps([0, 2], 4).compositional_inverse() == Fps([0, "1/2"], 4)


def test_compositional_inverse_needs_order_one():
    with pytest.raises(NotInvertibleUnderComposition):
        Fps.monomial(1, 2, 4).compositional_inverse()
    with pytest.raises(NotInvertibleUnderComposition):
        Fps([1, 1], 4).compositional_inverse()


# -- exp ----------------------------------------------------------------------


def test_exp_of_x():
    e = Fps.x(5).exp()
    assert e == Fps([1, 1, "1/2", "1/6", "1/24", "1/120"], 5)


def test_exp_of_zero():
    assert Fps.zero(4).exp() == Fps.one(4)


def test_exp_of_2x2_matches_factorial_sum_oracle():
    got = Fps.monomial(2, 2, 6).exp()
    want = poly_exp([F(0), F(0), F(2), F(0), F(0), F(0), F(0)], 6)
    assert list(got.coeffs) == want
    assert got == Fps([1, 0, 2, 0, 2, 0, "4/3"], 6)


def test_exp_needs_zero_constant():
    with pytest.raises(ExpNeedsZeroConstantTerm):
        Fps([1, 1], 3).exp()


# -- rational powers ------------------------------------------------------------


def test_pow_minus_one_is_geometric():
    assert Fps([1, -1], 6).pow_rational(-1) == Fps([1] * 7, 6)


def test_pow_zero_is_one():
    assert Fps([1, 2, 3], 5).pow_rational(0) == Fps.one(5)


def test_pow_half_matches_binomial_series_oracle():
    got = (Fps.one(4) - Fps.monomial(2, 2, 4)).pow_rational(F(1, 2))
    want = binomial_series(-2, 2, F(1, 2), 4)
    assert list(got.coeffs) == want
    assert got == Fps([1, 0, -1, 0, "-1/2"], 4)


def test_pow_needs_unit_one():
    with pytest.raises(PowNeedsUnitConstantOne):
        Fps([2, 1], 3).pow_rational(F(1, 2))


# -- exp and rational powers: one recurrence against the Fraction oracles --------

EXP_INPUTS = [
    [F(0)],  # trunc 0
    [F(0), F(3, 2)],  # trunc 1
    [F(0)] * 6,  # the zero series
    [F(0), F(0), F(0), F(-5, 3)] + [F(0)] * 9,  # monomial
    [F(0), F(1, 2), F(-1, 3), F(0), F(7, 9), F(-2, 5)],
    [F(0), F(BIG, 3), F(-1, BIG), F(BIG, BIG + 2)],  # 1,000+ bit coefficients
    [F(0)] + DENSE_64[1:],
    [F(0)] + SPARSE_64[1:],
]


@pytest.mark.parametrize("a", EXP_INPUTS)
def test_exp_matches_taylor_oracle(a):
    assert Fps(a).exp().coeffs == tuple(poly_exp(a, len(a) - 1))


POW_INPUTS = [
    [F(1)],  # trunc 0
    [F(1), F(-2, 3)],  # trunc 1
    [F(1), F(1, 2), F(-1, 3), F(0), F(7, 9), F(-2, 5)],
    [F(1), F(BIG, 3), F(-1, BIG), F(BIG)],  # 1,000+ bit coefficients
    [F(1)] + DENSE_64[1:],
    SPARSE_64[:1] + [F(0)] * 64,  # degree 0 at trunc 64
    [F(1), F(-2), F(0), F(1, 3)] + [F(0)] * 61,
]


@pytest.mark.parametrize("r", [F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(7, 3)])
@pytest.mark.parametrize("a", POW_INPUTS)
def test_pow_rational_matches_double_sum_oracle(a, r):
    assert Fps(a).pow_rational(r).coeffs == tuple(poly_pow_rational(a, r))


@pytest.mark.parametrize("a", POW_INPUTS)
def test_pow_rational_minus_one_and_half(a):
    f = Fps(a)
    assert f.pow_rational(-1) == f.reciprocal()
    assert f.pow_rational(0) == Fps.one(f.trunc)
    assert f.pow_rational(1) == f
    root = f.pow_rational(F(1, 2))
    assert root * root == f


@pytest.mark.parametrize(
    "c,n,trunc", [(F(6), 2, 64), (F(-1, 3), 1, 20), (F(5, 2), 5, 33), (F(2), 7, 6)]
)
@pytest.mark.parametrize("r", [F(-3, 4), F(1, 2), F(-1), F(5, 3)])
def test_pow_rational_of_sparse_binomial(c, n, trunc, r):
    # (1 - c x^n)^r has nonzero coefficients only at multiples of n.
    got = (Fps.one(trunc) - Fps.monomial(c, n, trunc)).pow_rational(r)
    assert list(got.coeffs) == binomial_series(-c, n, r, trunc)


def test_exp_and_pow_rational_do_not_multiply_series(monkeypatch):
    calls = []
    product = Fps.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Fps, "__mul__", counted)
    monkeypatch.setattr(Fps, "__rmul__", counted)
    Fps([0] + DENSE_64[1:]).exp()
    Fps.monomial(F(3, 2), 2, 64).exp()
    Fps([1] + DENSE_64[1:]).pow_rational(F(-3, 4))
    assert calls == []


def test_exp_and_pow_rational_match_oracles_on_seeded_inputs():
    rng = Random(7)
    for _ in range(150):
        trunc = rng.randint(0, 16)
        cs = [rand_fraction(rng) if rng.random() < 0.6 else F(0) for _ in range(trunc + 1)]
        r = F(rng.randint(-9, 9), rng.randint(1, 6))
        a, b = [F(0)] + cs[1:], [F(1)] + cs[1:]
        assert Fps(a).exp().coeffs == tuple(poly_exp(a, trunc))
        assert Fps(b).pow_rational(r).coeffs == tuple(poly_pow_rational(b, r))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_fractions, min_size=0, max_size=13))
def test_exp_matches_taylor_oracle_randomized(tail):
    a = [F(0)] + tail
    assert Fps(a).exp().coeffs == tuple(poly_exp(a, len(a) - 1))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_fractions, min_size=0, max_size=13), small_fractions)
def test_pow_rational_matches_double_sum_oracle_randomized(tail, r):
    a = [F(1)] + tail
    assert Fps(a).pow_rational(r).coeffs == tuple(poly_pow_rational(a, r))


# -- algebraic laws on seeded random series --------------------------------------


def test_mul_commutative_and_associative():
    rng = Random(161)
    for _ in range(25):
        f = Fps(rand_coeffs(rng, 16), 16)
        g = Fps(rand_coeffs(rng, 16), 16)
        h = Fps(rand_coeffs(rng, 16), 16)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_compose_associative():
    rng = Random(162)
    for _ in range(15):
        f = Fps(rand_coeffs(rng, 12), 12)
        g = Fps(rand_coeffs(rng, 12, order_one=True), 12)
        h = Fps(rand_coeffs(rng, 12, order_one=True), 12)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_reciprocal_round_trip():
    rng = Random(163)
    for _ in range(25):
        f = Fps(rand_coeffs(rng, 16, unit=True), 16)
        assert f * f.reciprocal() == Fps.one(16)


def test_compositional_inverse_round_trips_both_ways():
    rng = Random(164)
    for _ in range(15):
        g = Fps(rand_coeffs(rng, 10, order_one=True), 10)
        h = g.compositional_inverse()
        assert g.compose(h) == Fps.x(10)
        assert h.compose(g) == Fps.x(10)


def test_pow_rational_addition_law():
    rng = Random(165)
    for _ in range(15):
        cs = rand_coeffs(rng, 10)
        cs[0] = F(1)
        f = Fps(cs, 10)
        p = rand_fraction(rng)
        q = rand_fraction(rng)
        assert f.pow_rational(p) * f.pow_rational(q) == f.pow_rational(p + q)


def test_pow_rational_matches_repeated_mul_for_small_integers():
    rng = Random(166)
    for _ in range(10):
        cs = rand_coeffs(rng, 10)
        cs[0] = F(1)
        f = Fps(cs, 10)
        power = Fps.one(10)
        for k in range(6):
            assert f.pow_rational(k) == power
            power = power * f


def test_exp_is_additive():
    rng = Random(167)
    for _ in range(15):
        f = Fps(rand_coeffs(rng, 12, order_one=True), 12)
        g = Fps(rand_coeffs(rng, 12, order_one=True), 12)
        assert (f + g).exp() == f.exp() * g.exp()


def test_derivative_is_a_derivation():
    # Leibniz rule for D = x d/dx, which bracket, act and conj_transport rest on
    rng = Random(168)
    for _ in range(20):
        f = Fps(rand_coeffs(rng, 12), 12)
        g = Fps(rand_coeffs(rng, 12), 12)
        lhs = (f * g).xderiv()
        rhs = f.xderiv() * g + f * g.xderiv()
        assert lhs == rhs


# -- serialization -----------------------------------------------------------


def test_string_round_trip():
    f = Fps(["-3/2", 0, 7], 4)
    assert f.to_strings() == ["-3/2", "0", "7", "0", "0"]
    assert Fps(f.to_strings()) == f


def test_to_dict_schema():
    assert Fps([1, -1], 2).to_dict() == {"coeffs": ["1", "-1", "0"], "trunc": 2}
