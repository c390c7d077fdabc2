"""The Lie algebra of the Riordan group and its exponential map.

An element is a pair (chi, alpha) of series; its infinite matrix has
entry (i, j) = chi[i-j] + j * alpha[i-j] below the diagonal and it acts
on a series h as chi*h + x*alpha*h'.  The one-parameter subgroups of the
monomial family L(a x^n, b x^n) have closed forms:

    b != 0, n >= 1:  T( (1 - bnt x^n)^((b-a)/(nb)) | (1 - bnt x^n)^(1/n) )
    b == 0:          T( exp(a t x^n) | 1 )
    n == 0:          diagonal entries exp(t(a + jb)), i.e. T(e^((a-b)t) | e^(-bt))

The same subgroup solves the initial value problem
u_t = chi*u + x*alpha*u_x, u(x,0) = h, and `characteristic_solution`
computes that solution directly from the characteristic curves as an
independent route; it also gives the exact flows of `flows.project_flow`.
`exp_truncated_oracle` exponentiates finite sections and is the oracle
the closed forms are tested against: for a rational t as a finite Taylor
sum on the integer section read off the numerators of chi, alpha and t
over one common denominator, with no Fraction section built; for a float
t by float scaling and squaring of the section.  Each builder truncates its
series to the section index first, so `Fps.truncate` refuses a negative or
too deep index.  An exact exponential or flow exists only at t = 0 or on a
zero diagonal; `_exact_time` decides that for every route and raises the
one ExactModeIrrational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .fps import Fps, InsufficientTruncation, Rational, _over_common_denominator, as_fraction
from .group import RiordanMatrix, TriMatrix


class ExactModeIrrational(ValueError):
    """Requested value is irrational and cannot be produced in exact mode."""


class LieElement:
    """Pair (chi, alpha) with matrix entries chi[i-j] + j*alpha[i-j]."""

    __slots__ = ("_chi", "_alpha")

    def __init__(self, chi: Fps, alpha: Fps):
        n = min(chi.trunc, alpha.trunc)
        self._chi = chi.truncate(n)
        self._alpha = alpha.truncate(n)

    @property
    def chi(self) -> Fps:
        return self._chi

    @property
    def alpha(self) -> Fps:
        return self._alpha

    @property
    def trunc(self) -> int:
        return self._chi.trunc

    @property
    def has_zero_diagonal(self) -> bool:
        return not self._chi.constant() and not self._alpha.constant()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return self._chi == other._chi and self._alpha == other._alpha

    def __hash__(self) -> int:
        return hash((self._chi, self._alpha))

    def __repr__(self) -> str:
        return f"LieElement(chi={self._chi!r}, alpha={self._alpha!r})"

    def scale(self, c: Rational) -> "LieElement":
        return LieElement(self._chi.scale(c), self._alpha.scale(c))

    def to_matrix(self, n: int) -> TriMatrix:
        chi, alpha = self._chi.truncate(n), self._alpha.truncate(n)
        return TriMatrix(
            [[chi[i - j] + j * alpha[i - j] for j in range(i + 1)] for i in range(n + 1)]
        )

    def act(self, h: Fps) -> Fps:
        """chi*h + x*alpha*h', the action as a derivation plus multiplier."""
        return self._chi * h + self._alpha * h.xderiv()


class MonomialGenerator:
    """Names L(a x^n, b x^n): the matrix with a + jb on the n-th subdiagonal."""

    __slots__ = ("_key",)

    def __init__(self, a: Rational, b: Rational, n: int):
        key = (as_fraction(a), as_fraction(b), n)
        if n < 0:
            raise ValueError(f"subdiagonal index must be >= 0, got {n}")
        self._key = key

    a = property(lambda self: self._key[0])
    b = property(lambda self: self._key[1])
    n = property(lambda self: self._key[2])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialGenerator):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return "MonomialGenerator(a={!r}, b={!r}, n={!r})".format(*self._key)

    def lie_element(self, trunc: int) -> LieElement:
        return LieElement(
            Fps.monomial(self.a, self.n, trunc), Fps.monomial(self.b, self.n, trunc)
        )

    def to_json_dict(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "n": self.n}


def bracket(left: LieElement, right: LieElement) -> LieElement:
    """[L1, L2] = (alpha1 D chi2 - alpha2 D chi1, alpha1 D alpha2 - alpha2 D alpha1), D = x d/dx.

    L acts as the multiplier chi plus the derivation alpha D.  The result
    has truncation order min(trunc) - 1, as the sections' commutator has.
    """
    n = min(left.trunc, right.trunc) - 1
    if n < 1:
        raise InsufficientTruncation("bracket needs truncation order >= 2")
    chi1, alpha1 = left.chi.truncate(n), left.alpha.truncate(n)
    chi2, alpha2 = right.chi.truncate(n), right.alpha.truncate(n)
    return LieElement(
        alpha1 * chi2.xderiv() - alpha2 * chi1.xderiv(),
        alpha1 * alpha2.xderiv() - alpha2 * alpha1.xderiv(),
    )


def conj_transport(r: RiordanMatrix, elt: LieElement) -> LieElement:
    """The unique element L~ with T(f|g) L = L~ T(f|g).

    Writing w = x/g and s = g - x g',

        chi~   = [ chi(w) s f - x alpha(w) (f'g - g'f) ] / (f s)
        alpha~ = g alpha(w) / s.
    """
    n = min(r.trunc, elt.trunc)
    f = r.f.truncate(n)
    g = r.g.truncate(n)
    w = g.reciprocal().xmul()
    chi_w = elt.chi.compose(w)
    alpha_w = elt.alpha.compose(w)
    s = g - g.xderiv()
    wronskian = f.xderiv() * g - g.xderiv() * f  # x (f'g - g'f)
    chi_t = (chi_w * s * f - alpha_w * wronskian) / (f * s)
    alpha_t = g * alpha_w / s
    return LieElement(chi_t, alpha_t)


def exp_monomial(genr: MonomialGenerator, t: Rational, trunc: int) -> RiordanMatrix:
    """Closed form of the one-parameter subgroup through L(a x^n, b x^n).

    Exact-rational output.  For n = 0 the entries are exp(t(a + jb)),
    which is irrational unless t = 0 or a = b = 0; `_exact_time` refuses
    the other cases, which `exp_truncated_oracle` serves at a float t.
    """
    a, b, n = genr.a, genr.b, genr.n
    t = _exact_time(t, n or not (a or b))
    if n == 0:
        return RiordanMatrix.identity(trunc)
    if b == 0:
        return RiordanMatrix(Fps.monomial(a * t, n, trunc).exp(), Fps.one(trunc))
    base = Fps.one(trunc) - Fps.monomial(b * n * t, n, trunc)
    f = base.pow_rational((b - a) / (n * b))
    g = base.pow_rational(Fraction(1, n))
    return RiordanMatrix(f, g)


def characteristic_solution(genr: MonomialGenerator, h: Fps, t: Rational) -> Fps:
    """Solve u_t = a x^n u + b x^(n+1) u_x, u(x,0) = h, along characteristics.

    For b != 0 the characteristic through (x, t) starts at
    x (1 - nbt x^n)^(-1/n), and the amplitude picks up the factor
    (1 - bnt x^n)^(-a/(nb)); for b = 0 the curves are vertical and only
    the amplitude moves.  Independent of `exp_monomial` by construction.
    """
    a, b, n = genr.a, genr.b, genr.n
    t = _exact_time(t, n or not (a or b))
    if n == 0:
        return h
    if b == 0:
        return Fps.monomial(a * t, n, h.trunc).exp() * h
    base = Fps.one(h.trunc) - Fps.monomial(b * n * t, n, h.trunc)
    amplitude = base.pow_rational(-a / (n * b))
    start = base.pow_rational(Fraction(-1, n)).xmul()
    return amplitude * h.compose(start)


def exp_truncated_oracle(elt: LieElement, t, n: int) -> TriMatrix:
    """Exponential of the (n+1)-section of t * elt, independent of closed forms.

    The series are truncated to n first, so a negative n raises
    InvalidTruncation and n > elt.trunc InsufficientTruncation.  The type
    of t picks the regime, here and nowhere else.  A float t runs float
    scaling-and-squaring (entrywise accuracy ~1e-12 at desk scale), which
    raises OverflowError when an entry leaves the float range.  A rational
    t gives Fractions: a zero-diagonal generator has nilpotent sections,
    whose Taylor sum is finite, and t = 0 gives the identity.  A nonzero
    diagonal at rational t != 0 has irrational entries, and `_exact_time`
    raises ExactModeIrrational.
    """
    elt = LieElement(elt.chi.truncate(n), elt.alpha.truncate(n))
    if isinstance(t, float):
        return _expm_float(elt.to_matrix(n).as_float().scale(t))
    return _exp_nilpotent_exact(elt, _exact_time(t, elt.has_zero_diagonal))


def _exact_time(t: Rational, zero_diagonal: bool) -> Fraction:
    """t as a Fraction; ExactModeIrrational unless t = 0 or the diagonal is zero.

    The diagonal of e^(tL) is exp(t(chi(0) + j alpha(0))).  Every exact
    exponential and flow asks here, so there is one refusal and one message.
    """
    t = as_fraction(t)
    if t and not zero_diagonal:
        raise ExactModeIrrational(
            "a nonzero diagonal at t != 0 gives irrational entries "
            "exp(t(chi(0) + j alpha(0))); use float mode"
        )
    return t


def _exp_nilpotent_exact(elt: LieElement, t: Fraction) -> TriMatrix:
    """exp of the full section of t * elt, nilpotent or zero, as exact Fractions.

    Reads the section of t * elt as N / d with N an integer section: the
    numerators of chi and alpha over their common denominator, times those
    of t.  The K-th partial Taylor sum is sum_k N^k d^(K-k) K!/k! over the
    one denominator d^K K!.  The powers of N are integer products, each
    step rescales the integer sum by d k, and each entry is reduced once at
    the end.  Stops at the first all-zero power.
    """
    dim = elt.trunc + 1
    nums, d = _over_common_denominator(elt.chi.coeffs + elt.alpha.coeffs)
    chi = [t.numerator * x for x in nums[:dim]]
    alpha = [t.numerator * x for x in nums[dim:]]
    d *= t.denominator
    rows = [[chi[i - j] + j * alpha[i - j] for j in range(i + 1)] for i in range(dim)]
    cols = [[row[j] for row in rows[j:]] for j in range(dim)]
    acc = [[1 if i == j else 0 for j in range(i + 1)] for i in range(dim)]
    power, denom = rows, 1
    for k in range(1, dim):  # N^dim = 0
        if k > 1:
            power = [[sum(map(mul, r[j:], cols[j])) for j in range(len(r))] for r in power]
        if not any(map(any, power)):
            break
        step = d * k
        acc = [[step * x + y for x, y in zip(r, s)] for r, s in zip(acc, power)]
        denom *= step
    return TriMatrix([[Fraction(x, denom) for x in row] for row in acc])


_TAYLOR_ORDER = 20


def _taylor(scaled: TriMatrix, order: int) -> TriMatrix:
    """sum scaled^k / k! for k <= order, on a float section.

    Stops at the first all-zero term, so a nilpotent section pays one
    product per nonzero power only.
    """
    acc = term = TriMatrix.diagonal([1.0] * scaled.dim)
    for k in range(1, order + 1):
        term = term.mul(scaled).scale(1.0 / k)
        if not any(map(any, term.rows)):
            break
        acc = acc.add(term)
    return acc


def _expm_float(mat: TriMatrix) -> TriMatrix:
    norm = max(sum(abs(x) for x in row) for row in mat.rows)
    if not math.isfinite(norm):  # halving inf never reaches 0.5
        raise OverflowError("matrix exponential leaves the float range")
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    acc = _taylor(mat.scale(0.5**squarings), _TAYLOR_ORDER)
    for _ in range(squarings):
        acc = acc.mul(acc)
    if not all(math.isfinite(x) for row in acc.rows for x in row):
        raise OverflowError("matrix exponential leaves the float range")
    return acc
