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
independent route.  `exp_truncated_oracle` exponentiates finite sections
(exactly when the diagonal is zero, in floats otherwise) and is the
oracle the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fps import Fps, Rational, as_fraction
from .group import InsufficientTruncation, RiordanMatrix, TriMatrix

class PatternFitFailure(ValueError):
    """Matrix does not match the chi/alpha lower-triangular pattern."""


class ExactModeIrrational(ValueError):
    """Requested value is irrational and cannot be produced in exact mode."""


class RequiresZeroDiagonal(ValueError):
    """Operation is only exact for generators with zero diagonal."""


class DegenerateColumn(ValueError):
    """Column read back from an exponential does not have order 1."""


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

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement(self._chi + other._chi, self._alpha + other._alpha)

    def __neg__(self) -> "LieElement":
        return LieElement(-self._chi, -self._alpha)

    def scale(self, c: Rational) -> "LieElement":
        return LieElement(self._chi.scale(c), self._alpha.scale(c))

    def to_matrix(self, n: int) -> TriMatrix:
        if n > self.trunc:
            raise InsufficientTruncation(
                f"matrix section {n} needs trunc >= {n}, have {self.trunc}"
            )
        chi, alpha = self._chi, self._alpha
        return TriMatrix(
            [[chi[i - j] + j * alpha[i - j] for j in range(i + 1)] for i in range(n + 1)]
        )

    def act(self, h: Fps) -> Fps:
        """chi*h + x*alpha*h', the action as a derivation plus multiplier."""
        return self._chi * h + self._alpha * h.xderiv()

    def to_json_dict(self) -> dict:
        return {"chi": self._chi.to_dict(), "alpha": self._alpha.to_dict()}


@dataclass(frozen=True)
class MonomialGenerator:
    """Names L(a x^n, b x^n): the matrix with a + jb on the n-th subdiagonal."""

    a: Fraction
    b: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.n < 0:
            raise ValueError(f"subdiagonal index must be >= 0, got {self.n}")

    def lie_element(self, trunc: int) -> LieElement:
        return LieElement(
            Fps.monomial(self.a, self.n, trunc), Fps.monomial(self.b, self.n, trunc)
        )

    @property
    def has_zero_diagonal(self) -> bool:
        return self.n >= 1 or (self.a == 0 and self.b == 0)

    def to_json_dict(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "n": self.n}


def extract_generator(mat: TriMatrix) -> LieElement:
    """Recover (chi, alpha) from a matrix in the Lie-algebra pattern.

    chi[k] is read off column 0 and alpha[k] off column 1; every remaining
    entry is then checked against chi[i-j] + j*alpha[i-j].
    """
    d = mat.dim
    if d < 3:
        raise ValueError(f"pattern extraction needs dim >= 3, got {d}")
    chi = [mat.entry(k, 0) for k in range(d)]
    alpha = [mat.entry(k + 1, 1) - chi[k] for k in range(d - 1)]
    for i in range(d):
        for j in range(i + 1):
            expected = chi[i - j] if j == 0 else chi[i - j] + j * alpha[i - j]
            if mat.entry(i, j) != expected:
                raise PatternFitFailure(
                    f"entry ({i}, {j}) = {mat.entry(i, j)} does not fit the pattern"
                )
    return LieElement(Fps(chi, d - 1), Fps(alpha, d - 2))


def bracket(left: LieElement, right: LieElement) -> LieElement:
    """Commutator of the matrix forms, fitted back to a Lie element.

    The fit doubles as a structural assertion: the algebra is closed, so a
    PatternFitFailure here signals a bug, not bad input.
    """
    n = min(left.trunc, right.trunc)
    if n < 2:
        raise InsufficientTruncation("bracket needs truncation order >= 2")
    a = left.to_matrix(n)
    b = right.to_matrix(n)
    return extract_generator(a.mul(b).sub(b.mul(a)))


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
    which is irrational unless t = 0 or a = b = 0; those cases raise
    ExactModeIrrational and are served in float mode by
    `exp_truncated_oracle` instead.
    """
    t = as_fraction(t)
    a, b, n = genr.a, genr.b, genr.n
    if n == 0:
        if t == 0 or (a == 0 and b == 0):
            return RiordanMatrix.identity(trunc)
        raise ExactModeIrrational(
            "n = 0 gives diagonal entries exp(t(a + j b)); use float mode"
        )
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
    t = as_fraction(t)
    a, b, n = genr.a, genr.b, genr.n
    if n == 0:
        if t == 0 or (a == 0 and b == 0):
            return h
        raise ExactModeIrrational(
            "n = 0 scales coefficients by exp(t(a + j b)); use float mode"
        )
    if b == 0:
        return Fps.monomial(a * t, n, h.trunc).exp() * h
    base = Fps.one(h.trunc) - Fps.monomial(b * n * t, n, h.trunc)
    amplitude = base.pow_rational(-a / (n * b))
    start = base.pow_rational(Fraction(-1, n)).xmul()
    return amplitude * h.compose(start)


def exp_truncated_oracle(elt: LieElement, t, n: int) -> TriMatrix:
    """Exponential of the (n+1)-section of t * elt, independent of closed forms.

    Zero-diagonal generators with rational t: the section is nilpotent, so
    the finite Taylor sum is exact in rational arithmetic.  Anything else
    falls back to float scaling-and-squaring (entrywise accuracy ~1e-12 at
    desk scale), which raises OverflowError when an entry leaves the float
    range.
    """
    mat = elt.to_matrix(n)
    if elt.has_zero_diagonal and not isinstance(t, float):
        return _taylor(mat.scale(as_fraction(t)), n)
    return _expm_float(mat.as_float().scale(float(t)))


_TAYLOR_ORDER = 20


def _taylor(scaled: TriMatrix, order: int) -> TriMatrix:
    """sum scaled^k / k! for k <= order, in the entries' own number type.

    Stops at the first all-zero term, so a nilpotent section pays one
    product per nonzero power only.
    """
    one = type(scaled.entry(0, 0))(1)
    acc = term = TriMatrix.diagonal([one] * scaled.dim)
    for k in range(1, order + 1):
        term = term.mul(scaled).scale(one / k)
        if not any(map(any, term.rows)):
            break
        acc = acc.add(term)
    return acc


def _expm_float(mat: TriMatrix) -> TriMatrix:
    norm = max(sum(abs(x) for x in row) for row in mat.rows)
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


def exp_to_riordan(elt: LieElement, t: Rational, trunc: int) -> RiordanMatrix:
    """Recover T(f|g) from the exponential of a zero-diagonal generator.

    Column 0 of the exponential is the series f/g (the image of 1) and
    column 1 is x f/g^2 (the image of x), so g = x*c0/c1 and f = g*c0.
    The result loses one order of truncation to the column division.
    """
    if not elt.has_zero_diagonal:
        raise RequiresZeroDiagonal("exact recovery needs chi(0) = alpha(0) = 0")
    if trunc < 1:
        raise InsufficientTruncation("column recovery needs trunc >= 1")
    mat = exp_truncated_oracle(elt, as_fraction(t), trunc)
    c0 = Fps([mat.entry(i, 0) for i in range(trunc + 1)], trunc)
    c1 = Fps([mat.entry(i, 1) for i in range(trunc + 1)], trunc)
    if c1.order() != 1:
        raise DegenerateColumn("column 1 of the exponential must have order 1")
    g = c0 * c1.xdiv().reciprocal()
    return RiordanMatrix(g * c0, g)


def log_unitriangular(mat: TriMatrix) -> TriMatrix:
    """Exact matrix logarithm of I + N with N nilpotent: sum (-1)^(k+1) N^k / k."""
    d = mat.dim
    for i in range(d):
        if mat.entry(i, i) != 1:
            raise ValueError("matrix logarithm needs a unit diagonal")
    nil = mat.sub(TriMatrix.identity(d))
    acc = nil
    term = nil
    for k in range(2, d):
        term = term.mul(nil)
        acc = acc.add(term.scale(Fraction((-1) ** (k + 1), k)))
    return acc
