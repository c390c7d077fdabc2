"""Truncated formal power series with exact rational coefficients.

A series carries an explicit truncation order ``N`` and stores the
coefficients of 1, x, ..., x**N; all arithmetic happens modulo x**(N+1).
Combining series of different truncation orders truncates to the smaller
one, so pipelines never silently promote unknown coefficients to zeros.
``truncate`` alone checks an order against the stored one: a negative order
raises InvalidTruncation, a higher one its subclass InsufficientTruncation,
and every matrix section and prefix truncates its series first.

Coefficients are exact :class:`fractions.Fraction` values at the API:
``Fps.coeffs`` is a tuple of Fractions in lowest terms.  Floats are
rejected at construction time: every identity this package cares about is
exact, and the test suites compare coefficients with zero tolerance.
Anything that genuinely needs irrational values (diagonal exponentials,
numerical integration) lives at the matrix level, not here.

The product and the reciprocal run their loops on the Python-int numerators
over one common denominator and reduce each output coefficient once.  ``exp``
and rational powers share one first-order recurrence (J. C. P. Miller's).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Union

Rational = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class InvalidTruncation(SeriesError):
    """Truncation order is negative or otherwise unusable."""


class InsufficientTruncation(InvalidTruncation):
    """Requested order exceeds the stored truncation order."""


class NotAUnit(SeriesError):
    """Reciprocal of a series with zero constant term."""


class CompositionNeedsPositiveOrder(SeriesError):
    """Inner series of a composition has a nonzero constant term."""


class NotInvertibleUnderComposition(SeriesError):
    """Compositional inverse of a series whose order is not exactly 1."""


class ExpNeedsZeroConstantTerm(SeriesError):
    """Exponential of a series with a nonzero constant term."""


class PowNeedsUnitConstantOne(SeriesError):
    """Fractional power of a series whose constant term is not 1."""


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints, ``"p/q"`` / decimal strings and Fractions; reject floats."""
    if isinstance(value, float):
        raise TypeError(
            "float coefficients are not allowed in exact series; "
            "pass a Fraction, an int, or a 'p/q' string"
        )
    return Fraction(value)


def _degree(cs: tuple[Fraction, ...]) -> int:
    """Index of the last nonzero coefficient; -1 if all are zero."""
    k = len(cs) - 1
    while k >= 0 and not cs[k]:
        k -= 1
    return k


def _over_common_denominator(cs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators ``N`` and the least ``D > 0`` with ``cs[i] == N[i] / D``."""
    d = math.lcm(*[c.denominator for c in cs])
    if d == 1:
        return [c.numerator for c in cs], 1
    return [c.numerator * (d // c.denominator) for c in cs], d


class Fps:
    """A formal power series truncated at order ``trunc``.

    Immutable; every operation returns a fresh series.  The stored
    coefficient list always has exactly ``trunc + 1`` entries.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = (), trunc: int | None = None):
        cs = [as_fraction(c) for c in coeffs]
        if trunc is None:
            if not cs:
                raise InvalidTruncation("empty coefficient list needs an explicit trunc")
            trunc = len(cs) - 1
        if trunc < 0:
            raise InvalidTruncation(f"truncation order must be >= 0, got {trunc}")
        if len(cs) < trunc + 1:
            cs.extend([_ZERO] * (trunc + 1 - len(cs)))
        else:
            del cs[trunc + 1 :]
        self._coeffs = tuple(cs)

    @classmethod
    def _from_tuple(cls, coeffs: tuple[Fraction, ...]) -> "Fps":
        """Wrap a non-empty tuple of Fractions this module built, without re-coercing it.

        The truncation order is ``len(coeffs) - 1``.
        """
        series = object.__new__(cls)
        series._coeffs = coeffs
        return series

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "Fps":
        return cls((), trunc)

    @classmethod
    def one(cls, trunc: int) -> "Fps":
        return cls((_ONE,), trunc)

    @classmethod
    def x(cls, trunc: int) -> "Fps":
        return cls.monomial(1, 1, trunc)

    @classmethod
    def monomial(cls, coeff: Rational, power: int, trunc: int) -> "Fps":
        """The series ``coeff * x**power`` (zero if power exceeds trunc)."""
        if power < 0:
            raise SeriesError(f"monomial power must be >= 0, got {power}")
        if trunc < 0:
            raise InvalidTruncation(f"truncation order must be >= 0, got {trunc}")
        cs = [_ZERO] * (trunc + 1)
        if power <= trunc:
            cs[power] = as_fraction(coeff)
        return cls._from_tuple(tuple(cs))

    # -- inspection --------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.trunc:
            raise IndexError(f"coefficient index {k} outside stored range 0..{self.trunc}")
        return self._coeffs[k]

    def constant(self) -> Fraction:
        return self._coeffs[0]

    def prefix(self, upto: int) -> tuple[Fraction, ...]:
        """Coefficients 0..upto, for comparisons across truncation orders."""
        return self.truncate(upto)._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fps):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self._coeffs)
        return f"Fps([{body}]; O(x^{self.trunc + 1}))"

    # -- linear operations -------------------------------------------

    def _common(self, other: "Fps") -> int:
        return min(self.trunc, other.trunc)

    def __add__(self, other) -> "Fps":
        if isinstance(other, Fps):
            n = self._common(other)
            pairs = zip(self._coeffs[: n + 1], other._coeffs)
            return Fps._from_tuple(tuple([a + b for a, b in pairs]))
        return Fps._from_tuple((self._coeffs[0] + as_fraction(other),) + self._coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "Fps":
        return Fps._from_tuple(tuple([-c for c in self._coeffs]))

    def __sub__(self, other) -> "Fps":
        return self + (-other if isinstance(other, Fps) else -as_fraction(other))

    def __rsub__(self, other) -> "Fps":
        return (-self) + other

    def scale(self, c: Rational) -> "Fps":
        c = as_fraction(c)
        return Fps._from_tuple(tuple([c * a for a in self._coeffs]))

    def __mul__(self, other) -> "Fps":
        if not isinstance(other, Fps):
            return self.scale(other)
        n = self._common(other)
        da = _degree(self._coeffs[: n + 1])
        db = _degree(other._coeffs[: n + 1])
        if da < 0 or db < 0:
            return Fps._from_tuple((_ZERO,) * (n + 1))
        # a_i = A_i / d_a and b_j = B_j / d_b, so c_k = C_k / (d_a d_b) with
        # C_k = sum A_i B_(k-i) over integers; B is stored reversed so that
        # each C_k is one dot product of two contiguous slices.
        a, d_a = _over_common_denominator(self._coeffs[: da + 1])
        b, d_b = _over_common_denominator(other._coeffs[: db + 1])
        b.reverse()
        d = d_a * d_b
        top = min(n, da + db)
        out = []
        for k in range(top + 1):
            lo = k - db if k > db else 0
            hi = k if k < da else da
            c = sum(map(mul, a[lo : hi + 1], b[db - k + lo : db - k + hi + 1]))
            out.append(Fraction(c, d) if c else _ZERO)
        out.extend([_ZERO] * (n - top))
        return Fps._from_tuple(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Fps":
        if isinstance(other, Fps):
            return self * other.reciprocal()
        return self.scale(Fraction(1, 1) / as_fraction(other))

    # -- structural helpers ------------------------------------------

    def truncate(self, trunc: int) -> "Fps":
        if trunc > self.trunc:
            raise InsufficientTruncation(
                f"cannot extend trunc {self.trunc} to {trunc}: higher coefficients unknown"
            )
        if trunc < 0:
            raise InvalidTruncation(f"truncation order must be >= 0, got {trunc}")
        return Fps._from_tuple(self._coeffs[: trunc + 1])

    def xmul(self) -> "Fps":
        """Multiply by x, keeping the truncation order (top coefficient drops)."""
        return Fps._from_tuple((_ZERO,) + self._coeffs[:-1])

    def xdiv(self) -> "Fps":
        """Divide by x; requires a zero constant term.  Truncation drops by one."""
        if self._coeffs[0]:
            raise SeriesError("cannot divide by x: nonzero constant term")
        if self.trunc == 0:
            raise InvalidTruncation("cannot divide a trunc-0 series by x")
        return Fps._from_tuple(self._coeffs[1:])

    def xderiv(self) -> "Fps":
        """x * f'(x), computed without losing the top coefficient."""
        return Fps._from_tuple(tuple([k * c for k, c in enumerate(self._coeffs)]))

    # -- multiplicative structure ------------------------------------

    def reciprocal(self) -> "Fps":
        """Series g with f*g = 1 mod x^(trunc+1); needs f(0) != 0."""
        if not self._coeffs[0]:
            raise NotAUnit("reciprocal needs a nonzero constant term")
        # With f = F/d over integers, H_k = F_0^(k+1) [x^k](1/F) satisfies
        # H_0 = 1 and H_k = -sum_(i>=1) F_i F_0^(i-1) H_(k-i), all integers;
        # then g_k = d H_k / F_0^(k+1).
        f, d = _over_common_denominator(self._coeffs[: _degree(self._coeffs) + 1])
        f0 = f[0]
        weights = []
        power = 1
        for fi in f[1:]:
            weights.append(fi * power)
            power *= f0
        h = [1]
        for _ in range(self.trunc):
            h.append(-sum(map(mul, weights, reversed(h))))
        out = []
        power = f0
        for hk in h:
            out.append(Fraction(d * hk, power) if hk else _ZERO)
            power *= f0
        return Fps._from_tuple(tuple(out))

    def compose(self, inner: "Fps") -> "Fps":
        """f(inner(x)) by Horner evaluation; inner must have order >= 1.

        Horner starts at the degree of f below the common truncation, so a
        zero top coefficient costs no product.
        """
        if inner._coeffs[0]:
            raise CompositionNeedsPositiveOrder(
                "composition needs an inner series of order >= 1"
            )
        n = self._common(inner)
        g = inner if inner.trunc == n else inner.truncate(n)
        coeffs = self._coeffs[: n + 1]
        degree = max((k for k, c in enumerate(coeffs) if c), default=0)
        acc = Fps((coeffs[degree],), n)
        for k in range(degree - 1, -1, -1):
            acc = acc * g + coeffs[k]
        return acc

    def compositional_inverse(self) -> "Fps":
        """The series h with f(h(x)) = h(f(x)) = x, via Lagrange inversion.

        Requires order exactly 1.  Coefficient k of the inverse is
        (1/k) [x^(k-1)] (x / f(x))^k.
        """
        if self.trunc < 1 or self._coeffs[0] or not self._coeffs[1]:
            raise NotInvertibleUnderComposition(
                "compositional inverse needs order exactly 1"
            )
        w = self.xdiv().reciprocal()  # x/f, order 0, trunc-1
        out = [_ZERO] * (self.trunc + 1)
        power = Fps.one(self.trunc - 1)
        for k in range(1, self.trunc + 1):
            power = power * w
            out[k] = power[k - 1] / k
        return Fps(out, self.trunc)

    def _first_order(self, u: Fraction, v: int) -> "Fps":
        """The p with p(0) = 1 and (1 + v (f - f(0))) p' = u f' p, by J. C. P. Miller's
        recurrence ``k p_k = sum_(i>=1) (u i - v (k - i)) f_i p_(k-i)`` (Knuth, TAOCP
        vol. 2, sec. 4.7) over the nonzero terms, with integer weights over u's denominator."""
        terms = [(i, c) for i, c in enumerate(self._coeffs) if i and c]
        un, ud = u.numerator, u.denominator
        p = [_ONE]
        for k in range(1, self.trunc + 1):
            s = _ZERO
            for i, c in terms:
                if i > k:
                    break
                if p[k - i]:
                    s += (un * i - v * ud * (k - i)) * c * p[k - i]
            p.append(s / (ud * k))
        return Fps._from_tuple(tuple(p))

    def exp(self) -> "Fps":
        """sum f^k / k!, the solution of p' = f' p; requires a zero constant term."""
        if self._coeffs[0]:
            raise ExpNeedsZeroConstantTerm("exp needs a series of order >= 1")
        return self._first_order(_ONE, 0)

    def pow_rational(self, r: Rational) -> "Fps":
        """f**r for rational r, with f(0) = 1: the principal branch, f p' = r f' p."""
        r = as_fraction(r)
        if self._coeffs[0] != 1:
            raise PowNeedsUnitConstantOne("rational power needs constant term 1")
        return self._first_order(r, 1)

    # -- serialization -----------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as "p/q" strings in lowest terms ("p" when q = 1)."""
        return [str(c) for c in self._coeffs]

    def to_floats(self) -> list[float]:
        return [float(c) for c in self._coeffs]

    def to_dict(self) -> dict:
        return {"coeffs": self.to_strings(), "trunc": self.trunc}
