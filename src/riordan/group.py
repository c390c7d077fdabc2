"""The Riordan group and its finite triangular projections.

A Riordan matrix is written here as a pair ``T(f|g)`` of series with
nonzero constant terms: column j of the infinite matrix has generating
function ``x^j f / g^(j+1)``, so the matrix is lower triangular with the
geometric progression ``f(0)/g(0)^(j+1)`` on the diagonal.  Products,
inverses, the action on series and the involution test all work on the
pair; :class:`TriMatrix` holds the finite sections used to cross-check
them.

Sections are exact (Fraction entries) everywhere except three places that
build float sections on purpose: the scaling-and-squaring exponential
``lie._expm_float``, the integrator ``flows.rk4_integrate`` and the float
diagonal of the CLI's ``exp --n 0 --mode float``.  A section holds one
number type throughout, and sections are compared with exact ``==`` only.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .fps import Fps, InsufficientTruncation

_ONE = Fraction(1)


class NotRiordan(ValueError):
    """Pair (f, g) fails the nonzero-constant-term requirement."""


class TriMatrix:
    """Lower-triangular square matrix, given and stored as ragged rows: row i has i + 1 entries.

    Entries are all exact Fractions or, for the float sections named in
    the module docstring, all Python floats.  The arithmetic keeps the
    entries' type, and equality is exact ``==``.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self._rows = tuple(map(tuple, rows))
        if not self._rows:
            raise ValueError("matrix needs at least one row")
        for i, row in enumerate(self._rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} must have {i + 1} entries, got {len(row)}")

    @classmethod
    def identity(cls, dim: int) -> "TriMatrix":
        return cls([[_ONE if i == j else Fraction(0) for j in range(i + 1)] for i in range(dim)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "TriMatrix":
        zero = values[0] * 0
        return cls([[values[i] if i == j else zero for j in range(i + 1)] for i in range(len(values))])

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple, ...]:
        return self._rows

    def entry(self, i: int, j: int):
        if j > i:
            return self._rows[0][0] * 0
        return self._rows[i][j]

    def principal(self, dim: int) -> "TriMatrix":
        """Top-left dim x dim section (delete trailing rows and columns)."""
        if dim > self.dim:
            raise ValueError(f"cannot take a {dim}-dim section of a {self.dim}-dim matrix")
        return TriMatrix([self._rows[i] for i in range(dim)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TriMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"TriMatrix({[list(map(str, r)) for r in self._rows]})"

    # -- arithmetic ---------------------------------------------------

    def mul(self, other: "TriMatrix") -> "TriMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        # entry (i, j) is the sum over j <= k <= i of a[i][k] * b[k][j]; a
        # non-empty sum keeps the entries' type, Fraction or float
        cols = [[row[j] for row in other._rows[j:]] for j in range(self.dim)]
        return TriMatrix(
            [[sum(map(mul, row[j:], cols[j])) for j in range(len(row))] for row in self._rows]
        )

    def add(self, other: "TriMatrix") -> "TriMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return TriMatrix(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self._rows, other._rows)]
        )

    def scale(self, c) -> "TriMatrix":
        return TriMatrix([[c * x for x in r] for r in self._rows])

    def matvec(self, vec: Sequence) -> tuple:
        if len(vec) != self.dim:
            raise ValueError("vector length must match matrix dimension")
        return tuple(sum(map(mul, row, vec)) for row in self._rows)

    def as_float(self) -> "TriMatrix":
        return TriMatrix([[float(x) for x in r] for r in self._rows])

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        if any(isinstance(x, float) for r in self._rows for x in r):
            rows = [[float(x) for x in r] for r in self._rows]
        else:
            rows = [[str(x) for x in r] for r in self._rows]
        return {"dim": self.dim, "rows": rows}

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in r) for r in self._rows) + "\n"


class RiordanMatrix:
    """T(f|g): the Riordan matrix whose column j generates x^j f / g^(j+1)."""

    __slots__ = ("_f", "_g")

    def __init__(self, f: Fps, g: Fps):
        if not f.constant():
            raise NotRiordan("f must have a nonzero constant term")
        if not g.constant():
            raise NotRiordan("g must have a nonzero constant term")
        n = min(f.trunc, g.trunc)
        self._f = f.truncate(n)
        self._g = g.truncate(n)

    @classmethod
    def identity(cls, trunc: int) -> "RiordanMatrix":
        return cls(Fps.one(trunc), Fps.one(trunc))

    @classmethod
    def pascal(cls, trunc: int) -> "RiordanMatrix":
        return cls(Fps.one(trunc), Fps([1, -1], trunc))

    @property
    def f(self) -> Fps:
        return self._f

    @property
    def g(self) -> Fps:
        return self._g

    @property
    def trunc(self) -> int:
        return self._f.trunc

    def __eq__(self, other) -> bool:
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        return self._f == other._f and self._g == other._g

    def __hash__(self) -> int:
        return hash((self._f, self._g))

    def __repr__(self) -> str:
        return f"RiordanMatrix(f={self._f!r}, g={self._g!r})"

    def to_matrix(self, n: int) -> TriMatrix:
        """The (n+1) x (n+1) section; entry (i, j) = [x^i] x^j f / g^(j+1)."""
        invg = self._g.truncate(n).reciprocal()
        col = self._f.truncate(n) * invg
        rows = [[col[i]] for i in range(n + 1)]
        for j in range(1, n + 1):
            col = (col * invg).xmul()
            for i in range(j, n + 1):
                rows[i].append(col[i])
        return TriMatrix(rows)

    def __mul__(self, other: "RiordanMatrix") -> "RiordanMatrix":
        """Group product: T(f|g) T(l|m) = T(f * l(x/g) | g * m(x/g))."""
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        w = self._g.reciprocal().xmul()  # x/g
        return RiordanMatrix(self._f * other._f.compose(w), self._g * other._g.compose(w))

    def inverse(self) -> "RiordanMatrix":
        """T(f|g)^(-1) = T(1 / f(x/A) | A), where x/A inverts x/g under composition.

        The A series only carries trunc-1 coefficients, so the result loses
        one order of truncation; over-truncate the input when a deep section
        of the inverse is needed.
        """
        xa = self._x_over_a()
        return RiordanMatrix(self._f.compose(xa).reciprocal(), xa.xdiv().reciprocal())

    def apply(self, gamma: Fps) -> Fps:
        """Action on a series: T(f|g)(gamma) = (f/g) * gamma(x/g)."""
        invg = self._g.reciprocal()
        return self._f * invg * gamma.compose(invg.xmul())

    def a_sequence(self) -> Fps:
        """The series A with x/A the compositional inverse of x/g.

        Drives the entry recurrence d(i,j) = sum_k A_k d(i-1, j-1+k); the
        recurrence is tested against this closed form, never used to build it.
        """
        return self._x_over_a().xdiv().reciprocal()

    def _x_over_a(self) -> Fps:
        """x/A, the compositional inverse of x/g."""
        if self.trunc < 1:
            raise InsufficientTruncation("inverse and a_sequence need trunc >= 1")
        return self._g.reciprocal().xmul().compositional_inverse()


def involution_m(sign: int, trunc: int) -> RiordanMatrix:
    """The diagonal involutions: +1 gives T(-1|-1) = diag(1,-1,1,...),
    -1 gives its negative T(1|-1) = diag(-1,1,-1,...)."""
    if sign == 1:
        return RiordanMatrix(Fps([-1], trunc), Fps([-1], trunc))
    if sign == -1:
        return RiordanMatrix(Fps([1], trunc), Fps([-1], trunc))
    raise ValueError(f"sign must be +1 or -1, got {sign}")


def is_involution(r: RiordanMatrix, depth: int) -> bool:
    """True iff the depth-section of R*R = T(F|G) is the identity: its column j
    is x^j F / G^(j+1), so iff F = G mod x^(depth+1) and G = 1 mod x^depth."""
    square = r * r
    f, g = square.f.truncate(depth), square.g.truncate(depth)
    return f == g and g.coeffs[:depth] == Fps.one(depth).coeffs[:depth]


def is_pseudo_involution(r: RiordanMatrix, depth: int) -> bool:
    """True iff R*M is an involution to the given depth (M = T(-1|-1))."""
    return is_involution(r * involution_m(1, r.trunc), depth)
