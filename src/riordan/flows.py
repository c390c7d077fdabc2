"""Finite linear systems approximating the series-level flows.

Projecting a Lie-algebra element to its (n+1) x (n+1) section turns the
series equation gamma' = L(gamma) into the linear ODE x' = A x on
R^(n+1).  The section acting on a state is the series action on its
generating series, so the exact flow of a monomial generator comes from
the characteristic curves, and sections only verify it: a problem builds
its section only when RK4, the equilibrium test or a symmetry test reads
it.  This module computes flow states (exactly, in floats or by RK4),
finds equilibria, and decides whether a given involution is a symmetry
(S A S^-1 = A) or a time-reversal symmetry (S A S^-1 = -A) of a problem,
at the generator level.  The `flow` command of the CLI samples and
prints a flow at several times.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fps import Fps, as_fraction
from .group import InsufficientTruncation, TriMatrix, involution_m, is_pseudo_involution
from .lie import LieElement, MonomialGenerator, _taylor, characteristic_solution
from .lie import exp_monomial, exp_truncated_oracle

#: Flow times whose points, with x0, decide orbit_symmetric_under.
_ORBIT_SAMPLES = (Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2))


class UnsupportedGenerator(ValueError):
    """Closed-form orbit analysis is only available for the creation family."""


class ApproachingProblem:
    """The linear ODE x' = A x with A the n-section of a generator."""

    __slots__ = ("generator", "_lie", "n", "dim")

    def __init__(self, generator: MonomialGenerator | LieElement, n: int):
        if n < 0:
            raise ValueError(f"section index must be >= 0, got {n}")
        self.generator = generator
        if isinstance(generator, MonomialGenerator):
            self._lie = generator.lie_element(n)
        elif isinstance(generator, LieElement):
            if generator.trunc < n:
                raise InsufficientTruncation(
                    f"generator trunc {generator.trunc} cannot fill an {n}-section"
                )
            self._lie = generator
        else:
            raise TypeError("generator must be a MonomialGenerator or LieElement")
        self.n = n
        self.dim = n + 1

    @property
    def matrix(self) -> TriMatrix:
        """The section A, built afresh on each read; exact monomial flows read none."""
        return self._lie.to_matrix(self.n)

    @classmethod
    def creation(cls, dim: int) -> "ApproachingProblem":
        """The problem generated by L(x, x), whose time-1 map is Pascal's triangle."""
        return cls(MonomialGenerator(Fraction(1), Fraction(1), 1), dim - 1)

    def _check_state(self, x):
        if len(x) != self.dim:
            raise ValueError(f"state vector must have {self.dim} components")
        return tuple(x)


def project_flow(problem: ApproachingProblem, x0, t):
    """exp(tA) x0: the series action on gamma = sum x0_i x^i, truncated.

    A float t runs the section exponential in floats.  A rational t takes a
    rational state (a float component raises TypeError) and gives the exact
    flow: along the characteristic curves for a monomial generator, by the
    section exponential for a `LieElement`, which has no closed form.
    """
    x0 = problem._check_state(x0)
    if not isinstance(t, float):
        gamma = Fps(x0, problem.n)
        if isinstance(problem.generator, MonomialGenerator):
            return characteristic_solution(problem.generator, gamma, t).coeffs
        x0 = gamma.coeffs
    return exp_truncated_oracle(problem._lie, t, problem.n).matvec(x0)


def rk4_integrate(problem: ApproachingProblem, x0, t: float, steps: int):
    """Classical fixed-step RK4 for x' = A x, in float arithmetic.

    On a linear system the four stages of a step expand to x -> R(hA) x,
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: the order-4 Taylor sum, built
    once.  Raises OverflowError when the state leaves the float range, even
    a zero state once the step matrix overflows (inf * 0.0 = nan).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = tuple(float(v) for v in problem._check_state(x0))
    step = _taylor(problem.matrix.as_float().scale(float(t) / steps), 4)
    for _ in range(steps):
        x = step.matvec(x)
    if not all(map(math.isfinite, x)):
        raise OverflowError("RK4 state leaves the float range")
    return x


def equilibria_check(problem: ApproachingProblem, x) -> bool:
    """True iff A x = 0 exactly."""
    x = problem._check_state(x)
    return all(v == 0 for v in problem.matrix.matvec(x))


def check_symmetry(s: TriMatrix, problem: ApproachingProblem) -> bool:
    """S A S^-1 = A, tested as S A = A S to avoid inverting S."""
    a = problem.matrix
    return s.mul(a) == a.mul(s)


def check_time_reversal(s: TriMatrix, problem: ApproachingProblem) -> bool:
    """S A S^-1 = -A, tested as S A = -A S to avoid inverting S.

    In exact arithmetic this gives S e^(tA) = e^(-tA) S for every t.
    """
    a = problem.matrix
    return s.mul(a) == a.mul(s).scale(Fraction(-1))


def _orbit_signature(x):
    """Complete orbit invariants for the creation family in dims 2 and 3.

    Dim 2: the orbit through (a, b) with a != 0 is the whole line x0 = a.
    Dim 3: the orbit through (a, b, c) with a != 0 is the parabola with
    constants (a, c - b^2/a); with a = 0, b != 0 it is the line
    x0 = 0, x1 = b.  Equilibria return None (singleton orbits).
    """
    if len(x) == 2:
        a, _ = x
        if a == 0:
            return None
        return ("line", a)
    a, b, c = x
    if a == 0 and b == 0:
        return None
    if a == 0:
        return ("line", b)
    return ("parabola", a, c - b * b / a)


def orbit_symmetric_under(s: TriMatrix, problem: ApproachingProblem, x0) -> bool:
    """Does S map the orbit through x0 onto itself?  Exact: x0 is rational.

    An equilibrium is its own orbit, so the test is S x0 = x0.  Any other
    orbit is a whole line or vertical parabola, which a lower-triangular S
    maps onto a line, a vertical parabola or a point.  That image is the
    orbit iff it holds distinct images of x0 and of the points at the
    `_ORBIT_SAMPLES` times, all on the orbit: three points fix a parabola.
    """
    if problem.generator != MonomialGenerator(1, 1, 1) or problem.dim not in (2, 3):
        raise UnsupportedGenerator(
            "orbit analysis is implemented for the creation family in dims 2 and 3"
        )
    x0 = tuple(map(as_fraction, problem._check_state(x0)))
    sig = _orbit_signature(x0)
    if sig is None:
        return s.matvec(x0) == x0
    images = {s.matvec(project_flow(problem, x0, t)) for t in (0, *_ORBIT_SAMPLES)}
    return len(images) == 1 + len(_ORBIT_SAMPLES) and all(
        _orbit_signature(y) == sig for y in images
    )


def projected_involution(sign: int, n: int) -> TriMatrix:
    """The (n+1)-section of the diagonal involution (sign +1) or its negative."""
    return involution_m(sign, n).to_matrix(n)


def pseudo_involution_flow_check(genr: MonomialGenerator, t, depth: int) -> bool:
    """(e^(tL) M)^2 = I through the depth-section, for the series-level subgroup.

    The section reads only coefficients through depth, so e^(tL) is built there.
    """
    return is_pseudo_involution(exp_monomial(genr, t, depth), depth)
