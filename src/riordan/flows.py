"""Finite linear systems approximating the series-level flows.

Projecting a Lie-algebra element to its (n+1) x (n+1) section turns the
series equation gamma' = L(gamma) into the linear ODE x' = A x on
R^(n+1).  The section acting on a state is the series action on its
generating series, so the exact flow of a monomial generator comes from
the characteristic curves, and sections only verify it.  This module
evaluates flows exactly or numerically, finds equilibria, and decides
whether a given involution is a symmetry (S A S^-1 = A) or a time-reversal
symmetry (S A S^-1 = -A) of a problem, at the generator level.
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

    __slots__ = ("generator", "_lie", "n", "dim", "matrix")

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
        self.matrix = self._lie.to_matrix(n)

    @classmethod
    def creation(cls, dim: int) -> "ApproachingProblem":
        """The problem generated by L(x, x), whose time-1 map is Pascal's triangle."""
        return cls(MonomialGenerator(Fraction(1), Fraction(1), 1), dim - 1)

    def _check_state(self, x):
        if len(x) != self.dim:
            raise ValueError(f"state vector must have {self.dim} components")
        return tuple(x)

    def is_creation_family(self) -> bool:
        g = self.generator
        return isinstance(g, MonomialGenerator) and (g.a, g.b, g.n) == (1, 1, 1)


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
    if not problem.is_creation_family() or problem.dim not in (2, 3):
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


def flow_trace(problem: ApproachingProblem, x0, times, rk4_steps: int | None = None) -> dict:
    """Sample the flow at the given times; optionally pair each row with RK4.

    Returns a dict with a CSV-style header and one row ``{"t", "x"}`` per
    time; when RK4 is requested each row also has ``"rk4"`` and the dict
    has ``rk4_steps`` and the max absolute error over all samples.
    """
    x0 = problem._check_state(x0)
    header = ["t"] + [f"x{i}" for i in range(problem.dim)]
    rows = []
    max_err = 0.0
    for t in times:
        state = project_flow(problem, x0, t)
        row = {"t": t, "x": state}
        if rk4_steps is not None:
            approx = rk4_integrate(problem, x0, float(t), rk4_steps)
            row["rk4"] = approx
            max_err = max(max_err, max(abs(float(e) - r) for e, r in zip(state, approx)))
        rows.append(row)
    out = {"header": header, "rows": rows}
    if rk4_steps is not None:
        out["rk4_steps"] = rk4_steps
        out["max_error"] = max_err
    return out


def pseudo_involution_flow_check(genr: MonomialGenerator, t, depth: int) -> bool:
    """(e^(tL) M)^2 = I through the depth-section, for the series-level subgroup.

    The section reads only coefficients through depth, so e^(tL) is built there.
    """
    return is_pseudo_involution(exp_monomial(genr, t, depth), depth)
