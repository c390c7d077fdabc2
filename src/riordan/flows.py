"""Finite linear systems approximating the series-level flows.

Projecting a Lie-algebra element to its (n+1) x (n+1) section turns the
series equation gamma' = L(gamma) into the linear ODE x' = A x on
R^(n+1).  The section acting on a state is the series action on its
generating series, so the exact flow of a monomial generator comes from
the characteristic curves, and sections only verify it: only RK4 and a
float flow build one.  This module computes flow states (exactly, in
floats or by RK4), finds equilibria, decides whether a Riordan matrix S
is a symmetry (S A S^-1 = A) or a time reversal (S A S^-1 = -A) of a
problem, and whether a lower-triangular S maps the orbit of a nilpotent
flow onto itself.  S L S^-1 is conj_transport(S|n, L), with S|n the pair
of S truncated to n; the section reads its chi through x^n and its alpha
through x^(n-1), so the symmetry tests compare exactly those.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fps import Fps
from .group import RiordanMatrix, TriMatrix
from .lie import LieElement, MonomialGenerator, _taylor
from .lie import characteristic_solution, conj_transport, exp_truncated_oracle


class UnsupportedGenerator(ValueError):
    """Orbit analysis needs a generator with a zero diagonal (a nilpotent section)."""


class ApproachingProblem:
    """The linear ODE x' = A x with A the n-section of a generator."""

    __slots__ = ("generator", "_lie", "n", "dim")

    def __init__(self, generator: MonomialGenerator | LieElement, n: int):
        self.generator = generator
        if isinstance(generator, MonomialGenerator):
            self._lie = generator.lie_element(n)
        elif isinstance(generator, LieElement):
            self._lie = LieElement(generator.chi.truncate(n), generator.alpha.truncate(n))
        else:
            raise TypeError("generator must be a MonomialGenerator or LieElement")
        self.n = n
        self.dim = n + 1

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
    step = _taylor(problem._lie.to_matrix(problem.n).as_float().scale(float(t) / steps), 4)
    for _ in range(steps):
        x = step.matvec(x)
    if not all(map(math.isfinite, x)):
        raise OverflowError("RK4 state leaves the float range")
    return x


def _velocity(problem: ApproachingProblem, x) -> tuple:
    """A x for a rational state: the series action on sum x_i x^i, truncated.

    A float component raises TypeError.
    """
    return problem._lie.act(Fps(problem._check_state(x), problem.n)).coeffs


def equilibria_check(problem: ApproachingProblem, x) -> bool:
    """True iff A x = 0 exactly.  Exact: x is rational."""
    return not any(_velocity(problem, x))


def check_symmetry(s: RiordanMatrix, problem: ApproachingProblem) -> bool:
    """S A S^-1 = A; a TriMatrix S raises TypeError, too shallow an S InsufficientTruncation."""
    return _conjugates_to(s, problem, 1)


def check_time_reversal(s: RiordanMatrix, problem: ApproachingProblem) -> bool:
    """S A S^-1 = -A, as in check_symmetry; then S e^(tA) = e^(-tA) S for every t."""
    return _conjugates_to(s, problem, -1)


def _conjugates_to(s: RiordanMatrix, problem: ApproachingProblem, sign: int) -> bool:
    if not isinstance(s, RiordanMatrix):
        raise TypeError("S must be a RiordanMatrix")
    n = problem.n
    moved = conj_transport(RiordanMatrix(s.f.truncate(n), s.g.truncate(n)), problem._lie)
    want = problem._lie.scale(sign)
    return moved.chi == want.chi and moved.alpha.coeffs[:n] == want.alpha.coeffs[:n]


def orbit_symmetric_under(s: TriMatrix, problem: ApproachingProblem, x0) -> bool:
    """Does S map the orbit through x0 onto itself?  Exact: x0 is rational.

    An equilibrium is its own orbit, so the test is S x0 = x0.  Otherwise A,
    which has a zero diagonal, is nilpotent; let k be the first index with
    (A x0)_k != 0.  On the orbit x(t) the coordinates before k are constant
    and x_k(t) = x0_k + t (A x0)_k, so a lower-triangular S can map the
    orbit onto itself only as S x(t) = x(alpha t + beta), with
    alpha = S_kk != 0 and beta = ((S x0)_k - x0_k) / (A x0)_k.  Both sides
    are polynomials in t of degree below dim, so dim sample times decide it.
    """
    if not problem._lie.has_zero_diagonal:
        raise UnsupportedGenerator("orbit analysis needs a generator with a zero diagonal")
    x0 = problem._check_state(x0)
    v = _velocity(problem, x0)
    if not any(v):
        return s.matvec(x0) == x0
    k = next(i for i, vi in enumerate(v) if vi)
    alpha = s.rows[k][k]
    if not alpha:
        return False
    beta = (s.matvec(x0)[k] - x0[k]) / v[k]
    return all(
        s.matvec(project_flow(problem, x0, t)) == project_flow(problem, x0, alpha * t + beta)
        for t in range(problem.dim)
    )

