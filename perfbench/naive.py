"""Naive truncated power series on lists of Fractions, for checking outputs.

Written apart from ``riordan.fps`` on purpose: an output is checked by a
route that shares no arithmetic kernel with the code that produced it, so a
faster kernel cannot agree with itself by construction.  A list of length
``N + 1`` holds the coefficients of 1, x, ..., x**N.
"""

from __future__ import annotations

from fractions import Fraction


def mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        if a[i]:
            for j in range(n - i):
                out[i + j] += a[i] * b[j]
    return out


def add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def inv(a: list) -> list:
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        out.append(-out[0] * sum(a[i] * out[k - i] for i in range(1, k + 1)))
    return out


def xmul(a: list) -> list:
    return [Fraction(0)] + list(a[:-1])


def compose(a: list, b: list) -> list:
    """a(b(x)) for b(0) = 0, by Horner's rule."""
    acc = [Fraction(0)] * len(b)
    for c in reversed(a[: len(b)]):
        acc = mul(acc, b)
        acc[0] += c
    return acc


def apply(f: list, g: list, h: list) -> list:
    """T(f|g) acting on h: (f/g) h(x/g)."""
    ig = inv(g)
    return mul(mul(f, ig), compose(h, xmul(ig)))


def act(chi: list, alpha: list, h: list) -> list:
    """The Lie element (chi, alpha) acting on h: chi*h + x*alpha*h'."""
    return add(mul(chi, h), mul(alpha, [k * c for k, c in enumerate(h)]))


def flow(a, b, n: int, t, h: list) -> list:
    """e^(tL) h for L = (a x^n, b x^n), n >= 1, as the Taylor sum in t.

    L raises the order by n, so the sum stops after len(h) / n terms.
    """
    chi = [Fraction(0)] * len(h)
    alpha = [Fraction(0)] * len(h)
    if n < len(h):
        chi[n], alpha[n] = Fraction(a), Fraction(b)
    acc, term, k = list(h), list(h), 0
    while any(term):
        k += 1
        term = [Fraction(t) * c / k for c in act(chi, alpha, term)]
        acc = add(acc, term)
    return acc


def section(f: list, g: list, dim: int) -> list[list]:
    """Rows of the dim x dim section of T(f|g), column j being x^j f / g^(j+1)."""
    ig = inv(g)
    col = mul(f, ig)
    cols = [col]
    for _ in range(1, dim):
        col = mul(xmul(col), ig)
        cols.append(col)
    return [[cols[j][i] for j in range(i + 1)] for i in range(dim)]
