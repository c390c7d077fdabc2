"""Independent oracle implementations used by the test suite.

Everything here is deliberately naive (plain lists, schoolbook loops)
and shares no code with the package, so agreement between the two is
meaningful.
"""

from fractions import Fraction
from random import Random

F = Fraction


# -- raw polynomial arithmetic on coefficient lists -------------------


def poly_mul(a, b, trunc):
    out = [F(0)] * (trunc + 1)
    for i, ai in enumerate(a[: trunc + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: trunc + 1 - i]):
            out[i + j] += ai * bj
    return out


def poly_reciprocal(a):
    """1/a through trunc len(a) - 1, by the Fraction recurrence; needs a[0] != 0."""
    inv0 = F(1) / a[0]
    out = [inv0]
    for k in range(1, len(a)):
        s = F(0)
        for i in range(1, k + 1):
            s += a[i] * out[k - i]
        out.append(-inv0 * s)
    return out


def poly_compose(a, b, trunc):
    """a(b(x)) through trunc, by Horner over every coefficient of a; needs b[0] = 0."""
    assert not b[0]
    out = [F(0)] * (trunc + 1)
    for c in reversed(a[: trunc + 1]):
        out = poly_mul(out, b, trunc)
        out[0] += c
    return out


def poly_exp(a, trunc):
    """sum a^k / k! for a coefficient list with a[0] = 0."""
    assert not a[0]
    acc = [F(0)] * (trunc + 1)
    acc[0] = F(1)
    power = list(acc)
    fact = 1
    for k in range(1, trunc + 1):
        power = poly_mul(power, a, trunc)
        fact *= k
        for i, c in enumerate(power):
            acc[i] += c / fact
    return acc


def binom(r, k):
    """Generalized binomial coefficient C(r, k) for rational r."""
    r = F(r)
    out = F(1)
    for i in range(k):
        out *= (r - i) / (i + 1)
    return out


def binomial_series(coeff, power, r, trunc):
    """(1 + coeff * x^power)^r as a coefficient list, via the binomial series."""
    out = [F(0)] * (trunc + 1)
    k = 0
    while k * power <= trunc:
        out[k * power] = binom(r, k) * F(coeff) ** k
        k += 1
    return out


# -- dense exact matrices as lists of lists ----------------------------


def mat_identity(dim):
    return [[F(1) if i == j else F(0) for j in range(dim)] for i in range(dim)]


def mat_mul(a, b):
    dim = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]

def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in r] for r in a]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def lower_tri_inverse(a):
    """Invert a lower-triangular matrix by forward substitution, exactly."""
    dim = len(a)
    inv = [[F(0)] * dim for _ in range(dim)]
    for j in range(dim):
        inv[j][j] = F(1) / a[j][j]
        for i in range(j + 1, dim):
            s = sum(a[i][k] * inv[k][j] for k in range(j, i))
            inv[i][j] = -s / a[i][i]
    return inv


def nilpotent_exp(a, t):
    """exp(t a) for a strictly lower-triangular exact matrix."""
    dim = len(a)
    b = mat_scale(a, F(t))
    acc = mat_identity(dim)
    term = mat_identity(dim)
    for k in range(1, dim):
        term = mat_scale(mat_mul(term, b), F(1, k))
        acc = [[x + y for x, y in zip(r, s)] for r, s in zip(acc, term)]
    return acc


def dense(trimatrix):
    """TriMatrix -> dense list-of-lists with explicit zeros above the diagonal."""
    d = trimatrix.dim
    return [
        [trimatrix.entry(i, j) for j in range(d)]
        for i in range(d)
    ]


def solve_a_sequence(entries, depth):
    """Recover a_0..a_(depth-1) from the column-1 recurrence of an entry table.

    entries is dense lower-triangular with nonzero diagonal; the system
    d(i,1) = sum_k a_k d(i-1,k) is triangular in the unknowns.
    """
    a = []
    for i in range(1, depth + 1):
        s = sum(a[k] * entries[i - 1][k] for k in range(i - 1))
        a.append((entries[i][1] - s) / entries[i - 1][i - 1])
    return a


def recurrence_holds(entries, a_coeffs, depth):
    """Check d(i,j) = sum_k a_k d(i-1, j-1+k) for 1 <= j <= i <= depth."""
    for i in range(1, depth + 1):
        for j in range(1, i + 1):
            s = sum(
                a_coeffs[k] * entries[i - 1][j - 1 + k]
                for k in range(i - j + 1)
                if j - 1 + k < len(entries[i - 1]) and k < len(a_coeffs)
            )
            if entries[i][j] != s:
                return False, (i, j)
    return True, None


# -- seeded random generators ------------------------------------------


def rand_fraction(rng: Random, zero_ok=True) -> F:
    num = rng.randint(-4, 4)
    if not zero_ok:
        while num == 0:
            num = rng.randint(-4, 4)
    return F(num, rng.randint(1, 3))


def rand_coeffs(rng: Random, trunc, unit=False, order_one=False):
    """Random rational coefficient list; unit forces c0 != 0, order_one forces
    c0 = 0, c1 != 0."""
    cs = [rand_fraction(rng) for _ in range(trunc + 1)]
    if unit:
        cs[0] = rand_fraction(rng, zero_ok=False)
    if order_one:
        cs[0] = F(0)
        cs[1] = rand_fraction(rng, zero_ok=False)
    return cs
