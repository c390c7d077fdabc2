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


def poly_pow_rational(a, r):
    """a^r through trunc len(a) - 1 for a[0] = 1, by two Fraction sums over a p' = r a' p."""
    assert a[0] == 1
    r = F(r)
    p = [F(1)]
    for k in range(len(a) - 1):
        s1 = sum((F(i + 1) * a[i + 1] * p[k - i] for i in range(k + 1)), F(0))
        s2 = sum((a[i] * (k - i + 1) * p[k - i + 1] for i in range(1, k + 1)), F(0))
        p.append((r * s1 - s2) / (k + 1))
    return p


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


def first_commutation_failure(s, a, sign):
    """First cell (i, j), row by row, where S A != sign * A S on dense lists; None if none."""
    lhs, rhs = mat_mul(s, a), mat_scale(mat_mul(a, s), sign)
    for i in range(len(a)):
        for j in range(i + 1):
            if lhs[i][j] != rhs[i][j]:
                return {"i": i, "j": j, "lhs": str(lhs[i][j]), "rhs": str(rhs[i][j])}
    return None


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


def log_unitriangular(a):
    """log(I + N) = sum_(1 <= k < dim) (-1)^(k+1) N^k / k for an exact unit lower-triangular a."""
    dim = len(a)
    if any(a[i][i] != 1 for i in range(dim)):
        raise ValueError("matrix logarithm needs a unit diagonal")
    nil = mat_sub(a, mat_identity(dim))
    acc = [[F(0)] * dim for _ in range(dim)]
    power = mat_identity(dim)
    for k in range(1, dim):
        power = mat_mul(power, nil)
        acc = mat_sub(acc, mat_scale(power, F((-1) ** k, k)))
    return acc


def rk4_stages(a, x0, t, steps):
    """Classical RK4 for x' = a x on a dense float matrix, stage by stage."""
    h = float(t) / steps
    x = [float(v) for v in x0]
    for _ in range(steps):
        k1 = mat_vec(a, x)
        k2 = mat_vec(a, [xi + h / 2 * ki for xi, ki in zip(x, k1)])
        k3 = mat_vec(a, [xi + h / 2 * ki for xi, ki in zip(x, k2)])
        k4 = mat_vec(a, [xi + h * ki for xi, ki in zip(x, k3)])
        x = [
            xi + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
            for xi, a1, a2, a3, a4 in zip(x, k1, k2, k3, k4)
        ]
    return x


def orbit_signature(x):
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


def dense(trimatrix):
    """TriMatrix -> dense list-of-lists with explicit zeros above the diagonal."""
    d = trimatrix.dim
    return [
        [trimatrix.entry(i, j) for j in range(d)]
        for i in range(d)
    ]


# -- routes from a dense section back to series --------------------------


def extract_generator(a):
    """(chi, alpha) of a dense section in the Lie pattern chi[i-j] + j*alpha[i-j].

    chi is read off column 0 and alpha off column 1, and every entry is
    then checked against the pattern.  Both lists have dim - 1 entries:
    column 1 pins alpha only through x^(dim-2).
    """
    dim = len(a)
    if dim < 3:
        raise ValueError(f"pattern extraction needs dim >= 3, got {dim}")
    chi = [a[k][0] for k in range(dim)]
    alpha = [a[k + 1][1] - chi[k] for k in range(dim - 1)]
    for i in range(dim):
        for j in range(1, i + 1):
            if a[i][j] != chi[i - j] + j * alpha[i - j]:
                raise ValueError(f"entry ({i}, {j}) = {a[i][j]} does not fit the pattern")
    return chi[: dim - 1], alpha


def riordan_from_columns(a):
    """(f, g) of the Riordan matrix whose dense section is a, through x^(dim-2).

    Column 0 is f/g (the image of 1) and column 1 is x f/g^2 (the image
    of x), so g = x c0/c1 and f = g c0; the division by x costs one order.
    """
    trunc = len(a) - 2
    c0 = [row[0] for row in a]
    c1_over_x = [row[1] for row in a[1:]]
    g = poly_mul(c0, poly_reciprocal(c1_over_x), trunc)
    return poly_mul(g, c0, trunc), g


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
