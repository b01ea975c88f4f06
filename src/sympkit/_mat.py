"""Small dense exact linear algebra on tuples-of-tuples, and the GSp4
conventions every module reads.

Matrices are immutable row tuples over any coefficient domain with +, -, *
(and / for the routines that need a field).  Nothing here is clever; the
matrices are 2x2 or 4x4 throughout the package, and every exact solve runs
on the one Gauss-Jordan elimination, row_reduce.

The conventions, each written once: the form of J = [[0, I2], [-I2, 0]]
(pairing), the six-pair rule that decides t(m) J m = nu J from it
(six_pairs, NULL_PAIRS), and the zero patterns of the Levi and endoscopic
subgroups (LEVI_PATTERNS).
"""

from fractions import Fraction

from ._base import one_like


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def shape(m):
    return len(m), len(m[0])


def identity(n, one=None):
    one = Fraction(1) if one is None else one
    zero = one - one
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    n, k = len(a), len(b)
    kk = len(b[0])
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(1, k)),
                  a[i][0] * b[0][j]) for j in range(kk))
        for i in range(n)
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scalar_mul(c, m):
    return tuple(tuple(c * x for x in row) for row in m)


def mat_pow(m, n):
    if n < 0:  # -1 >> 1 == -1: the loop below would never end
        raise ValueError("mat_pow needs a nonnegative exponent")
    out = identity(len(m), one_like(m[0][0]))
    base = m
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def det(m):
    "Division-free determinant by cofactor expansion (fine for n <= 4)."
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    out = None
    for j in range(n):
        if not m[0][j]:
            continue
        minor = tuple(tuple(row[t] for t in range(n) if t != j) for row in m[1:])
        term = m[0][j] * det(minor)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    if out is None:
        return m[0][0] - m[0][0]  # a zero of the right domain
    return out


def row_reduce(rows):
    """Gauss-Jordan elimination over a field domain: the reduced row echelon
    form of `rows` and its pivot columns.  Each pivot is inverted once, as a
    PrimeFieldElem division inverts on every call."""
    out = [list(row) for row in rows]
    pivots = []
    for col in range(len(out[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(out)) if out[i][col]), None)
        if piv is None:
            continue
        out[r], out[piv] = out[piv], out[r]
        inv = one_like(out[r][col]) / out[r][col]
        out[r] = [inv * x for x in out[r]]
        for i in range(len(out)):
            if i != r and out[i][col]:
                f = out[i][col]
                out[i] = [x - f * y for x, y in zip(out[i], out[r])]
        pivots.append(col)
    return freeze(out), tuple(pivots)


def mat_inv(m):
    "Inverse over a field domain: row_reduce of (m | 1)."
    n = len(m)
    ident = identity(n, one_like(m[0][0]))
    red, pivots = row_reduce((*row, *irow) for row, irow in zip(m, ident))
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n:] for row in red)


def mat_eq(a, b):
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def diag(*entries):
    zero = entries[0] - entries[0]
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
    )


def block2(a, b, c, d):
    "Assemble a 4x4 from four 2x2 blocks."
    top = tuple(tuple(a[i]) + tuple(b[i]) for i in range(2))
    bot = tuple(tuple(c[i]) + tuple(d[i]) for i in range(2))
    return top + bot


def pairing(x, y):
    """<x, y> = t(x) J y = x0 y2 + x1 y3 - x2 y0 - x3 y1.  A vector's first
    axis is its coordinate, so tuples and numpy column arrays (4, ...) pair
    alike, the latter entry by entry."""
    return x[0] * y[2] + x[1] * y[3] - x[2] * y[0] - x[3] * y[1]


# the column pairs i < j whose form vanishes on a similitude; the other two,
# (0, 2) and (1, 3), give nu
NULL_PAIRS = ((0, 1), (0, 3), (1, 2), (2, 3))


def six_pairs(form):
    """(ok, nu) from form(i, j) = <c_i, c_j> on the columns c_i of m: entry
    (i, j) of t(m) J m is <c_i, c_j>, and the form is alternating, so t(m) J
    m = nu J iff <c0, c2> = <c1, c3> = nu and the NULL_PAIRS give 0; ok also
    needs nu != 0.  The values are compared with nu * 0, a zero of their own
    domain (a PrimeFieldElem equals no int), and joined by &, so numpy
    arrays of values give an array ok."""
    nu = form(0, 2)
    zero = nu * 0
    ok = (nu != zero) & (form(1, 3) == nu)
    for i, j in NULL_PAIRS:
        ok = ok & (form(i, j) == zero)
    return ok, nu


# The block patterns of the Levi subgroups and of the endoscopic subgroup,
# row by row, 0 where an entry vanishes: "B" the diagonal torus, "P" the
# Siegel Levi (A, u t(A)^-1), "Q" the Klingen Levi, "Hen" the checkerboard
# pairs of 2x2 blocks of equal determinant.
LEVI_PATTERNS = {
    "B": ("1000", "0100", "0010", "0001"),
    "P": ("1100", "1100", "0011", "0011"),
    "Q": ("1000", "0101", "0010", "0101"),
    "Hen": ("1010", "0101", "1010", "0101"),
}
