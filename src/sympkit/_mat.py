"""Small dense exact linear algebra on tuples-of-tuples.

Matrices are immutable row tuples over any coefficient domain with +, -, *
(and / for the routines that need a field).  Nothing here is clever; the
matrices are 2x2 or 4x4 throughout the package, and every exact solve runs
on the one Gauss-Jordan elimination, row_reduce.
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
