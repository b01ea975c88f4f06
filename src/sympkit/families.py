"""The explicit subgroup families of GSp4(F_ell), proven by one Schreier-Sims
chain in pure Python: nothing here loads numpy.

A chain's matrices are 16 ints mod ell (an entry fits a byte), column by
column: column c is m[4c:4c + 4].  A family is the group its generators
generate (_FAMILIES), proven without a listing (_closed_family).  Its
GroupSet is its chain: membership, inclusion and equality sift through it;
only the census lists the group (finite_census, numpy).
"""

from array import array
from itertools import product
from math import prod
from operator import index

from ._base import (PrimeFieldElem, _Frozen, _Record, _require_odd_prime,
                    quadratic_nonresidue, solve_sum_of_squares)
from ._mat import diag, mat_inv, mat_mul, row_reduce


def _bits_for(ell):
    "Bits per entry of a key; 16 entries must fit 64 bits, so ell <= 13."
    bits = max(1, (ell - 1).bit_length())
    if bits > 4:
        raise ValueError("ell = %d does not pack into 64-bit keys" % ell)
    return bits


# ---------------------------------------------------------------------------
# the closure engine: a base and strong generating set (Schreier-Sims)


_ONE = bytes((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))


def _matrix(m, ell):
    "A 4x4 integer matrix, given by its rows, as 16 ints mod ell."
    return bytes(int(x) % ell for col in zip(*m) for x in col)


def _columns(m):
    "The columns of a matrix of 16 ints, as vectors."
    return list(zip(*[iter(m)] * 4))


def _apply(g, cols, ell):
    """g v mod ell for each vector v of `cols`, as a list (a comprehension
    would read the entries of g from closure cells, at twice the cost)."""
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = g
    out = []
    for x, y, z, w in cols:
        out.append(((a0 * x + b0 * y + c0 * z + d0 * w) % ell,
                    (a1 * x + b1 * y + c1 * z + d1 * w) % ell,
                    (a2 * x + b2 * y + c2 * z + d2 * w) % ell,
                    (a3 * x + b3 * y + c3 * z + d3 * w) % ell))
    return out


def _mul(a, b, ell):
    "The product a b mod ell of two matrices of 16 ints."
    return bytes(sum(_apply(a, _columns(b), ell), ()))


class _Level:
    """Level k of a chain: strong generators `gens` fixing e_0, ...,
    e_(k-1), their inverses `inv`, the `orbit` of e_k, `where`, each
    vector's position in it (-1 off it), and act[s][p], that of gens[s]
    times point p; a vector (x, y, z, w) is read as x + ell y + ell^2 z +
    ell^3 w.  Point p was first reached as gens[via[p]] times point
    parent[p]: its transversal element u_p = gens[via[p]] u_parent[p] maps
    e_k to it, u_p^-1 = u_parent[p]^-1 inv[via[p]], and they are
    u[16p:16p + 16] and uinv[16p:16p + 16].  The Schreier generators of the
    first sifted[0] points by the first sifted[1] generators sift.  Flat
    arrays keep a level small."""

    __slots__ = ("k", "gens", "inv", "act", "orbit", "where", "u", "uinv",
                 "parent", "via", "sifted")

    def __init__(self, k, ell):
        "Level k with no strong generator: the orbit {e_k}."
        self.k, self.gens, self.inv, self.act, self.sifted = k, [], [], [], (1, 0)
        self.orbit, self.where = array("i", [ell ** k]), array("i", [-1]) * ell ** 4
        self.where[ell ** k] = 0
        self.u, self.uinv = bytearray(_ONE), bytearray(_ONE)
        self.parent, self.via = array("i", [-1]), array("i", [-1])

    def extended(self, gens, inv, ell):
        """This level with the strong generators `gens` added, its orbit
        grown by a breadth-first search (the new generators on the old
        orbit, then all on each round's new points); old points keep their
        transversal, so their Schreier generators by old ones still sift."""
        out = object.__new__(_Level)
        for name in ("orbit", "where", "u", "uinv", "parent", "via"):
            setattr(out, name, getattr(self, name)[:])
        out.k, out.gens, out.inv, out.sifted = self.k, self.gens + gens, \
            self.inv + inv, self.sifted
        out.act = [row[:] for row in self.act] + [array("i") for _ in gens]
        orbit, where, u, uinv = out.orbit, out.where, out.u, out.uinv
        front, first, c = range(len(orbit)), len(self.gens), 4 * self.k
        while front:
            size = len(orbit)
            for s in range(first, len(out.gens)):
                g, row = out.gens[s], out.act[s]
                points = [u[16 * p + c:16 * p + c + 4] for p in front]
                for p, (x, y, z, w) in zip(front, _apply(g, points, ell)):
                    v = x + ell * (y + ell * (z + ell * w))
                    q = where[v]
                    if q < 0:
                        q = where[v] = len(orbit)
                        orbit.append(v)
                        u += _mul(g, u[16 * p:16 * p + 16], ell)
                        uinv += _mul(uinv[16 * p:16 * p + 16], out.inv[s], ell)
                        out.parent.append(p)
                        out.via.append(s)
                    row.append(q)
            front, first = range(size, len(orbit)), 0
        return out


def _order(chain):
    "The order of the group of a complete chain: the product of its orbits."
    return prod(len(level.orbit) for level in chain)


def _with(chain, gens, low, ell):
    """The chain with each of `gens` a strong generator, and its inverse by
    _mat.mat_inv over PrimeFieldElem, of the levels from `low` to the first
    base point it moves; ValueError names the first singular one."""
    inv = []
    for i, g in enumerate(gens):
        try:
            rows = mat_inv([[PrimeFieldElem(ell, x) for x in row]
                            for row in zip(*_columns(g))])
        except ZeroDivisionError:
            raise ValueError("generator %d is singular mod %d" % (i, ell)) \
                from None
        inv.append(_matrix([[x.val for x in row] for row in rows], ell))
    moved = [next((k for k in range(4) if g[4 * k:4 * k + 4]
                   != _ONE[4 * k:4 * k + 4]), 4) for g in gens]  # 4: g = 1
    chain = list(chain)
    for k in range(low, 4):
        add = [t for t, first in enumerate(moved) if k <= first < 4]
        if add:
            chain[k] = chain[k].extended([gens[t] for t in add],
                                         [inv[t] for t in add], ell)
    return chain


def _sift(cols, levels, ell):
    """Sims' membership test of h, which fixes the base points before the
    `levels`, given by its columns `cols` from there on: None when h sifts
    to 1 through them, else (j, rest) for the first level j whose orbit
    misses its point, rest being the columns j, ..., 3 of what is left of h
    (it fixes e_0, ..., e_(j-1)).  Per level, only the later columns of
    uinv h are formed."""
    for level in levels:
        x, y, z, w = cols[0]
        pos = level.where[x + ell * (y + ell * (z + ell * w))]
        if pos < 0:
            return level.k, cols
        cols = cols[1:]
        if pos and cols:
            cols = _apply(level.uinv[16 * pos:16 * pos + 16], cols, ell)
    return None


def _residue(chain, i, start, ell):
    """(stop, found): the Schreier generators uinv[q] s u[p] of level i (q
    the point s p) from point `start` on, but for tree edges and those that
    level.sifted covers, are sifted on their columns i + 1, ..., 3 (_sift).
    found is None when all sift (level.sifted then covers all), else (j, r)
    for the first that does not, at point `stop`: r is its residue, which
    stopped at level j, so its columns before j are those of 1."""
    level = chain[i]
    u, uinv, parent, via = level.u, level.uinv, level.parent, level.via
    deeper = chain[i + 1:]
    (known, old), n = level.sifted, len(level.orbit)
    moves = list(zip(range(len(level.gens)), level.gens, level.act))
    for p in range(start, n):
        cols = _columns(u[16 * p:16 * p + 16])[i + 1:]
        for s, g, act in moves[old if p < known else 0:]:
            q = act[p]
            if parent[q] == p and via[q] == s:
                continue  # a tree edge: the identity
            found = _sift(_apply(uinv[16 * q:16 * q + 16],
                                 _apply(g, cols, ell), ell), deeper, ell)
            if found is not None:
                j, rest = found
                return p, (j, _ONE[:4 * j] + bytes(sum(rest, ())))
    level.sifted = (n, len(moves))
    return n, None


def _chain(gens, ell, base=None, cap=None):
    """A complete base and strong generating set of the group that the 4x4
    integer matrices `gens` generate mod ell, extending the complete chain
    `base` when given (deterministic Schreier-Sims: C. C. Sims, 1970; Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, 4.4).
    The base is e_0, ..., e_3, which only the identity fixes; level k holds
    the orbit of e_k under the strong generators that fix the earlier ones.
    Each generator joins the levels from 0 to the first base point it
    moves, and the levels are checked from the deepest changed one up:
    level i is complete when every Schreier generator sifts to the identity
    through the levels below it, and one that does not joins the levels
    from i + 1 to where it stopped, whose checks then resume.  Level i goes
    on later from the point where it stopped; a grown level keeps the
    Schreier generators that sifted (their deeper groups only grew).  The
    order, the product of the orbit lengths (_order), is known before any
    key is listed; one past `cap` stops the check."""
    levels = base or [_Level(k, ell) for k in range(4)]
    chain = _with(levels, [_matrix(g, ell) for g in gens], 0, ell)
    i = max((k for k in range(4) if chain[k] is not levels[k]), default=-1)
    start = [0] * 4  # per level, the point its check goes on from
    while i >= 0 and (cap is None or _order(chain) <= cap):
        start[i], found = _residue(chain, i, start[i], ell)
        if found is None:
            i -= 1
        else:
            j, r = found
            chain = _with(chain, [r], i + 1, ell)
            start[i + 1:j + 1] = [0] * (j - i)
            i = j
    return chain


def _of_order(chain, order, name):
    "The chain; AssertionError unless its group has exactly `order` elements."
    n = _order(chain)
    if n != order:
        raise AssertionError(
            "%s: the generators give more than %d elements" % (name, order)
            if n > order else "%s: the generators give %d elements, not %d"
            % (name, n, order))
    return chain


def _nu(m, ell):
    """nu with t(m) J m = nu J mod ell, nu a unit, for the 4x4 integer matrix
    m, else 0: the alternating form omega(c_i, c_j) = x0 y2 + x1 y3 - x2 y0 -
    x3 y1 (x = c_i, y = c_j) on its columns decides on the pairs i < j."""
    c = _columns(_matrix(m, ell))
    form = {(i, j): (c[i][0] * c[j][2] + c[i][1] * c[j][3] - c[i][2] * c[j][0]
                     - c[i][3] * c[j][1]) % ell
            for i in range(4) for j in range(i + 1, 4)}
    nu = form.pop((0, 2))
    return nu if form.pop((1, 3)) == nu and not any(form.values()) else 0


class GroupSet(_Frozen):
    """A proven group over F_ell (a family or a full group): its complete
    `chain` and the similitude `factors` that its proof found.  Membership,
    inclusion and equality sift through the chain (_sift), so none lists a
    key; only the census lists the group (finite_census, numpy)."""

    __slots__ = ("ell", "_chain", "_factors")

    def __init__(self, ell, chain, factors):
        for name, value in zip(self.__slots__, (ell, chain, tuple(factors))):
            object.__setattr__(self, name, value)

    @property
    def order(self):
        return _order(self._chain)

    def __len__(self):
        return self.order

    def _holds(self, m):
        "Whether the matrix m of 16 ints mod ell sifts to 1 through the chain."
        return _sift(_columns(m), self._chain, self.ell) is None

    def __contains__(self, item):
        """Whether the 4x4 integer matrix `item` lies in the group: it sifts
        to the identity, which alone fixes the base (Sims' membership test);
        anything else is no member."""
        try:
            rows = [[index(x) for x in row] for row in item]
        except TypeError:
            return False
        return ([len(row) for row in rows] == [4] * 4
                and self._holds(_matrix(rows, self.ell)))

    def subset_of(self, other):
        "Whether every generator of this group (level 0's) lies in `other`."
        return self.ell == other.ell and all(
            other._holds(g) for g in self._chain[0].gens)

    def __eq__(self, other):
        if isinstance(other, GroupSet):
            return (self.ell == other.ell and self.order == other.order
                    and self.subset_of(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.ell, self.order))

    def _blocks(self):
        "The matrices in passes, in listing order (finite_census._listing)."
        from .finite_census import _listing
        return _listing(self._chain, self.ell)

    def nu_values(self):
        "Similitude factor of every element, in listing order."
        from .finite_census import _similitude_info, np
        out = [np.empty(0, np.int64)]
        for mats in self._blocks():
            ok, nu = _similitude_info(mats, self.ell)
            if not ok.all():
                raise ValueError("set contains a non-similitude")
            out.append(nu)
        return np.concatenate(out)

    def similitude_factors(self):
        "The factors nu that occur, ascending: those its proof found."
        return list(self._factors)

    def __repr__(self):
        return "GroupSet(ell=%d, order=%d)" % (self.ell, self.order)


# ---------------------------------------------------------------------------
# subgroup families


class FamilySpec(_Record):
    """Which explicit subgroup (a tag of _FAMILIES) to build over which
    prime; the prime must pack into 64-bit keys (ell <= 13)."""

    __slots__ = ("tag", "ell")

    def __init__(self, tag, ell):
        if tag not in _FAMILIES:
            raise ValueError("unknown family tag %r" % (tag,))
        _require_odd_prime(ell)
        _bits_for(ell)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "ell", ell)

    def __repr__(self):
        return "FamilySpec(%r, %d)" % (self.tag, self.ell)


def _ext_params(ell):
    """(u, a, b) of the quadratic-extension families: u the least
    non-residue mod ell, (a, b) the least nonzero pair with a^2 + b^2 = u."""
    u = quadratic_nonresidue(ell)
    a, b = solve_sum_of_squares(u)
    return u.val, a.val, b.val


def _primitive_root(ell):
    "The least g whose powers are every unit mod the odd prime ell."
    return next(g for g in range(2, ell)
                if len({pow(g, k, ell) for k in range(1, ell)}) == ell - 1)


# the index-2 families are base u base.w for one signed permutation w each
# (t(w) = w^-1).  The block swap [[0, I], [I, 0]] extends the Siegel Levi
# (Case5), but lies INSIDE the checkerboard group and the S-block image (the
# S-matrix of antidiag(1, 1)); those are doubled by the outer symmetry: the
# basis exchange (0 1)(2 3) swaps the two checkerboard factors, and the
# block rotation pair conjugates every S-block to its quadratic conjugate.
# diag(1, 1, -1, -1) negates the B block of [[A, B], [uB, A]], the unitary
# conjugation at every ell (the block swap is one only when u^2 = 1).
_SWAP = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
_EXCHANGE = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
_ROT_PAIR = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
_NEG_LOWER = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))


# T and W generate SL2(F_ell), and with diag(g, 1), g the least primitive
# root, they generate GL2(F_ell); t(T)^-1 = _T_DUAL and t(W)^-1 = W.
_T = ((1, 1), (0, 1))
_T_DUAL = ((1, 0), (-1, 1))
_W = ((0, -1), (1, 0))


def _embed(*parts):
    "The 4x4 identity with each 2x2 block on the rows and columns `idx`."
    m = [list(row) for row in diag(1, 1, 1, 1)]
    for idx, block in parts:
        for (r, i), (c, j) in product(enumerate(idx), repeat=2):
            m[i][j] = int(block[r][c])
    return tuple(map(tuple, m))


# T and W in the SL2s of the Siegel and Klingen Levis; the four generate Sp4
_SIEGEL_SL2 = (_embed(((0, 1), _T), ((2, 3), _T_DUAL)),
               _embed(((0, 1), _W), ((2, 3), _W)))
_KLINGEN_SL2 = (_embed(((1, 3), _T)), _embed(((1, 3), _W)))


def _diags(ell, *exponents):
    "diag(g^e1, g^e2, g^e3, g^e4) for each tuple (e1, ..., e4)."
    g = _primitive_root(ell)
    return [diag(*(pow(g, e, ell) for e in es)) for es in exponents]


def _kron(*pairs):
    "The 4x4 sum of the Kronecker products p (x) q of the 2x2 pairs (p, q)."
    return tuple(tuple(sum(p[i >> 1][j >> 1] * q[i & 1][j & 1]
                           for p, q in pairs) for j in range(4))
                 for i in range(4))


def _case7_gens(ell):
    """The S-block images of E12(1), E12(sqrt u), E21(1), E21(sqrt u) and
    diag(g, 1) over F_ell(sqrt u): that of X + Y sqrt u has the 2x2 blocks
    x I + y [[a, b], [b, -a]] for the entries x of X and y of Y."""
    _, a, b = _ext_params(ell)
    one, zero = diag(1, 1), diag(0, 0)
    pairs = [(_T, zero), (one, ((0, 1), (0, 0))), (((1, 0), (1, 1)), zero),
             (one, ((0, 0), (1, 0))), (diag(_primitive_root(ell), 1), zero)]
    return [_kron((x, one), (y, ((a, b), (b, -a)))) for x, y in pairs]


def _case8_gens(ell):
    """[[A, B], [uB, A]] for three X = A + B sqrt u over F_ell(sqrt u), with
    N(x0 + x1 sqrt u) = x0^2 - u x1^2 and 'least' in the order of (x0, x1):
    the least non-monomial [[alpha, beta], [-conj(beta), conj(alpha)]] with
    N(alpha) + N(beta) = 1; diag(zeta, 1) for the least zeta of norm 1 and
    order ell + 1; and the least scalar z of norm g."""
    u = _ext_params(ell)[0]

    def norm(x):
        return (x[0] * x[0] - u * x[1] * x[1]) % ell

    def order(x):
        k, y = 1, x
        while y != (1, 0):
            k, y = k + 1, ((y[0] * x[0] + u * y[1] * x[1]) % ell,
                           (y[0] * x[1] + y[1] * x[0]) % ell)
        return k

    elems = [(x0, x1) for x0 in range(ell) for x1 in range(ell)]
    (a0, a1), (b0, b1) = next((x, y) for x in elems[1:] for y in elems[1:]
                              if (norm(x) + norm(y)) % ell == 1)
    c0, c1 = next(x for x in elems if norm(x) == 1 and order(x) == ell + 1)
    z0, z1 = next(x for x in elems if norm(x) == _primitive_root(ell))
    pairs = [(((a0, b0), (-b0, a0)), ((a1, b1), (b1, -a1))),
             (diag(c0, 1), diag(c1, 0)), (diag(z0, z0), diag(z1, z1))]
    return [_kron((diag(1, 1), x), (((0, 1), (u, 0)), y)) for x, y in pairs]


def _entries(*terms):
    """The linear condition sum c m[i, j] = 0 over the terms (c, i, j), as a
    row of 16 coefficients of the entries read row-major."""
    row = [0] * 16
    for c, i, j in terms:
        row[4 * i + j] += c
    return row


def _zeros(*rows):
    "m[i, j] = 0 wherever the pattern `rows` ('1010', ...) has 0."
    return lambda ell: [_entries((1, i, j)) for i, row in enumerate(rows)
                        for j, x in enumerate(row) if x == "0"]


def _blockwise(*combos):
    """In each 2x2 block [[p, q], [r, s]], c_p p + c_q q + c_r r + c_s s = 0
    for each (c_p, c_q, c_r, c_s) of `combos`."""
    return [_entries(*((c, 2 * bi + k // 2, 2 * bj + k % 2)
                       for k, c in enumerate(combo)))
            for combo in combos for bi in (0, 1) for bj in (0, 1)]


def _s_blocks(ell):
    "Every 2x2 block [[p, q], [r, s]] has r = q and b (p - s) = 2 a q."
    _, a, b = _ext_params(ell)
    return _blockwise((0, -1, 1, 0), (b, -2 * a, 0, -b))


def _unitary(ell):
    "[[A, B], [uB, A]]: the lower right block is A, the lower left u B."
    u = _ext_params(ell)[0]
    blocks = [(i, j) for i in (0, 1) for j in (0, 1)]
    return ([_entries((1, 2 + i, 2 + j), (-1, i, j)) for i, j in blocks]
            + [_entries((1, 2 + i, j), (-u, i, 2 + j)) for i, j in blocks])


# tag -> (generators, linear conditions and closed-form order of the family,
# or of the base that its extension extends; the extension: None, or the
# generators that extend the base and the index of the base in the family).
# The orders are standard (R. W. Carter, Finite Groups of Lie Type, 1985).
_LEVI_P = (  # [[A, 0], [0, t(A)^-1]], A = T, W, diag(g, 1); diag(1, 1, g, g)
    lambda ell: [*_SIEGEL_SL2, *_diags(ell, (1, 0, -1, 0), (0, 0, 1, 1))],
    _zeros("1100", "1100", "0011", "0011"),
    lambda q: q * (q * q - 1) * (q - 1) ** 2)
_HEN = (  # checkerboard (A, I), (I, A) for A = T, W; (D, D) for D = diag(g, 1)
    lambda ell: [*(_embed((i, a)) for a in (_T, _W) for i in ((0, 2), (1, 3))),
                 *_diags(ell, (1, 1, 0, 0))],
    _zeros("1010", "0101", "1010", "0101"),
    lambda q: (q - 1) * (q * (q * q - 1)) ** 2)
_FAMILIES = {
    # the torus diag(t1, t2, nu/t1, nu/t2)
    "LeviB": (lambda ell: _diags(ell, (1, 0, -1, 0), (0, 1, 0, -1),
                                 (0, 0, 1, 1)),
              _zeros("1000", "0100", "0010", "0001"),
              lambda q: (q - 1) ** 3, None),
    "LeviP": (*_LEVI_P, None),
    # t on e1, B on (e2, e4) and det(B)/t on e3, for (t, B) = (1, T),
    # (1, W), (1, diag(g, 1)) and (g, I)
    "LeviQ": (lambda ell: [*_KLINGEN_SL2,
                           *_diags(ell, (0, 1, 1, 0), (1, 0, -1, 0))],
              _zeros("1000", "0101", "0010", "0101"),
              lambda q: q * (q * q - 1) * (q - 1) ** 2, None),
    "Hen": (*_HEN, None),
    "Case5": (*_LEVI_P, ([_SWAP], 2)),
    "Case6": (*_HEN, ([_EXCHANGE], 2)),
    # the base: GL2(F_ell^2) with determinant in F_ell^x
    "Case7": (_case7_gens, _s_blocks,
              lambda q: (q - 1) * q * q * (q ** 4 - 1), ([_ROT_PAIR], 2)),
    # the base: the similitudes of U2(F_ell), [[A, B], [uB, A]]
    "Case8": (_case8_gens, _unitary,
              lambda q: (q - 1) * (q + 1) * q * (q * q - 1),
              ([_NEG_LOWER], 2)),
    # X (x) Y for X in GL2 and Y = diag(1, +-1) or antidiag(1, +-1): the
    # base X (x) I for X = T, W, diag(g, 1), extended by I (x) diag(1, -1)
    # and I (x) antidiag(1, 1) = _EXCHANGE, a Klein group K that commutes
    # with the base and meets it trivially: index 4 makes the family base.K
    "Case9": (lambda ell: [_embed(((0, 2), a), ((1, 3), a)) for a in (_T, _W)]
              + _diags(ell, (1, 1, 0, 0)),
              # every block a scalar x I
              lambda ell: _blockwise((0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1)),
              lambda q: q * (q * q - 1) * (q - 1),
              ([diag(1, -1, 1, -1), _EXCHANGE], 4)),
}


def _space(conditions, ell):
    """A basis, as 4x4 matrices, of the matrices that meet the rows of 16
    `conditions` mod ell: one per free column of their reduced form
    (_mat.row_reduce)."""
    red, pivots = row_reduce([[PrimeFieldElem(ell, int(x)) for x in row]
                              for row in conditions])
    basis = []
    for f in (c for c in range(16) if c not in pivots):
        entries = [int(c == f) for c in range(16)]
        for row, p in zip(red, pivots):
            entries[p] = -row[f].val % ell
        basis.append(tuple(zip(*[iter(entries)] * 4)))
    return basis


def _factors(gens, ell, name, known=()):
    """The subgroup of F_ell^x that the factors `known` and those of the
    matrices `gens` generate, ascending; AssertionError, naming `name`,
    unless each of `gens` is a similitude (_nu)."""
    nus = [_nu(g, ell) for g in gens]
    if not all(nus):
        raise AssertionError("%s: the generators leave the family (generator "
                             "%d is no similitude)" % (name, nus.index(0)))
    out = {1}
    for x in [*known, *nus]:
        out = {a * pow(x, k, ell) % ell for a in out for k in range(ell - 1)}
    return sorted(out)


def _closed_family(gens, conditions, order, ell, name):
    """(chain, factors): the chain of the group that `gens` generate, proven
    to be the family S = V n GSp4 of `order` elements, V the space that the
    linear `conditions` (rows of 16) cut out, and the factors of S, which
    nu, a homomorphism, maps the generators' onto (_factors); AssertionError,
    naming `name`, otherwise.  No element is listed: V is closed under
    products, checked on those of its basis (_space, at most 64), so S is a
    group; every generator lies in S, so the group does, each of its
    elements being a product of generators; and its order is |S|.  (Sp4:
    no condition, |Sp4| elements and factors [1]: the kernel of nu in S.)"""
    rows = [[int(x) % ell for x in row] for row in conditions]

    def breaks(m):
        entries = [int(x) for row in m for x in row]
        return any(sum(map(int.__mul__, row, entries)) % ell for row in rows)

    basis = _space(rows, ell) if rows else []  # no condition: V is M4
    if any(breaks(mat_mul(a, b)) for a in basis for b in basis):
        raise AssertionError("%s: the space of its conditions is not closed "
                             "under products" % name)
    chain = _of_order(_chain(gens, ell, cap=order), order, name)
    outside = [i for i, g in enumerate(gens) if breaks(g)]
    if outside:
        raise AssertionError("%s: the generators leave the family (generator "
                             "%d breaks its conditions)" % (name, outside[0]))
    return chain, _factors(gens, ell, name)


def family_with_base(spec):
    """(family, base) named by `spec`, as GroupSets, with no key listed:
    _closed_family proves the family, or the base of an extended one, whose
    chain extended by the extension's similitudes, to the index times its
    order, is the family's.  The base of a doubled family (index 2, base u
    base.w) is returned, else None (Case9's base GL2 (x) I included)."""
    gens, conditions, order, extension = _FAMILIES[spec.tag]
    ell, n = spec.ell, order(spec.ell)
    name = spec.tag + ("" if extension is None else " base")
    chain, factors = _closed_family(gens(ell), conditions(ell), n, ell, name)
    base = GroupSet(ell, chain, factors)
    if extension is None:
        return base, None
    more, index = extension
    chain = _of_order(_chain(more, ell, base=chain, cap=index * n),
                      index * n, spec.tag)
    factors = _factors(more, ell, spec.tag, factors)
    return GroupSet(ell, chain, factors), base if index == 2 else None


def build_family(spec):
    "The explicit subgroup named by `spec`, as a GroupSet (family_with_base)."
    return family_with_base(spec)[0]
