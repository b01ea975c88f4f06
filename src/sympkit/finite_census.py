"""Exhaustive exact enumeration of symplectic similitude groups mod small primes.

Everything here is integer numpy: matrices over F_ell are (N, 4, 4) arrays of
small nonnegative ints, and each matrix is packed row-major into one uint64
key (ceil(log2 ell) bits per entry, so ell <= 13: larger primes raise
ValueError).  All set arithmetic is on sorted key arrays, which makes every
result deterministic regardless of chunking or generator ordering.

Every group here, full or a family, is listed by one engine, a base and
strong generating set (_chain, deterministic Schreier-Sims): the base is e0,
..., e3, and level k holds the orbit of e_k under the strong generators that
fix e0, ..., e_(k-1), found by a breadth-first search, with a transversal
and its inverses.  The chain is complete when every Schreier generator sifts
to the identity; the order is then the product of the orbit lengths, known
before any key is listed.  The group is its own set of inverses, so each
element is listed once as a product uinv_3 uinv_2 uinv_1 uinv_0, level by
level along the Schreier trees (_listing); artin_gallery closes the Q(i)
gallery with its own loop.  `mulclose` lists and sorts a chain's keys.

Sp4 and GSp4 (ell = 3 and 5; larger primes are refused) are the groups of
four generators from the Siegel and Klingen Levis, and diag(1, 1, g, g) for
GSp4, proven whole without a listing: every generator is a similitude (of
factor 1 for Sp4) and the chain's order is the order formula
(_full_group).  The families (Levi factors, the checkerboard endoscopic
group, and Case5-Case9) come from one table, _FAMILIES: per tag a few
generators written from the structure, linear conditions on the entries (a
zero or block pattern) and a closed-form order, and for Case5-Case9 the
generators that extend that base, with their index.  A family or base is
the group its generators generate, proven without a listing: the space V of
its conditions is closed under products, every generator lies in V n GSp4,
and the chain's order is the closed form (_closed_family).  An extended
family's chain is the base's extended by its generators, of the index times
the base's order.  Such a GroupSet holds its chain and similitude factors,
and lists and sorts its keys only when they are asked for, priced at one
key per element (GroupSet.keys).

Every product of a listing is formed on the keys, with no matrix unpacked:
row r of m.g is row r of m times g, so one table per multiplier g, from
each row field of a key (4 entries, 4 ceil(log2 ell) bits) to the field of
the product row, makes a product four lookups shifted into place
(_row_tables, _products); a chain's multipliers are the inverses of its
strong generators.  Every loop over the elements of a listing or key array
(the similitude factors of a key set, the census) unpacks _CHUNK_ROWS keys
per pass into one entry-major int16 array, its temporaries in cache: the
similitude test and the census's e1 and e2 are exact in int16.

charpoly_census of an enumeration or a family is the oracle of
census.closed_form_census, which needs no listing and no numpy; it checks
every element as a similitude as it counts.
"""

from math import prod

# the siblings first: run from a fresh checkout, a module compiled after
# numpy is loaded adds its compile to the peak RSS that numpy has raised
from ._mat import mat_inv, row_reduce
from .census import CharPolyHistogram, gsp4_order, sp4_order
from .exact_arith import (
    PrimeFieldElem,
    _Frozen,
    _Record,
    _require_odd_prime,
    _restore,
    quadratic_nonresidue,
    solve_sum_of_squares,
)

import numpy as np

DEFAULT_MAX_BYTES = 512 << 20

# The modelled peak RSS of a held key set (GroupSet.keys): the interpreter
# with numpy loaded, and one key per element.  tests/test_finite_census.py
# checks it against measured peaks.
_PROCESS_BYTES = 96 << 20

_ENUM_PRIMES = (3, 5)

_J4 = np.array(
    [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=np.int64
)

_SWAP = np.array(
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.int64
)

_EYE = np.eye(4, dtype=np.int64)


class ResourceLimit(ValueError):
    "A group's key set would exceed the default memory budget."


# ---------------------------------------------------------------------------
# packed keys


def _bits_for(ell):
    "Bits per entry of a key; 16 entries must fit 64 bits, so ell <= 13."
    bits = max(1, (ell - 1).bit_length())
    if bits > 4:
        raise ValueError("ell = %d does not pack into 64-bit keys" % ell)
    return bits


def _shifts(ell):
    return np.uint64(_bits_for(ell)) * np.arange(16, dtype=np.uint64)


def pack_matrices(mats, ell):
    """(N, 4, 4) entries in [0, ell) -> (N,) uint64 keys, row-major.  Each
    entry column is cast and shifted into place through one N-word scratch,
    so no array wider than the keys and the scratch is made."""
    arr = np.asarray(mats).reshape(-1, 16)
    out = np.zeros(arr.shape[0], dtype=np.uint64)
    scratch = np.empty_like(out)
    for k, shift in enumerate(_shifts(ell)):
        scratch[...] = arr[:, k]
        scratch <<= shift
        out |= scratch
    return out


def unpack_keys(keys, ell, dtype=np.int64):
    """(N,) uint64 keys -> (N, 4, 4) matrices of the integer `dtype`.

    The entries are formed entry-major, one contiguous row of N per entry of
    a matrix, and returned as an (N, 4, 4) view of them: the checks read
    whole entries, columns and blocks, each then a contiguous array.  The
    rows are formed in the unsigned type of the same width as `dtype`, and
    no array wider than the result and one N-word scratch is made (one call
    shifting all 16 rows makes numpy cast or buffer through a wider one).
    A 64-bit result doubles its rows: rows k..2k-1 are rows 0..k-1 shifted
    by k entries.  A narrower result keeps the low bits of each row, shifted
    from the keys into the scratch.  Every entry is below ell <= 13, so the
    `dtype` view is exact."""
    dtype, keys = np.dtype(dtype), np.asarray(keys, dtype=np.uint64)
    bits = _bits_for(ell)
    out = np.empty((16, keys.size), dtype="u%d" % dtype.itemsize)
    if dtype.itemsize == 8:
        out[0] = keys
        for k in (1, 2, 4, 8):
            np.right_shift(out[:k], bits * k, out[k:2 * k])
    else:
        scratch = np.empty_like(keys)
        for row, shift in zip(out, _shifts(ell)):
            row[...] = np.right_shift(keys, shift, scratch)
    out &= (1 << bits) - 1
    return out.view(dtype).T.reshape(-1, 4, 4)


# Rows per pass of every loop over elements (GroupSet.matrices, the census,
# a listing's _products passes and a chain's batches of Schreier
# generators): the matrices of one pass are one array, 256 KiB in int64 and
# 64 KiB in int16, and its temporaries stay in cache.
_CHUNK_ROWS = 1 << 11


def _unpacked(blocks, ell, dtype=np.int64):
    """Yield the matrices keyed in the arrays `blocks`, in order, as (N, 4, 4)
    arrays of _CHUNK_ROWS each (the last one fewer): whole passes are cut
    from a block, and the keys left over are gathered across blocks."""
    buf, n = np.empty(_CHUNK_ROWS, dtype=np.uint64), 0
    for keys in blocks:
        start = min(keys.size, _CHUNK_ROWS - n) if n else 0
        buf[n:n + start] = keys[:start]
        n += start
        if n == _CHUNK_ROWS:
            yield unpack_keys(buf, ell, dtype)
            n = 0
        for i in range(start, keys.size, _CHUNK_ROWS):
            part = keys[i:i + _CHUNK_ROWS]
            if part.size < _CHUNK_ROWS:
                buf[:part.size], n = part, part.size
            else:
                yield unpack_keys(part, ell, dtype)
    if n:
        yield unpack_keys(buf[:n], ell, dtype)


def _omega(x, y):
    "The alternating form t(x) J y over the last axis (length 4), unreduced."
    return (x[..., 0] * y[..., 2] + x[..., 1] * y[..., 3]
            - x[..., 2] * y[..., 0] - x[..., 3] * y[..., 1])


def _similitude_info(mats, ell):
    """(mask, nu): which matrices satisfy t(m) J m = nu J with nu a unit.

    Entry (i, j) of t(m) J m is omega(c_i, c_j) for the columns c_i, and the
    form is alternating, so the identity is the six column pairs i < j:
    omega(c0, c2) = omega(c1, c3) = nu and zero on the other four.  The
    matrices are signed integers of at least 16 bits, in which the form
    values, below 2 * 12^2 for entries below ell <= 13, are exact: the
    checks and the census pass int16."""
    m = np.asarray(mats)
    cols = [m[:, :, i] for i in range(4)]
    nu = _omega(cols[0], cols[2]) % ell
    mask = (nu != 0) & (_omega(cols[1], cols[3]) % ell == nu)
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        mask &= _omega(cols[i], cols[j]) % ell == 0
    return mask, nu


# ---------------------------------------------------------------------------
# vectorized characteristic polynomial det(1 - gT) = 1 + c1 T + ... + c4 T^4


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _minor3(m, rows, cols):
    (r0, r1, r2), (c0, c1, c2) = rows, cols
    return (
        m[:, r0, c0] * (m[:, r1, c1] * m[:, r2, c2] - m[:, r1, c2] * m[:, r2, c1])
        - m[:, r0, c1] * (m[:, r1, c0] * m[:, r2, c2] - m[:, r1, c2] * m[:, r2, c0])
        + m[:, r0, c2] * (m[:, r1, c0] * m[:, r2, c1] - m[:, r1, c1] * m[:, r2, c0])
    )


def _det4(m):
    rows = (1, 2, 3)
    out = 0
    for c, sign in ((0, 1), (1, -1), (2, 1), (3, -1)):
        cols = tuple(x for x in range(4) if x != c)
        out = out + sign * m[:, 0, c] * _minor3(m, rows, cols)
    return out


def charpoly_coeffs(mats, ell):
    "(N, 4) array of (c1, c2, c3, c4) mod ell."
    m = np.asarray(mats, dtype=np.int64)
    e1 = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2] + m[:, 3, 3]
    e2 = sum(m[:, i, i] * m[:, j, j] - m[:, i, j] * m[:, j, i] for i, j in _PAIRS)
    e3 = sum(_minor3(m, t, t) for t in _TRIPLES)
    e4 = _det4(m)
    return np.stack([(-e1) % ell, e2 % ell, (-e3) % ell, e4 % ell], axis=1)


# ---------------------------------------------------------------------------
# closure machinery


def _contains_sorted(sorted_ref, keys):
    if sorted_ref.size == 0:
        return np.zeros(len(keys), dtype=bool)
    idx = np.searchsorted(sorted_ref, keys)
    idx[idx == sorted_ref.size] = sorted_ref.size - 1
    return sorted_ref[idx] == keys


def _sorted_unique(keys):
    """The distinct keys of a 1-D array in increasing order, by one sort
    (np.unique hashes since numpy 2.3, which is many times slower)."""
    arr = np.sort(keys, axis=None)
    keep = np.empty(arr.size, dtype=bool)
    keep[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def _vectors(ell):
    "Every vector of F_ell^4, as the columns of a (4, ell^4) int16 array."
    return np.indices((ell,) * 4, dtype=np.int16).reshape(4, -1)


def _apply(gens, vecs, ell):
    """g v mod ell for each (4, 4) matrix g of `gens` and each column v of
    the (4, R) int16 array `vecs`, as an (m, 4, R) int16 array of sums of
    the columns of g scaled by the entries of v."""
    g = (np.asarray(gens) % ell).astype(np.int16)[..., None]
    out = g[:, :, 0] * vecs[0]
    for k in range(1, 4):
        out += g[:, :, k] * vecs[k]
    out %= ell
    return out


def _index(vecs, base):
    """Each vector v of `vecs` (entries on the second last axis) as the
    number sum(v[k] base^k)."""
    out = vecs[..., 3, :].astype(np.intp)
    for k in (2, 1, 0):
        out *= base
        out += vecs[..., k, :]
    return out


def _row_tables(gens, ell):
    """Per generator g, the table from a row field x (the 4 * bits of one
    row of a key) to the field of x.g: row r of m.g is row r of m times g.
    Each table is filled from the ell^4 rows alone, x.g = t(g) x mod ell."""
    rows, base = _vectors(ell), 1 << _bits_for(ell)
    tables = np.zeros((len(gens), base ** 4), dtype=np.uint64)
    if len(gens):
        tables[:, _index(rows, base)] = _index(
            _apply(np.transpose(gens, (0, 2, 1)), rows, ell), base)
    return tables


def _products(keys, tables, ell, offset=None):
    """Keys of m.g for every m keyed in `keys` and every generator g, one
    block per table of _row_tables, or, given `offset`, of m.g for the
    generator of table t only, for the i-th key and offset[i] = t << 4 bits
    (the tables are then read as one): four lookups per product, one per
    row field, each shifted back into place.  A pass holds two scratch
    arrays of `keys`' size: each field, extracted once for every table, and
    a lookup to shift and merge."""
    width = 4 * _bits_for(ell)
    mask = np.uint64((1 << width) - 1)
    if offset is not None:
        tables = tables.reshape(1, -1)
    out = np.empty((len(tables), keys.size), dtype=np.uint64)
    field = np.empty(keys.size, dtype=np.uint64)
    index = field.view(np.intp)  # a field is below 2^63, so the view is exact
    looked = np.empty_like(field)
    for r in range(4):
        shift = np.uint64(width * r)
        np.right_shift(keys, shift, out=field)
        field &= mask
        if offset is not None:
            field += offset
        # mode="wrap" writes `out` directly (the default buffers it); every
        # field indexes the table, so nothing wraps
        for table, prod in zip(tables, out):
            if r == 0:
                table.take(index, out=prod, mode="wrap")
            else:
                table.take(index, out=looked, mode="wrap")
                looked <<= shift
                prod |= looked
    return out.ravel()


# ---------------------------------------------------------------------------
# the closure engine: a base and strong generating set (Schreier-Sims)


def _inverses(gens, ell):
    """The inverses of (m, 4, 4) matrices mod ell, by _mat.mat_inv over
    PrimeFieldElem; ValueError names the first singular one."""
    out = np.empty_like(gens)
    for i, g in enumerate(gens.tolist()):
        try:
            inv = mat_inv([[PrimeFieldElem(ell, x) for x in row] for row in g])
        except ZeroDivisionError:
            raise ValueError("generator %d is singular mod %d" % (i, ell)) \
                from None
        out[i] = [[x.val for x in row] for row in inv]
    return out


def _actions(gens, ell):
    """Per matrix g, the ell-adic index (_index in base ell) of g v for that
    of every v in F_ell^4."""
    vecs = _vectors(ell)[::-1]  # column i has the index i
    return _index(_apply(gens, vecs, ell), ell).astype(np.int32)


def _first_moved(gens):
    "Per (4, 4) matrix, the first k with m e_k != e_k; 4 for the identity."
    moved = (gens != _EYE).any(axis=1)
    return np.where(moved.any(axis=1), moved.argmax(axis=1), 4)


class _Level:
    """Level k of a chain: strong generators `gens` (m, 4, 4) fixing e_0,
    ..., e_(k-1), their inverses `inv` and _actions `act`; the `orbit` of
    e_k (ell-adic indices) and `where`, each vector's position in it (-1
    off it).  Point i was first reached as gens[via[i]] times point
    parent[i], at depth[i] of the Schreier tree, so its transversal element
    u[i] = gens[via[i]] u[parent[i]], and t(uinv[i]) = t(inv[via[i]])
    t(uinv[parent[i]]): the pairs (u, t(uinv)) are products of the pairs
    (g, t(g^-1)), held as (n, 2, 4, 4) int16 arrays reduced mod ell, in
    which a product of two is exact.  The Schreier generators of the first
    sifted[0] points by the first sifted[1] generators are known to sift."""

    __slots__ = ("gens", "inv", "gpair", "act", "orbit", "where", "u",
                 "uinv", "pair", "parent", "via", "depth", "sifted")

    def __init__(self, k, ell):
        "Level k with no strong generator: the orbit {e_k}."
        self._pairs(np.empty((0, 2, 4, 4), dtype=np.int16),
                    np.stack([_EYE, _EYE])[None].astype(np.int16))
        self.act = np.empty((0, ell ** 4), dtype=np.int32)
        self.orbit = np.full(1, ell ** k)
        self.where = np.full(ell ** 4, -1, dtype=np.int32)
        self.where[self.orbit] = 0
        self.parent = self.via = np.full(1, -1, dtype=np.intp)
        self.depth = np.zeros(1, dtype=np.intp)
        self.sifted = (1, 0)

    def _pairs(self, gpair, pair):
        self.gpair, self.pair = gpair, pair
        self.gens, self.inv = gpair[:, 0], gpair[:, 1].transpose(0, 2, 1)
        self.u, self.uinv = pair[:, 0], pair[:, 1].transpose(0, 2, 1)

    def extended(self, gens, inv, act, ell):
        """This level with the strong generators `gens` added, its orbit
        grown by a breadth-first search vectorized per round: the new
        generators map the old orbit, then every generator the last round's
        new points.  Of the images of one new vector, the one whose position
        a scatter into `where` kept is taken.  The old points keep their
        transversal, so their Schreier generators by the old generators
        still sift."""
        out = object.__new__(_Level)
        gpair = np.concatenate(
            [self.gpair, np.stack([gens, inv.transpose(0, 2, 1)], axis=1)])
        out.act = np.concatenate([self.act, act])
        out.where = self.where.copy()
        out.sifted = self.sifted
        rounds = [(self.orbit, self.pair, self.parent, self.via, self.depth)]
        size, first = len(self.orbit), len(self.gpair)
        front = np.arange(size)
        while front.size:
            orbit, pair, _, _, depth = rounds[-1]
            images = out.act[first:, orbit].ravel()  # generator-major
            new = np.flatnonzero(out.where[images] < 0)
            out.where[images[new]] = new
            new = new[out.where[images[new]] == new]
            out.where[images[new]] = np.arange(size, size + new.size)
            g, p = np.divmod(new, len(orbit))
            g += first
            rounds.append((images[new], gpair[g] @ pair[p] % ell, front[p], g,
                           depth[p] + 1))
            front, size, first = np.arange(size, size + new.size), \
                size + new.size, 0
        out.orbit, pair, out.parent, out.via, out.depth = (
            np.concatenate(part) for part in zip(*rounds))
        out._pairs(gpair, pair)
        return out


def _order(chain):
    "The order of the group of a complete chain: the product of its orbits."
    return prod(len(level.orbit) for level in chain)


def _with(chain, gens, inv, low, ell):
    """The chain with each of `gens` a strong generator of the levels from
    `low` to the first base point it moves (of none, for the identity)."""
    moved = _first_moved(gens)
    act = _actions(gens, ell)
    chain = list(chain)
    for k in range(low, 4):
        add = (moved >= k) & (moved < 4)
        if add.any():
            chain[k] = chain[k].extended(gens[add], inv[add], act[add], ell)
    return chain


def _sifts(h, chain, low, ell):
    """Which (B, 4, 4) matrices `h`, each fixing e_0, ..., e_(low-1), sift
    to the identity through the complete levels from `low`: at level j,
    h e_j must lie in the orbit, and h becomes uinv h for its point.  Below
    the last level whose orbit is more than {e_j} only the identity fixes
    the base, so there h sifts when it is u of its point."""
    moving = [j for j in range(low, 4) if len(chain[j].orbit) > 1]
    if not moving:
        return (h == _EYE).all(axis=(1, 2))
    ok = True
    for j in moving:
        level = chain[j]
        pos = level.where[_index(h[:, :, j].T, ell)]
        ok &= pos >= 0  # off the orbit, -1 reads the last point
        if j < moving[-1]:
            h = level.uinv[pos] @ h % ell
    # equal matrices, compared as four int64 words of four entries each
    words = [x.reshape(-1, 16).view(np.int64) for x in (h, level.u[pos])]
    return ok & (words[0] == words[1]).all(axis=1)


def _residue(chain, i, start, ell):
    """(stop, found): the Schreier generators uinv[q] s u[p] of level i, q
    the point s p, from point `start` on, are sifted in batches of about
    _CHUNK_ROWS, but for tree edges (the identity) and those level.sifted
    covers.  found is None when all of them sift (level.sifted then covers
    them all), else (j, r, r^-1) for the first r that does not, sifted to
    the level j where it leaves the orbit, its batch from point `stop`."""
    level = chain[i]
    m, n = len(level.gens), len(level.orbit)
    known, old = level.sifted
    per = max(1, _CHUNK_ROWS // max(m, 1))
    for stop in range(start, n, per):
        p = np.arange(stop, min(stop + per, n))
        q = level.where[level.act[:, level.orbit[p]]]  # (m, len(p))
        gen = np.arange(m)[:, None]
        s, a = np.nonzero(((level.parent[q] != p) | (level.via[q] != gen))
                          & ((p >= known) | (gen >= old)))
        h = level.uinv[q[s, a]] @ (level.gens[s] @ level.u[p[a]] % ell) % ell
        bad = np.flatnonzero(~_sifts(h, chain, i + 1, ell))
        if bad.size:
            s, a = s[bad[0]], a[bad[0]]
            r, rinv = h[bad[0]], (level.uinv[p[a]] @ level.inv[s] % ell
                                  @ level.u[q[s, a]] % ell)
            for j in range(i + 1, 4):
                pos = chain[j].where[_index(r[:, j, None], ell)[0]]
                if pos < 0:
                    return stop, (j, r, rinv)
                r = chain[j].uinv[pos] @ r % ell
                rinv = rinv @ chain[j].u[pos] % ell
            raise AssertionError("a Schreier generator sifted both ways")
    level.sifted = (n, m)
    return n, None


def _chain(gens, ell, base=None, cap=None):
    """A complete base and strong generating set of the group that the
    (m, 4, 4) matrices `gens` generate mod ell, extending the complete chain
    `base` when given (deterministic Schreier-Sims: C. C. Sims, 1970; Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, 4.4).

    The base is e_0, ..., e_3, which only the identity fixes.  Each
    generator joins the levels from 0 to the first base point it moves, and
    the levels are checked from the deepest changed one up.  Level i is
    complete when every Schreier generator sifts to the identity through
    the levels below it; one that does not joins the levels from i + 1 to
    where it stopped, and the check resumes there.  Level i is unchanged,
    so its check later goes on from the batch where it stopped, and a
    grown level keeps the Schreier generators that sifted before (their
    deeper groups have only grown).  The order is then the product of the
    orbit lengths (_order).  A product past `cap` stops the check: it
    bounds the order from below."""
    gens = (np.asarray(gens, dtype=np.int64).reshape(-1, 4, 4) % ell).astype(
        np.int16)
    moved = _first_moved(gens)
    chain = _with(base or [_Level(k, ell) for k in range(4)], gens,
                  _inverses(gens, ell), 0, ell)
    i = int(moved[moved < 4].max(initial=-1))
    start = [0] * 4  # per level, the batch its check goes on from
    while i >= 0 and (cap is None or _order(chain) <= cap):
        start[i], found = _residue(chain, i, start[i], ell)
        if found is None:
            i -= 1
        else:
            j, r, rinv = found
            chain = _with(chain, r[None], rinv[None], i + 1, ell)
            start[i + 1:j + 1] = [0] * (j - i)
            i = j
    return chain


def _tree_products(keys, level, ell, out=None):
    """Yield `keys` times uinv[i] for every point i of `level`, in passes
    of about _CHUNK_ROWS keys.  As uinv[i] = uinv[parent[i]] s^-1 for
    s = gens[via[i]], a depth of the Schreier tree at a time, each point's
    keys are its parent's times s^-1, by the row tables of the strong
    generators' inverses (no table per point).  The blocks of points with
    children are kept for the next depth; given `out` (len(level.orbit)
    blocks), every block is written there and read back as a parent."""
    tables = _row_tables(level.inv, ell)
    offset = level.via.astype(np.uint64) << np.uint64(4 * _bits_for(ell))
    inner = np.zeros(len(level.orbit), dtype=bool)  # points with children
    inner[level.parent[1:]] = True
    if out is None:
        kept, row = keys[None], np.zeros(len(level.orbit), dtype=np.intp)
    else:
        kept, row = out.reshape(-1, keys.size), np.arange(len(level.orbit))
        kept[0] = keys
    yield keys
    per = max(1, _CHUNK_ROWS // keys.size)
    for depth in range(1, level.depth.max() + 1):
        points = np.flatnonzero(level.depth == depth)
        rows = row[level.parent[points]]  # the parents' rows in `kept`
        if out is None:
            keep = points[inner[points]]
            after = np.empty((keep.size, keys.size), dtype=np.uint64)
            row[keep] = np.arange(keep.size)
        for i in range(0, points.size, per):
            part = points[i:i + per]
            block = _products(kept[rows[i:i + per]].ravel(), tables, ell,
                              np.repeat(offset[part], keys.size))
            yield block
            block = block.reshape(part.size, -1)
            if out is None:
                after[row[part[inner[part]]]] = block[inner[part]]
            else:
                kept[part] = block
        if out is None:
            kept = after


def _listing(chain, ell, out=None):
    """The keys of every element of a complete chain's group, each once, in
    passes (written to `out` when given).  The group is its own set of
    inverses, so its elements are the products uinv_3 uinv_2 uinv_1 uinv_0
    of one transversal inverse per level: from the identity, the keys so
    far times each level's in turn, the deepest first (_tree_products)."""
    keys = pack_matrices(_EYE, ell)
    for level in chain[:0:-1]:
        if len(level.orbit) > 1:
            keys, deeper = np.empty(len(level.orbit) * keys.size,
                                    dtype=np.uint64), keys
            for _ in _tree_products(deeper, level, ell, keys):
                pass
    return _tree_products(keys, chain[0], ell, out)


def _listed(chain, ell):
    "The keys of a complete chain's group, listed into one array and sorted."
    keys = np.empty(_order(chain), dtype=np.uint64)
    for _ in _listing(chain, ell, keys):
        pass
    keys.sort()
    return keys


def mulclose(gens, ell, cap=None):
    """Product closure of invertible integer matrices mod ell, as sorted
    packed keys: the listing of their chain (_chain), sorted in place.  An
    order above `cap` raises RuntimeError before any key is listed."""
    gens = np.asarray(gens, dtype=np.int64)
    if gens.size == 0:
        raise ValueError("need at least one generator")
    chain = _chain(gens, ell, cap=cap)
    if cap is not None and _order(chain) > cap:
        raise RuntimeError("closure cap exceeded (%d elements, cap %d)"
                           % (_order(chain), cap))
    return _listed(chain, ell)


class GroupSet(_Frozen):
    """A finalized set of packed matrices over F_ell (sorted uint64 keys).
    A proven group's (a family or a full group) holds the complete chain of
    the group instead, and lists and sorts the keys on first use."""

    __slots__ = ("ell", "_keys", "_chain", "_factors")

    def __init__(self, ell, keys):
        _require_odd_prime(ell)
        _bits_for(ell)
        arr = np.asarray(keys, dtype=np.uint64).reshape(-1)
        # strictly increasing keys skip the sort; the copy leaves the
        # caller's array writable and its own
        arr = arr.copy() if (arr[1:] > arr[:-1]).all() else _sorted_unique(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "_keys", arr)
        object.__setattr__(self, "_chain", None)
        object.__setattr__(self, "_factors", None)

    @classmethod
    def _proven(cls, ell, chain, factors):
        """The GroupSet of a proven group: the complete `chain` of the group
        and the similitude `factors` that its proof found."""
        return _restore(cls, [("ell", ell), ("_keys", None), ("_chain", chain),
                              ("_factors", tuple(factors))])

    @classmethod
    def from_matrices(cls, mats, ell):
        arr = np.asarray(mats, dtype=np.int64) % ell
        return cls(ell, pack_matrices(arr, ell))

    @property
    def keys(self):
        if self._keys is None:
            need = _PROCESS_BYTES + 8 * self.order
            if need > DEFAULT_MAX_BYTES:
                raise ResourceLimit(
                    "%r holds %d elements, ~%d bytes (modelled peak RSS); "
                    "budget is %d"
                    % (self, self.order, need, DEFAULT_MAX_BYTES))
            keys = _listed(self._chain, self.ell)
            keys.setflags(write=False)
            object.__setattr__(self, "_keys", keys)
        return self._keys

    @property
    def order(self):
        if self._keys is None:
            return _order(self._chain)
        return int(self._keys.size)

    def __len__(self):
        return self.order

    def __eq__(self, other):
        if isinstance(other, GroupSet):
            return (self.ell == other.ell and self.order == other.order
                    and np.array_equal(self.keys, other.keys))
        return NotImplemented

    def __hash__(self):
        return hash((self.ell, self.keys.tobytes()))

    def __contains__(self, item):
        if isinstance(item, (int, np.integer)):
            if not 0 <= item < 1 << 64:
                return False
            key = np.array([item], dtype=np.uint64)
        else:
            arr = np.asarray(item, dtype=np.int64).reshape(1, 4, 4) % self.ell
            key = pack_matrices(arr, self.ell)
        return bool(_contains_sorted(self.keys, key)[0])

    def matrices(self):
        "Yield the elements as (N, 4, 4) int64 arrays in key order."
        return _unpacked([self.keys], self.ell)

    def _blocks(self):
        """The keys in blocks, in any order: the listing of a chain whose
        keys are not yet listed, else the sorted keys."""
        if self._keys is None:
            return _listing(self._chain, self.ell)
        return [self._keys]

    def nu_values(self):
        "Similitude factor of every element, aligned with key order."
        out = [np.empty(0, np.int64)]
        for mats in _unpacked([self.keys], self.ell, np.int16):
            ok, nu = _similitude_info(mats, self.ell)
            if not ok.all():
                raise ValueError("set contains a non-similitude")
            out.append(nu)
        return np.concatenate(out)

    def similitude_factors(self):
        """The factors nu that occur, ascending: those its proof found, else
        those of nu_values (np.unique would load numpy.ma)."""
        if self._factors is None:
            return np.flatnonzero(np.bincount(self.nu_values())).tolist()
        return list(self._factors)

    def subset_of(self, other):
        if self.ell != other.ell:
            return False
        return bool(_contains_sorted(other.keys, self.keys).all())

    def __reduce__(self):  # rebuilt by __init__, so the keys stay read-only
        return GroupSet, (self.ell, self.keys)

    def __repr__(self):
        return "GroupSet(ell=%d, order=%d)" % (self.ell, self.order)


# ---------------------------------------------------------------------------
# full enumerations


def _primitive_root(ell):
    "The least g whose powers are every unit mod the odd prime ell."
    return next(g for g in range(2, ell)
                if len({pow(g, k, ell) for k in range(1, ell)}) == ell - 1)


def _full_gens(ell, name):
    """Generators of Sp4(F_ell): T and W in the SL2 of the Siegel Levi (as
    in LeviP) and in the SL2 on (e1, e3) (as in LeviQ); for GSp4(F_ell),
    also diag(1, 1, g, g) for the primitive root g."""
    gens = [_embed(((0, 1), _T), ((2, 3), _T_DUAL)),
            _embed(((0, 1), _W), ((2, 3), _W)),
            _embed(((1, 3), _T)), _embed(((1, 3), _W))]
    return gens + (_diags(ell, (0, 0, 1, 1)) if name == "GSp4" else [])


def _full_group(ell, name, order, factors):
    """The group that _full_gens generates, as a GroupSet of its chain,
    proven to be the group `name` of the similitudes whose factors lie in
    `factors` ((1,) or every unit), of order(ell) elements: it lies inside,
    as every generator is such a similitude, and it is all of it, as its
    chain's order is the order formula; AssertionError otherwise.  Its
    factors are then `factors`, nu mapping the whole group onto them.  No
    key is listed."""
    _require_odd_prime(ell)
    if ell not in _ENUM_PRIMES:
        raise ValueError(
            "full enumeration is supported for ell in %r only (order ~%.1e)"
            % (_ENUM_PRIMES, float(gsp4_order(ell))))
    n = order(ell)
    gens = np.array(_full_gens(ell, name), dtype=np.int64) % ell
    ok, nu = _similitude_info(gens, ell)
    if not (ok.all() and set(nu.tolist()) <= set(factors)):
        raise AssertionError("%s: a generator is no similitude of factor in "
                             "%s" % (name, list(factors)))
    chain = _of_order(_chain(gens, ell, cap=n), n, name)
    return GroupSet._proven(ell, chain, factors)


def enumerate_sp4(ell):
    """Sp4(F_ell), the similitudes of factor 1, for ell = 3 and 5, proven
    from the chain of its generators (_full_group): order
    ell^4 (ell^2 - 1)(ell^4 - 1).  No key is listed until .keys is read."""
    return _full_group(ell, "Sp4", sp4_order, (1,))


def enumerate_gsp4(ell):
    "GSp4(F_ell), as enumerate_sp4: (ell - 1) |Sp4| elements, every factor."
    return _full_group(ell, "GSp4", gsp4_order, range(1, ell))


def brute_similitude_scan():
    """Scan all 3^16 matrices over F_3 for t(m) J m = nu J, nu a unit.

    The independent oracle of the chain listings at ell = 3, of
    enumerate_sp4/gsp4 and of the generator closure of other generators:
    returns (nu = 1 set, all-similitude set).  The identity says
    omega(c_i, c_j) = nu J_ij for every pair of columns, so a matrix whose
    (c0, c2) pair, or whose c1 against them, already fails is skipped with
    all its completions: (c0, c2) need omega(c0, c2) a unit, c1 needs
    omega(c0, c1) = omega(c1, c2) = 0, and every surviving (c0, c1, c2)
    with each of the 81 columns c3 is tested by the full Gram identity.
    The predicate is the same as a flat scan's; no group theory is used.
    Only ell = 3 is tractable this way.
    """
    j = (_J4 % 3).astype(np.int16)
    vecs = np.indices((3,) * 4, dtype=np.int16).reshape(4, -1).T
    form = vecs @ j @ vecs.T % 3  # form[a, b] = t(v_a) J v_b
    a0, a2 = np.nonzero(form != 0)
    pair, a1 = np.nonzero((form[a0] == 0) & (form[:, a2].T == 0))
    a0, a2 = a0[pair], a2[pair]
    sp_parts, gsp_parts = [], []
    batch = 1 << 12  # (c0, c1, c2) triples per pass: 331,776 candidates
    for start in range(0, a0.size, batch):
        heads = [vecs[a[start:start + batch]] for a in (a0, a1, a2)]
        cols = [np.repeat(h, vecs.shape[0], axis=0) for h in heads]
        cols.append(np.tile(vecs, (heads[0].shape[0], 1)))
        mats = np.stack(cols, axis=2)
        jm = np.matmul(j, mats) % 3
        gram = np.matmul(mats.transpose(0, 2, 1), jm) % 3
        nu = gram[:, 0, 2]
        ok = (gram == nu[:, None, None] * j % 3).all(axis=(1, 2)) & (nu != 0)
        keys = pack_matrices(mats[ok].astype(np.int64), 3)
        gsp_parts.append(keys)
        sp_parts.append(keys[nu[ok] == 1])
    return tuple(GroupSet(3, np.concatenate(parts))
                 for parts in (sp_parts, gsp_parts))


# ---------------------------------------------------------------------------
# characteristic-polynomial census


def charpoly_census(group):
    """Exact CharPolyHistogram of a GroupSet, from its keys in blocks
    (GroupSet._blocks): a census is independent of their order.

    Each pass is one int16 unpack, checked as similitudes first.  For a
    similitude of factor nu, det(1 - gT) is palindromic: c3 = nu c1 and
    c4 = nu^2.  So a class is fixed by (c1, c2, nu), and only e1 and e2 are
    formed, exact in int16 (|e1| <= 48 and |e2| <= 864 for entries below
    13); the count runs over those ell^3 triples, whose index fits int16 at
    every ell <= 13 (charpoly_coeffs, which forms all four, is the
    reference of the tests)."""
    ell = group.ell
    counts = np.zeros(ell ** 3, dtype=np.int64)
    for m in _unpacked(group._blocks(), ell, np.int16):
        ok, nu = _similitude_info(m, ell)
        if not ok.all():
            raise ValueError("census input contains a non-similitude")
        e1 = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2] + m[:, 3, 3]
        e2 = sum(m[:, i, i] * m[:, j, j] - m[:, i, j] * m[:, j, i]
                 for i, j in _PAIRS)
        counts += np.bincount(((-e1 % ell) * ell + e2 % ell) * ell + nu,
                              minlength=ell ** 3)
    classes, nu_classes = {}, {}
    for flat in np.flatnonzero(counts):
        n = int(counts[flat])
        rest, nu = divmod(int(flat), ell)
        c1, c2 = divmod(rest, ell)
        key = (c1, c2, nu * c1 % ell, nu * nu % ell)
        nu_classes[key + (nu,)] = n
        classes[key] = classes.get(key, 0) + n
    return CharPolyHistogram(ell, classes, nu_classes)


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


# the index-2 families are base u base.w for one signed permutation w each
# (t(w) = w^-1).  The block swap [[0, I], [I, 0]] genuinely extends the
# Siegel Levi (Case5), but it lies INSIDE both the checkerboard group (its
# two blocks are the 2x2 swap) and the S-block image (it is the S-matrix of
# antidiag(1, 1)), where base.w is the base; those families are doubled by
# the outer symmetry instead: the basis exchange (0 1)(2 3) swaps the two
# checkerboard factors, and the block rotation pair conjugates every S-block
# to its quadratic conjugate.  diag(1, 1, -1, -1) negates the B block of
# [[A, B], [uB, A]], realizing the unitary conjugation at every ell (the
# block swap does so only when u^2 = 1).
_EXCHANGE = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
_ROT_PAIR = np.array(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
_NEG_LOWER = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])


# T and W generate SL2(F_ell), and with diag(g, 1), g the least primitive
# root, they generate GL2(F_ell); t(T)^-1 = _T_DUAL and t(W)^-1 = W.
_T = np.array([[1, 1], [0, 1]])
_T_DUAL = np.array([[1, 0], [-1, 1]])
_W = np.array([[0, -1], [1, 0]])


def _embed(*parts):
    "The 4x4 identity with each 2x2 block on the rows and columns `idx`."
    m = np.eye(4, dtype=np.int64)
    for idx, block in parts:
        m[np.ix_(idx, idx)] = block
    return m


def _diags(ell, *exponents):
    "diag(g^e1, g^e2, g^e3, g^e4) for each tuple (e1, ..., e4)."
    g = _primitive_root(ell)
    return [np.diag([pow(g, e, ell) for e in es]) for es in exponents]


def _case7_gens(ell):
    """The S-block images of E12(1), E12(sqrt u), E21(1), E21(sqrt u) and
    diag(g, 1) over F_ell(sqrt u): the image of X + Y sqrt u has the 2x2
    blocks x I + y [[a, b], [b, -a]] for the entries x of X and y of Y, with
    (u, a, b) of _ext_params."""
    _, a, b = _ext_params(ell)
    one, e12 = np.eye(2, dtype=np.int64), np.array([[0, 1], [0, 0]])
    pairs = [(one + e12, 0 * one), (one, e12), (one + e12.T, 0 * one),
             (one, e12.T), (np.diag([_primitive_root(ell), 1]), 0 * one)]
    return [np.kron(x, one) + np.kron(y, [[a, b], [b, -a]]) for x, y in pairs]


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
    one = np.eye(2, dtype=np.int64)
    pairs = [([[a0, b0], [-b0, a0]], [[a1, b1], [b1, -a1]]),
             (np.diag([c0, 1]), np.diag([c1, 0])), (z0 * one, z1 * one)]
    return [np.kron(one, x) + np.kron([[0, 1], [u, 0]], y) for x, y in pairs]


# Linear conditions: rows of 16 coefficients of the entries read row-major,
# whose sums vanish mod ell.  _E[i, j] is m[i, j] = 0, and _P, _Q, _R, _S
# hold those of p, q, r, s in the four 2x2 blocks [[p, q], [r, s]].
_E = np.eye(16, dtype=np.int64).reshape(4, 4, 16)
_P, _Q, _R, _S = _E[::2, ::2], _E[::2, 1::2], _E[1::2, ::2], _E[1::2, 1::2]


def _zeros(*rows):
    "m[i, j] = 0 wherever the pattern `rows` ('1010', ...) has 0."
    return lambda ell: _E[np.array([list(row) for row in rows]) == "0"]


def _s_blocks(ell):
    "Every 2x2 block [[p, q], [r, s]] has r = q and b (p - s) = 2 a q."
    _, a, b = _ext_params(ell)
    return [_R - _Q, b * (_P - _S) - 2 * a * _Q]


# tag -> (generators, linear conditions and closed-form order of the family,
# or of the base that its extension extends; the extension: None, or the
# generators that extend the base and the index of the base in the family).
# The orders are standard (R. W. Carter, Finite Groups of Lie Type, 1985).
_LEVI_P = (  # [[A, 0], [0, t(A)^-1]], A = T, W, diag(g, 1); diag(1, 1, g, g)
    lambda ell: [_embed(((0, 1), _T), ((2, 3), _T_DUAL)),
                 _embed(((0, 1), _W), ((2, 3), _W)),
                 *_diags(ell, (1, 0, -1, 0), (0, 0, 1, 1))],
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
    "LeviQ": (lambda ell: [_embed(((1, 3), _T)), _embed(((1, 3), _W)),
                           *_diags(ell, (0, 1, 1, 0), (1, 0, -1, 0))],
              _zeros("1000", "0101", "0010", "0101"),
              lambda q: q * (q * q - 1) * (q - 1) ** 2, None),
    "Hen": (*_HEN, None),
    "Case5": (*_LEVI_P, ([_SWAP], 2)),
    "Case6": (*_HEN, ([_EXCHANGE], 2)),
    # the base: GL2(F_ell^2) with determinant in F_ell^x
    "Case7": (_case7_gens, _s_blocks,
              lambda q: (q - 1) * q * q * (q ** 4 - 1), ([_ROT_PAIR], 2)),
    # the base: the similitudes of the unitary group U2(F_ell), [[A, B],
    # [uB, A]]: the lower right block is A, the lower left u B
    "Case8": (_case8_gens,
              lambda ell: [_E[2:, 2:] - _E[:2, :2],
                           _E[2:, :2] - _ext_params(ell)[0] * _E[:2, 2:]],
              lambda q: (q - 1) * (q + 1) * q * (q * q - 1),
              ([_NEG_LOWER], 2)),
    # X (x) Y for X in GL2 and Y = diag(1, +-1) or antidiag(1, +-1): the
    # base X (x) I for X = T, W, diag(g, 1), extended by I (x) diag(1, -1)
    # and I (x) antidiag(1, 1) = _EXCHANGE, a Klein group K that commutes
    # with the base and meets it trivially: index 4 makes the family base.K
    "Case9": (lambda ell: [_embed(((0, 2), a), ((1, 3), a)) for a in (_T, _W)]
              + _diags(ell, (1, 1, 0, 0)),
              lambda ell: [_Q, _R, _P - _S],  # every block a scalar x I
              lambda q: q * (q * q - 1) * (q - 1),
              ([np.diag([1, -1] * 2), _EXCHANGE], 4)),
}


def _of_order(chain, order, name):
    "The chain; AssertionError unless its group has exactly `order` elements."
    n = _order(chain)
    if n > order:
        raise AssertionError("%s: the generators give more than %d elements"
                             % (name, order))
    if n != order:
        raise AssertionError("%s: the generators give %d elements, not %d"
                             % (name, n, order))
    return chain


def _space(conditions, ell):
    """A basis, (d, 4, 4), of the matrices that meet the k x 16 `conditions`
    mod ell: one per free column of their reduced form (_mat.row_reduce)."""
    red, pivots = row_reduce([[PrimeFieldElem(ell, x) for x in row]
                              for row in conditions.tolist()])
    free = [c for c in range(16) if c not in pivots]
    basis = np.eye(16, dtype=np.int64)[free]
    for row, p in zip(red, pivots):
        basis[:, p] = [-row[f].val % ell for f in free]
    return basis.reshape(-1, 4, 4)


def _breaks(mats, conditions, ell):
    "Which of the matrices `mats` (..., 4, 4) break one of the `conditions`."
    return (np.reshape(mats, (-1, 16)) @ conditions.T % ell != 0).any(axis=1)


def _factors(gens, ell, name, known=()):
    """The subgroup of F_ell^x that the factors `known` and those of the
    matrices `gens` generate, ascending; AssertionError, naming `name`,
    unless each of `gens` is a similitude."""
    ok, nu = _similitude_info(np.asarray(gens, dtype=np.int64) % ell, ell)
    if not ok.all():
        raise AssertionError("%s: the generators leave the family (generator "
                             "%d is no similitude)" % (name, np.argmin(ok)))
    out = {1}
    for x in [*known, *nu.tolist()]:
        out = {a * pow(x, k, ell) % ell for a in out for k in range(ell - 1)}
    return sorted(out)


def _closed_family(gens, conditions, order, ell, name):
    """(chain, factors): the chain of the group that `gens` generate, proven
    to be the family S = V n GSp4 of `order` elements, V the space that the
    linear `conditions` (k x 16) cut out, and the factors of S, which nu, a
    homomorphism, maps the generators' onto (_factors); AssertionError,
    naming `name`, otherwise.  No element is listed: V is closed under
    products, checked on those of its basis (_space, at most 64), so S is a
    group; every generator lies in S, so the group does, each of its
    elements being a product of generators; and its order is |S|."""
    conditions = np.asarray(conditions, dtype=np.int64).reshape(-1, 16) % ell
    basis = _space(conditions, ell)
    if _breaks(basis[:, None] @ basis[None] % ell, conditions, ell).any():
        raise AssertionError("%s: the space of its conditions is not closed "
                             "under products" % name)
    chain = _of_order(_chain(gens, ell, cap=order), order, name)
    outside = np.flatnonzero(_breaks(gens, conditions, ell))
    if outside.size:
        raise AssertionError("%s: the generators leave the family (generator "
                             "%d breaks its conditions)" % (name, outside[0]))
    return chain, _factors(gens, ell, name)


def family_with_base(spec):
    """(family, base) named by `spec`, as GroupSets, with no key listed:
    _closed_family proves the family, or the base of an extended one, whose
    chain extended by the extension's similitudes, to the index times its
    order, is the family's.  A doubled family (index 2) is base u base.w,
    and its base is returned (Case5: the Siegel Levi; Case6: the
    checkerboard group; Case7: the S-block image; Case8: [[A, B], [uB,
    A]]); None for the others, Case9's base GL2 (x) I included."""
    gens, conditions, order, extension = _FAMILIES[spec.tag]
    ell, n = spec.ell, order(spec.ell)
    name = spec.tag + ("" if extension is None else " base")
    chain, factors = _closed_family(gens(ell), conditions(ell), n, ell, name)
    base = GroupSet._proven(ell, chain, factors)
    if extension is None:
        return base, None
    more, index = extension
    chain = _of_order(_chain(more, ell, base=chain, cap=index * n),
                      index * n, spec.tag)
    factors = _factors(more, ell, spec.tag, factors)
    return GroupSet._proven(ell, chain, factors), base if index == 2 else None


def build_family(spec):
    "The explicit subgroup named by `spec`, as a GroupSet (family_with_base)."
    return family_with_base(spec)[0]

