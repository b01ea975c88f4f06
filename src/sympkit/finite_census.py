"""Exhaustive exact enumeration of symplectic similitude groups mod small primes.

Every key operation is here, in integer numpy: a matrix over F_ell is packed
row-major into one uint64 key (ceil(log2 ell) bits per entry, so ell <= 13:
larger primes raise ValueError).  The families, their chain and GroupSet,
which is its chain and holds no key, live in families, which loads no numpy.
A group is its own set of inverses, so each element of a chain's group is
listed once as a product uinv_3 uinv_2 uinv_1 uinv_0, level by level along
the Schreier trees (_listing).  Sp4 and GSp4 (ell = 3 and 5) are the groups
of four generators from the Siegel and Klingen Levis, and diag(1, 1, g, g)
for GSp4, proven whole without a listing: every generator is a similitude
(of factor 1 for Sp4) and the chain's order is the order formula.

Every product of a listing is formed on the keys, with no matrix unpacked:
row r of m.g is row r of m times g, so one table per multiplier g, from
each row field of a key (4 entries, 4 ceil(log2 ell) bits) to the field of
the product row, makes a product four lookups shifted into place
(_row_tables, _products); a chain's multipliers are the inverses of its
strong generators.  Every loop over the elements of a listing
(GroupSet.nu_values, the census) unpacks _CHUNK_ROWS keys per pass into one
entry-major int16 array, its temporaries in cache: the similitude test and
the census's e1 and e2 are exact in int16.
charpoly_census of an enumeration or a family is the oracle of
census.closed_form_census; it checks every element as a similitude.
"""

# the siblings first: run from a fresh checkout, a module compiled after
# numpy is loaded adds its compile to the peak RSS that numpy has raised
from .census import CharPolyHistogram, gsp4_order, sp4_order
from .exact_arith import _require_odd_prime
from .families import (GroupSet, _bits_for, _chain, _diags, _embed, _nu,
                       _of_order, _order, _T, _T_DUAL, _W)

import numpy as np

_ENUM_PRIMES = (3, 5)


# ---------------------------------------------------------------------------
# packed keys


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


# Rows per pass of every loop over elements (GroupSet.nu_values, the census
# and a listing's _products passes): the matrices of one pass are one array,
# 256 KiB in int64 and 64 KiB in int16, and its temporaries stay in cache.
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


def _tree_products(keys, level, ell, out=None):
    """Yield `keys` times uinv[i] for every point i of `level`, in passes
    of about _CHUNK_ROWS keys.  As uinv[i] = uinv[parent[i]] s^-1 for
    s = gens[via[i]], a depth of the Schreier tree at a time, each point's
    keys are its parent's times s^-1, by the row tables of the strong
    generators' inverses (no table per point).  The blocks of points with
    children are kept for the next depth; given `out` (len(level.orbit)
    blocks), every block is written there and read back as a parent."""
    inv = np.frombuffer(b"".join(level.inv), np.uint8).reshape(-1, 4, 4)
    tables = _row_tables(inv.transpose(0, 2, 1), ell)  # inv is column-major
    parent, depth = np.array(level.parent), np.array(level.depth)
    offset = np.array(level.via).astype(np.uint64) << np.uint64(4 * _bits_for(ell))
    inner = np.zeros(len(level.orbit), dtype=bool)  # points with children
    inner[parent[1:]] = True
    if out is None:
        kept, row = keys[None], np.zeros(len(level.orbit), dtype=np.intp)
    else:
        kept, row = out.reshape(-1, keys.size), np.arange(len(level.orbit))
        kept[0] = keys
    yield keys
    per = max(1, _CHUNK_ROWS // keys.size)
    for d in range(1, depth.max() + 1):
        points = np.flatnonzero(depth == d)
        rows = row[parent[points]]  # the parents' rows in `kept`
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
    keys = pack_matrices(np.eye(4, dtype=np.int64), ell)
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
    chain = _chain(gens.reshape(-1, 4, 4), ell, cap=cap)
    if cap is not None and _order(chain) > cap:
        raise RuntimeError("closure cap exceeded (%d elements, cap %d)"
                           % (_order(chain), cap))
    return _listed(chain, ell)


# ---------------------------------------------------------------------------
# full enumerations


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
    n, gens = order(ell), _full_gens(ell, name)
    if not all(_nu(g, ell) in factors for g in gens):  # 0: no similitude
        raise AssertionError("%s: a generator is no similitude of factor in "
                             "%s" % (name, list(factors)))
    chain = _of_order(_chain(gens, ell, cap=n), n, name)
    return GroupSet(ell, chain, factors)


def enumerate_sp4(ell):
    """Sp4(F_ell), the similitudes of factor 1, for ell = 3 and 5, proven
    from the chain of its generators (_full_group): order
    ell^4 (ell^2 - 1)(ell^4 - 1).  No key is listed but by its census."""
    return _full_group(ell, "Sp4", sp4_order, (1,))


def enumerate_gsp4(ell):
    "GSp4(F_ell), as enumerate_sp4: (ell - 1) |Sp4| elements, every factor."
    return _full_group(ell, "GSp4", gsp4_order, range(1, ell))


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
