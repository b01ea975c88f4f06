"""Exhaustive exact enumeration of symplectic similitude groups mod small primes.

Everything here is integer numpy: matrices over F_ell are (N, 4, 4) arrays of
small nonnegative ints, and each matrix is packed row-major into one uint64
key (ceil(log2 ell) bits per entry, so ell <= 13: larger primes raise
ValueError).  All set arithmetic is on sorted key arrays, which makes every
result deterministic regardless of chunking, thread count, or generator
ordering.

The full groups are listed directly: an element of Sp4 is an ordered
symplectic basis (its columns), built from a pair (c0, c2) with
omega(c0, c2) = 1 and a symplectic basis of its complement moved by SL2
(_enumerate_similitudes).  The listing is proven, not assumed: every key is
checked as a similitude, the sorted keys are distinct, and their count is
the order formula.  ell = 3 (about 1e5 elements) and ell = 5 (about 1e7,
permitted only when the modelled memory fits the budget) are supported;
larger primes are refused outright.  The generator closure `mulclose`
remains as the independent oracle and builds the subgroup families; its
loop, _closure (Dimino's algorithm: whole cosets, one membership test per
coset), merges sorted keys in a buffer per stage and passes a round's
fresh cosets on without a copy; artin_gallery closes the Q(i) gallery with
its own.  The families (Levi factors, the checkerboard endoscopic group,
and Case5-Case9) come from one table, _FAMILIES: per tag a few generators
written from the structure, a membership predicate (a zero or block
pattern) and a closed-form order, and for Case5-Case8 the involution w
that doubles the base.  A family or base is the closure of its
generators, so a group; every element passing the predicate and the
similitude test puts it inside the family, and a count equal to the order
makes it whole, as for the full groups (_closed_family).  A doubled family
is the closure of the generators and w from the proven base, capped at and
counted to twice its order.  Each family's GroupSet keeps its closure's
buffer, not a copy, and the similitude factors its check marked, so the
keys are read once after the closure.

Every product of a listing (mulclose, _enumerate_similitudes) is formed on
the keys, with no matrix unpacked: row r of m.g is row r of m times g, so
one table per multiplier g, from each row field of a key (4 entries, 4
ceil(log2 ell) bits) to the field of the product row, makes a product four
lookups shifted into place (_row_tables, _products), each row field
extracted once into one scratch array that every table reads.  Every loop
over the elements of a key array (the checks, the similitude factors, the
census) unpacks _CHUNK_ROWS keys per pass into one array, its temporaries
in cache: int16 for the similitude test and the membership predicates,
int64 for the characteristic polynomials.

charpoly_census of an enumeration is the oracle of census.closed_form_census,
which needs no listing and no numpy.
"""

import os

import numpy as np

from .census import CharPolyHistogram, gsp4_order, sp4_order
from .exact_arith import (
    _Frozen,
    _require_odd_prime,
    _restore,
    quadratic_nonresidue,
    solve_sum_of_squares,
)

DEFAULT_MAX_BYTES = 512 << 20

_ENUM_PRIMES = (3, 5)

_J4 = np.array(
    [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=np.int64
)

_SWAP = np.array(
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.int64
)


class ResourceLimit(ValueError):
    "An enumeration would exceed the configured memory budget."


def resolve_threads(threads=None):
    "Explicit argument, else the SYMPKIT_THREADS environment variable, else 1."
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("SYMPKIT_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return 1


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
    "(N, 4, 4) entries in [0, ell) -> (N,) uint64 keys, row-major."
    arr = np.asarray(mats, dtype=np.uint64).reshape(-1, 16)
    return (arr << _shifts(ell)).sum(axis=1, dtype=np.uint64)


def unpack_keys(keys, ell, dtype=np.int64):
    """(N,) uint64 keys -> (N, 4, 4) matrices of the integer `dtype`.

    The shifts are cast into the unsigned type of the same width as they
    are formed, keeping their low bits, so no wider array is made; every
    entry is below ell <= 13, so the `dtype` view is exact."""
    dtype = np.dtype(dtype)
    out = np.empty((np.size(keys), 16), dtype="u%d" % dtype.itemsize)
    np.right_shift(np.asarray(keys, dtype=np.uint64)[:, None], _shifts(ell),
                   out=out, casting="unsafe")
    out &= (1 << _bits_for(ell)) - 1
    return out.view(dtype).reshape(-1, 4, 4)


# Rows per pass of every loop over elements (GroupSet.matrices, the checks
# of _closed_family and _enumerate_similitudes): the matrices of one pass
# are one array, 512 KiB in int64 and 128 KiB in the checks' int16, and its
# temporaries stay in cache.
_CHUNK_ROWS = 1 << 12


def _unpacked(keys, ell, dtype=np.int64):
    "Yield the matrices of `keys` as (N, 4, 4) arrays, _CHUNK_ROWS each."
    for i in range(0, keys.size, _CHUNK_ROWS):
        yield unpack_keys(keys[i:i + _CHUNK_ROWS], ell, dtype)


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
    checks pass int16, the census int64."""
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
    return np.stack(
        [(-e1) % ell, e2 % ell, (-e3) % ell, e4 % ell], axis=1
    )


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


def _closure(sub, ngens, times, cap=None):
    """The group generated by g_0, ..., g_(ngens-1), as sorted 1-D keys
    (Dimino's algorithm; the Q(i) gallery has its own, without numpy).

    `sub` holds the sorted keys of <g_0, ..., g_(m-1)> for some m (the
    identity alone for m = 0), and `times(keys, s)` the key of x.g_s for
    every key x, in order.  Stage j, unless g_j lies in it, extends the group
    so far, H = <g_0, ..., g_(j-1)>, by whole right cosets H.r, each a row
    listed in H's order.  A union of cosets holds a coset when it holds one
    of its keys, so each round tests one key per row of the last block times
    each g_s, s <= j; a fresh one's coset is one `times` pass over its row,
    sorted into the stage's buffer and merged by a stable sort before the
    next s (g_s permutes the cosets, so no row repeats).  A round's fresh
    rows are the next block, passed on uncopied when one pass made them all.
    The stage ends when every coset times every g_s lies in the union: a
    finite set holding 1 and closed under the generators, so the group they
    generate.  Exceeding `cap` elements raises RuntimeError.
    """
    seen = sub
    for j in range(ngens):
        if _contains_sorted(seen, times(seen[:1], j))[0]:
            continue
        block, buf = seen[None], seen[:0]  # a new buffer leaves H whole
        while block.size:
            fresh = []
            for s in range(j + 1):
                new = ~_contains_sorted(seen, times(block[:, 0], s))
                if new.any():
                    fresh.append(times((block if new.all() else block[new])
                                       .ravel(), s))
                    n, m = seen.size, seen.size + fresh[-1].size
                    if cap is not None and m > cap:
                        raise RuntimeError("closure cap exceeded (%d elements,"
                                           " cap %d)" % (m, cap))
                    if m > buf.size:  # unwritten pages of np.empty are free
                        buf = np.empty(cap or 2 * m, dtype=np.uint64)
                        buf[:n] = seen
                    buf[n:m] = fresh[-1]
                    buf[n:m].sort()
                    seen = buf[:m]
                    seen.sort(kind="stable")  # merges the two sorted runs
            block = (fresh[0] if len(fresh) == 1 else
                     np.concatenate(fresh or [seen[:0]])).reshape(
                -1, block.shape[1])
    return seen


def _row_tables(gens, ell):
    """Per generator g, the table from a row field x (the 4 * bits of one
    row of a key) to the field of x.g: row r of m.g is row r of m times g.
    Each table is filled from the ell^4 rows alone, x.g mod ell for every
    row x, its 4 entries packed by the shifts of a row field."""
    weights = 1 << _shifts(ell)[:4].astype(np.int64)
    rows = np.indices((ell,) * 4).reshape(4, -1).T
    tables = np.zeros((len(gens), 1 << 4 * _bits_for(ell)), dtype=np.uint64)
    for table, g in zip(tables, gens):
        table[rows @ weights] = rows @ g % ell @ weights
    return tables


def _products(keys, tables, ell):
    """Keys of m.g for every m keyed in `keys` and every generator g, one
    block per table of _row_tables: four lookups per product, one per row
    field, each shifted back into place.  A pass holds two scratch arrays of
    `keys`' size: each field, extracted once for every table, and a lookup
    to shift and merge."""
    width = 4 * _bits_for(ell)
    mask = np.uint64((1 << width) - 1)
    out = np.empty((len(tables), keys.size), dtype=np.uint64)
    field = np.empty(keys.size, dtype=np.uint64)
    index = field.view(np.intp)  # a field is below 2^16, so the view is exact
    looked = np.empty_like(field)
    for r in range(4):
        shift = np.uint64(width * r)
        np.right_shift(keys, shift, out=field)
        field &= mask
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


def _key_closure(sub, gens, ell, cap):
    """_closure of `gens` on packed keys from `sub` (see there); the
    products are formed on the keys by one row table per generator
    (_row_tables, built once per call), with no matrix unpacked."""
    tables = _row_tables(gens, ell)
    return _closure(sub, len(tables),
                    lambda keys, s: _products(keys, tables[s:s + 1], ell), cap)


def mulclose(gens, ell, cap=None):
    """Product closure of invertible integer matrices mod ell, as sorted
    packed keys: _key_closure from the identity (see _closure for cap)."""
    gens = np.asarray(gens, dtype=np.int64) % ell
    if gens.size == 0:
        raise ValueError("need at least one generator")
    singular = np.flatnonzero(_det4(gens.reshape(-1, 4, 4)) % ell == 0)
    if singular.size:
        raise ValueError("generator %d is singular mod %d"
                         % (singular[0], ell))
    return _key_closure(pack_matrices(np.eye(4, dtype=np.int64), ell), gens,
                        ell, cap)


class GroupSet(_Frozen):
    """A finalized set of packed matrices over F_ell (sorted uint64 keys)."""

    __slots__ = ("ell", "_keys", "_factors")

    def __init__(self, ell, keys):
        _require_odd_prime(ell)
        arr = np.asarray(keys, dtype=np.uint64).reshape(-1)
        # strictly increasing keys skip the sort; the copy leaves the
        # caller's array writable and its own
        arr = arr.copy() if (arr[1:] > arr[:-1]).all() else _sorted_unique(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "_keys", arr)
        object.__setattr__(self, "_factors", None)

    @classmethod
    def _proven(cls, ell, keys, factors):
        """The GroupSet of a family build: its closure's strictly increasing
        `keys`, held by nothing else, kept without a copy, and the
        similitude `factors` that its proof marked."""
        keys.setflags(write=False)
        return _restore(cls, [("ell", ell), ("_keys", keys),
                              ("_factors", tuple(factors))])

    @classmethod
    def from_matrices(cls, mats, ell):
        arr = np.asarray(mats, dtype=np.int64) % ell
        return cls(ell, pack_matrices(arr, ell))

    @property
    def keys(self):
        return self._keys

    @property
    def order(self):
        return int(self._keys.size)

    def __len__(self):
        return self.order

    def __eq__(self, other):
        if isinstance(other, GroupSet):
            return self.ell == other.ell and np.array_equal(self._keys, other._keys)
        return NotImplemented

    def __hash__(self):
        return hash((self.ell, self._keys.tobytes()))

    def __contains__(self, item):
        if isinstance(item, (int, np.integer)):
            key = np.array([item], dtype=np.uint64)
        else:
            arr = np.asarray(item, dtype=np.int64).reshape(1, 4, 4) % self.ell
            key = pack_matrices(arr, self.ell)
        return bool(_contains_sorted(self._keys, key)[0])

    def matrices(self):
        "Yield the elements as (N, 4, 4) int64 arrays in key order."
        return _unpacked(self._keys, self.ell)

    def _nu_chunks(self):
        "The factor of every element, one array per _CHUNK_ROWS keys."
        for mats in _unpacked(self._keys, self.ell, np.int16):
            ok, nu = _similitude_info(mats, self.ell)
            if not ok.all():
                raise ValueError("set contains a non-similitude")
            yield nu

    def nu_values(self):
        "Similitude factor of every element, aligned with key order."
        return np.concatenate([np.empty(0, np.int64), *self._nu_chunks()])

    def similitude_factors(self):
        """The factors nu that occur, ascending: those its family build
        marked, else marked here chunk by chunk (np.unique would load
        numpy.ma)."""
        if self._factors is not None:
            return list(self._factors)
        occurs = np.zeros(self.ell, dtype=bool)
        for nu in self._nu_chunks():
            occurs[nu] = True
        return np.flatnonzero(occurs).tolist()

    def subset_of(self, other):
        if self.ell != other.ell:
            return False
        return bool(_contains_sorted(other.keys, self._keys).all())

    def __reduce__(self):  # rebuilt by __init__, so the keys stay read-only
        return GroupSet, (self.ell, self._keys)

    def __repr__(self):
        return "GroupSet(ell=%d, order=%d)" % (self.ell, self.order)


# ---------------------------------------------------------------------------
# full enumerations


def _primitive_root(ell):
    "The least g whose powers are every unit mod the odd prime ell."
    return next(g for g in range(2, ell)
                if len({pow(g, k, ell) for k in range(1, ell)}) == ell - 1)


def _check_enum_prime(ell):
    _require_odd_prime(ell)
    if ell not in _ENUM_PRIMES:
        raise ValueError(
            "full enumeration is supported for ell in %r only (order ~%.1e)"
            % (_ENUM_PRIMES, float(gsp4_order(ell))))


# The modelled peak resident memory of a full enumeration: the interpreter
# with numpy loaded, then per element the listed key and the sorted copy,
# mask and distinct keys of _sorted_unique, and per thread one block's
# scratch.  tests/test_finite_census.py checks it against measured peaks.
_PROCESS_BYTES = 96 << 20
_ELEMENT_BYTES = 8 + 8 + 1 + 8
_BLOCK_BYTES = 32 << 20

# (c0, c2) pairs are handled in blocks of about this many Sp4 rows; ell = 3
# is a single block
_BLOCK_ROWS = 1 << 16


def enumeration_bytes(order, threads=None):
    "Modelled peak RSS, in bytes, of enumerating `order` elements."
    return (_PROCESS_BYTES + order * _ELEMENT_BYTES
            + resolve_threads(threads) * _BLOCK_BYTES)


def _symplectic_pairs(ell):
    "Every (c0, c2) with omega(c0, c2) = 1, from the table of form values."
    vecs = np.indices((ell,) * 4, dtype=np.int64).reshape(4, -1).T
    first, second = np.nonzero(_omega(vecs[:, None], vecs[None]) % ell == 1)
    return vecs[first], vecs[second]


def _complement_bases(c0, c2, ell):
    """A symplectic basis (u1, u2) of the complement of span(c0, c2), per row.

    P(v) = v - omega(v, c2) c0 + omega(v, c0) c2 projects onto the
    complement; u1 is the first nonzero P(e_i), u2 the first P(e_i) that
    pairs with u1, scaled so that omega(u1, u2) = 1."""
    rows = np.arange(c0.shape[0])
    eye = np.eye(4, dtype=np.int64)
    proj = (eye - _omega(eye, c2[:, None])[..., None] * c0[:, None]
            + _omega(eye, c0[:, None])[..., None] * c2[:, None]) % ell
    u1 = proj[rows, proj.any(axis=2).argmax(axis=1)]
    pairing = _omega(u1[:, None], proj) % ell
    i2 = (pairing != 0).argmax(axis=1)
    scale = _inverse_table(ell)[pairing[rows, i2]]
    return u1, proj[rows, i2] * scale[:, None] % ell


def _enumerate_similitudes(ell, scalars, threads):
    """Keys of every matrix B.h.diag(1, 1, s, s), where B = (c0, u1, c2, u2)
    is a symplectic basis (its columns), h in SL2 acts on columns 1 and 3
    and s runs over `scalars`.

    Every pair (c0, c2) with omega(c0, c2) = 1 gets a symplectic basis
    (u1, u2) of its complement, so the B.h are every symplectic basis;
    scaling the last two columns by s makes nu = s.  The products are formed
    on the packed keys of B by row tables (_products): one pass by the
    |SL2| tables of h, one by the tables of diag(1, 1, s, s).  Blocks of
    pairs fill disjoint slices of one array (on a thread pool when there is
    more than one block), so the keys are the same for any thread count.
    Every key is unpacked and checked to be a similitude of factor s."""
    c0, c2 = _symplectic_pairs(ell)
    u1, u2 = _complement_bases(c0, c2, ell)
    bases = pack_matrices(np.stack([c0, u1, c2, u2], axis=2), ell)
    del c0, c2, u1, u2  # only the keys are read from here on: a lower peak
    gl2, det = _all_gl2(ell)
    h_tables = _row_tables([_embed(((1, 3), h)) for h in gl2[det == 1]], ell)
    s_tables = _row_tables([np.diag([1, 1, s, s]) for s in scalars], ell)
    width = len(h_tables) * len(scalars)
    out = np.empty(bases.size * width, dtype=np.uint64)
    per = max(1, _BLOCK_ROWS // len(h_tables))

    def fill(start):
        stop = min(start + per, bases.size)
        block = out[start * width:stop * width].reshape(len(scalars), -1)
        block[:] = _products(_products(bases[start:stop], h_tables, ell),
                             s_tables, ell).reshape(len(scalars), -1)
        for row, s in zip(block, scalars):
            for mats in _unpacked(row, ell, np.int16):
                ok, nu = _similitude_info(mats, ell)
                if not (ok & (nu == s)).all():
                    raise AssertionError(
                        "enumeration built a matrix that is not a similitude "
                        "of factor %d" % s)

    starts = range(0, bases.size, per)
    nthreads = resolve_threads(threads)
    if nthreads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            list(pool.map(fill, starts))
    else:
        for start in starts:
            fill(start)
    return out


def _full_group(ell, scalars, order, threads, max_bytes):
    """The group listed by _enumerate_similitudes, proven to be all of it:
    its keys are similitudes of the listed factors, and the distinct keys
    number exactly `order`, the order of the group."""
    need = enumeration_bytes(order, threads)
    if need > max_bytes:
        raise ResourceLimit(
            "enumeration of %d elements needs ~%d bytes (modelled peak RSS); "
            "budget is %d" % (order, need, max_bytes))
    group = GroupSet(ell, _enumerate_similitudes(ell, scalars, threads))
    if group.order != order:
        raise AssertionError(
            "enumeration produced %d elements, expected %d"
            % (group.order, order))
    return group


def enumerate_sp4(ell, threads=None, max_bytes=DEFAULT_MAX_BYTES):
    """The full group with nu = 1 over F_ell, listed as symplectic bases.

    Order ell^4 (ell^2 - 1)(ell^4 - 1); ell = 3 is cheap, ell = 5 builds
    roughly ten million elements and is allowed only when
    enumeration_bytes fits max_bytes.
    """
    _check_enum_prime(ell)
    return _full_group(ell, (1,), sp4_order(ell), threads, max_bytes)


def enumerate_gsp4(ell, threads=None, max_bytes=DEFAULT_MAX_BYTES):
    """As enumerate_sp4 times the cosets diag(1, 1, g^k, g^k) for a
    primitive root g: order (ell-1) |Sp4|."""
    _check_enum_prime(ell)
    gamma = _primitive_root(ell)
    return _full_group(ell, [pow(gamma, k, ell) for k in range(ell - 1)],
                       gsp4_order(ell), threads, max_bytes)


def brute_similitude_scan():
    """Scan all 3^16 matrices over F_3 for t(m) J m = nu J, nu a unit.

    The independent oracle for the enumerations and the generator closure:
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
    return (
        GroupSet(3, np.concatenate(sp_parts)),
        GroupSet(3, np.concatenate(gsp_parts)),
    )


# ---------------------------------------------------------------------------
# characteristic-polynomial census


def charpoly_census(group):
    "Exact CharPolyHistogram of a GroupSet; independent of iteration order."
    ell = group.ell
    counts = np.zeros(ell ** 5, dtype=np.int64)
    for mats in group.matrices():
        coeffs = charpoly_coeffs(mats, ell)
        ok, nu = _similitude_info(mats, ell)
        if not ok.all():
            raise ValueError("census input contains a non-similitude")
        flat = (((coeffs[:, 0] * ell + coeffs[:, 1]) * ell + coeffs[:, 2])
                * ell + coeffs[:, 3]) * ell + nu
        counts += np.bincount(flat, minlength=ell ** 5)
    classes, nu_classes = {}, {}
    for flat in np.flatnonzero(counts):
        n = int(counts[flat])
        rest, nu = divmod(int(flat), ell)
        rest, c4 = divmod(rest, ell)
        rest, c3 = divmod(rest, ell)
        c1, c2 = divmod(rest, ell)
        key = (c1, c2, c3, c4)
        nu_classes[key + (nu,)] = n
        classes[key] = classes.get(key, 0) + n
    return CharPolyHistogram(ell, classes, nu_classes)


# ---------------------------------------------------------------------------
# subgroup families


class FamilySpec(_Frozen):
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

    def __eq__(self, other):
        if isinstance(other, FamilySpec):
            return (self.tag, self.ell) == (other.tag, other.ell)
        return NotImplemented

    def __hash__(self):
        return hash((self.tag, self.ell))

    def __repr__(self):
        return "FamilySpec(%r, %d)" % (self.tag, self.ell)


def _ext_params(ell):
    """(u, a, b) of the quadratic-extension families: u the least
    non-residue mod ell, (a, b) the least nonzero pair with a^2 + b^2 = u."""
    u = quadratic_nonresidue(ell)
    a, b = solve_sum_of_squares(u)
    return u.val, a.val, b.val


def _inverse_table(ell):
    "inv[x] = x^-1 mod ell for every unit x (inv[0] = 0)."
    return np.array([0] + [pow(x, -1, ell) for x in range(1, ell)],
                    dtype=np.int64)


def _all_gl2(ell):
    "(N, 2, 2) of every invertible 2x2, plus the (N,) determinants."
    grid = np.indices((ell,) * 4, dtype=np.int64).reshape(4, -1).T
    det = (grid[:, 0] * grid[:, 3] - grid[:, 1] * grid[:, 2]) % ell
    keep = det != 0
    return grid[keep].reshape(-1, 2, 2), det[keep]


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


# Membership predicates, (N, 4, 4) matrices mod ell -> (N,) bool: the zero
# or block pattern of a family.  With the similitude test each defines its
# family (or base) as a set, of the order in its _FAMILIES row.


def _zero_off(*rows):
    "The predicate: zero wherever the pattern `rows` ('1010', ...) has 0."
    rows, cols = zip(*[(i, j) for i, row in enumerate(rows)
                       for j, c in enumerate(row) if c == "0"])
    return lambda m, ell: (m[:, rows, cols] == 0).all(axis=1)


_IS_CHECKER = _zero_off("1010", "0101", "1010", "0101")


def _is_s_image(m, ell):
    "Every 2x2 block [[p, q], [r, s]] has r = q and b (p - s) = 2 a q."
    _, a, b = _ext_params(ell)
    p, q = m[:, ::2, ::2], m[:, ::2, 1::2]
    r, s = m[:, 1::2, ::2], m[:, 1::2, 1::2]
    return ((r == q) & ((b * (p - s) - 2 * a * q) % ell == 0)).all(axis=(1, 2))


def _is_u_image(m, ell):
    "[[A, B], [uB, A]]."
    u = _ext_params(ell)[0]
    return ((m[:, 2:, 2:] == m[:, :2, :2]).all(axis=(1, 2))
            & ((m[:, 2:, :2] - u * m[:, :2, 2:]) % ell == 0).all(axis=(1, 2)))


def _is_case9(m, ell):
    """X (x) Y with Y diagonal or antidiagonal: the checkerboard with
    proportional blocks, before or after the exchange of columns."""
    def even(m):
        a, b = m[:, ::2, ::2].reshape(-1, 4), m[:, 1::2, 1::2].reshape(-1, 4)
        ok = _IS_CHECKER(m, ell)
        for i, j in _PAIRS:
            ok &= (a[:, i] * b[:, j] - a[:, j] * b[:, i]) % ell == 0
        return ok

    return even(m) | even(m @ _EXCHANGE)


# tag -> (generators, membership predicate and closed-form order of the
# family, or of its index-2 base when it is doubled; the involution w that
# doubles it to base u base.w, or None).  The orders are standard (R. W.
# Carter, Finite Groups of Lie Type, 1985).
_LEVI_P = (  # [[A, 0], [0, t(A)^-1]], A = T, W, diag(g, 1); diag(1, 1, g, g)
    lambda ell: [_embed(((0, 1), _T), ((2, 3), _T_DUAL)),
                 _embed(((0, 1), _W), ((2, 3), _W)),
                 *_diags(ell, (1, 0, -1, 0), (0, 0, 1, 1))],
    _zero_off("1100", "1100", "0011", "0011"),
    lambda q: q * (q * q - 1) * (q - 1) ** 2)
_HEN = (  # checkerboard (A, I), (I, A) for A = T, W; (D, D) for D = diag(g, 1)
    lambda ell: [*(_embed((i, a)) for a in (_T, _W) for i in ((0, 2), (1, 3))),
                 *_diags(ell, (1, 1, 0, 0))],
    _IS_CHECKER, lambda q: (q - 1) * (q * (q * q - 1)) ** 2)
_FAMILIES = {
    # the torus diag(t1, t2, nu/t1, nu/t2)
    "LeviB": (lambda ell: _diags(ell, (1, 0, -1, 0), (0, 1, 0, -1),
                                 (0, 0, 1, 1)),
              _zero_off("1000", "0100", "0010", "0001"),
              lambda q: (q - 1) ** 3, None),
    "LeviP": (*_LEVI_P, None),
    # t on e1, B on (e2, e4) and det(B)/t on e3, for (t, B) = (1, T),
    # (1, W), (1, diag(g, 1)) and (g, I)
    "LeviQ": (lambda ell: [_embed(((1, 3), _T)), _embed(((1, 3), _W)),
                           *_diags(ell, (0, 1, 1, 0), (1, 0, -1, 0))],
              _zero_off("1000", "0101", "0010", "0101"),
              lambda q: q * (q * q - 1) * (q - 1) ** 2, None),
    "Hen": (*_HEN, None),
    "Case5": (*_LEVI_P, _SWAP),
    "Case6": (*_HEN, _EXCHANGE),
    # the base: GL2(F_ell^2) with determinant in F_ell^x
    "Case7": (_case7_gens, _is_s_image,
              lambda q: (q - 1) * q * q * (q ** 4 - 1), _ROT_PAIR),
    # the base: the similitudes of the unitary group U2(F_ell)
    "Case8": (_case8_gens, _is_u_image,
              lambda q: (q - 1) * (q + 1) * q * (q * q - 1), _NEG_LOWER),
    # X (x) Y for X in GL2 and Y = diag(1, +-1) or antidiag(1, +-1): the
    # generators X (x) I for X = T, W, diag(g, 1), I (x) diag(1, -1) and
    # I (x) antidiag(1, 1) = _EXCHANGE
    "Case9": (lambda ell: [_embed(((0, 2), a), ((1, 3), a)) for a in (_T, _W)]
              + _diags(ell, (1, 1, 0, 0)) + [np.diag([1, -1] * 2), _EXCHANGE],
              _is_case9, lambda q: 4 * q * (q * q - 1) * (q - 1), None),
}

# The modelled peak resident memory of a family build, per element held
# (the family, and the base of a doubled one): _closure's buffer, which the
# GroupSet keeps, and the group of the stage before, the last block of a
# round and its new rows, and the row field and lookup scratch of a `times`
# pass over them; 64 bytes leave headroom over these 48.
# tests/test_finite_census.py checks it against measured peaks.
_CLOSURE_ELEMENT_BYTES = 64


def _closure_bytes(elements):
    "Modelled peak RSS, in bytes, of a family build holding `elements`."
    return _PROCESS_BYTES + elements * _CLOSURE_ELEMENT_BYTES


def _counted(close, order, name):
    "The keys of close(cap=order); AssertionError unless exactly `order`."
    try:
        keys = close(order)
    except RuntimeError:
        raise AssertionError("%s: the generators give more than %d elements"
                             % (name, order)) from None
    if keys.size != order:
        raise AssertionError("%s: the generators give %d elements, not %d"
                             % (name, keys.size, order))
    return keys


def _closed_family(gens, inside, order, ell, name):
    """(keys, factors): the sorted keys of the closure of `gens` (a group),
    proven to be the family of `order` elements that `inside` and the
    similitude test define by a count equal to `order` and every key passing
    both, and the similitude factors of its elements, ascending, marked in
    the same pass; AssertionError otherwise, and for a closure that outgrows
    `order`."""
    keys = _counted(lambda cap: mulclose(gens, ell, cap), order, name)
    occurs = np.zeros(ell, dtype=bool)
    for mats in _unpacked(keys, ell, np.int16):
        ok, nu = _similitude_info(mats, ell)
        if not (ok & inside(mats, ell)).all():
            raise AssertionError("%s: the generators leave the family" % name)
        occurs[nu] = True
    return keys, np.flatnonzero(occurs).tolist()


def family_with_base(spec):
    """(family, base) named by `spec`, as GroupSets: _closed_family proves
    the family, or the index-2 base of a doubled one (Case5: the Siegel
    Levi; Case6: the checkerboard group; Case7: the S-block image; Case8:
    [[A, B], [uB, A]]; None for the others).  A doubled family is the
    closure of the generators and w from the proven base, a group of
    similitudes when w is one, and of twice the base's order by its count
    (capped there); it is base u base.w, so its factors are the base's
    times 1 and nu(w), nu being a homomorphism.  A modelled peak RSS over
    DEFAULT_MAX_BYTES raises ResourceLimit first."""
    gens, inside, order, w = _FAMILIES[spec.tag]
    ell, n = spec.ell, order(spec.ell)
    held = n if w is None else 3 * n
    if _closure_bytes(held) > DEFAULT_MAX_BYTES:
        raise ResourceLimit(
            "%s at ell = %d holds %d elements, ~%d bytes (modelled peak RSS); "
            "budget is %d" % (spec.tag, ell, held, _closure_bytes(held),
                              DEFAULT_MAX_BYTES))
    gens = gens(ell)
    keys, factors = _closed_family(gens, inside, n, ell,
                                   spec.tag + ("" if w is None else " base"))
    base = GroupSet._proven(ell, keys, factors)
    if w is None:
        return base, None
    keys = _counted(lambda cap: _key_closure(base.keys, gens + [w], ell, cap),
                    2 * n, spec.tag)
    ok, nu = _similitude_info(w[None] % ell, ell)
    if not ok[0]:
        raise AssertionError("%s: the generators leave the family" % spec.tag)
    factors = sorted({*factors, *(f * int(nu[0]) % ell for f in factors)})
    return GroupSet._proven(ell, keys, factors), base


def build_family(spec):
    "The explicit subgroup named by `spec`, as a GroupSet (family_with_base)."
    return family_with_base(spec)[0]


def gl2_charpoly_census(ell):
    """Census of det(1 - AT) = 1 + c1 T + c2 T^2 over all of GL2(F_ell):
    a dict (c1, c2) -> count.  The largest class has ell^2 + ell members."""
    _require_odd_prime(ell)
    gl2, det = _all_gl2(ell)
    tr = (gl2[:, 0, 0] + gl2[:, 1, 1]) % ell
    flat = (-tr) % ell * ell + det
    counts = np.bincount(flat, minlength=ell * ell)
    return {divmod(int(i), ell): int(counts[i]) for i in np.flatnonzero(counts)}


def embed_gl2_siegel(ell):
    """GL2 embedded block-diagonally with nu = 1, A paired with t(A)^-1: the
    kernel of nu on the proven LeviP family [[A, 0], [0, nu t(A)^-1]], so a
    group of order |GL2(F_ell)|."""
    levi = build_family(FamilySpec("LeviP", ell))
    return GroupSet(ell, levi.keys[levi.nu_values() == 1])
