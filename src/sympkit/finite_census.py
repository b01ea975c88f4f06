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
larger primes are refused outright.  The frontier BFS `mulclose` remains as
the independent oracle and as the engine of the closure proofs; its loop,
_closure, works on sorted keys of any dtype and also closes the Q(i)
gallery of artin_gallery.  The subgroup families (Levi factors, the
checkerboard endoscopic group, and Case5-Case9) come from one table,
_FAMILIES: each tag names the function that lists its matrices and, for
the doubled families, the involution that doubles the listed base.  They are
proven closed by regeneration: each key set must equal the closure of a
small certificate drawn from it, which makes it a group (_prove_group).

charpoly_census of an enumeration is the oracle of census.closed_form_census,
which needs no listing and no numpy.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .census import CharPolyHistogram, gsp4_order, sp4_order
from .exact_arith import (
    _Frozen,
    _require_odd_prime,
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
    "(N,) uint64 keys -> (N, 4, 4) matrices."
    keys = np.asarray(keys, dtype=np.uint64)
    mask = np.uint64((1 << _bits_for(ell)) - 1)
    out = (keys[:, None] >> _shifts(ell)) & mask
    return out.astype(dtype).reshape(-1, 4, 4)


def _omega(x, y):
    "The alternating form t(x) J y over the last axis (length 4), unreduced."
    return (x[..., 0] * y[..., 2] + x[..., 1] * y[..., 3]
            - x[..., 2] * y[..., 0] - x[..., 3] * y[..., 1])


def _similitude_info(mats, ell):
    """(mask, nu): which matrices satisfy t(m) J m = nu J with nu a unit.

    Entry (i, j) of t(m) J m is omega(c_i, c_j) for the columns c_i, and the
    form is alternating, so the identity is the six column pairs i < j:
    omega(c0, c2) = omega(c1, c3) = nu and zero on the other four."""
    m = np.asarray(mats, dtype=np.int64)
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


def _notin_sorted(keys, sorted_ref):
    "Entries of sorted `keys` absent from sorted `sorted_ref`."
    return keys[~_contains_sorted(sorted_ref, keys)]


def _merge_sorted(a, b):
    "The union of two disjoint sorted key arrays, sorted."
    return np.insert(a, np.searchsorted(a, b), b)


def _closure(start, expand, cap=None, threads=None, chunk=1 << 14):
    """Product closure over sorted 1-D keys of any sortable dtype.

    `start` holds the keys of the identity and the generators, and
    `expand(span)` returns the keys of every product of an element keyed in
    `span` with a generator.  Frontier BFS: each round expands the newly
    found keys.  A finite closed product set containing 1 is a group, so no
    inverses are needed.  Shards of the frontier may run on a thread pool;
    every round sorts and deduplicates, so the result is identical for any
    thread count, chunk size, or generator ordering.  Exceeding `cap`
    elements raises RuntimeError.
    """
    seen = _sorted_unique(start)
    frontier = seen
    nthreads = resolve_threads(threads)

    def fresh(span):
        return _notin_sorted(_sorted_unique(expand(span)), seen)

    while frontier.size:
        spans = [frontier[i:i + chunk] for i in range(0, frontier.size, chunk)]
        if nthreads > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=nthreads) as pool:
                parts = list(pool.map(fresh, spans))
        else:
            parts = [fresh(s) for s in spans]
        frontier = _sorted_unique(np.concatenate(parts))
        seen = _merge_sorted(seen, frontier)
        if cap is not None and seen.size > cap:
            raise RuntimeError(
                "closure cap exceeded (%d elements, cap %d)" % (seen.size, cap))
    return seen


def mulclose(gens, ell, cap=None, threads=None, chunk=1 << 14):
    """Product closure of integer matrices mod ell, as sorted packed keys
    (_closure on packed keys; see there for threads, chunk and cap)."""
    gens = np.asarray(gens, dtype=np.int64) % ell
    if gens.size == 0:
        raise ValueError("need at least one generator")
    gen_keys = _sorted_unique(pack_matrices(gens, ell))
    gens = unpack_keys(gen_keys, ell)

    def expand(span):
        mats = unpack_keys(span, ell)
        return np.concatenate(
            [pack_matrices(np.matmul(mats, g) % ell, ell) for g in gens])

    ident = pack_matrices(np.eye(4, dtype=np.int64)[None], ell)
    return _closure(np.concatenate([ident, gen_keys]), expand, cap, threads,
                    chunk)


class GroupSet(_Frozen):
    """A finalized set of packed matrices over F_ell (sorted uint64 keys)."""

    __slots__ = ("ell", "_keys")

    def __init__(self, ell, keys):
        _require_odd_prime(ell)
        arr = _sorted_unique(np.asarray(keys, dtype=np.uint64))
        arr.setflags(write=False)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "_keys", arr)

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

    def matrices(self, chunk=1 << 15):
        "Yield the elements as (N, 4, 4) int64 arrays in key order."
        for i in range(0, self._keys.size, chunk):
            yield unpack_keys(self._keys[i:i + chunk], self.ell)

    def nu_values(self):
        "Similitude factor of every element, aligned with key order."
        parts = []
        for mats in self.matrices():
            ok, nu = _similitude_info(mats, self.ell)
            if not ok.all():
                raise ValueError("set contains a non-similitude")
            parts.append(nu)
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    def subset_of(self, other):
        if self.ell != other.ell:
            return False
        return bool(_contains_sorted(other.keys, self._keys).all())

    def __reduce__(self):  # rebuilt by __init__, so the keys stay read-only
        return GroupSet, (self.ell, self._keys)

    def __repr__(self):
        return "GroupSet(ell=%d, order=%d)" % (self.ell, self.order)


def _prove_group(keys, ell, name):
    """Prove the sorted key set `keys` a group; return the certificate S.

    From the identity, add the smallest key not yet in the closure to S and
    recompute the closure <S>, until <S> equals the set (which is then a
    group) or leaves it (then the set is not closed under product).  Each
    key at least doubles <S> (Lagrange): |S| <= order.bit_length()."""
    cert = np.empty(0, dtype=np.uint64)
    closure = pack_matrices(np.eye(4, dtype=np.int64)[None], ell)
    while True:
        if not _contains_sorted(keys, closure).all():
            raise AssertionError("%s: not closed under product" % name)
        if closure.size == keys.size:
            return cert
        cert = np.append(cert, _notin_sorted(keys, closure)[0])
        try:
            closure = mulclose(unpack_keys(cert, ell), ell, cap=keys.size)
        except RuntimeError:  # the closure outgrew the set
            raise AssertionError("%s: not closed under product" % name) from None


def _proven_keys(mats, ell, name):
    "Sorted keys of the matrices mod ell, proven a group by _prove_group."
    keys = _sorted_unique(
        pack_matrices(np.asarray(mats, dtype=np.int64) % ell, ell))
    _prove_group(keys, ell, name)
    return keys


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
_CHECK_ROWS = 1 << 15


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


def _column_key(vecs, col, ell):
    "Key bits of vectors (..., 4) placed as column `col` of a matrix."
    shifts = _shifts(ell)[col::4]
    return (vecs.astype(np.uint64) << shifts).sum(axis=-1, dtype=np.uint64)


def _enumerate_similitudes(ell, scalars, threads):
    """Keys of every matrix with columns (c0, c1, s c2, s c3), where
    (c0, c1, c2, c3) is a symplectic basis and s runs over `scalars`.

    Every pair (c0, c2) with omega(c0, c2) = 1 gets a symplectic basis
    (u1, u2) of its complement, and (c1, c3) = (u1, u2) g for every g in
    SL2; scaling the last two columns by s makes nu = s.  Blocks of pairs
    fill disjoint slices of one array (on a thread pool when there is more
    than one block), so the keys are the same for any thread count.  Every
    key is unpacked and checked to be a similitude of factor s."""
    c0, c2 = _symplectic_pairs(ell)
    u1, u2 = _complement_bases(c0, c2, ell)
    gl2, det = _all_gl2(ell)
    sl2 = gl2[det == 1]
    width = sl2.shape[0] * len(scalars)
    out = np.empty(c0.shape[0] * width, dtype=np.uint64)
    per = max(1, _BLOCK_ROWS // sl2.shape[0])

    def fill(start):
        stop = min(start + per, c0.shape[0])
        a, b = u1[start:stop, None], u2[start:stop, None]
        c1 = (a * sl2[:, 0, 0, None] + b * sl2[:, 1, 0, None]) % ell
        c3 = (a * sl2[:, 0, 1, None] + b * sl2[:, 1, 1, None]) % ell
        head = (_column_key(c0[start:stop, None], 0, ell)
                + _column_key(c1, 1, ell))
        block = out[start * width:stop * width].reshape(len(scalars), -1)
        for row, s in zip(block, scalars):
            tail = (_column_key(s * c2[start:stop, None] % ell, 2, ell)
                    + _column_key(s * c3 % ell, 3, ell))
            row[:] = (head + tail).ravel()
            for i in range(0, row.size, _CHECK_ROWS):
                ok, nu = _similitude_info(
                    unpack_keys(row[i:i + _CHECK_ROWS], ell), ell)
                if not (ok & (nu == s)).all():
                    raise AssertionError(
                        "enumeration built a matrix that is not a similitude "
                        "of factor %d" % s)

    starts = range(0, c0.shape[0], per)
    nthreads = resolve_threads(threads)
    if nthreads > 1 and len(starts) > 1:
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


def _units(ell):
    return np.arange(1, ell, dtype=np.int64)


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


def _family_levi_b(ell):
    t1, t2, t0 = [g.ravel() for g in np.meshgrid(
        _units(ell), _units(ell), _units(ell), indexing="ij")]
    inv = _inverse_table(ell)
    n = t1.size
    out = np.zeros((n, 4, 4), dtype=np.int64)
    out[:, 0, 0] = t1
    out[:, 1, 1] = t2
    out[:, 2, 2] = t0 * inv[t1] % ell
    out[:, 3, 3] = t0 * inv[t2] % ell
    return out


def _family_levi_p(ell):
    gl2, det = _all_gl2(ell)
    inv = _inverse_table(ell)
    units = _units(ell)
    n = gl2.shape[0] * units.size
    a = np.repeat(gl2, units.size, axis=0)
    d = np.repeat(det, units.size)
    nu = np.tile(units, gl2.shape[0])
    scale = nu * inv[d] % ell
    out = np.zeros((n, 4, 4), dtype=np.int64)
    out[:, 0:2, 0:2] = a
    # nu * transpose-inverse of A = (nu/det) [[a22, -a21], [-a12, a11]]
    out[:, 2, 2] = scale * a[:, 1, 1] % ell
    out[:, 2, 3] = scale * (-a[:, 1, 0]) % ell
    out[:, 3, 2] = scale * (-a[:, 0, 1]) % ell
    out[:, 3, 3] = scale * a[:, 0, 0] % ell
    return out


def _family_levi_q(ell):
    gl2, det = _all_gl2(ell)
    inv = _inverse_table(ell)
    units = _units(ell)
    b = np.repeat(gl2, units.size, axis=0)
    d = np.repeat(det, units.size)
    t = np.tile(units, gl2.shape[0])
    out = np.zeros((b.shape[0], 4, 4), dtype=np.int64)
    out[:, 0, 0] = t
    out[:, 1, 1] = b[:, 0, 0]
    out[:, 1, 3] = b[:, 0, 1]
    out[:, 3, 1] = b[:, 1, 0]
    out[:, 3, 3] = b[:, 1, 1]
    out[:, 2, 2] = d * inv[t] % ell
    return out


def _family_hen(ell):
    gl2, det = _all_gl2(ell)
    blocks = []
    for v in range(1, ell):
        sel = gl2[det == v]
        k = sel.shape[0]
        a = np.repeat(sel, k, axis=0)
        b = np.tile(sel, (k, 1, 1))
        blocks.append(_checkerboard(a, b, ell))
    return np.concatenate(blocks)


def _checkerboard(a, b, ell):
    "Interleave 2x2 blocks A (odd slots) and B (even slots) into 4x4s."
    n = a.shape[0]
    out = np.zeros((n, 4, 4), dtype=np.int64)
    out[:, 0, 0] = a[:, 0, 0]
    out[:, 0, 2] = a[:, 0, 1]
    out[:, 2, 0] = a[:, 1, 0]
    out[:, 2, 2] = a[:, 1, 1]
    out[:, 1, 1] = b[:, 0, 0]
    out[:, 1, 3] = b[:, 0, 1]
    out[:, 3, 1] = b[:, 1, 0]
    out[:, 3, 3] = b[:, 1, 1]
    return out % ell


def _family_case7_base(ell):
    "All S-block 4x4s with a1 a4 - a2 a3 a unit of the base field."
    u, a, b = _ext_params(ell)
    grid = np.indices((ell,) * 8, dtype=np.int64).reshape(8, -1).T
    x1, y1, x2, y2, x3, y3, x4, y4 = grid.T
    det_x = (x1 * x4 + u * y1 * y4 - x2 * x3 - u * y2 * y3) % ell
    det_y = (x1 * y4 + x4 * y1 - x2 * y3 - x3 * y2) % ell
    keep = (det_y == 0) & (det_x != 0)
    g = grid[keep]
    n = g.shape[0]
    out = np.zeros((n, 4, 4), dtype=np.int64)
    for slot, (r, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        x, y = g[:, 2 * slot], g[:, 2 * slot + 1]
        out[:, 2 * r, 2 * c] = (x + a * y) % ell
        out[:, 2 * r, 2 * c + 1] = b * y % ell
        out[:, 2 * r + 1, 2 * c] = b * y % ell
        out[:, 2 * r + 1, 2 * c + 1] = (x - a * y) % ell
    return out


def _family_case8_base(ell):
    "All [[A, B], [uB, A]] in the similitude group."
    u = _ext_params(ell)[0]
    grid = np.indices((ell,) * 8, dtype=np.int64).reshape(8, -1).T
    n = grid.shape[0]
    mats = np.zeros((n, 4, 4), dtype=np.int64)
    a = grid[:, 0:4].reshape(-1, 2, 2)
    b = grid[:, 4:8].reshape(-1, 2, 2)
    mats[:, 0:2, 0:2] = a
    mats[:, 0:2, 2:4] = b
    mats[:, 2:4, 0:2] = u * b % ell
    mats[:, 2:4, 2:4] = a
    ok, _ = _similitude_info(mats, ell)
    # the membership conditions in block terms: A tA - u B tB scalar unit,
    # A tB symmetric — equivalent to the similitude identity; enforce both
    at = a.transpose(0, 2, 1)
    bt = b.transpose(0, 2, 1)
    m1 = (np.matmul(a, at) - u * np.matmul(b, bt)) % ell
    m2 = (np.matmul(a, bt) - np.matmul(b, at)) % ell
    nu = m1[:, 0, 0]
    scalar = ((m1[:, 0, 1] == 0) & (m1[:, 1, 0] == 0)
              & (m1[:, 1, 1] == nu) & (nu != 0))
    cond = scalar & (m2 == 0).all(axis=(1, 2))
    if not np.array_equal(ok, cond):
        raise AssertionError("block conditions disagree with the Gram identity")
    return mats[ok]


_CASE9_SLOTS = (
    ((0, 0), (0, 2), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3)),
    ((0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)),
)


def _family_case9(ell):
    "The two interleaved tensor patterns, filtered to similitudes."
    grid = np.indices((ell,) * 6, dtype=np.int64).reshape(6, -1).T
    a, b, c, d, v, z = grid.T
    values = (a * v, b * v, a * z, b * z, c * v, d * v, c * z, d * z)
    out = []
    for slots in _CASE9_SLOTS:
        mats = np.zeros((grid.shape[0], 4, 4), dtype=np.int64)
        for (r, c_), val in zip(slots, values):
            mats[:, r, c_] = val % ell
        ok, _ = _similitude_info(mats, ell)
        out.append(mats[ok])
    return np.concatenate(out)


# the index-2 families adjoin one involution each.  The block swap
# [[0, I], [I, 0]] genuinely extends the Siegel Levi (Case5), but it lies
# INSIDE both the checkerboard group (its two blocks are the 2x2 swap) and
# the S-block image (it is the S-matrix of antidiag(1, 1)), where adjoining
# it is a no-op; those families are doubled by the outer symmetry instead:
# the basis exchange (0 1)(2 3) swaps the two checkerboard factors, and the
# block rotation pair conjugates every S-block to its quadratic conjugate.
# diag(1, 1, -1, -1) negates the B block of [[A, B], [uB, A]], realizing the
# unitary conjugation at every ell (the block swap does so only when u^2 = 1).
_EXCHANGE = np.array(
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.int64
)

_ROT_PAIR = np.array(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=np.int64
)

_NEG_LOWER = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], dtype=np.int64
)


def _extend_by(base_mats, w, ell, name):
    """Key set of <base, w>: the union base ∪ base·w, proven a group.  A group
    that contains base and base·w contains w and lies inside <base, w>, so it
    is <base, w>; a union that is no group raises AssertionError."""
    base = np.asarray(base_mats, dtype=np.int64) % ell
    w = np.asarray(w, dtype=np.int64) % ell
    return _proven_keys(np.concatenate([base, base @ w % ell]), ell, name)


# tag -> (the function listing the family's matrices, or its index-2 base's
# when the family is doubled; the involution that doubles it, or None)
_FAMILIES = {
    "LeviB": (_family_levi_b, None),
    "LeviP": (_family_levi_p, None),
    "LeviQ": (_family_levi_q, None),
    "Hen": (_family_hen, None),
    "Case5": (_family_levi_p, _SWAP),
    "Case6": (_family_hen, _EXCHANGE),
    "Case7": (_family_case7_base, _ROT_PAIR),
    "Case8": (_family_case8_base, _NEG_LOWER),
    "Case9": (_family_case9, None),
}


def _family(spec, with_base):
    """(family, base) as GroupSets proven closed, from one listing of the
    matrices; base is None unless `with_base` and the family is doubled."""
    build, w = _FAMILIES[spec.tag]
    mats, ell = build(spec.ell), spec.ell
    if w is None:
        return GroupSet(ell, _proven_keys(mats, ell, spec.tag)), None
    grp = GroupSet(ell, _extend_by(mats, w, ell, spec.tag))
    if not with_base:
        return grp, None
    return grp, GroupSet(ell, _proven_keys(mats, ell, spec.tag + " base"))


def build_family(spec):
    """The explicit subgroup named by `spec`, as a GroupSet proven closed:
    the Levi and checkerboard families and Case9 (the union of its two block
    patterns) by direct parameter enumeration, Case5-Case8 as a base doubled
    by one involution (_FAMILIES).  Every key set is proven a group by
    regeneration (_prove_group), independently of how it was enumerated."""
    return _family(spec, False)[0]


def family_with_base(spec):
    """(build_family(spec), base): the base is the natural index-2 subgroup
    of a doubled family (Case5: the Siegel Levi; Case6: the checkerboard
    group; Case7: the S-block image; Case8: the [[A, B], [uB, A]] set),
    enumerated once and proven closed, or None for a family without one."""
    return _family(spec, True)


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
    "GL2 embedded block-diagonally with nu = 1: A paired with t(A)^-1."
    mats = _family_levi_p(ell)
    _, nu = _similitude_info(mats, ell)
    return GroupSet(ell, _proven_keys(mats[nu == 1], ell, "GL2 Siegel embedding"))
