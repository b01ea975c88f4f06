"""Exhaustive exact enumeration of symplectic similitude groups mod small primes.

A matrix over F_ell is packed row-major into one uint64 key (ceil(log2 ell)
bits per entry, so ell <= 13: larger primes raise ValueError); only mulclose
and the tests hold keys.  The families, their chain and GroupSet, which is
its chain and holds no key, live in families, which loads no numpy.  A group
is its own set of inverses, so each element of a chain's group is listed
once as a product uinv_3 uinv_2 uinv_1 uinv_0 of one transversal inverse
per level (_listing).  Sp4 and GSp4 (ell = 3 and 5) are the groups of the
Siegel and Klingen SL2s, and diag(1, 1, g, g) for GSp4, proven whole by the
families' proof with no linear condition (families._closed_family).

A listing forms its products on int16 matrices stored entry-major, one
contiguous row per entry, by one kernel (_times): H, the group of levels
3..1, is formed whole, and each pass is H times the uinv_0 of a few points
of level 0.  That is the form every loop over the elements reads
(GroupSet.nu_values, the census), so nothing is packed or unpacked there:
the similitude test and the census's e1 and e2 are exact in int16.
charpoly_census of an enumeration or a family is the oracle of
census.closed_form_census; it checks every element as a similitude, and
its histogram, like every census, stores nu_classes and reads classes.
"""

# the siblings first: run from a fresh checkout, a module compiled after
# numpy is loaded adds its compile to the peak RSS that numpy has raised
from ._base import _require_odd_prime
from .census import CharPolyHistogram, gsp4_order, sp4_order
from .families import (GroupSet, _KLINGEN_SL2, _SIEGEL_SL2, _bits_for,
                       _chain, _closed_family, _diags, _order)

import numpy as np

_ENUM_PRIMES = (3, 5)


# ---------------------------------------------------------------------------
# packed keys


def pack_matrices(mats, ell):
    """(N, 4, 4) entries in [0, ell) -> (N,) uint64 keys, row-major; an entry
    outside raises ValueError.  Each entry m[:, r, c] is cast and shifted
    into place through one N-word scratch, so an entry-major view is packed
    without a copy and no array wider than the keys and the scratch is
    made."""
    m = np.asarray(mats).reshape(-1, 4, 4)
    out = np.zeros(m.shape[0], dtype=np.uint64)
    scratch = np.empty_like(out)
    shifts = np.uint64(_bits_for(ell)) * np.arange(16, dtype=np.uint64)
    for k, shift in enumerate(shifts):
        scratch[...] = m[:, k // 4, k % 4]
        if scratch.max(initial=0) >= ell:  # a negative entry wraps above
            raise ValueError("entries must lie in [0, %d)" % ell)
        scratch <<= shift
        out |= scratch
    return out


def unpack_keys(keys, ell):
    """(N,) uint64 keys -> (N, 4, 4) int64 matrices.

    The entries are formed entry-major, one contiguous row of N per entry of
    a matrix, and returned as an (N, 4, 4) view of them: the checks read
    whole entries, columns and blocks, each then a contiguous array.  The
    rows are doubled, rows k..2k-1 being rows 0..k-1 shifted by k entries,
    so no array wider than the result is made (one call shifting all 16
    rows makes numpy cast or buffer through a wider one).  Every entry is
    below ell <= 13, so the int64 view is exact."""
    keys = np.asarray(keys, dtype=np.uint64)
    bits = _bits_for(ell)
    out = np.empty((16, keys.size), dtype=np.uint64)
    out[0] = keys
    for k in (1, 2, 4, 8):
        np.right_shift(out[:k], bits * k, out[k:2 * k])
    out &= (1 << bits) - 1
    return out.view(np.int64).T.reshape(-1, 4, 4)


# About this many matrices per pass of a listing (_listing), which every
# loop over a group's elements reads (GroupSet.nu_values, the census): the
# int16 matrices of a pass are one entry-major array of 64 KiB, and its
# temporaries stay in cache.  A pass is at least one point of level 0.
_CHUNK_ROWS = 1 << 11


def _mod(x, ell):
    """x mod ell in place, as x - (x // ell) ell: numpy's % by a scalar is
    far slower (960,000 int16 entries: 7.4 ms against 0.4 ms, numpy 2.4)."""
    scratch = np.floor_divide(x, ell)
    x -= np.multiply(scratch, ell, out=scratch)
    return x


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
    nu = _mod(_omega(cols[0], cols[2]), ell)
    mask = (nu != 0) & (_mod(_omega(cols[1], cols[3]), ell) == nu)
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        mask &= _mod(_omega(cols[i], cols[j]), ell) == 0
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
# the listing of a chain's group


def _transversal(level):
    "The inverses uinv of a level's transversal, as (P, 4, 4) int16 matrices."
    uinv = np.frombuffer(level.uinv, np.uint8).reshape(-1, 4, 4)
    return uinv.transpose(0, 2, 1).astype(np.int16)  # uinv is column-major


def _times(h, u, ell):
    """h u mod ell for the entry-major (4, 4, N) int16 matrices h and each of
    the (P, 4, 4) int16 matrices u, as a (4, 4, P, N) array: four broadcast
    multiply-adds, exact in int16 as 4 * 12^2 < 2^15, and one reduction
    (_mod); one temporary at a time is alive besides the result."""
    out = h[:, 0, None, None] * u[:, 0].T[None, :, :, None]
    for k in range(1, 4):
        out += h[:, k, None, None] * u[:, k].T[None, :, :, None]
    return _mod(out, ell)


def _listing(chain, ell):
    """Every element of a complete chain's group, each once, in passes of
    (N, 4, 4) int16 matrices, entry-major views.  The group is its own set
    of inverses, so its elements are the products uinv_3 uinv_2 uinv_1
    uinv_0 of one transversal inverse per level (G. Butler, Fundamental
    Algorithms for Permutation Groups, 1991): H, the group of levels 3..1,
    is formed whole, and each pass is H times the uinv_0 of about
    _CHUNK_ROWS // |H| points of level 0 (_times)."""
    h = np.eye(4, dtype=np.int16)[..., None]
    for level in chain[:0:-1]:
        h = _times(h, _transversal(level), ell).reshape(4, 4, -1)
    uinv, per = _transversal(chain[0]), max(1, _CHUNK_ROWS // h.shape[2])
    for i in range(0, len(uinv), per):
        yield _times(h, uinv[i:i + per], ell).reshape(4, 4, -1).transpose(
            2, 0, 1)


def _listed(chain, ell):
    "The keys of a complete chain's group, listed into one array and sorted."
    keys, n = np.empty(_order(chain), dtype=np.uint64), 0
    for mats in _listing(chain, ell):
        keys[n:n + len(mats)] = pack_matrices(mats, ell)
        n += len(mats)
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
    """Sp4(F_ell)'s generators, the Siegel and Klingen SL2s (families); for
    GSp4(F_ell), also diag(1, 1, g, g) for the primitive root g."""
    gens = [*_SIEGEL_SL2, *_KLINGEN_SL2]
    return gens + (_diags(ell, (0, 0, 1, 1)) if name == "GSp4" else [])


def _full_group(ell, name, order):
    """The group that _full_gens generates, proven all of `name` by the
    family proof with no linear condition (families._closed_family)."""
    _require_odd_prime(ell)
    if ell not in _ENUM_PRIMES:
        raise ValueError(
            "full enumeration is supported for ell in %r only (order ~%.1e)"
            % (_ENUM_PRIMES, float(gsp4_order(ell))))
    return GroupSet(ell, *_closed_family(_full_gens(ell, name), [],
                                         order(ell), ell, name))


def enumerate_sp4(ell):
    """Sp4(F_ell), the similitudes of factor 1, for ell = 3 and 5, proven
    from the chain of its generators (_full_group): order
    ell^4 (ell^2 - 1)(ell^4 - 1).  No key is listed but by its census."""
    return _full_group(ell, "Sp4", sp4_order)


def enumerate_gsp4(ell):
    "GSp4(F_ell), as enumerate_sp4: (ell - 1) |Sp4| elements, every factor."
    return _full_group(ell, "GSp4", gsp4_order)


# ---------------------------------------------------------------------------
# characteristic-polynomial census


def charpoly_census(group):
    """Exact CharPolyHistogram of a GroupSet, from its matrices in passes
    (GroupSet._blocks): a census is independent of their order.

    Each pass is checked as similitudes first.  For a similitude of factor
    nu, det(1 - gT) is palindromic: c3 = nu c1 and c4 = nu^2.  So a class
    is fixed by (c1, c2, nu), and only e1 and e2 are formed, exact in int16
    (|e1| <= 48 and |e2| <= 864 for entries below 13); the count runs over
    those ell^3 triples, whose index fits int16 at every ell <= 13, and its
    nonzero entries are the nu_classes (charpoly_coeffs, which forms all
    four, is the reference of the tests).  A pass is dropped once counted,
    before the next is formed."""
    ell = group.ell
    counts = np.zeros(ell ** 3, dtype=np.int64)
    for m in group._blocks():
        ok, nu = _similitude_info(m, ell)
        if not ok.all():
            raise ValueError("census input contains a non-similitude")
        e1 = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2] + m[:, 3, 3]
        e2 = sum(m[:, i, i] * m[:, j, j] - m[:, i, j] * m[:, j, i]
                 for i, j in _PAIRS)
        counts += np.bincount((_mod(-e1, ell) * ell + _mod(e2, ell)) * ell
                              + nu, minlength=ell ** 3)
        del m, ok, nu, e1, e2
    return CharPolyHistogram(ell, {
        (c1, c2, nu * c1 % ell, nu * nu % ell, nu): int(n)
        for (c1, c2, nu), n in np.ndenumerate(counts.reshape(ell, ell, ell))
        if n})
