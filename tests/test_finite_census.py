"""Tests for the packed enumeration machinery and the explicit families."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import sympkit
from sympkit import families, finite_census
from sympkit._base import PrimeFieldElem, is_odd_prime
from sympkit._mat import pairing
from sympkit.cli import main
from sympkit.census import (
    FAMILY_FORMS,
    c_eta_M,
    closed_form_census,
    enumerate_P1_reps,
    gl2_charpoly_census,
)
from sympkit.gsp4_core import similitude_generator, standard_generators
from sympkit.families import (
    FamilySpec,
    GroupSet,
    build_family,
    family_with_base,
    _EXCHANGE,
    _FAMILIES,
    _NEG_LOWER,
    _ROT_PAIR,
    _SWAP,
    _closed_family,
    _embed,
    _ext_params,
)
from sympkit.finite_census import (
    CharPolyHistogram,
    charpoly_census,
    charpoly_coeffs,
    enumerate_gsp4,
    enumerate_sp4,
    gsp4_order,
    mulclose,
    pack_matrices,
    sp4_order,
    unpack_keys,
    _chain,
    _full_gens,
    _listing,
    _order,
    _similitude_info,
)

from keysets import KeySet, generated, matrices, sorted_keys

_CACHE = {}


def sp4_3():
    if "sp4_3" not in _CACHE:
        _CACHE["sp4_3"] = enumerate_sp4(3)
    return _CACHE["sp4_3"]


def gsp4_3():
    if "gsp4_3" not in _CACHE:
        _CACHE["gsp4_3"] = enumerate_gsp4(3)
    return _CACHE["gsp4_3"]


def census_3():
    if "census_3" not in _CACHE:
        _CACHE["census_3"] = charpoly_census(gsp4_3())
    return _CACHE["census_3"]


def _modelled_bytes(elements):
    """The one-key memory model of a group's sorted keys: 96 MiB for the
    interpreter with numpy loaded, and one key (8 bytes) per element."""
    return (96 << 20) + 8 * elements


# the budget of 128 MiB that the peak RSS of the worst listing that remains
# is held below (measured at 39 MiB)
_BUDGET = 128 << 20


def family(tag, ell=3):
    key = (tag, ell)
    if key not in _CACHE:
        _CACHE[key] = build_family(FamilySpec(tag, ell))
    return _CACHE[key]


def family_base(tag):
    "The index-2 base of a doubled family at ell = 3."
    key = (tag, "base")
    if key not in _CACHE:
        _CACHE[key] = family_with_base(FamilySpec(tag, 3))[1]
    return _CACHE[key]


FAMILY_ORDERS_3 = {
    "LeviB": 8,
    "LeviP": 96,
    "LeviQ": 96,
    "Hen": 1152,
    "Case5": 192,
    "Case6": 2304,
    "Case7": 2880,
    "Case8": 384,
    "Case9": 192,
}

EXTENDED_TAGS = ("Case5", "Case6", "Case7", "Case8")


# ---------------------------------------------------------------------------
# packing


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(7)
    for ell in (3, 5, 7, 11, 13):
        mats = rng.integers(0, ell, size=(64, 4, 4), dtype=np.int64)
        mats[0] = ell - 1  # at ell = 11 and 13 its key uses all 64 bits
        keys = pack_matrices(mats, ell)
        assert keys.dtype == np.uint64
        # the reference: mask every field, then convert with a copy
        bits = max(1, (ell - 1).bit_length())
        shifts = np.uint64(bits) * np.arange(16, dtype=np.uint64)
        fields = keys[:, None] >> shifts
        want = (fields & np.uint64((1 << bits) - 1)).astype(np.int64)
        got = unpack_keys(keys, ell)
        assert got.dtype == np.int64 and got.shape == (64, 4, 4)
        assert np.array_equal(got, want.reshape(-1, 4, 4))
        assert np.array_equal(got, mats)
        assert got.flags.writeable and not np.shares_memory(got, keys)
    # 2,048 keys unpack with no array wider than the result, plus 2 KiB of
    # array objects (shifting the 16 rows in one call would go through a
    # wider transient)
    keys = pack_matrices(rng.integers(0, 5, size=(2048, 4, 4)), 5)
    unpack_keys(keys, 5)
    tracemalloc.start()
    try:
        got = unpack_keys(keys, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + keys.nbytes + 2048, peak
    # packing them casts and shifts one entry column at a time through one
    # 2,048-word scratch (an (N, 16) uint64 copy and its shift traced
    # 591,440 bytes for the 16 KiB of keys)
    mats = unpack_keys(keys, 5)
    tracemalloc.start()
    try:
        got = pack_matrices(mats, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, keys)
    assert peak <= 2 * keys.nbytes + 2048, peak


def test_pack_matrices_layout_and_nu():
    ident = np.eye(4, dtype=np.int64)
    scal = np.diag([1, 1, 2, 2]).astype(np.int64)
    keys = pack_matrices(np.stack([ident, scal]), 3)
    # row-major, 2 bits per entry: the diagonal sits at bits 0, 10, 20, 30
    assert int(keys[0]) == 1 + (1 << 10) + (1 << 20) + (1 << 30)
    assert int(keys[1]) == 1 + (1 << 10) + (2 << 20) + (2 << 30)
    assert (unpack_keys(keys, 3) == np.stack([ident, scal])).all()
    assert list(KeySet(3, keys).nu_values()) == [1, 2]


def test_nu_values_rejects_non_similitude():
    with pytest.raises(ValueError, match="non-similitude"):
        KeySet.from_matrices(np.ones((1, 4, 4), dtype=np.int64), 3).nu_values()


def test_packing_rejects_wide_primes():
    # 16 entries of ceil(log2 ell) bits fit a 64-bit key up to ell = 13; at
    # 17, five bits per entry would push the last row past bit 64
    ident = np.eye(4, dtype=np.int64)[None]
    assert (unpack_keys(pack_matrices(ident * 12, 13), 13) == ident * 12).all()
    for call in (lambda: pack_matrices(ident, 17),
                 lambda: unpack_keys(np.ones(1, dtype=np.uint64), 17),
                 lambda: mulclose(ident, 17),
                 lambda: FamilySpec("LeviB", 17)):
        with pytest.raises(ValueError, match="ell = 17 does not pack"):
            call()


def test_pack_matrices_refuses_entries_outside_the_field():
    # an entry of ell or more would spill into the next field (at ell = 3,
    # the identity with entry (0, 0) set to 4 would read [[0, 1, 0, 0],
    # ...]), and a negative one would wrap (-1 would read 3)
    ident = np.eye(4, dtype=np.int64)
    for r, c, x in ((0, 0, 4), (2, 3, -1), (3, 3, 3)):
        bad = np.stack([ident, ident])
        bad[1, r, c] = x
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 3\)"):
            pack_matrices(bad, 3)
    assert pack_matrices(ident * 2, 3).size == 1


# ---------------------------------------------------------------------------
# characteristic polynomial


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _charpoly_oracle(m, ell):
    "Coefficients of det(1 - mT) by brute permanent-style expansion."
    coeffs = [0] * 5
    for perm in permutations(range(4)):
        sign = _perm_sign(perm)
        prod = [1, 0, 0, 0, 0]
        for i in range(4):
            const = 1 if perm[i] == i else 0
            lin = -int(m[i][perm[i]])
            new = [0] * 5
            for d in range(4):
                new[d] += prod[d] * const
                new[d + 1] += prod[d] * lin
            prod = new
        for d in range(5):
            coeffs[d] += sign * prod[d]
    assert coeffs[0] == 1
    return tuple(c % ell for c in coeffs[1:])


def test_charpoly_coeffs_against_permutation_expansion():
    rng = np.random.default_rng(11)
    for ell in (3, 5, 13):
        mats = rng.integers(0, ell, size=(40, 4, 4), dtype=np.int64)
        got = charpoly_coeffs(mats, ell)
        for k in range(mats.shape[0]):
            assert tuple(got[k]) == _charpoly_oracle(mats[k], ell)


def _omega(x, y):
    "The alternating form t(x) J y over the last axis (length 4), unreduced."
    return pairing(np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0))


def _gram_predicate(mats, ell):
    "t(m) J m = nu J by two matrix products: the reference for the kernel."
    j = np.array([[0, 0, 1, 0], [0, 0, 0, 1],
                  [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=np.int64) % ell
    gram = np.matmul(mats.transpose(0, 2, 1), np.matmul(j, mats)) % ell
    nu = gram[:, 0, 2]
    ok = (gram == nu[:, None, None] * j % ell).all(axis=(1, 2)) & (nu != 0)
    return ok, nu


def test_similitude_kernel_matches_the_gram_products():
    rng = np.random.default_rng(5)
    members = np.concatenate(list(matrices(gsp4_3())))
    members = members[rng.choice(members.shape[0], 5000, replace=False)]
    # one entry of each member moved: near misses on both sides of the test
    moved = members.copy()
    rows = np.arange(moved.shape[0])
    spots = rng.integers(0, 4, size=(2, moved.shape[0]))
    moved[rows, spots[0], spots[1]] = (moved[rows, spots[0], spots[1]] + 1) % 3
    cases = [(3, members), (3, moved)]
    cases += [(ell, rng.integers(0, ell, size=(20000, 4, 4)))
              for ell in (3, 5, 13)]
    for ell, mats in cases:
        want_ok, want_nu = _gram_predicate(mats, ell)
        # the checks pass int16 matrices, the census int64
        for given in (mats, mats.astype(np.int16)):
            ok, nu = _similitude_info(given, ell)
            assert np.array_equal(ok, want_ok) and np.array_equal(nu, want_nu)
    assert _similitude_info(members, 3)[0].all()
    assert 0 < _similitude_info(moved, 3)[0].sum() < moved.shape[0]


def test_similitude_info_gram_identity():
    ok, nu = _similitude_info(np.eye(4, dtype=np.int64)[None], 5)
    assert ok[0] and nu[0] == 1
    ok, nu = _similitude_info(np.diag([1, 1, 3, 3]).astype(np.int64)[None], 5)
    assert ok[0] and nu[0] == 3
    ok, _ = _similitude_info(np.triu(np.ones((4, 4), np.int64))[None], 5)
    assert not ok[0]


# ---------------------------------------------------------------------------
# full enumerations and the independent oracle


def test_sp4_enumeration_order():
    assert sp4_3().order == sp4_order(3) == 51840


def test_gsp4_enumeration_order_and_fibers():
    g = gsp4_3()
    assert g.order == gsp4_order(3) == 103680
    assert sp4_3().subset_of(g)
    fibers = np.bincount(g.nu_values(), minlength=3)
    assert fibers[0] == 0 and fibers[1] == fibers[2] == 51840


def _generator_closure(ell, with_similitude):
    "mulclose of the standard generators (and diag(1, 1, g, g)) at g = 2."
    gamma = PrimeFieldElem(ell, 2)  # a primitive root mod 3 and mod 5
    gens = standard_generators(gamma)
    if with_similitude:
        gens = gens + [similitude_generator(gamma)]
    mats = np.array([[[e.val for e in row] for row in m] for m in gens],
                    dtype=np.int64)
    return mulclose(mats, ell)


_J4 = np.array(
    [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=np.int64
)


def brute_similitude_scan():
    """Scan all 3^16 matrices over F_3 for t(m) J m = nu J, nu a unit.

    The independent oracle of the chain listings at ell = 3, of
    enumerate_sp4/gsp4 and of the generator closure of other generators:
    returns the sorted keys of (nu = 1 set, all-similitude set).  The
    identity says omega(c_i, c_j) = nu J_ij for every pair of columns, so a
    matrix whose (c0, c2) pair, or whose c1 against them, already fails is
    skipped with all its completions: (c0, c2) need omega(c0, c2) a unit,
    c1 needs omega(c0, c1) = omega(c1, c2) = 0, and every surviving
    (c0, c1, c2) with each of the 81 columns c3 is tested by the full Gram
    identity.  The predicate is the same as a flat scan's; no group theory
    is used.  Only ell = 3 is tractable this way.
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
    return tuple(np.sort(np.concatenate(parts))
                 for parts in (sp_parts, gsp_parts))


def test_brute_scan_matches_generator_closures():
    # the oracle chain: the brute-force scan checks the generator closure,
    # and the closure checks the chain listing of the full groups
    scan_sp, scan_gsp = brute_similitude_scan()
    closure_sp = _generator_closure(3, False)
    closure_gsp = _generator_closure(3, True)
    assert np.array_equal(scan_sp, closure_sp)
    assert np.array_equal(scan_gsp, closure_gsp)
    assert np.array_equal(closure_sp, sorted_keys(sp4_3()))
    assert np.array_equal(closure_gsp, sorted_keys(gsp4_3()))


# The symplectic-basis oracle of the full groups: an element of Sp4 is an
# ordered symplectic basis (its columns), so the groups are listed here from
# the bases, with no generators and no chain.


def _inverse_table(ell):
    "inv[x] = x^-1 mod ell for every unit x (inv[0] = 0)."
    return np.array([0] + [pow(x, -1, ell) for x in range(1, ell)],
                    dtype=np.int64)


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


def _symplectic_bases(ell, scalars):
    """Keys of every matrix B.h.diag(1, 1, s, s), where B = (c0, u1, c2, u2)
    is a symplectic basis (its columns), h in SL2 acts on columns 1 and 3
    and s runs over `scalars`, each checked to be a similitude of factor s.

    Every pair (c0, c2) with omega(c0, c2) = 1 gets a symplectic basis
    (u1, u2) of its complement, so the B.h are every symplectic basis;
    scaling the last two columns by s makes nu = s.  The products are
    matrix products, B (h diag(1, 1, s, s)) by np.matmul in int16 (exact,
    as 4 * 12^2 < 2^15), for blocks of about 2^16 bases times h, so the
    oracle shares no product kernel with the listing it checks."""
    c0, c2 = _symplectic_pairs(ell)
    u1, u2 = _complement_bases(c0, c2, ell)
    bases = np.stack([c0, u1, c2, u2], axis=2).astype(np.int16)
    gl2, det = _all_gl2(ell)
    sl2 = np.array([_embed(((1, 3), h)) for h in gl2[det == 1]])
    width = len(sl2)
    out = np.empty((len(scalars), len(bases) * width), dtype=np.uint64)
    per = max(1, (1 << 16) // width)
    for row, s in zip(out, scalars):
        hs = (np.matmul(sl2, np.diag([1, 1, s, s])) % ell).astype(np.int16)
        for start in range(0, len(bases), per):
            mats = np.matmul(bases[start:start + per, None], hs) % ell
            mats = mats.reshape(-1, 4, 4)
            ok, nu = _similitude_info(mats, ell)
            assert (ok & (nu == s)).all(), s
            row[start * width:start * width + len(mats)] = pack_matrices(
                mats, ell)
    return out.ravel()


def _same_as_the_oracle(group, scalars):
    "Whether the symplectic bases of factors `scalars` are `group`'s keys."
    keys = _symplectic_bases(group.ell, scalars)
    keys.sort()
    return np.array_equal(keys, sorted_keys(group))


def test_symplectic_bases_equal_the_chain_listing():
    # every ordered symplectic basis, distinct and as many as the group
    # order, is an element of the listing of the chain, and no other is
    assert _same_as_the_oracle(sp4_3(), [1])
    assert _same_as_the_oracle(gsp4_3(), [1, 2])


def test_enumeration_refuses_bad_generators(monkeypatch):
    # the proof of a full group is the families' with no linear condition:
    # the chain's order the order formula, and every generator a similitude
    def with_gens(edit):
        monkeypatch.setattr(finite_census, "_full_gens",
                            lambda ell, name: edit(_full_gens(ell, name)))

    # a generator of factor 2 among Sp4's gives all of GSp4, and one that is
    # no similitude among GSp4's gives more than GSp4
    with_gens(lambda gens: gens + [np.diag([1, 1, 2, 2])])
    with pytest.raises(AssertionError, match="Sp4: the generators give more "
                                             "than 51840 elements"):
        enumerate_sp4(3)
    assert enumerate_gsp4(3).order == gsp4_order(3)
    with_gens(lambda gens: gens + [np.diag([1, 1, 1, 2])])
    with pytest.raises(AssertionError, match="GSp4: the generators give more "
                                             "than 103680 elements"):
        enumerate_gsp4(3)
    # the SL2 of the Siegel Levi alone, and with diag(1, 1, g, g)
    with_gens(lambda gens: gens[:2] + gens[4:])
    with pytest.raises(AssertionError, match="Sp4: the generators give 24 "
                                             "elements, not 51840"):
        enumerate_sp4(3)
    with pytest.raises(AssertionError, match="GSp4: the generators give 48 "
                                             "elements, not 103680"):
        enumerate_gsp4(3)


def test_full_groups_read_the_factors_of_their_proof(monkeypatch):
    def no_listing(*args, **kwargs):
        raise AssertionError("a key was listed")

    monkeypatch.setattr(finite_census, "_listing", no_listing)
    for group, factors in ((enumerate_sp4(3), [1]),
                           (enumerate_gsp4(3), [1, 2])):
        assert group.similitude_factors() == factors


def _perm_matrix(*images):
    "The 4x4 matrix sending e_i to e_images[i]."
    return np.eye(4, dtype=np.int64)[:, list(images)]


def test_closure_deterministic_across_orderings():
    gens = np.stack([m for chunk in matrices(family("LeviP")) for m in chunk][:6])
    base = mulclose(gens, 3)
    assert np.array_equal(base, mulclose(gens[::-1], 3))
    # every coset times every generator: a loop that multiplies only by the
    # newest generator closes S3 from (1 2), (2 3) to 4 elements, and S4
    # from (1 2), (1 2 3 4) to 8
    for gens, order in (([(1, 0, 2, 3), (0, 2, 1, 3)], 6),
                        ([(1, 0, 2, 3), (1, 2, 3, 0)], 24)):
        mats = [_perm_matrix(*images) for images in gens]
        keys = mulclose(mats, 3)
        assert keys.size == order
        assert np.array_equal(keys, mulclose(mats[::-1], 3))


def test_mulclose_refuses_singular_generators():
    # a chain needs the inverse of every generator, which _mat.mat_inv
    # refuses for a singular one (a coset closure from this draw listed 292
    # keys, 263 of them distinct)
    rng = np.random.default_rng(5)
    gens = rng.integers(0, 3, (2, 4, 4))
    gens[0][3] = 0
    with pytest.raises(ValueError, match="generator 0 is singular mod 3"):
        mulclose(gens, 3)
    # singular mod ell only, and after an invertible generator
    with pytest.raises(ValueError, match="generator 1 is singular mod 5"):
        mulclose([np.eye(4, dtype=np.int64), np.diag([1, 1, 1, 5])], 5)
    # and no generator at all
    with pytest.raises(ValueError, match="need at least one generator"):
        mulclose([], 3)


def test_closures_are_strictly_increasing():
    # a listing is sorted, never deduplicated, and a KeySet would sort and
    # dedupe a bad one silently: check the keys as mulclose returns them,
    # and the listing of each chain, from the generators and, for an
    # extended family, extended from the base's, as one sorted array of its
    # order
    for ell in (3, 5):
        for tag, (gens, _, order, extension) in _FAMILIES.items():
            chains, index = [_chain(gens(ell), ell)], 1
            if extension is not None:
                more, index = extension
                chains.append(_chain(more, ell, base=chains[0]))
            keys = [mulclose(gens(ell), ell)]
            keys += [np.sort(np.concatenate([pack_matrices(m, ell)
                                             for m in _listing(c, ell)]))
                     for c in chains]
            for k in keys:
                assert k.dtype == np.uint64 and (k[1:] > k[:-1]).all(), tag
            assert np.array_equal(keys[0], keys[1]), tag
            assert keys[-1].size == order(ell) * index, (tag, ell)


def test_enumeration_refuses_large_primes():
    with pytest.raises(ValueError):
        enumerate_sp4(7)
    with pytest.raises(ValueError):
        enumerate_gsp4(9)
    with pytest.raises(ValueError):
        enumerate_sp4(2)


def _child_peak_bytes(*argv):
    """Peak RSS of `python argv...` with sympkit importable, read by a
    wrapper process through getrusage(RUSAGE_CHILDREN), so that no other
    child of this process is counted."""
    wrapper = ("import resource, subprocess, sys\n"
               "subprocess.run([sys.executable] + sys.argv[1:], check=True,\n"
               "               stdout=subprocess.DEVNULL)\n"
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    src = str(Path(sympkit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", wrapper, *argv],
                         env=dict(os.environ, PYTHONPATH=path), check=True,
                         capture_output=True, text=True, timeout=600)
    return int(out.stdout) * (1 if sys.platform == "darwin" else 1024)


def test_budget_model_bounds_the_census_peak_rss():
    peak = _child_peak_bytes("-m", "sympkit.cli", "census", "--ell", "3",
                             "--enumerate")
    assert 0 < peak <= _modelled_bytes(gsp4_order(3))


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell=5: the census and the key set of GSp4(F_5) "
                           "in child processes, about 6 s")
def test_budget_model_bounds_the_enumeration_peak_rss_gated():
    need = _modelled_bytes(gsp4_order(5))
    peak = _child_peak_bytes("-m", "sympkit.cli", "census", "--ell", "5",
                             "--enumerate")
    assert 0 < peak <= need
    peak = _child_peak_bytes(
        "-c", "from sympkit.finite_census import _listed, enumerate_gsp4; "
              "_listed(enumerate_gsp4(5)._chain, 5)")
    assert 0 < peak <= need


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell=5: the listing and its two oracles, the "
                           "symplectic bases and the generator closure, "
                           "take about 3 s")
def test_sp4_5_order_gated():
    g = enumerate_sp4(5)
    assert g.order == sp4_order(5) == 9360000
    assert _same_as_the_oracle(g, [1])
    assert np.array_equal(_generator_closure(5, False), sorted_keys(g))


# ---------------------------------------------------------------------------
# GroupSet


def test_groupset_contains_and_from_matrices():
    g = family("LeviB")
    ident = np.eye(4, dtype=np.int64)
    assert ident in g
    assert np.diag([1, 2, 1, 2]).astype(np.int64) in g
    assert _SWAP not in g
    # its elements, in key order, are members and pack back to its keys
    mats = np.concatenate(list(matrices(g)))
    assert all(m in g for m in mats)
    again = KeySet.from_matrices(mats, 3)
    assert np.array_equal(again.keys, sorted_keys(g))


def test_groupset_immutable_and_sorted():
    g = family("LeviB")
    with pytest.raises(AttributeError):
        g.ell = 5
    with pytest.raises(AttributeError):
        g._chain = None
    # the listing holds each element once: its sorted keys strictly increase
    assert (np.diff(sorted_keys(g).astype(np.int64)) > 0).all()


def test_only_4x4_integer_matrices_are_members():
    # x in G sifts the 4x4 integer matrix x through G's chain, reduced mod
    # ell; a packed key, or anything else that is not such a matrix, is no
    # member
    g = family("LeviB")
    ident = np.eye(4, dtype=np.int64)
    assert ident in g and ident + 3 * np.ones((4, 4), np.int64) in g
    assert ident.tolist() in g and tuple(map(tuple, ident)) in g
    key = int(pack_matrices(ident[None], 3)[0])
    for item in (key, np.uint64(key), -1, 2 ** 64, None, "1000", ident[None],
                 ident[:3], ident[:, :3], ident.astype(float), ident.ravel(),
                 [[1, 0, 0, 0]] * 3 + [[0, 0, 0, 1, 0]]):
        assert item not in g, item


def test_family_keys_are_the_closures_not_a_copy(monkeypatch):
    # a family build hands each chain to its GroupSet and lists no key;
    # the listing of each held chain is its group, each element once
    chains = []
    chain = families._chain
    monkeypatch.setattr(families, "_chain", lambda *args, **kwargs:
                        chains.append(chain(*args, **kwargs)) or chains[-1])
    for tag in ("Hen", "Case7"):
        chains.clear()
        fam, base = family_with_base(FamilySpec(tag, 3))
        held = [fam] if base is None else [base, fam]
        assert [g._chain for g in held] == chains, tag
        for g in held:
            keys = sorted_keys(g)
            assert keys.size == g.order and (keys[1:] > keys[:-1]).all(), tag


def test_groupset_nu_values_rejects_non_similitudes():
    # the group of the upper triangular matrix of ones: no similitude
    bad = generated([np.triu(np.ones((4, 4), np.int64))], 3)
    with pytest.raises(ValueError, match="non-similitude"):
        bad.nu_values()
    with pytest.raises(ValueError, match="non-similitude"):
        KeySet.from_matrices(np.triu(np.ones((4, 4), np.int64))[None],
                             3).nu_values()


def test_similitude_factors_are_the_factors_of_the_elements():
    for tag in FAMILY_ORDERS_3:
        g = family(tag)
        assert g.similitude_factors() \
            == np.flatnonzero(np.bincount(g.nu_values())).tolist(), tag


# ---------------------------------------------------------------------------
# census


def test_census_trivial_group():
    triv = generated([], 3, [1])
    h = charpoly_census(triv)
    assert h.classes == {(2, 0, 2, 1): 1}
    assert h.nu_classes == {(2, 0, 2, 1, 1): 1}
    assert h.total == 1
    assert h.csv_rows() == ["c1,c2,c3,c4,nu,count", "2,0,2,1,1,1"]


GSP4_3_CLASSES = {
    (0, 0, 0, 1): 9720,
    (0, 1, 0, 1): 17010,
    (0, 2, 0, 1): 10692,
    (1, 0, 1, 1): 6561,
    (1, 0, 2, 1): 5184,
    (1, 1, 1, 1): 5184,
    (1, 1, 2, 1): 6480,
    (1, 2, 1, 1): 4860,
    (1, 2, 2, 1): 4860,
    (2, 0, 1, 1): 5184,
    (2, 0, 2, 1): 6561,
    (2, 1, 1, 1): 6480,
    (2, 1, 2, 1): 5184,
    (2, 2, 1, 1): 4860,
    (2, 2, 2, 1): 4860,
}


def test_census_gsp4_3_frozen():
    h = census_3()
    assert h.total == 103680
    assert h.classes == GSP4_3_CLASSES
    assert sum(h.nu_classes.values()) == h.total
    # the coefficient tuple of a similitude forces c3 = nu*c1 and c4 = nu^2
    for (c1, c2, c3, c4, nu) in h.nu_classes:
        assert c3 == c1 * nu % 3 and c4 == nu * nu % 3


def test_census_scalar_unipotent_classes():
    # elements with char poly (1 - aT)^4 are a times a unipotent; there are
    # exactly 3^8 unipotents, independent of a, and nu is pinned to a^2
    h = census_3()
    for a in (1, 2):
        key = tuple(x % 3 for x in (-4 * a, 6 * a * a, -4 * a ** 3, a ** 4))
        assert h.classes[key] == 6561 == 3 ** 8
        assert h.nu_classes[key + (a * a % 3,)] == 6561


def test_census_csv_shape():
    rows = census_3().csv_rows()
    assert rows[0] == "c1,c2,c3,c4,nu,count"
    assert len(rows) == 1 + len(census_3().nu_classes)
    assert rows[1:] == sorted(rows[1:])
    for row in rows[1:]:
        parts = [int(x) for x in row.split(",")]
        assert len(parts) == 6
        assert all(0 <= x < 3 for x in parts[:5])


def _coefficient_census(group):
    "nu_classes from charpoly_coeffs and _similitude_info, all in int64."
    ell, counts = group.ell, np.zeros(group.ell ** 5, dtype=np.int64)
    for mats in matrices(group):
        ok, nu = _similitude_info(mats, ell)
        assert ok.all()
        c = charpoly_coeffs(mats, ell)
        flat = (((c[:, 0] * ell + c[:, 1]) * ell + c[:, 2]) * ell
                + c[:, 3]) * ell + nu
        counts += np.bincount(flat, minlength=ell ** 5)
    return {tuple(int(x) for x in np.unravel_index(i, (ell,) * 5)):
            int(counts[i]) for i in np.flatnonzero(counts)}


def test_census_equals_the_coefficient_reference():
    # the census forms e1 and e2 only, in int16, and reads c3 = nu c1 and
    # c4 = nu^2 off the similitude factor; the reference forms all four
    # coefficients.  LeviB at ell = 13 (1,728 elements) is at the largest
    # prime that packs, where an index over all five values (13^5) would
    # overflow int16
    groups = [build_family(FamilySpec(tag, ell))
              for ell in (3, 5) for tag in _FAMILIES]
    groups += [gsp4_3(), build_family(FamilySpec("LeviB", 13))]
    for g in groups:
        assert charpoly_census(g).nu_classes == _coefficient_census(g), g
    bad = generated([np.triu(np.ones((4, 4), np.int64))], 3)
    with pytest.raises(ValueError, match="census input contains a "
                                         "non-similitude"):
        charpoly_census(bad)


def test_census_classes_are_nu_classes_summed_over_nu():
    # the counts are stored once, by (c1, c2, c3, c4, nu); classes is read
    # from them on first read, never given, and kept for the next read
    assert CharPolyHistogram.__slots__ == ("ell", "nu_classes", "total",
                                           "_classes")
    h = CharPolyHistogram(3, {(0, 0, 0, 1, 1): 2, (0, 0, 0, 1, 2): 3,
                              (1, 1, 1, 1, 1): 1})
    assert not hasattr(h, "_classes")
    assert h.classes == {(0, 0, 0, 1): 5, (1, 1, 1, 1): 1}
    assert h.classes is h._classes
    assert (h.total, h.max_class()) == (6, 5)
    with pytest.raises(AttributeError):
        h.classes = {}
    for hist in (closed_form_census(5, "gsp4"), closed_form_census(7, "Case6"),
                 charpoly_census(gsp4_3())):
        summed = {}
        for key, n in hist.nu_classes.items():
            summed[key[:4]] = summed.get(key[:4], 0) + n
        assert hist.classes == summed
        assert hist.total == sum(summed.values())


# ---------------------------------------------------------------------------
# the census in closed form, against its oracle


def _same_census(a, b):
    return (a.ell, a.total, a.classes, a.nu_classes) == (
        b.ell, b.total, b.classes, b.nu_classes)


def test_closed_form_equals_enumeration_at_3():
    assert _same_census(closed_form_census(3, "gsp4"), census_3())
    assert _same_census(closed_form_census(3, "sp4"),
                        charpoly_census(sp4_3()))


def test_closed_form_equals_enumeration_sp4_5():
    listed = enumerate_sp4(5)
    assert _same_census(closed_form_census(5, "sp4"), charpoly_census(listed))


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="GSp4(F_5): 37,440,000 elements, listed, "
                           "closed and built from symplectic bases, about "
                           "0.7 GiB")
def test_closed_form_equals_enumeration_gsp4_5_gated():
    listed = enumerate_gsp4(5)
    census = closed_form_census(5, "gsp4")
    assert _same_census(census, charpoly_census(listed))
    assert len(census.nu_classes) == 100
    # the symplectic bases and the generator closure check the listing, as
    # at ell = 3
    assert _same_as_the_oracle(listed, range(1, 5))
    assert np.array_equal(_generator_closure(5, True), sorted_keys(listed))


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell=7: the census of the listing of Sp4(F_7), "
                           "276,595,200 elements, about 11 s")
def test_closed_form_equals_the_listing_sp4_7_gated():
    # enumerate_sp4(7) stays refused; the chain of the same generators, of
    # the order formula's order, is listed once, every element checked as a
    # similitude by the census and its factor by the comparison
    chain = _chain(_full_gens(7, "Sp4"), 7)
    assert _order(chain) == sp4_order(7)
    listed = charpoly_census(GroupSet(7, chain, (1,)))
    assert _same_census(closed_form_census(7, "sp4"), listed)


def test_closed_form_totals_below_50():
    for ell in filter(is_odd_prime, range(3, 50)):
        sp4 = closed_form_census(ell, "sp4")
        gsp4 = closed_form_census(ell, "gsp4")
        assert sp4.total == sp4_order(ell)
        assert gsp4.total == gsp4_order(ell)
        assert _keys_are_similitude_classes(sp4), ell
        assert _keys_are_similitude_classes(gsp4), ell
        fibers = {}
        for key, n in gsp4.nu_classes.items():
            fibers[key[4]] = fibers.get(key[4], 0) + n
        assert fibers == dict.fromkeys(range(1, ell), sp4_order(ell))
        # the nu = 1 fiber is Sp4 itself, and each (a, b, nu) is realized
        assert {k: n for k, n in gsp4.nu_classes.items() if k[4] == 1} \
            == sp4.nu_classes
        assert len(gsp4.nu_classes) == (ell - 1) * ell * ell


def test_closed_form_frozen_classes_at_3():
    census = closed_form_census(3, "gsp4")
    # f = (x - 1)^4 with nu = 1: s = 1, C_Sp(s) = Sp4 of dimension 10, so
    # |Sp4| / |Sp4| * 3^(10 - 2) = 6561, the unipotents (Steinberg)
    assert census.nu_classes[(2, 0, 2, 1, 1)] == 6561 == 3 ** 8
    # f = x^4 + 2 x^2 + 1 = (x^2 - 2)^2 with nu = 2, a non-square mod 3:
    # the roots +-sqrt(2) have lambda^2 = nu, so C_Sp(s) = SL2(F_9) of
    # order 720 and dimension 6, and the count is 51840 / 720 * 3^4 = 5832
    # (as U2(F_3), of order 96 and dimension 4, it would be 4860)
    assert census.nu_classes[(0, 2, 0, 1, 2)] == 5832


def _avoiding_by_moebius(ell, nu, lam):
    """#{g in the nu-coset of Sp4 in GSp4(F_ell) : det(lam - g) != 0}.

    For K = ker(g - lam), the sum over the subspaces W <= K of mu(0, W) is
    [K = 0], mu(0, W) = (-1)^k ell^(k(k-1)/2) for dim W = k being the
    Moebius function of the subspace lattice (G.-C. Rota, "On the
    foundations of combinatorial theory I", 1964; R. P. Stanley, EC1,
    3.10).  So the count is the sum over all W of mu(0, W) #{g : g = lam on
    W}, and these pointwise stabilizers are read off the symplectic geometry
    (D. E. Taylor, The Geometry of the Classical Groups, 1992), with
    s = [lam^2 = nu]."""
    s = int((lam * lam - nu) % ell == 0)
    sp4 = sp4_order(ell)
    lines = (ell ** 4 - 1) // (ell - 1)  # also the number of 3-spaces
    # k = 0, mu = 1: W = 0 holds for the whole coset, |Sp4| elements
    count = sp4
    # k = 1, mu = -1: L lines <v>; the coset is transitive on the ell^4 - 1
    # nonzero vectors, so |Sp4| / (ell^4 - 1) of its elements send v to lam v
    count -= lines * sp4 // (ell ** 4 - 1)
    # k = 2, mu = ell:
    # - (ell + 1)(ell^2 + 1) Lagrangian planes: in a symplectic basis
    #   through W, g = [[lam I, B], [0, (nu / lam) I]] with B symmetric,
    #   ell^3 elements;
    # - ell^2 (ell^2 + 1) nondegenerate planes: omega(lam x, lam y) =
    #   lam^2 omega(x, y) on W needs lam^2 = nu; g keeps the complement W^perp
    #   and is any of the ell (ell^2 - 1) elements of determinant nu of its
    #   GL2 there
    count += ell * ((ell + 1) * (ell ** 2 + 1) * ell ** 3
                    + ell ** 2 * (ell ** 2 + 1) * s * ell * (ell ** 2 - 1))
    # k = 3, mu = -ell^3: L 3-spaces v^perp, each holding a nondegenerate
    # plane, so lam^2 = nu; g / lam fixes v^perp pointwise, one of the ell
    # transvections x -> x + c omega(x, v) v (c = 0 included)
    count -= ell ** 3 * lines * s * ell
    # k = 4, mu = ell^6: W = V, g = lam I, in the coset iff lam^2 = nu
    count += ell ** 6 * s
    return count


def _avoiding_in_census(hist, lams):
    """{(nu, lam): the census count of the g of factor nu with det(lam - g)
    != 0}: det(lam - g) = lam^4 det(1 - g / lam), so the keys of that nu
    whose 1 + c1 x + c2 x^2 + c3 x^3 + c4 x^4 is nonzero at x = 1 / lam."""
    ell = hist.ell
    by_nu = {}
    for key, n in hist.nu_classes.items():
        by_nu.setdefault(key[4], []).append(key[:4] + (n,))
    out = {}
    for nu, rows in by_nu.items():
        rows = np.array(rows, dtype=object)  # counts pass int64 at ell = 101
        c = rows[:, :4].astype(np.int64)
        for lam in lams:
            x = pow(lam, -1, ell)
            value = 1 + x * (c[:, 0] + x * (c[:, 1] + x * (c[:, 2]
                                                           + x * c[:, 3])))
            out[nu, lam] = rows[value % ell != 0, 4].sum()
    return out


def _closed_form_avoids_as_moebius_counts(ell, lams):
    for group, nus in (("sp4", [1]), ("gsp4", range(1, ell))):
        got = _avoiding_in_census(closed_form_census(ell, group), lams)
        assert got == {(nu, lam): _avoiding_by_moebius(ell, nu, lam)
                       for nu in nus for lam in lams}, (group, ell)


def test_closed_form_avoids_eigenvalues_as_moebius_inversion_counts():
    # an oracle at every ell that shares no code with the closed form: the
    # elements of each nu-coset without the eigenvalue lam, for every lam
    for ell in filter(is_odd_prime, range(3, 32)):
        _closed_form_avoids_as_moebius_counts(ell, range(1, ell))


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell = 101: the closed forms of Sp4 and GSp4, "
                           "1,030,200 keys, about 4 s")
def test_closed_form_avoids_eigenvalues_at_101_gated():
    _closed_form_avoids_as_moebius_counts(101, (1, 2, 10, 100))


def test_closed_forms_are_invariant_under_scalars():
    # g -> s g maps the nu-coset onto the s^2 nu-coset, and det(1 - s g T) =
    # det(1 - g (s T)): (c1, c2, c3, c4, nu) -> (s c1, s^2 c2, s^3 c3, s^4 c4,
    # s^2 nu) keeps each count of a group that holds s I.  Every family and
    # GSp4 hold every scalar, and a generator of F_ell^x gives every s; Sp4
    # holds -I only
    for ell in filter(is_odd_prime, range(3, 32)):
        root = families._primitive_root(ell)
        for tag, s in [(tag, root) for tag in FAMILY_FORMS + ("gsp4",)] + [
                ("sp4", ell - 1)]:
            hist = closed_form_census(ell, tag)
            moved = {tuple(c * s ** k % ell for k, c in enumerate(key[:4], 1))
                     + (key[4] * s * s % ell,): n
                     for key, n in hist.nu_classes.items()}
            assert moved == hist.nu_classes, (tag, ell)


def test_closed_form_rejects_bad_input():
    for ell in (2, 9, 1):
        with pytest.raises(ValueError):
            closed_form_census(ell, "sp4")
    with pytest.raises(ValueError, match="group must be"):
        closed_form_census(3, "gl4")


def test_every_family_has_a_closed_form():
    # so no family's census falls back to a listing
    assert FAMILY_FORMS == tuple(_FAMILIES)


def _keys_are_similitude_classes(hist):
    """Whether each key of `hist` is a similitude's: c3 = nu c1 and c4 =
    nu^2 for a factor 0 < nu < ell, each with a positive count."""
    ell = hist.ell
    return all(c3 == nu * c1 % ell and c4 == nu * nu % ell and 0 < nu < ell
               and n > 0 for (c1, _, c3, c4, nu), n in hist.nu_classes.items())


def test_family_closed_form_totals_and_keys():
    # each total is the row's order, times the index of an extension, well
    # beyond the ell <= 13 of the listings; nothing is listed
    for ell in filter(is_odd_prime, range(3, 32)):
        for tag in FAMILY_FORMS:
            _, _, order, extension = _FAMILIES[tag]
            hist = closed_form_census(ell, tag)
            assert hist.total == order(ell) * (
                1 if extension is None else extension[1]), (tag, ell)
            assert _keys_are_similitude_classes(hist), (tag, ell)


def _closed_forms_equal_the_listing(ell):
    for tag in FAMILY_FORMS:
        listed = charpoly_census(build_family(FamilySpec(tag, ell)))
        assert _same_census(closed_form_census(ell, tag), listed), (tag, ell)


def test_family_closed_forms_equal_the_listing():
    # the census of each family's listing, proven by its linear conditions
    # and its chain, each element checked as a similitude by the census, is
    # the oracle of its closed form, for all nine families
    for ell in (3, 5, 7):
        _closed_forms_equal_the_listing(ell)


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell = 11 and 13: the listings of all nine "
                           "families (Hen, Case6 and Case7: 57, 114 and 116 "
                           "million elements at 13), about 21 s")
def test_family_closed_forms_equal_the_listing_gated():
    for ell in (11, 13):
        _closed_forms_equal_the_listing(ell)


# ---------------------------------------------------------------------------
# coverage counts


def test_c_eta_m_bounds_and_errors():
    h = census_3()
    for eta in (0, 1, -1, 2, Fraction(5, 4)):
        with pytest.raises(ValueError):
            c_eta_M(h, eta)
    triv = generated([], 3, [1])
    assert c_eta_M(charpoly_census(triv), Fraction(1, 2)) == 1
    assert c_eta_M(h, Fraction(99, 100)) == 1
    # a prefix that covers exactly (1 - eta) of the group is enough
    exact = CharPolyHistogram(3, {(0, 0, 0, 1, 1): 1, (0, 0, 0, 1, 2): 1,
                                  (1, 1, 1, 1, 1): 1, (2, 2, 2, 1, 1): 1})
    assert c_eta_M(exact, Fraction(1, 2)) == 1


def test_c_eta_m_frozen_values_and_monotone():
    h = census_3()
    assert c_eta_M(h, Fraction(1, 100)) == 15
    assert c_eta_M(h, Fraction(1, 10)) == 13
    assert c_eta_M(h, Fraction(1, 2)) == 6
    assert c_eta_M(h, Fraction(9, 10)) == 1
    vals = [c_eta_M(h, Fraction(k, 64)) for k in range(1, 64)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] <= len(h.classes)


def test_index_two_coverage_transfer():
    # if M classes cover a (1 - eta) fraction of G, the same M classes cover
    # a (1 - 2*eta) fraction of any index-2 subgroup
    for tag in EXTENDED_TAGS:
        big = family(tag)
        sub = family_base(tag)
        assert big.order == 2 * sub.order
        assert sub.subset_of(big)
        hb, hs = charpoly_census(big), charpoly_census(sub)
        for k in range(1, 10):
            eta = Fraction(k, 20)
            assert c_eta_M(hs, 2 * eta) <= c_eta_M(hb, eta), (tag, eta)


# ---------------------------------------------------------------------------
# GL2 censuses


def test_gl2_charpoly_census_max():
    for ell in (3, 5, 7):
        counts = gl2_charpoly_census(ell)
        assert max(counts.values()) == ell * ell + ell
        assert sum(counts.values()) == (ell * ell - 1) * (ell * ell - ell)


def _all_gl2(ell):
    """(N, 2, 2) of every invertible 2x2 over F_ell, plus the (N,)
    determinants: the grid that the parameter listers below, the
    symplectic-basis oracle and the GL2 census's oracle run over."""
    grid = np.indices((ell,) * 4, dtype=np.int64).reshape(4, -1).T
    det = (grid[:, 0] * grid[:, 3] - grid[:, 1] * grid[:, 2]) % ell
    keep = det != 0
    return grid[keep].reshape(-1, 2, 2), det[keep]


def test_gl2_charpoly_census_equals_the_grid():
    # the discriminant count c(t, d) against a count of every matrix of
    # GL2(F_ell), keyed by det(1 - AT) = 1 - tT + dT^2
    for ell in (3, 5, 7, 11, 13):
        gl2, det = _all_gl2(ell)
        flat = (-(gl2[:, 0, 0] + gl2[:, 1, 1]) % ell) * ell + det
        counts = np.bincount(flat, minlength=ell * ell)
        grid = {divmod(int(i), ell): int(counts[i])
                for i in np.flatnonzero(counts)}
        assert gl2_charpoly_census(ell) == grid, ell


def embed_gl2_siegel(ell):
    """GL2 embedded block-diagonally with nu = 1, A paired with t(A)^-1: the
    kernel of nu on the proven LeviP family [[A, 0], [0, nu t(A)^-1]], so a
    group of order |GL2(F_ell)|."""
    levi = KeySet(ell, sorted_keys(build_family(FamilySpec("LeviP", ell))))
    return KeySet(ell, levi.keys[levi.nu_values() == 1])


def test_embed_gl2_siegel_census():
    g = embed_gl2_siegel(3)
    assert g.order == 48
    h = charpoly_census(g)
    assert h.total == 48
    assert h.max_class() == 12
    assert h.classes[(0, 0, 0, 1)] == 12
    assert h.classes[(0, 1, 0, 1)] == 12
    assert h.classes[(2, 0, 2, 1)] == 9  # unipotent block count (1+2)^2


# ---------------------------------------------------------------------------
# the parameter grids: the independent oracle of the family closures
#
# Each lister enumerates a family (or the index-2 base of a doubled one) from
# its parameters, with no group theory; a doubled family is listed as the
# union base u base.w.


def _units(ell):
    return np.arange(1, ell, dtype=np.int64)


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


def grid_keys(tag, ell):
    "Sorted keys of the grid listing of a family and of its base (or None)."
    mats, w = GRIDS[tag](ell) % ell, DOUBLINGS.get(tag)
    if w is None:
        return KeySet.from_matrices(mats, ell).keys, None
    union = np.concatenate([mats, mats @ (np.array(w) % ell) % ell])
    return (KeySet.from_matrices(union, ell).keys,
            KeySet.from_matrices(mats, ell).keys)


# the involution w of each doubled family, whose grid lists its base
DOUBLINGS = {"Case5": _SWAP, "Case6": _EXCHANGE, "Case7": _ROT_PAIR,
             "Case8": _NEG_LOWER}
GRIDS = {"LeviB": _family_levi_b, "LeviP": _family_levi_p,
         "LeviQ": _family_levi_q, "Hen": _family_hen, "Case5": _family_levi_p,
         "Case6": _family_hen, "Case7": _family_case7_base,
         "Case8": _family_case8_base, "Case9": _family_case9}


# ---------------------------------------------------------------------------
# families


def test_family_orders_frozen():
    for tag, want in FAMILY_ORDERS_3.items():
        assert family(tag).order == want, tag


def test_families_inside_gsp4():
    g = gsp4_3()
    for tag in FAMILY_ORDERS_3:
        assert family(tag).subset_of(g), tag


def test_family_histogram_totals():
    for tag in FAMILY_ORDERS_3:
        assert charpoly_census(family(tag)).total == family(tag).order


def test_family_bad_inputs():
    with pytest.raises(ValueError):
        FamilySpec("Case10", 3)
    with pytest.raises(ValueError):
        FamilySpec("LeviB", 4)
    # only the doubled families Case5-Case8 have a base
    assert family_with_base(FamilySpec("Hen", 3))[1] is None


def test_family_spec_value_semantics():
    a = FamilySpec("Case7", 3)
    assert FamilySpec.__slots__ == ("tag", "ell")
    assert a == FamilySpec("Case7", 3)
    assert a != FamilySpec("Case7", 5) and a != FamilySpec("Case8", 3)
    assert len({a, FamilySpec("Case7", 3)}) == 1
    with pytest.raises(AttributeError):
        a.tag = "Hen"
    assert repr(a) == "FamilySpec('Case7', 3)"


def test_block_swap_is_inside_checkerboard_and_s_image():
    # both blocks of [[0, I], [I, 0]] are the 2x2 swap with determinant -1,
    # so it lies in the checkerboard group; it is also the S-matrix of the
    # antidiagonal unit, so it lies in the Case7 base.  Adjoining it to
    # either base is a no-op, which is why those extensions use the outer
    # elements instead.
    assert _SWAP in family("Hen")
    assert _SWAP in family_base("Case7")
    hen_gens = _FAMILIES["Hen"][0](3)
    assert np.array_equal(mulclose(hen_gens + [_SWAP], 3),
                          sorted_keys(family("Hen")))
    assert _EXCHANGE not in family("Hen")
    assert _ROT_PAIR not in family_base("Case7")


def test_case5_extension_is_genuine():
    base = family_base("Case5")
    assert _SWAP not in base
    assert _SWAP in family("Case5")
    assert base.order == 96 and family("Case5").order == 192


def test_case6_exchange_swaps_checkerboard_factors():
    hen = family("Hen")
    mats = np.stack([m for c in matrices(hen) for m in c])
    conj = np.array(_EXCHANGE)[None] @ mats @ np.array(_EXCHANGE)[None] % 3
    # conjugation permutes the checkerboard: the two interleaved blocks trade
    swapped = mats.copy()
    swapped[:, 0::2][:, :, 0::2] = mats[:, 1::2][:, :, 1::2]
    swapped[:, 1::2][:, :, 1::2] = mats[:, 0::2][:, :, 0::2]
    assert (conj == swapped).all()
    assert hen.subset_of(family("Case6"))
    assert family("Case6").order == 2 * hen.order


def test_case7_rotation_realizes_field_conjugation():
    base = family_base("Case7")
    mats = np.stack([m for c in matrices(base) for m in c])
    inv = np.array([[0, -1, 0, 0], [1, 0, 0, 0],
                    [0, 0, 0, -1], [0, 0, 1, 0]], dtype=np.int64)
    conj = (inv[None] % 3) @ mats @ (np.array(_ROT_PAIR)[None] % 3) % 3
    # blockwise: [[p, q], [q, s]] -> [[s, -q], [-q, p]], the quadratic
    # conjugate of the S-block
    expect = mats.copy()
    for r in (0, 2):
        for c in (0, 2):
            expect[:, r, c] = mats[:, r + 1, c + 1]
            expect[:, r + 1, c + 1] = mats[:, r, c]
            expect[:, r, c + 1] = (-mats[:, r, c + 1]) % 3
            expect[:, r + 1, c] = (-mats[:, r + 1, c]) % 3
    assert (conj == expect).all()


def test_case7_base_is_quadratic_field_gl2():
    # the base is in product-preserving bijection with the determinant-
    # restricted GL2 over the 9-element field; check the block dictionary
    ell, u, a, b = 3, 2, 1, 1

    def fmul(p, q):
        return ((p[0] * q[0] + u * p[1] * q[1]) % ell,
                (p[0] * q[1] + p[1] * q[0]) % ell)

    def sblock(p):
        x, y = p
        return ((x + a * y) % ell, b * y % ell, (x - a * y) % ell)

    seen = set()
    for x in range(ell):
        for y in range(ell):
            for x2 in range(ell):
                for y2 in range(ell):
                    lhs = sblock(fmul((x, y), (x2, y2)))
                    p, q, s = sblock((x, y))
                    p2, q2, s2 = sblock((x2, y2))
                    prod = ((p * p2 + q * q2) % ell, (p * q2 + q * s2) % ell,
                            (q * q2 + s * s2) % ell)
                    assert lhs == prod
            seen.add(sblock((x, y)))
    assert len(seen) == ell * ell
    base = family_base("Case7")
    full_gl2 = (81 - 1) * (81 - 9)
    assert base.order == full_gl2 * (ell - 1) // (ell * ell - 1) == 1440


def test_case7_charpoly_splits_into_conjugate_quadratics():
    ell, u, a = 3, 2, 1
    base = family_base("Case7")

    def fmul(p, q):
        return ((p[0] * q[0] + u * p[1] * q[1]) % ell,
                (p[0] * q[1] + p[1] * q[0]) % ell)

    checked = 0
    for mats in matrices(base):
        coeffs = charpoly_coeffs(mats, ell)
        for m, got in zip(mats, coeffs):
            def unS(r, c):
                y = int(m[r, c + 1])
                x = (int(m[r, c]) - a * y) % ell
                return (x, y)
            a1, a2 = unS(0, 0), unS(0, 2)
            a3, a4 = unS(2, 0), unS(2, 2)
            tr = ((a1[0] + a4[0]) % ell, (a1[1] + a4[1]) % ell)
            det = tuple((x - y) % ell
                        for x, y in zip(fmul(a1, a4), fmul(a2, a3)))
            c1 = ((-tr[0]) % ell, (-tr[1]) % ell)
            d1 = (c1[0], (-c1[1]) % ell)
            d2 = (det[0], (-det[1]) % ell)
            e1 = tuple((x + y) % ell for x, y in zip(c1, d1))
            e2 = tuple((x + y + z) % ell
                       for x, y, z in zip(det, d2, fmul(c1, d1)))
            e3 = tuple((x + y) % ell
                       for x, y in zip(fmul(c1, d2), fmul(det, d1)))
            e4 = fmul(det, d2)
            # the product of the two conjugate quadratics has base-field
            # coefficients, and they are the 4x4 characteristic coefficients
            assert e1[1] == e2[1] == e3[1] == e4[1] == 0
            assert tuple(got) == (e1[0], e2[0], e3[0], e4[0])
            checked += 1
    assert checked == 1440


def test_case8_conditions_and_orders():
    base3 = _family_case8_base(3)
    assert base3.shape[0] == 192  # (ell-1) * ell(ell+1)(ell^2-1)
    assert family("Case8").order == 384
    base5 = _family_case8_base(5)
    assert base5.shape[0] == 4 * 5 * 6 * 24
    assert build_family(FamilySpec("Case8", 5)).order == 2 * base5.shape[0]


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell=11 and 13: about 1 s")
def test_case8_generators_close_at_ell_11_and_13_gated():
    # the searched generators of _case8_gens reach the whole base at the
    # largest primes that pack
    for ell in (11, 13):
        g, base = family_with_base(FamilySpec("Case8", ell))
        assert base.order == (ell - 1) * ell * (ell + 1) * (ell * ell - 1)
        assert g.order == 2 * base.order and base.subset_of(g)


def test_case8_extension_negates_upper_block():
    base = family_base("Case8")
    mats = np.stack([m for c in matrices(base) for m in c])
    w = np.array(_NEG_LOWER)[None] % 3
    conj = w @ mats @ w % 3
    expect = mats.copy()
    expect[:, 0:2, 2:4] = (-mats[:, 0:2, 2:4]) % 3
    expect[:, 2:4, 0:2] = (-mats[:, 2:4, 0:2]) % 3
    assert (conj == expect).all()
    # an automorphism
    assert np.array_equal(KeySet(3, pack_matrices(conj, 3)).keys,
                          sorted_keys(base))


def test_case8_block_swap_normalizes_only_when_u_squares_to_one():
    # at ell=3 the canonical non-residue is -1, whose square is 1, and the
    # block swap gives the same doubled group; at ell=5 it does not even
    # normalize the base
    gens, _, order, _ = _FAMILIES["Case8"]
    assert np.array_equal(mulclose(gens(3) + [_SWAP], 3),
                          sorted_keys(family("Case8")))
    # at ell = 5 the chain's order outgrows the doubled base, and mulclose
    # says so before listing
    with pytest.raises(RuntimeError, match="closure cap exceeded"):
        mulclose(gens(5) + [_SWAP], 5, cap=2 * order(5))


def test_case9_pattern_union():
    g = family("Case9")
    assert g.order == 192
    assert _SWAP in g
    # the even pattern is block-diagonal-like (checkerboard), the odd one is
    # its complement; each contributes half
    even = [m for c in matrices(g) for m in c if m[0, 0] or m[0, 2]]
    assert len(even) == 96
    assert build_family(FamilySpec("Case9", 5)).order == 1920


# the conditions of no condition: their space is every 4 x 4 matrix
NO_CONDITION = [[0] * 16]


def test_extend_by_guards(monkeypatch):
    # extending a group by one element must give a group of twice its order;
    # the proof (_closed_family) refuses a chain whose order outgrows it
    s2 = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                   [0, 0, 1, 0], [0, -1, 0, 0]], dtype=np.int64)
    # s2 has order 4, so {1, s2} misses s2^2: <s2> outgrows 2 elements
    with pytest.raises(AssertionError, match="x: the generators give more "
                                             "than 2 elements"):
        _closed_family([s2], NO_CONDITION, 2, 3, "x")
    # doubling the torus by a shear, which does not normalize it: the
    # torus's chain extended by the shear outgrows the union
    # torus u torus.shear (which would be no group)
    gens, diagonal, order, _ = _FAMILIES["LeviB"]
    shear = np.eye(4, dtype=np.int64)
    shear[0, 1] = 1
    monkeypatch.setitem(_FAMILIES, "LeviB",
                        (gens, diagonal, order, ([shear], 2)))
    with pytest.raises(AssertionError, match="LeviB: the generators give "
                                             "more than 16 elements"):
        build_family(FamilySpec("LeviB", 3))


def test_verify_group_catches_defects(monkeypatch):
    # the proof (_closed_family) raises AssertionError, naming the family,
    # when the generators leave the conditions, outgrow the order, or fall
    # short of it
    s2 = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                   [0, 0, 1, 0], [0, -1, 0, 0]], dtype=np.int64)
    _, diagonal, _, _ = _FAMILIES["LeviB"]
    # s2 is no diagonal matrix; it has order 4, so <s2> outgrows {1, s2}
    with pytest.raises(AssertionError, match="x: the generators leave the "
                                             "family \\(generator 0 breaks"):
        _closed_family([s2], diagonal(3), 4, 3, "x")
    with pytest.raises(AssertionError, match="x: the generators give more "
                                             "than 2 elements"):
        _closed_family([s2], diagonal(3), 2, 3, "x")
    with pytest.raises(AssertionError, match="x: the generators give 4 "
                                             "elements, not 8"):
        _closed_family([s2], NO_CONDITION, 8, 3, "x")
    # a member that is no similitude: {1, diag(1, 1, 1, 2)} is a diagonal
    # group mod 3 of the declared order
    monkeypatch.setitem(_FAMILIES, "LeviB", (
        lambda ell: [np.diag([1, 1, 1, 2])], diagonal, lambda q: 2, None))
    with pytest.raises(AssertionError, match="LeviB: the generators leave the "
                                             "family \\(generator 0 is no "
                                             "similitude"):
        build_family(FamilySpec("LeviB", 3))


def test_doubling_proof_guards(monkeypatch):
    # a doubled family's chain is its proven base's (of order N) extended by
    # w; the build asserts three things before listing any key: the chain's
    # order is at most 2N, it is exactly 2N, and w is a similitude.  The
    # count fails for a w inside the base: the block swap lies in the
    # checkerboard group, so the extended chain still has N = 1152 elements
    gens, inside, order, _ = _FAMILIES["Case6"]
    with monkeypatch.context() as patch:
        patch.setitem(_FAMILIES, "Case6", (gens, inside, order, ([_SWAP], 2)))
        with pytest.raises(AssertionError, match="Case6: the generators give "
                                                 "1152 elements, not 2304"):
            build_family(FamilySpec("Case6", 3))
    # the bound fails for a w that normalizes the base but squares outside
    # it: the Weyl rotation r = (exchange).s2, a signed permutation,
    # normalizes the diagonal torus (N = 8), but r^2 swaps e1 with e3 and e2
    # with e4 (up to sign), so it is no diagonal matrix and <torus, r>
    # outgrows 2N = 16
    s2 = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                   [0, 0, 1, 0], [0, -1, 0, 0]], dtype=np.int64)
    r = _EXCHANGE @ s2
    gens, diagonal, order, _ = _FAMILIES["LeviB"]
    torus = family("LeviB")
    assert all(r @ g @ r.T in torus for g in gens(3)) and r @ r not in torus
    with monkeypatch.context() as patch:
        patch.setitem(_FAMILIES, "LeviB", (gens, diagonal, order, ([r], 2)))
        with pytest.raises(AssertionError, match="LeviB: the generators give "
                                                 "more than 16 elements"):
            build_family(FamilySpec("LeviB", 3))
    # the similitude test fails for diag(1, 1, 1, 2): it commutes with the
    # torus and squares to 1 mod 3, so the chain has exactly 2N elements,
    # but it is no similitude, so the group leaves the family
    with monkeypatch.context() as patch:
        patch.setitem(_FAMILIES, "LeviB",
                      (gens, diagonal, order, ([np.diag([1, 1, 1, 2])], 2)))
        with pytest.raises(AssertionError, match="LeviB: the generators "
                                                 "leave"):
            build_family(FamilySpec("LeviB", 3))
    # the bound also fails for this similitude w, though w g t(w) and w^2 lie
    # in the cyclic base <g> (N = 12) and w lies outside it: t(w) is no
    # inverse of w (w t(w) lies outside <g> too), w does not normalize <g>,
    # and <g, w> has 51,840 elements, far beyond 2N = 24
    g = np.array([[2, 1, 2, 2], [2, 1, 0, 0], [2, 2, 0, 0], [0, 2, 1, 2]])
    w = np.array([[2, 1, 0, 2], [2, 1, 1, 0], [0, 1, 2, 2], [2, 0, 1, 1]])
    cyclic = generated([g], 3)
    assert cyclic.order == 12 and w @ w.T % 3 not in cyclic
    assert w @ g @ w.T in cyclic and w @ w in cyclic and w not in cyclic
    monkeypatch.setitem(_FAMILIES, "LeviB", (
        lambda ell: [g], lambda ell: NO_CONDITION, lambda q: 12, ([w], 2)))
    with pytest.raises(AssertionError, match="LeviB: the generators give "
                                             "more than 24 elements"):
        build_family(FamilySpec("LeviB", 3))


FAMILY_ORDERS_5 = {"LeviB": 64, "LeviP": 1920, "LeviQ": 1920, "Hen": 57600,
                   "Case5": 3840, "Case6": 115200, "Case7": 124800,
                   "Case8": 5760, "Case9": 1920}


def _assert_closures_equal_the_grids(ell, orders):
    """Each family and base, proven by its linear conditions and count, is
    its grid, and the similitude factors that its proof generated from its
    generators' are those of the grid's elements."""
    for tag, order in orders.items():
        want, want_base = grid_keys(tag, ell)
        g, base = family_with_base(FamilySpec(tag, ell))
        assert g.order == order and np.array_equal(sorted_keys(g), want), tag
        assert (base is None) == (want_base is None), tag
        for got, keys in ((g, want), (base, want_base)):
            if got is not None:
                assert np.array_equal(sorted_keys(got), keys), tag
                assert got.similitude_factors() \
                    == KeySet(ell, keys).similitude_factors(), tag


def test_every_family_at_ell_3_equals_the_grid_oracle():
    _assert_closures_equal_the_grids(3, FAMILY_ORDERS_3)


def test_every_family_at_ell_5_is_proven_in_full():
    _assert_closures_equal_the_grids(5, FAMILY_ORDERS_5)


def _predicate(conditions, ell):
    """The membership test that linear conditions (rows of 16 coefficients
    on the entries, read row-major) define: (N, 4, 4) -> (N,) bool."""
    rows = np.array(conditions, dtype=np.int64).reshape(-1, 16) % ell
    return lambda m: (np.asarray(m, dtype=np.int64).reshape(-1, 16)
                      @ rows.T % ell == 0).all(axis=1)


def test_predicates_define_sets_of_the_family_orders(monkeypatch):
    # the argument by count needs the conditions that each proof reads (one
    # per family: an extended family proves its base) to define, with the
    # similitude test, a set of exactly the order it is counted against: at
    # ell = 3 every such set lies in GSp4(F_3), so count its members there
    mats = np.concatenate(list(matrices(gsp4_3())))
    proofs = []
    proof = families._closed_family

    def recorded(gens, conditions, order, ell, name):
        proofs.append((conditions, order, name))
        return proof(gens, conditions, order, ell, name)

    monkeypatch.setattr(families, "_closed_family", recorded)
    for tag in FAMILY_ORDERS_3:
        family_with_base(FamilySpec(tag, 3))
    assert len(proofs) == len(FAMILY_ORDERS_3)
    for conditions, order, name in proofs:
        assert _predicate(conditions, 3)(mats).sum() == order, name


def _streamed_factors(chain, ell, inside=None):
    """Stream the listing of a chain, check every element as a similitude
    (and by `inside`), and return the factors that occur, ascending."""
    occurs = np.zeros(ell, dtype=bool)
    for mats in _listing(chain, ell):
        ok, nu = _similitude_info(mats, ell)
        if inside is not None:
            ok &= inside(mats)
        assert ok.all()
        occurs[nu] = True
    return np.flatnonzero(occurs).tolist()


def test_every_listed_element_lies_in_its_family():
    # the oracle of the proof from the linear structure, which lists
    # nothing: every element of each base's listing satisfies the
    # conditions of its row and is a similitude, every element of an
    # extended family's is a similitude, and the factors that occur are
    # those the proof generated from its generators' factors
    for ell in (3, 5, 7):
        for tag, (gens, conditions, order, extension) in _FAMILIES.items():
            chain, factors = _closed_family(
                gens(ell), conditions(ell), order(ell), ell, tag)
            assert _streamed_factors(
                chain, ell, _predicate(conditions(ell), ell)) == factors, tag
            if extension is not None:
                g = build_family(FamilySpec(tag, ell))
                assert _streamed_factors(g._chain, ell) \
                    == g.similitude_factors(), tag


def test_linear_conditions_are_closed_under_products():
    # each row's space V has dimension 4 (LeviB, Case9's base), 6 (LeviQ) or
    # 8 (the others) at every prime that packs, and the product of any two
    # of its matrices lies in it (here: of random combinations of its basis)
    dims = {"LeviB": 4, "LeviQ": 6, "Case9": 4}
    rng = np.random.default_rng(33)
    for ell in (3, 5, 7, 11, 13):
        for tag, (_, conditions, _, _) in _FAMILIES.items():
            rows = np.array(conditions(ell)).reshape(-1, 16) % ell
            basis = families._space(rows, ell)
            assert len(basis) == dims.get(tag, 8), (tag, ell)
            inside = _predicate(rows, ell)
            assert inside(basis).all(), (tag, ell)
            x, y = (np.tensordot(rng.integers(0, ell, (50, len(basis))),
                                 basis, 1) % ell for _ in range(2))
            assert inside(x @ y % ell).all(), (tag, ell)


def _gl2(q):
    return (q * q - 1) * (q * q - q)  # Carter: |GL2(q)|


def _family_orders(q):
    """The order of each family at the prime q from the standard formulas:
    |SL2(q)| = q (q^2 - 1), |U2(q)| = q (q^2 - 1)(q + 1), |SL2(q^2)| =
    q^2 (q^4 - 1), and the similitude factor adds q - 1."""
    sl2 = q * (q * q - 1)
    return {"LeviB": (q - 1) ** 3, "LeviP": (q - 1) * _gl2(q),
            "LeviQ": (q - 1) * _gl2(q), "Case5": 2 * (q - 1) * _gl2(q),
            "Case8": 2 * (q - 1) * sl2 * (q + 1), "Case9": 4 * _gl2(q),
            "Hen": (q - 1) * sl2 ** 2, "Case6": 2 * (q - 1) * sl2 ** 2,
            "Case7": 2 * (q - 1) * q * q * (q ** 4 - 1)}


FAMILY_ORDERS_7 = _family_orders(7)
LARGE_AT_7 = ("Hen", "Case6", "Case7")


def _chain_orders_are_the_closed_forms(ell):
    # the order a chain proves is the product of its orbit lengths: it is
    # each family's closed form, and its index times it for the chain of an
    # extended family, from its base's.  At ell = 7 the closed forms are also
    # the standard formulas above.  The generators of the full groups give
    # their orders too
    for name, order in (("Sp4", sp4_order), ("GSp4", gsp4_order)):
        assert _order(_chain(_full_gens(ell, name), ell)) == order(ell)
    for tag, (gens, _, order, extension) in _FAMILIES.items():
        chain, index = _chain(gens(ell), ell), 1
        assert _order(chain) == order(ell), (tag, ell)
        if extension is not None:
            more, index = extension
            assert _order(_chain(more, ell, base=chain)) \
                == index * order(ell)
        if ell == 7:
            assert order(7) * index == FAMILY_ORDERS_7[tag], tag


def test_chain_orders_are_the_closed_forms():
    _chain_orders_are_the_closed_forms(7)


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell = 11 and 13: the chains of Sp4, GSp4 and "
                           "every family, about 7 s")
def test_chain_orders_are_the_closed_forms_at_11_and_13_gated():
    for ell in (11, 13):
        _chain_orders_are_the_closed_forms(ell)


def _words(gens, rng, count, ell):
    "`count` seeded random products of 1 to 8 of the matrices `gens`, mod ell."
    out = []
    for _ in range(count):
        word = np.eye(4, dtype=np.int64)
        for i in rng.integers(0, len(gens), rng.integers(1, 9)):
            word = word @ gens[i] % ell
        out.append(word)
    return out


def test_membership_sifts_as_the_listing_says():
    # x in G sifts x through G's chain and lists nothing; the sorted keys of
    # the listing are its oracle.  Each family's generators (and those that
    # extend its base) and seeded random words in them are members, and
    # random matrices are members exactly when the listing holds their keys
    rng = np.random.default_rng(18)
    for ell in (3, 5, 7):
        for tag, (gens, _, _, extension) in _FAMILIES.items():
            g = build_family(FamilySpec(tag, ell))
            listed = sorted_keys(g)
            mats = [np.array(m, dtype=np.int64) % ell for m in
                    gens(ell) + ([] if extension is None else extension[0])]
            members = mats + _words(mats, rng, 20, ell)
            others = list(rng.integers(0, ell, (20, 4, 4)))
            keys = pack_matrices(np.stack(members + others), ell)
            held = listed[np.searchsorted(listed, keys) % listed.size] == keys
            assert held[:len(members)].all(), (tag, ell)
            assert [m in g for m in members + others] == held.tolist(), \
                (tag, ell)


def test_non_members_do_not_sift():
    # diag(1, 1, 1, 2) meets Hen's conditions but is no similitude, and the
    # similitudes that double a base lie outside it: _EXCHANGE outside Hen,
    # _ROT_PAIR outside Case7's base
    for ell in (3, 5, 7):
        hen, case6 = (build_family(FamilySpec(tag, ell))
                      for tag in ("Hen", "Case6"))
        case7, base = family_with_base(FamilySpec("Case7", ell))
        assert np.diag([1, 1, 1, 2]) not in hen, ell
        assert _EXCHANGE not in hen and _EXCHANGE in case6, ell
        assert _ROT_PAIR not in base and _ROT_PAIR in case7, ell
        assert not case6.subset_of(hen) and hen.subset_of(case6), ell


def _full_product_sift(m, chain, ell):
    """The reference of families._sift: the 4x4 matrix m sifted with full
    products mod ell, r = uinv_p r level by level, p the position of the
    column k of r in the orbit of level k.  (k, r) for the first level k
    whose orbit misses it, else (None, r)."""
    r = np.asarray(m, dtype=np.int64) % ell
    for level in chain:
        x, y, z, w = r[:, level.k]
        pos = level.where[x + ell * (y + ell * (z + ell * w))]
        if pos < 0:
            return level.k, r
        uinv = np.frombuffer(level.uinv, np.uint8)[16 * pos:16 * pos + 16]
        r = uinv.reshape(4, 4).T.astype(np.int64) @ r % ell  # column-major
    return None, r


def test_sift_stops_where_the_full_product_sift_does():
    # _sift forms only the later columns of what is left of h, level by
    # level; the full-product sift is its oracle.  Random invertible
    # matrices, members and members times a similitude outside most of the
    # groups stop at every level, and the residue of one that stops fixes
    # e_0, ..., e_(j-1), so its later columns are all of it
    rng = np.random.default_rng(40)
    outer = [np.array(m) for m in (_EXCHANGE, _ROT_PAIR, np.diag([1, 1, 1, 2]))]
    groups = [sp4_3(), gsp4_3()]
    for ell in (3, 5):
        for tag in _FAMILIES:
            groups += [g for g in family_with_base(FamilySpec(tag, ell))
                       if g is not None]
    stops = set()
    for group in groups:
        chain, ell = group._chain, group.ell
        gens = [np.frombuffer(g, np.uint8).reshape(4, 4).T.astype(np.int64)
                for g in chain[0].gens]
        members = _words(gens, rng, 10, ell)
        others = [m for m in rng.integers(0, ell, (40, 4, 4))
                  if round(np.linalg.det(m)) % ell][:20]
        for m in members + [x @ y for x in members[:5] for y in outer] + others:
            found = families._sift(families._columns(families._matrix(m, ell)),
                                   chain, ell)
            j, r = _full_product_sift(m, chain, ell)
            stops.add(j)
            if j is None:
                assert found is None and np.array_equal(r, np.eye(4)), group
            else:
                assert found is not None and found[0] == j, group
                assert np.array_equal(r[:, :j], np.eye(4)[:, :j]), group
                assert np.array_equal(np.array(found[1]).T, r[:, j:]), group
    assert stops == {None, 0, 1, 2, 3}


def test_equality_and_inclusion_sift():
    # H == G: the same ell and order, and every generator of H sifts
    # through G's chain; nothing is listed.  Case5's base is the LeviP
    # family, and every family lies in GSp4
    case5, base = family_with_base(FamilySpec("Case5", 3))
    levi_p = build_family(FamilySpec("LeviP", 3))
    assert base.subset_of(case5) and not case5.subset_of(base)
    assert base != case5 and case5 == build_family(FamilySpec("Case5", 3))
    assert base == levi_p and hash(base) == hash(levi_p)
    assert case5.subset_of(gsp4_3()) and case5 != gsp4_3()


# (orbit lengths per level, SHA-256 of the sorted keys as little-endian
# uint64) of the chain of every family and base at ell = 3, 5 and 7, and of
# Sp4 and GSp4 at ell = 3, frozen from the vectorized numpy chain that the
# pure-Python one replaced: a chain that drops or repeats an element fails
# here even where its order and its census agree
LISTING_PINS = {
    ("LeviB", 3): ((2, 2, 2, 1),
                   "1440202cf422b1666ddc9ebd5256ee00b3605b189a32bd3c9b45073dec8cec3c"),
    ("LeviP", 3): ((8, 6, 2, 1),
                   "8fb63e17a7fadc180d59b3f34b499ce2ea018641523bfb1c8dd7d17cb34c2cda"),
    ("LeviQ", 3): ((2, 8, 2, 3),
                   "4818ba91c46fdee38f310e3b1e47ce155ad9402485880118b13776b6417cef0e"),
    ("Hen", 3): ((8, 8, 6, 3),
                 "c6b2e1cf7ae49051954d54d0afa12e9636cfc2f29612b2f17f5cb50c36b8fc2b"),
    ("Case5", 3): ((16, 6, 2, 1),
                   "b7e860910a4f00c0248ea659fcffea977c220330b2fafd8d63caccd10d8be829"),
    ("Case5 base", 3): ((8, 6, 2, 1),
                        "8fb63e17a7fadc180d59b3f34b499ce2ea018641523bfb1c8dd7d17cb34c2cda"),
    ("Case6", 3): ((16, 8, 6, 3),
                   "f243c4b1eacec050d84d0171e77f8c7f773b4002bb284df14c949c765c9f07ca"),
    ("Case6 base", 3): ((8, 8, 6, 3),
                        "c6b2e1cf7ae49051954d54d0afa12e9636cfc2f29612b2f17f5cb50c36b8fc2b"),
    ("Case7", 3): ((80, 2, 18, 1),
                   "86c8f45c1cb796458cb12417ffbb96a02714ee638d313449ad40b46c2fa1863b"),
    ("Case7 base", 3): ((80, 1, 18, 1),
                        "ed1dfdf4d888aacc44ed641f1a4ffea05d4d5d286b80acbe00fd68076bd46e27"),
    ("Case8", 3): ((48, 4, 2, 1),
                   "609677a18b4f3737ff84307f65b0ebaec8ca0b9eec0d8638f1e011d2101d0e2a"),
    ("Case8 base", 3): ((48, 4, 1, 1),
                        "c5da0e5b603a4e4e019a5f7df4ef8405de518735f24087bf0428fd78b59a5e16"),
    ("Case9", 3): ((16, 2, 6, 1),
                   "de8aca3fd345e1ba0f7f43ac0e920158229ebf0a6ebe97727e26f809678c85cf"),
    ("LeviB", 5): ((4, 4, 4, 1),
                   "c808db8eafa64255d65711bfd862d0e670ebccedea7e36912c5a26e45574859f"),
    ("LeviP", 5): ((24, 20, 4, 1),
                   "d790074191cc0d19ed725dae34febb67981daf9d15286c6dd42284c9f3f51a5d"),
    ("LeviQ", 5): ((4, 24, 4, 5),
                   "835f7b7400ccfa757fa0fc818d5d4ec73bea0b29e5fa161a47b51c53ab47dbcd"),
    ("Hen", 5): ((24, 24, 20, 5),
                 "32d8ea3f7fba82dbd3bd484b34aac9ec60060fe1215c4bef473f3ec767ae0d2b"),
    ("Case5", 5): ((48, 20, 4, 1),
                   "2c69fe48b1fe419eeed0b8ca90712cf331f57bd34df71b5d7796bf577107adcb"),
    ("Case5 base", 5): ((24, 20, 4, 1),
                        "d790074191cc0d19ed725dae34febb67981daf9d15286c6dd42284c9f3f51a5d"),
    ("Case6", 5): ((48, 24, 20, 5),
                   "ea017f29eb49430bfbb3fbb8290e4124e1f3d326a5bd8472dac29641e4c99ae6"),
    ("Case6 base", 5): ((24, 24, 20, 5),
                        "32d8ea3f7fba82dbd3bd484b34aac9ec60060fe1215c4bef473f3ec767ae0d2b"),
    ("Case7", 5): ((624, 2, 100, 1),
                   "c4932115a19f6340c1853b58fe6f360e30b8c772ab98f6a888f5944def41d4ed"),
    ("Case7 base", 5): ((624, 1, 100, 1),
                        "5dc6784a02f171706820a4fbcff984cb1629245f8fbd9bf95e758e5bdf26757c"),
    ("Case8", 5): ((480, 6, 2, 1),
                   "12874dc29984e7c8caef63998bce3026936adaf523630c7fa8e8b17b24045c3d"),
    ("Case8 base", 5): ((480, 6, 1, 1),
                        "23cf05317a12f0ea0c2e6e1b7c7ef59373e70d36eae1535b9ddae4e4597511aa"),
    ("Case9", 5): ((48, 2, 20, 1),
                   "5bbda58bc56918777cc880758bd9175c883af22dbb9f84fd4f110c5326e6eca3"),
    ("LeviB", 7): ((6, 6, 6, 1),
                   "72d2893d9ab772ba11567ed7632f9ce63333488374b0889de437510a50042a58"),
    ("LeviP", 7): ((48, 42, 6, 1),
                   "442540cee7e7a7b26041f00b0349a467fc33491f3ee12194086117b7ed503cfa"),
    ("LeviQ", 7): ((6, 48, 6, 7),
                   "e635975bf5c93598902e5eeeb9f4b3acde21dce2d248bb2c145e3f0aaef846fc"),
    ("Hen", 7): ((48, 48, 42, 7),
                 "978e0f8d9c6b6d8f4f2b15a45256c004040caaf1b165802bcae3c1f4fba20373"),
    ("Case5", 7): ((96, 42, 6, 1),
                   "19c8289378b009c0864b84ab8c08f846818e85c39264d5e4578014d98753d452"),
    ("Case5 base", 7): ((48, 42, 6, 1),
                        "442540cee7e7a7b26041f00b0349a467fc33491f3ee12194086117b7ed503cfa"),
    ("Case6", 7): ((96, 48, 42, 7),
                   "aa3b91bf3e0c8109503a5593e3ee1cce153f150e2a8cfb7af6bf1cf6ff9640aa"),
    ("Case6 base", 7): ((48, 48, 42, 7),
                        "978e0f8d9c6b6d8f4f2b15a45256c004040caaf1b165802bcae3c1f4fba20373"),
    ("Case7", 7): ((2400, 2, 294, 1),
                   "1fe863caf76caacd9e10899d90dd10de30e51bbd0a9c3ade2e4523df35d4c935"),
    ("Case7 base", 7): ((2400, 1, 294, 1),
                        "2b530eb5dd2e112311018b72ecb6961164595af873d6c38991a65eb36b720224"),
    ("Case8", 7): ((2016, 8, 2, 1),
                   "d60fb6802e97a8683ebcc6f0afdb98d84680a5dd4562ae1da7a34179825b8b0a"),
    ("Case8 base", 7): ((2016, 8, 1, 1),
                        "3eea484c7aaf8bb14a102c40922a74f439406ca7f4938092e163ba888469ef45"),
    ("Case9", 7): ((96, 2, 42, 1),
                   "8e08eebc101b1da01a30da9a7ca91c93851ae553bddcf5e44272e4ed13ca1a12"),
    ("Sp4", 3): ((80, 24, 9, 3),
                 "f98852789628d8b95bc9eefa345624797312202e54f9f7299c50a15524dc0054"),
    ("GSp4", 3): ((80, 24, 18, 3),
                  "a0206ef3e32b15b361d6e856101e161fb20b2a7ec9acec9172ae79149bcf30e8"),
}


def test_listings_are_pinned():
    def pin(group):
        digest = hashlib.sha256(sorted_keys(group).astype("<u8").tobytes())
        return (tuple(len(level.orbit) for level in group._chain),
                digest.hexdigest())

    got = {("Sp4", 3): pin(enumerate_sp4(3)),
           ("GSp4", 3): pin(enumerate_gsp4(3))}
    for ell in (3, 5, 7):
        for tag in FAMILY_ORDERS_3:
            g, base = family_with_base(FamilySpec(tag, ell))
            got[tag, ell] = pin(g)
            if base is not None:
                got[tag + " base", ell] = pin(base)
    assert got == LISTING_PINS


def test_a_build_lists_nothing(monkeypatch, capsys):
    # a family is proven from its generators, its linear conditions and its
    # chain's order, so no build lists an element: with the listing
    # refused, every family at ell = 3, 5 and 7 has its order, every unit
    # as a factor and, if doubled, a base of half its order
    def no_listing(*args, **kwargs):
        raise AssertionError("a key was listed")

    monkeypatch.setattr(finite_census, "_listing", no_listing)
    for ell, orders in ((3, FAMILY_ORDERS_3), (5, FAMILY_ORDERS_5),
                        (7, FAMILY_ORDERS_7)):
        units = list(range(1, ell))
        for tag, order in orders.items():
            g, base = family_with_base(FamilySpec(tag, ell))
            assert g.order == order, (tag, ell)
            assert g.similitude_factors() == units, (tag, ell)
            if tag in EXTENDED_TAGS:
                assert base.order == order // 2, (tag, ell)
                assert base.similitude_factors() == units, (tag, ell)
            else:
                assert base is None, (tag, ell)
    for tag in FAMILY_ORDERS_3:
        assert main(["family", "--case", tag, "--ell", "3", "--json"]) == 0
    capsys.readouterr()


def _refusals():
    """(tag, row, message) per refusal of the proof: the build of `tag` at
    ell = 3 from the _FAMILIES row `row` raises AssertionError(message)."""
    levi_b, case9 = _FAMILIES["LeviB"], _FAMILIES["Case9"]
    # span(I, E01, E10): every diagonal entry equal, and zero off the
    # diagonal but at (0, 1) and (1, 0); E01 E10 = E00 lies outside it
    unit = np.eye(16, dtype=np.int64).reshape(4, 4, 16)  # m[i, j] = 0
    span = ([unit[i, i] - unit[0, 0] for i in (1, 2, 3)]
            + [unit[i, j] for i in range(4) for j in range(4)
               if i != j and i + j != 1])
    return [
        ("LeviB", (lambda ell: [np.eye(4, dtype=np.int64)],
                   lambda ell: span, lambda q: 1, None),
         "LeviB: the space of its conditions is not closed under products"),
        # the swap closes, with the other two generators, to a group of
        # LeviB's order, but it breaks the diagonal pattern
        ("LeviB", (lambda ell: levi_b[0](ell)[:-1] + [_SWAP], *levi_b[1:]),
         "LeviB: the generators leave the family (generator 2 breaks its "
         "conditions)"),
        # {1, diag(1, 1, 1, 2)} is a diagonal group mod 3 of the declared
        # order, but its generator pairs e1 with e3 by 1 and e2 with e4 by 2
        ("LeviB", (lambda ell: [np.diag([1, 1, 1, 2])], levi_b[1],
                   lambda q: 2, None),
         "LeviB: the generators leave the family (generator 0 is no "
         "similitude)"),
        # -I lies in the base GL2 (x) I, so the Klein group's second
        # generator adds nothing, and the index is 2, not 4
        ("Case9", (*case9[:3], ([np.diag([1, -1] * 2),
                                 -np.eye(4, dtype=np.int64)], 4)),
         "Case9: the generators give 96 elements, not 192"),
    ]


def test_the_proof_refuses_what_it_cannot_prove(monkeypatch, capsys):
    # each refusal names the family, and the CLI reports it as an internal
    # failure (exit 1) with the message on stderr and no report
    for tag, row, message in _refusals():
        with monkeypatch.context() as patch:
            patch.setitem(_FAMILIES, tag, row)
            with pytest.raises(AssertionError) as info:
                family_with_base(FamilySpec(tag, 3))
            assert str(info.value) == message
            code = main(["family", "--case", tag, "--ell", "3"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", "assertion failed: %s\n" % message)


def test_the_proof_refusals_survive_python_O():
    # under -O an assert is skipped, so the proof raises by hand
    script = ("import contextlib, io, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "from sympkit import families\n"
              "from sympkit.cli import main\n"
              "from test_finite_census import _refusals\n"
              "for tag, row, message in _refusals():\n"
              "    families._FAMILIES[tag] = row\n"
              "    err = io.StringIO()\n"
              "    with contextlib.redirect_stderr(err):\n"
              "        code = main(['family', '--case', tag, '--ell', '3'])\n"
              "    print(code, err.getvalue() == 'assertion failed: %s\\n'\n"
              "                                   % message)\n"
              "print(__debug__)")
    src = str(Path(sympkit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent)],
        env=dict(os.environ, PYTHONPATH=path, PYTHONOPTIMIZE="1"),
        check=True, capture_output=True, text=True, timeout=120).stdout
    assert out.split("\n") == ["1 True"] * len(_refusals()) + ["False", ""]


def test_family_orders_at_ell_7():
    for tag, order in FAMILY_ORDERS_7.items():
        if tag not in LARGE_AT_7:
            assert build_family(FamilySpec(tag, 7)).order == order, tag


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell=7: a `family` child per family, about 1 s")
def test_family_orders_at_ell_7_gated():
    for tag in LARGE_AT_7:
        g, base = family_with_base(FamilySpec(tag, 7))
        assert g.order == FAMILY_ORDERS_7[tag], tag
        assert base is None or g.order == 2 * base.order
        peak = _child_peak_bytes("-m", "sympkit.cli", "family", "--case", tag,
                                 "--ell", "7")
        assert 0 < peak <= _modelled_bytes(g.order), tag


@pytest.mark.skipif(not os.environ.get("SYMPKIT_LARGE"),
                    reason="ell=13: every family, and the census of Case7's "
                           "listing (115,839,360 elements) in a child, "
                           "about 10 s")
def test_every_family_at_ell_13_gated():
    # the largest prime that packs: each build lists nothing and holds no
    # key set, and the worst listing that remains, the census of Case7 under
    # --enumerate, stays below _BUDGET as a single CLI child
    orders = _family_orders(13)
    assert [orders[t] for t in ("Hen", "Case6", "Case7")] \
        == [57238272, 114476544, 115839360]
    for tag, order in orders.items():
        g, base = family_with_base(FamilySpec(tag, 13))
        assert g.order == order, tag
        assert base is None or g.order == 2 * base.order, tag
    peak = _child_peak_bytes("-m", "sympkit.cli", "ceta", "--case", "7",
                             "--ell", "13", "--eta", "1/4", "--enumerate")
    assert 0 < peak < _BUDGET


def test_family_working_set_stays_small():
    # a family is proven from its linear conditions and its chain, and
    # lists nothing; no key set is held.  So the whole `family` path of Hen
    # at ell = 5 (57,600 elements, 450 KiB of keys) traces at 0.11 MiB, and
    # of the doubled Case7 (124,800 elements and a base of 62,400, 1.43 MiB
    # of keys) at 0.34 MiB, the chain's arrays.  The census streams the
    # listing as int16 matrices, H (the group of levels 3..1, here 2,400
    # elements) times one point of level 0 per pass, so Hen's `ceta
    # --enumerate` path traces at 0.36 MiB.  Each bound is its peak plus
    # 0.07 MiB
    def family_path(tag):
        return family_with_base(FamilySpec(tag, 5))[0].similitude_factors()

    for name, bound, run in (
            ("Hen", 0.18, lambda: family_path("Hen")),
            ("Case7", 0.41, lambda: family_path("Case7")),
            ("Hen census", 0.43,
             lambda: charpoly_census(build_family(FamilySpec("Hen", 5))))):
        peak = _traced_peak(run)
        assert peak < bound * (1 << 20), (name, peak)


def _traced_peak(run):
    "The peak bytes that tracemalloc traces while `run()` runs."
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_census_of_a_listing_runs_in_bounded_memory():
    # a listing forms H, the group of levels 3..1, once, and then passes of
    # H times about 2,048 / |H| points of level 0, which the census reads
    # as they are, and drops each pass before the next is formed: the census
    # of Sp4(F_5) (9,360,000 elements, |H| = 15,000) traces at 1.40 MiB, and
    # that of Case8 at ell = 11 (316,800 elements, |H| = 24) at 0.57 MiB.
    # Each bound is that peak plus 25%, the groups built before tracing
    for group, bound in ((enumerate_sp4(5), 1.75),
                         (build_family(FamilySpec("Case8", 11)), 0.72)):
        peak = _traced_peak(lambda: charpoly_census(group))
        assert peak < bound * (1 << 20), (group, peak)


def test_family_at_ell_13_is_built_whatever_its_order(monkeypatch):
    # Hen at ell = 13 has 12 * (13 * 168)^2 = 57,238,272 elements, 533 MiB
    # at one key each; the build holds no key set, so nothing prices it and
    # the build goes on to its chain
    def no_chain(*args, **kwargs):
        raise RuntimeError("the chain was reached")

    monkeypatch.setattr(families, "_chain", no_chain)
    assert _modelled_bytes(57238272) > _BUDGET
    with pytest.raises(RuntimeError, match="the chain was reached"):
        build_family(FamilySpec("Hen", 13))


def test_groups_of_unequal_order_compare_without_keys(monkeypatch):
    # groups of another prime or order differ, so == sifts nothing; groups
    # of one order are equal when one's generators sift through the other's
    # chain.  With the listing refused, LeviB and Case9 at ell = 3 (8 and
    # 192 elements) compare unequal, and equal groups equal
    def no_listing(*args, **kwargs):
        raise AssertionError("a key was listed")

    monkeypatch.setattr(finite_census, "_listing", no_listing)
    levi_b = build_family(FamilySpec("LeviB", 3))
    assert not levi_b == build_family(FamilySpec("Case9", 3))
    assert levi_b != build_family(FamilySpec("Case9", 3))
    assert levi_b != build_family(FamilySpec("LeviB", 5))
    assert levi_b == build_family(FamilySpec("LeviB", 3))
    assert not levi_b.subset_of(build_family(FamilySpec("LeviB", 5)))


# ---------------------------------------------------------------------------
# projective line representatives


def test_p1_reps_counts():
    assert len(enumerate_P1_reps(3, 0)) == 1
    assert len(enumerate_P1_reps(3, 1)) == 4
    assert len(enumerate_P1_reps(3, 2)) == 12
    assert len(enumerate_P1_reps(2, 3)) == 12
    assert len(enumerate_P1_reps(5, 1)) == 6


def test_p1_reps_are_unimodular():
    for (p, beta) in ((3, 2), (2, 3), (7, 1)):
        for m in enumerate_P1_reps(p, beta):
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


def test_p1_reps_hit_every_class_once():
    for (p, beta) in ((3, 1), (3, 2), (2, 3)):
        mod = p ** beta
        units = [x for x in range(mod) if x % p]
        seen = set()
        for m in enumerate_P1_reps(p, beta):
            u1, u2 = m[0][0] % mod, m[0][1] % mod
            assert u1 % p or u2 % p  # primitive row
            canon = min((u1 * lam % mod, u2 * lam % mod) for lam in units)
            assert canon not in seen
            seen.add(canon)
        assert len(seen) == mod + mod // p


def test_p1_reps_errors():
    with pytest.raises(ValueError):
        enumerate_P1_reps(4, 1)
    with pytest.raises(ValueError):
        enumerate_P1_reps(3, -1)
