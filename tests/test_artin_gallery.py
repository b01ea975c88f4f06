import random
from fractions import Fraction

import numpy as np
import pytest

from sympkit import _mat
from sympkit.artin_gallery import (
    SYM3_P,
    FiniteMatrixGroup,
    endoscopic_embed,
    endoscopic_factor_check,
    gallery_generators,
    gallery_report,
    gauss_mat,
    gl2_euler_factor,
    group_closure,
    quotient_by_sign,
    scalar_elements,
    sym3_form,
    sym3_identities_check,
    sym3_lift,
    sym3_similitude_factor,
    sym3_swap_image,
)
from sympkit.exact_arith import GaussianRational, format_gaussian
from sympkit.families import _chain, _order
from sympkit.finite_census import mulclose, pack_matrices
from sympkit.gsp4_core import char_poly, is_in_levi, oddness_normalize, try_similitude
from sympkit.hecke_l import EulerFactor, endoscopic_spin_factor

ONE = GaussianRational(1)
I4 = _mat.identity(4, ONE)

_CACHE = {}


def a_group():
    if "a" not in _CACHE:
        g = gallery_generators()
        _CACHE["a"] = group_closure([g[k] for k in ("A1", "A2", "A3", "A4", "A5")])
    return _CACHE["a"]


def full_group():
    if "full" not in _CACHE:
        g = gallery_generators()
        _CACHE["full"] = group_closure(
            [g[k] for k in ("A1", "A2", "A3", "A4", "A5", "T")])
    return _CACHE["full"]


def rand_gauss(rng, span=3):
    return GaussianRational(Fraction(rng.randint(-span, span)),
                            Fraction(rng.randint(-span, span)))


def rand_gl2(rng, span=3):
    while True:
        m = tuple(tuple(rand_gauss(rng, span) for _ in range(2)) for _ in range(2))
        if _mat.det(m):
            return m


# ---------------------------------------------------------------------------
# the generator table


def test_generator_similitude_factors():
    gens = gallery_generators()
    want = {"A1": ONE, "A2": -ONE, "A3": -ONE, "A4": ONE, "A5": -ONE}
    for name, nu in want.items():
        assert try_similitude(gens[name]) == nu
    assert try_similitude(gens["T"]) is None


def test_generator_orders():
    gens = gallery_generators()
    neg = _mat.scalar_mul(-ONE, I4)
    for name in ("A1", "A2", "A5"):
        assert _mat.mat_eq(_mat.mat_mul(gens[name], gens[name]), I4)
    for name in ("A3", "A4"):
        assert _mat.mat_eq(_mat.mat_mul(gens[name], gens[name]), neg)
    assert _mat.mat_eq(_mat.mat_pow(gens["T"], 5), I4)
    for k in range(1, 5):
        assert not _mat.mat_eq(_mat.mat_pow(gens["T"], k), I4)


def test_third_generator_is_twist_of_product():
    # A3 = i * A1 A5 A2, an internal consistency check on the table
    gens = gallery_generators()
    prod = _mat.mat_mul(gens["A1"], _mat.mat_mul(gens["A5"], gens["A2"]))
    assert _mat.mat_eq(gens["A3"], _mat.scalar_mul(GaussianRational.i(), prod))


# ---------------------------------------------------------------------------
# closures


def test_closure_orders():
    assert a_group().order == 64
    assert full_group().order == 320
    assert a_group().elements <= full_group().elements


def test_closure_is_closed_under_inverse_and_product():
    grp = a_group()
    rng = random.Random(40)
    elems = list(grp)
    for _ in range(30):
        x = rng.choice(elems)
        y = rng.choice(elems)
        assert _mat.mat_mul(x, y) in grp
        assert _mat.mat_inv(x) in grp
    assert I4 in grp


def test_closure_independent_of_generator_order():
    g = gallery_generators()
    rev = group_closure([g[k] for k in ("A5", "A4", "A3", "A2", "A1")])
    assert rev.elements == a_group().elements


def test_closure_of_identity_alone():
    assert group_closure([I4]).order == 1


def test_closure_cap_raises():
    g = gallery_generators()
    with pytest.raises(RuntimeError):
        group_closure([g["A1"], g["A2"], g["A3"]], cap=10)
    with pytest.raises(ValueError):
        group_closure([])


def _reduce_above_5(m):
    "Entries mod the prime (i - 2) of Z[i] above 5: i -> 2 and 1/2 -> 3 in F_5."
    def red(z):
        return (z.re.numerator * pow(z.re.denominator, -1, 5)
                + 2 * z.im.numerator * pow(z.im.denominator, -1, 5)) % 5
    return [[red(x) for x in row] for row in m]


def test_reduction_above_5_is_injective_on_the_closures():
    # Minkowski's lemma (Serre 2007): 5 is unramified in Z[i], so reduction
    # at a prime above 5 is injective on the finite subgroups of
    # GL4(Z[i][1/2]), as the kernel of GL4(Z_5) -> GL4(F_5) is torsion-free;
    # the F_5 closures must have the exact orders.  The Schreier-Sims chain
    # of families proves them with no code of _dimino, from the generators
    # alone, and mulclose lists the same chain
    g = gallery_generators()
    names = ("A1", "A2", "A3", "A4", "A5", "T")
    for count, order in ((5, 64), (6, 320)):
        mats = [_reduce_above_5(g[k]) for k in names[:count]]
        assert _order(_chain(mats, 5)) == order
        assert mulclose(np.array(mats), 5).size == order
    keys = pack_matrices(
        np.array([_reduce_above_5(m) for m in full_group().elements]), 5)
    assert len(set(keys.tolist())) == 320


def test_closure_of_a_conjugate_with_denominator_8():
    # R^-1 <A> R has the same order; its generators have denominators 8
    r = gauss_mat(((1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (1, 0, 0, 4)))
    rinv = _mat.mat_inv(r)
    g = gallery_generators()
    gens = [_mat.mat_mul(rinv, _mat.mat_mul(g[k], r))
            for k in ("A1", "A2", "A3", "A4", "A5")]
    dens = {q.denominator for m in gens for row in m for z in row
            for q in (z.re, z.im)}
    assert max(dens) == 8
    grp = group_closure(gens)
    assert grp.order == 64
    assert grp.elements == {_mat.mat_mul(rinv, _mat.mat_mul(m, r))
                            for m in a_group()}


def test_closure_whose_denominators_outgrow_the_generators():
    # S3 on the first three coordinates, conjugated by s = diag(1, 2, 4, 1):
    # the transpositions (0 1) and (1 2) have entries 2 and 1/2, while
    # (0 2) = (0 1)(1 2)(0 1) has entries 4 and 1/4
    s = _mat.diag(*(GaussianRational(x) for x in (1, 2, 4, 1)))
    sinv = _mat.mat_inv(s)

    def transposition(i, j):
        perm = [0, 1, 2, 3]
        perm[i], perm[j] = j, i
        p = gauss_mat([[int(c == perm[r]) for c in range(4)] for r in range(4)])
        return _mat.mat_mul(sinv, _mat.mat_mul(p, s))

    grp = group_closure([transposition(0, 1), transposition(1, 2)])
    assert grp.order == 6
    assert transposition(0, 2) in grp
    assert GaussianRational(Fraction(1, 4)) in {
        x for m in grp.elements for row in m for x in row}


def test_infinite_pair_raises():
    # det 1 and trace -7/4, not an algebraic integer: g1 g2 has infinite
    # order and the denominators of its powers grow without bound
    half = Fraction(1, 2)
    eye, zero = gauss_mat(((1, 0), (0, 1))), gauss_mat(((0, 0), (0, 0)))
    g1 = _mat.block2(gauss_mat(((1, half), (0, -1))), zero, zero, eye)
    g2 = _mat.block2(gauss_mat(((-1, 0), (half, 1))), zero, zero, eye)
    prod = _mat.mat_mul(g1, g2)
    assert prod[0][0] + prod[1][1] == GaussianRational(Fraction(-7, 4))
    with pytest.raises(RuntimeError):
        group_closure([g1, g2])


def test_every_closure_element_is_similitude_with_sign_factor():
    seen = set()
    for m in a_group():
        nu = try_similitude(m)
        assert nu is not None
        seen.add(format_gaussian(nu))
    assert seen == {"1", "-1"}


def test_similitude_subgroup_of_full_closure():
    # adjoining the twist adds no new similitudes: exactly the 64 remain
    sims = [m for m in full_group() if try_similitude(m) is not None]
    assert len(sims) == 64
    assert set(sims) == set(a_group().elements)


def test_scalar_subgroup():
    lams = scalar_elements(a_group())
    assert set(lams) == {ONE, -ONE, GaussianRational.i(), -GaussianRational.i()}


def test_quotient_by_sign_structure():
    order, exponent = quotient_by_sign(a_group())
    assert order == 32
    assert exponent == 2
    # a set that holds a unipotent is no finite group: no power reaches +-I
    u = gauss_mat(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1)))
    with pytest.raises(ValueError, match="not a finite group"):
        quotient_by_sign(FiniteMatrixGroup([u], [u, I4]))


def test_twist_normalizes_involution_closure():
    gens = gallery_generators()
    t = gens["T"]
    tinv = _mat.mat_inv(t)
    for k in ("A1", "A2", "A3", "A4", "A5"):
        assert _mat.mat_mul(t, _mat.mat_mul(gens[k], tinv)) in a_group()


def test_oddness_normalization_across_closure():
    # every involution with factor -1 in the closure is conjugate, within
    # the similitude group, to diag(1,-1,-1,1); count frozen
    target = _mat.diag(ONE, -ONE, -ONE, ONE)
    hits = 0
    for m in a_group():
        if try_similitude(m) == -ONE and _mat.mat_eq(_mat.mat_mul(m, m), I4):
            p = oddness_normalize(m)
            conj = _mat.mat_mul(_mat.mat_inv(p.mat), _mat.mat_mul(m, p.mat))
            assert _mat.mat_eq(conj, target)
            hits += 1
    assert hits == 20


def test_gallery_report_values():
    rep = gallery_report()
    assert rep["generator_nu"] == {
        "A1": "1", "A2": "-1", "A3": "-1", "A4": "1", "A5": "-1", "T": None}
    assert rep["closure_order_without_twist"] == 64
    assert rep["closure_order_full"] == 320
    assert rep["quotient_mod_sign_order"] == 32
    assert rep["quotient_mod_sign_exponent"] == 2
    assert rep["twist_normalizes_involution_group"] is True
    assert rep["twist_fifth_power_is_identity"] is True
    assert rep["twist_fifth_power_is_scalar"] is True
    assert rep["similitude_count_full"] == 64
    assert rep["every_involution_closure_element_similitude"] is True
    assert sorted(rep["scalars_in_involution_closure"]) == [
        "-1", "-1*i", "1", "1*i"]


# ---------------------------------------------------------------------------
# the cubic lift


def test_sym3_of_identity_and_diagonal():
    assert _mat.mat_eq(sym3_lift(((1, 0), (0, 1))), I4)
    a, d = GaussianRational(2), GaussianRational(3)
    img = sym3_lift(((a, 0), (0, d)))
    assert _mat.mat_eq(img, _mat.diag(a ** 3, a * a * d, a * d * d, d ** 3))


def test_sym3_of_swap_is_antidiagonal():
    want = gauss_mat(((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)))
    assert _mat.mat_eq(sym3_swap_image(), want)


def test_sym3_multiplicative():
    rng = random.Random(41)
    for _ in range(12):
        g, h = rand_gl2(rng), rand_gl2(rng)
        lhs = sym3_lift(_mat.mat_mul(g, h))
        rhs = _mat.mat_mul(sym3_lift(g), sym3_lift(h))
        assert _mat.mat_eq(lhs, rhs)


def test_sym3_form_is_alternating():
    f = sym3_form()
    ft = _mat.transpose(f)
    assert _mat.mat_eq(_mat.scalar_mul(-ONE, ft), f)


def test_sym3_similitude_factor_is_det_cubed():
    rng = random.Random(42)
    for _ in range(25):
        g = rand_gl2(rng)
        d = _mat.det(g)
        assert sym3_similitude_factor(g) == d * d * d
        assert _mat.det(sym3_lift(g)) == d ** 6


def test_printed_conjugator_identities():
    # the exact behaviour of the printed P: inverse is twice the transpose,
    # it transports the standard form to -J/2, and it does conjugate the
    # antidiagonal image to diag(1,-1,-1,1) with similitude factor -1/2
    p = SYM3_P
    pt = _mat.transpose(p)
    pinv = _mat.mat_inv(p)
    assert not _mat.mat_eq(pinv, pt)
    assert _mat.mat_eq(pinv, _mat.scalar_mul(GaussianRational(2), pt))
    assert try_similitude(p) == GaussianRational(Fraction(-1, 2))
    conj = _mat.mat_mul(pinv, _mat.mat_mul(sym3_swap_image(), p))
    assert _mat.mat_eq(conj, _mat.diag(ONE, -ONE, -ONE, ONE))


def test_sym3_identities_check_verdicts():
    results = sym3_identities_check()
    verdicts = {name: holds for name, holds, _ in results}
    assert verdicts == {
        "P_inverse_equals_P_transpose": False,
        "P_conjugates_antidiag_image_to_diag": True,
        "transport_of_standard_form_is_half": False,
        "antidiag_image_conjugate_to_diag_in_gsp4": True,
    }
    with pytest.raises(AssertionError):
        sym3_identities_check(strict=True)


# ---------------------------------------------------------------------------
# checkerboard embedding


def test_endoscopic_embed_diagonal_pattern():
    a = _mat.diag(GaussianRational(2), GaussianRational(3))
    b = _mat.diag(GaussianRational(6), GaussianRational(1))
    emb = endoscopic_embed(a, b)
    assert emb.mat == _mat.diag(*[GaussianRational(x) for x in (2, 6, 3, 1)])
    assert emb.nu == GaussianRational(6)
    assert is_in_levi(emb, "Hen")


def test_endoscopic_embed_requires_matching_determinant():
    a = ((1, 0), (0, 2))
    b = ((1, 0), (0, 3))
    with pytest.raises(ValueError):
        endoscopic_embed(a, b)


def test_endoscopic_embed_char_poly_splits():
    rng = random.Random(43)
    for _ in range(15):
        a = rand_gl2(rng)
        b0 = rand_gl2(rng)
        da, db = _mat.det(a), _mat.det(b0)
        b = (tuple(x * da / db for x in b0[0]), b0[1])
        assert endoscopic_factor_check(a, b)
        emb = endoscopic_embed(a, b)
        assert char_poly(emb) == gl2_euler_factor(a).poly * gl2_euler_factor(b).poly


def test_endoscopic_embed_ties_to_spin_factor():
    a = gauss_mat(((2, 1), (1, 1)))
    b = gauss_mat(((1, 3), (0, 1)))
    fa, fb = gl2_euler_factor(a), gl2_euler_factor(b)
    emb = endoscopic_embed(a, b)
    assert endoscopic_spin_factor(fa, fb) == EulerFactor(char_poly(emb))


def test_gl2_euler_factor_over_plain_fractions():
    f = gl2_euler_factor(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))))
    assert f.coeffs == (Fraction(1), Fraction(-3), Fraction(1))
