"""Explicit four-dimensional matrix galleries over the Gaussian rationals.

Two constructions: the Sym^3 lift of GL2 together with the conjugation
identities of its antidiagonal image J', and a solvable gallery of five
involutive generators A1..A5 plus an order-5 twist T, shipped verbatim as a
single source-of-truth table and analysed by exact closure.  A third, the
checkerboard embedding GL2 x GL2 -> GSp4 on pairs of equal determinant,
ties the gallery to the Euler-factor module.

All verification here is computational and exact; the report functions state
what the matrices actually do, and tests freeze those values.  Closures run on
scaled Gaussian-integer arrays: d*M as int64 real and imaginary parts, with
every batched product divided by d under an exactness check, through the same
coset closure that closes packed keys over F_ell (finite_census._closure).  The
per-element facts (similitudes, orders modulo +-I, scalars) are computed on
those arrays too.
"""

import functools
from fractions import Fraction
from math import isqrt, lcm

from . import _mat
from .exact_arith import (GaussianRational, UPoly, _Frozen, format_gaussian,
                          one_like)
from .gsp4_core import (
    GSpElement,
    char_poly,
    is_in_levi,
    lambda_rep,
    oddness_normalize,
    try_similitude,
)
from .hecke_l import EulerFactor
# finite_census and numpy last: the rest compiles before numpy loads
from .finite_census import _J4, _closure

import numpy as np


def gauss_mat(rows):
    "Coerce a nested sequence into a frozen matrix of GaussianRational."
    return _mat.freeze(
        tuple(tuple(GaussianRational(x) for x in row) for row in rows)
    )


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_I = GaussianRational.i()


def sym3_lift(g):
    """The action of g in GL2 on the cubic monomials x^3, x^2 y, x y^2, y^3.

    Multiplicative, with det(sym3_lift(g)) = det(g)^6; the image is a
    similitude of factor det(g)^3 for the invariant alternating form
    sym3_form().
    """
    return lambda_rep(3, 0, gauss_mat(g))


def sym3_form():
    """Gram matrix of the alternating form the Sym^3 image preserves up to
    det^3, on the monomial basis (antidiagonal 3, -1, 1, -3)."""
    z = _ZERO
    return _mat.freeze((
        (z, z, z, GaussianRational(3)),
        (z, z, -_ONE, z),
        (z, _ONE, z, z),
        (GaussianRational(-3), z, z, z),
    ))


def sym3_similitude_factor(g):
    "nu with t(S) F S = nu F for S = sym3_lift(g), F = sym3_form(); det(g)^3."
    s = sym3_lift(g)
    f = sym3_form()
    lhs = _mat.mat_mul(_mat.transpose(s), _mat.mat_mul(f, s))
    nu = lhs[0][3] / f[0][3]
    assert _mat.mat_eq(lhs, _mat.scalar_mul(nu, f))
    return nu


# The 4x4 conjugator printed alongside J' = sym3_lift(swap), and the
# standard symplectic form, both over Q.
SYM3_P = gauss_mat((
    (Fraction(1, 2), Fraction(-1, 2), 0, 0),
    (0, 0, Fraction(1, 2), Fraction(1, 2)),
    (0, 0, Fraction(-1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2), 0, 0),
))

_J = gauss_mat((
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 0, 0),
    (0, -1, 0, 0),
))


def sym3_swap_image():
    "J' = sym3_lift of the antidiagonal swap: antidiag(1, 1, 1, 1)."
    return sym3_lift(((0, 1), (1, 0)))


def sym3_identities_check(strict=False):
    """Exact verdicts for the four conjugation identities attached to the
    printed conjugator P, plus the similitude behaviour of the lift.

    Returns a list of (name, holds, detail) triples.  With strict=True the
    first failing identity raises AssertionError instead.
    """
    p = SYM3_P
    pt = _mat.transpose(p)
    pinv = _mat.mat_inv(p)
    jprime = sym3_swap_image()
    diag = _mat.diag(_ONE, -_ONE, -_ONE, _ONE)
    half_j = _mat.scalar_mul(GaussianRational(Fraction(1, 2)), _J)

    conj = _mat.mat_mul(pinv, _mat.mat_mul(jprime, p))
    ptjp = _mat.mat_mul(pt, _mat.mat_mul(_J, p))

    # is J' conjugate to diag(1,-1,-1,1) by some symplectic similitude?
    nu_p = try_similitude(p)
    witness = nu_p is not None and _mat.mat_eq(conj, diag)

    results = [
        ("P_inverse_equals_P_transpose", _mat.mat_eq(pinv, pt),
         "P^-1 = %s * t(P)" % _ratio(pinv, pt)),
        ("P_conjugates_antidiag_image_to_diag", _mat.mat_eq(conj, diag),
         "P^-1 J' P = " + _fmt_mat(conj)),
        ("transport_of_standard_form_is_half", _mat.mat_eq(ptjp, half_j),
         "t(P) J P = " + _fmt_mat(ptjp)),
        ("antidiag_image_conjugate_to_diag_in_gsp4", witness,
         "witness conjugator has nu = %s" % (
             format_gaussian(nu_p) if nu_p is not None else "none")),
    ]
    if strict:
        for name, holds, detail in results:
            if not holds:  # raised even under python -O
                raise AssertionError("%s failed: %s" % (name, detail))
    return results


def _ratio(a, b):
    "Scalar c with a = c*b, as a display string, or 'none'."
    for i in range(len(b)):
        for j in range(len(b[0])):
            if b[i][j]:
                c = a[i][j] / b[i][j]
                if _mat.mat_eq(a, _mat.scalar_mul(c, b)):
                    return format_gaussian(c)
                return "none"
    return "none"


def _fmt_mat(m):
    return "[" + "; ".join(
        ", ".join(format_gaussian(x) for x in row) for row in m) + "]"


# ---------------------------------------------------------------------------
# The solvable gallery: five involutions and an order-5 twist, verbatim.

_J1 = ((1, 0), (0, -1))
_J2 = ((0, 1), (1, 0))


def gallery_generators():
    """The six gallery matrices A1..A5, T as exact Gaussian-rational 4x4s.

    This table is the single transcription point; everything else recomputes
    from it.  nu values, closure orders and the structure facts are frozen in
    the test suite from exact computation on these entries.
    """
    i = _I
    a1 = _mat.block2(gauss_mat(_J1), _z2(), _z2(), gauss_mat(_J1))
    a2 = _mat.block2(gauss_mat(_J2), _z2(), _z2(),
                     _mat.scalar_mul(-_ONE, gauss_mat(_J2)))
    ij2 = _mat.scalar_mul(i, gauss_mat(_J2))
    a3 = _mat.block2(ij2, _z2(), _z2(), ij2)
    a4 = _mat.block2(_z2(), ij2, ij2, _z2())
    a5 = _mat.diag(_ONE, -_ONE, -_ONE, _ONE)
    scale = -(_ONE + i) * GaussianRational(Fraction(1, 2))
    t = _mat.scalar_mul(scale, gauss_mat((
        (-_I, 0, 0, _I),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (0, -_I, _I, 0),
    )))
    return {"A1": a1, "A2": a2, "A3": a3, "A4": a4, "A5": a5, "T": t}


def _z2():
    return ((_ZERO, _ZERO), (_ZERO, _ZERO))


class FiniteMatrixGroup(_Frozen):
    """A finite group of exact matrices: generators plus the full closure.

    Besides the frozen GaussianRational matrices it keeps them scaled, as
    (d, arr): arr holds d times every element as an int64 (N, 2, n, n) array
    of real and imaginary parts, on which the per-element facts below are
    computed.  Built from `elements` unless given.
    """

    __slots__ = ("generators", "elements", "scaled")

    def __init__(self, generators, elements, scaled=None):
        elements = frozenset(elements)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "scaled", scaled or _scale(list(elements)))

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, m):
        return gauss_mat(m) in self.elements

    def __iter__(self):
        "Deterministic iteration (entry-wise exact ordering)."
        return iter(sorted(self.elements, key=_mat_sort_key))

    def __repr__(self):
        return "FiniteMatrixGroup(order=%d, ngens=%d)" % (
            self.order, len(self.generators))


def _gauss_sort_key(z):
    if isinstance(z, GaussianRational):
        return (z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator)
    q = Fraction(z)
    return (q.numerator, q.denominator, 0, 1)


def _mat_sort_key(m):
    return tuple(_gauss_sort_key(x) for row in m for x in row)


# ---------------------------------------------------------------------------
# scaled Gaussian-integer arrays: d*M as int64 (real part, imaginary part)


class _Inexact(Exception):
    "A product left (1/d) Z[i]: its entries need a larger denominator."


def _checked(arr):
    "arr, unless an entry is too large for an n x n complex product in int64."
    n = arr.shape[-1]
    if arr.size and np.abs(arr).max() > isqrt((2 ** 63 - 1) // (2 * n)):
        raise RuntimeError("matrix entries outgrow int64")
    return arr


def _scale(mats, d=None):
    """(d, arr) for a list of n x n matrices: arr[k] is d * mats[k] as int64
    real and imaginary parts; d defaults to the lcm of every denominator."""
    zs = [GaussianRational(x) for m in mats for row in m for x in row]
    if d is None:
        d = lcm(1, *(z.den for z in zs))
    n = len(mats[0])
    ints = np.array([k * (d // z.den) for z in zs for k in z.num], dtype=object)
    arr = _checked(ints.reshape(-1, n, n, 2).transpose(0, 3, 1, 2))
    return d, arr.astype(np.int64, order="C")


def _product(a, b, d):
    """a*b/d for stacks of scaled matrices (..., 2, n, n), broadcast over the
    leading axes; exact, or _Inexact when d does not divide the product."""
    (ar, ai), (br, bi) = np.moveaxis(a, -3, 0), np.moveaxis(b, -3, 0)
    prod = np.stack([ar @ br - ai @ bi, ar @ bi + ai @ br], axis=-3)
    quot, rem = np.divmod(prod, d)
    if rem.any():
        raise _Inexact
    return quot


def _keys(arr):
    """One sortable key per scaled matrix: its bytes as a fixed-width byte
    string (equal-width strings compare equal exactly when their bytes do)."""
    flat = np.ascontiguousarray(arr).reshape(len(arr), -1)
    return flat.view(np.dtype("S%d" % (flat.shape[1] * 8))).ravel()


def _unscale(d, arr):
    "The frozen GaussianRational matrices of a scaled array."
    entry = functools.cache(lambda re, im: GaussianRational._make(4, [re, im], d))
    return [tuple(tuple(map(entry, rr, ii)) for rr, ii in zip(*m))
            for m in arr.tolist()]


def group_closure(gens, cap=10000):
    """Close a generator list under multiplication (finite groups only).

    The matrices are held as d*M in int64 Gaussian-integer arrays, d the lcm
    of the generators' denominators, and closed from the identity by
    finite_census._closure (Dimino's algorithm) with batched products by one
    generator, each divided by d with an exactness check.  A product needing
    a larger denominator restarts the closure at d times that lcm; nothing is
    ever rounded.  Raises RuntimeError past cap elements or when entries
    outgrow int64, which signals a mis-entered or infinite generator set.
    """
    gens = [_mat.freeze(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    d0 = d = _scale(gens)[0]

    def times(keys, s):  # the products with generator s, at the scale d
        mats = np.ascontiguousarray(keys).view(np.int64).reshape(-1, 2, n, n)
        return _keys(_checked(_product(mats, g[s], d)))

    while True:
        g = _scale(gens, d)[1]
        try:
            keys = _closure(_keys(_scale([_mat.identity(n)], d)[1]), len(g),
                            times, cap=cap)
            break
        except _Inexact:
            d *= d0
    arr = keys.view(np.int64).reshape(-1, 2, n, n)
    return FiniteMatrixGroup(gens, _unscale(d, arr), (d, arr))


def _one_of(m):
    return one_like(m[0][0])


def _is_scalar(m):
    lam = m[0][0]
    return _mat.mat_eq(m, _mat.scalar_mul(lam, _mat.identity(len(m), _one_of(m))))


def _scalar_mask(arr):
    "Which scaled matrices are scalar."
    return (arr == arr[:, :, :1, :1] * np.eye(arr.shape[-1], dtype=np.int64)
            ).all(axis=(1, 2, 3))


def scalar_elements(group):
    "The lambdas with lambda*I in the group, deterministically ordered."
    d, arr = group.scaled
    scalars = _unscale(d, arr[_scalar_mask(arr)])
    return tuple(sorted((m[0][0] for m in scalars), key=_gauss_sort_key))


def quotient_by_sign(group):
    """(order, exponent) of the image of the group modulo {+-I}.

    The order is |G|/2 when -I lies in G, else |G|.  The exponent is the lcm
    of the least k with g^k = +-I, found for all elements at once from the
    batched powers g, g^2, ... on the scaled arrays.
    """
    d, arr = group.scaled
    eye = np.eye(arr.shape[-1], dtype=np.int64)

    def equal(mats, lam):  # which scaled matrices are lam*I, lam an integer
        return ((mats[:, 0] == lam * eye).all(axis=(1, 2))
                & ~mats[:, 1].any(axis=(1, 2)))

    has_neg = equal(arr, -d).any()
    exponent, power, pending = 1, arr, np.ones(len(arr), dtype=bool)
    for k in range(1, len(arr) + 1):
        done = pending & (equal(power, d) | equal(power, -d))
        if done.any():
            exponent = lcm(exponent, k)
            pending &= ~done
        if not pending.any():
            return group.order // (2 if has_neg else 1), exponent
        power = _checked(_product(power, arr, d))
    raise ValueError("not a finite group: an element has no order")


def _similitude_mask(group):
    """Which 4x4 elements m satisfy t(m) J m = nu J with nu nonzero (as
    try_similitude), from the Gram matrices d^2 t(m) J m of the scaled arrays."""
    _, arr = group.scaled
    gram = _product(arr.swapaxes(-1, -2), _J4 @ arr, 1)
    nu = gram[:, :, :1, 2:3]
    return (gram == nu * _J4).all(axis=(1, 2, 3)) & nu.any(axis=(1, 2, 3))


def gallery_report(cap=10000):
    """Exact structural facts about the gallery: similitude factors, closure
    orders, the mod-sign quotient, normalization and oddness verdicts, and
    the scalar subgroup.  Pure computation; no expected values baked in."""
    gens = gallery_generators()
    a_gens = [gens[k] for k in ("A1", "A2", "A3", "A4", "A5")]
    a_grp = group_closure(a_gens, cap=cap)
    full = group_closure(a_gens + [gens["T"]], cap=cap)

    nu = {}
    for name in ("A1", "A2", "A3", "A4", "A5", "T"):
        v = try_similitude(gens[name])
        nu[name] = format_gaussian(v) if v is not None else None

    t = gens["T"]
    tinv = _mat.mat_inv(t)
    t_normalizes = all(
        _mat.mat_mul(t, _mat.mat_mul(a, tinv)) in a_grp for a in a_gens)
    t5 = _mat.mat_pow(t, 5)
    ident = _mat.identity(4, _ONE)

    odd = oddness_normalize(gens["A5"])
    q_order, q_exponent = quotient_by_sign(a_grp)

    return {
        "generator_nu": nu,
        "closure_order_without_twist": a_grp.order,
        "closure_order_full": full.order,
        "quotient_mod_sign_order": q_order,
        "quotient_mod_sign_exponent": q_exponent,
        "twist_normalizes_involution_group": t_normalizes,
        "twist_fifth_power_is_identity": _mat.mat_eq(t5, ident),
        "twist_fifth_power_is_scalar": _is_scalar(t5),
        "scalars_in_involution_closure": [
            format_gaussian(x) for x in scalar_elements(a_grp)],
        "similitude_count_full": int(_similitude_mask(full).sum()),
        "odd_involution_conjugator_nu": format_gaussian(odd.nu),
        "every_involution_closure_element_similitude": bool(
            _similitude_mask(a_grp).all()),
    }


def endoscopic_embed(a, b):
    """The checkerboard element of the endoscopic subgroup from a pair of 2x2
    blocks with equal determinant: A in the odd slots, B in the even ones."""
    a = _mat.freeze(a)
    b = _mat.freeze(b)
    if _mat.det(a) != _mat.det(b):
        raise ValueError("determinants differ: the pair does not embed")
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    z = a11 - a11
    return GSpElement((
        (a11, z, a12, z),
        (z, b11, z, b12),
        (a21, z, a22, z),
        (z, b21, z, b22),
    ))


def gl2_euler_factor(m):
    "det(1 - mT) = 1 - tr(m) T + det(m) T^2 as a degree-2 EulerFactor."
    m = _mat.freeze(m)
    tr = m[0][0] + m[1][1]
    return EulerFactor(UPoly([_one_of(m), -tr, _mat.det(m)]))


def endoscopic_factor_check(a, b):
    """char_poly of the embedded pair equals the product of the two GL2
    factors (and hence the endoscopic spin factor when determinants match)."""
    emb = endoscopic_embed(a, b)
    lhs = char_poly(emb)
    rhs = gl2_euler_factor(a).poly * gl2_euler_factor(b).poly
    return lhs == rhs and is_in_levi(emb, "Hen")
