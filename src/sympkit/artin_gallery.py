"""Explicit four-dimensional matrix galleries over the Gaussian rationals.

Two constructions: the Sym^3 lift of GL2 together with the conjugation
identities of its antidiagonal image J', and a solvable gallery of five
involutive generators A1..A5 plus an order-5 twist T, shipped verbatim as a
single source-of-truth table and analysed by exact closure.  A third, the
checkerboard embedding GL2 x GL2 -> GSp4 on pairs of equal determinant,
ties the gallery to the Euler-factor module.

All verification here is computational and exact; the report functions state
what the matrices actually do, and tests freeze those values.  Closures and
the per-element facts (similitudes, orders modulo +-I, scalars) run on scaled
keys: d*M as one flat tuple of Gaussian-integer (re, im) pairs, every product
divided by d under an exactness check.  Nothing here loads numpy: the module
has its own coset closure, independent of the packed-key one over F_ell.
"""

import functools
from fractions import Fraction
from math import isqrt, lcm

from . import _mat
from ._base import _Frozen, one_like
from .exact_arith import GaussianRational, UPoly, format_gaussian
from .gsp4_core import (
    GSpElement,
    char_poly,
    is_in_levi,
    lambda_rep,
    oddness_normalize,
    try_similitude,
)
from .hecke_l import EulerFactor


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
    (d, keys): the keys of d times every element (see _scale), on which the
    per-element facts below are computed.  Built from `elements` unless given.
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
# scaled keys: d*M as one flat tuple of Gaussian-integer (re, im) pairs


class _Inexact(Exception):
    "A product left (1/d) Z[i]: its entries need a larger denominator."


def _checked(key):
    """key, unless an entry is past 2n x^2 < 2^63, the bound of an n x n
    product in int64; it stops an infinite generator set."""
    bound = isqrt((2 ** 63 - 1) // (2 * isqrt(len(key))))
    if any(abs(x) > bound for z in key for x in z):
        raise RuntimeError("matrix entries outgrow int64")
    return key


def _scale(mats, d=None):
    """(d, keys) for n x n matrices: keys[k] is the key of d * mats[k], row by
    row; d defaults to the lcm of every denominator."""
    zs = [[GaussianRational(x) for row in m for x in row] for m in mats]
    d = d or lcm(1, *(z.den for m in zs for z in m))
    return d, tuple(_checked(tuple(tuple(k * (d // z.den) for k in z.num)
                                   for z in m)) for m in zs)


def _product(a, b, d):
    "The key of a*b/d; exact, or _Inexact when d does not divide a*b."
    n = isqrt(len(b))
    out = []
    for i in range(0, len(a), n):
        for j in range(n):
            re = im = 0
            for (ar, ai), (br, bi) in zip(a[i:i + n], b[j::n]):
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            if re % d or im % d:
                raise _Inexact
            out.append((re // d, im // d))
    return tuple(out)


def _unscale(d, keys):
    "The frozen GaussianRational matrices of scaled keys, n entries a row."
    entry = functools.cache(lambda z: GaussianRational._make(4, list(z), d))
    return [tuple(zip(*[iter(map(entry, m))] * isqrt(len(m)))) for m in keys]


def group_closure(gens, cap=10000):
    """Close a generator list under multiplication (finite groups only).

    The keys of d*M, d the lcm of the generators' denominators, are closed
    from the identity by _dimino, every product divided by d with an
    exactness check; one needing a larger denominator restarts the closure
    at d times that lcm, so nothing is rounded.  Raises RuntimeError past
    cap elements or when entries outgrow int64, which signals a mis-entered
    or infinite generator set.  No numpy: finite_census is not used.
    """
    gens = [_mat.freeze(g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    one = _mat.identity(len(gens[0]))
    d0 = d = _scale(gens)[0]
    while True:
        try:
            keys = _dimino(_scale([one], d)[1][0], _scale(gens, d)[1], d, cap)
            break
        except _Inexact:
            d *= d0
    return FiniteMatrixGroup(gens, _unscale(d, keys), (d, keys))


def _dimino(one, gens, d, cap):
    """The keys of the group the keys `gens` generate (Dimino's algorithm):
    stage j extends H = <g_0, ..., g_(j-1)> by whole right cosets H.r, each a
    block.  A union of cosets holds a coset when it holds one of its keys, so
    each new block is tested once per g_s, s <= j (g_s permutes the cosets,
    so no block repeats); a stage ends when no block has a new image."""
    seen, group = {one}, [one]
    for j, g in enumerate(gens):
        if g in seen:
            continue
        blocks = new = [group]
        while new:
            fresh = []
            for g_s in gens[:j + 1]:
                for block in new:
                    if _product(block[0], g_s, d) not in seen:
                        fresh.append([_checked(_product(x, g_s, d))
                                      for x in block])
                        seen.update(fresh[-1])
            if len(seen) > cap:
                raise RuntimeError("closure cap exceeded (%d elements, cap %d)"
                                   % (len(seen), cap))
            blocks, new = blocks + fresh, fresh
        group = [x for block in blocks for x in block]
    return tuple(group)


def _is_scalar(key):
    "Whether a key is that of a scalar matrix."
    n = isqrt(len(key))
    return key == tuple(key[0] if i == j else (0, 0)
                        for i in range(n) for j in range(n))


def scalar_elements(group):
    "The lambdas with lambda*I in the group, deterministically ordered."
    d, keys = group.scaled
    scalars = _unscale(d, [m for m in keys if _is_scalar(m)])
    return tuple(sorted((m[0][0] for m in scalars), key=_gauss_sort_key))


def quotient_by_sign(group):
    """(order, exponent) of the image of the group modulo {+-I}: |G|/2 when
    -I lies in G, else |G|, and the lcm over the elements g of the least k
    with g^k = +-I, from the powers g, g^2, ... on the scaled keys."""
    d, keys = group.scaled
    signs = ((d, 0), (-d, 0))
    exponent = 1
    for m in keys:
        power = m
        for k in range(1, len(keys) + 1):
            if power[0] in signs and _is_scalar(power):
                exponent = lcm(exponent, k)
                break
            power = _checked(_product(power, m, d))
        else:
            raise ValueError("not a finite group: an element has no order")
    has_neg = any(m[0] == signs[1] and _is_scalar(m) for m in keys)
    return group.order // (2 if has_neg else 1), exponent


def _pairing(m, i, j):
    """<c_i, c_j> = x0 y2 + x1 y3 - x2 y0 - x3 y1 for the columns x = c_i,
    y = c_j of a 4x4 key, as a Gaussian-integer (re, im) pair."""
    re = im = 0
    for x, y, sign in ((i, 8 + j, 1), (4 + i, 12 + j, 1),
                       (8 + i, j, -1), (12 + i, 4 + j, -1)):
        (xr, xi), (yr, yi) = m[x], m[y]
        re += sign * (xr * yr - xi * yi)
        im += sign * (xr * yi + xi * yr)
    return re, im


def _similitude_count(group):
    """How many 4x4 keys m have t(m) J m = nu J, nu nonzero (try_similitude
    on d*M), read on the same six column pairs."""
    count = 0
    for m in group.scaled[1]:
        nu = _pairing(m, 0, 2)
        count += nu != (0, 0) and _pairing(m, 1, 3) == nu and all(
            _pairing(m, i, j) == (0, 0)
            for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)))
    return count


def gallery_report():
    """Exact structural facts about the gallery: similitude factors, closure
    orders, the mod-sign quotient, normalization and oddness verdicts, and
    the scalar subgroup.  Pure computation; no expected values baked in."""
    gens = gallery_generators()
    a_gens = [gens[k] for k in ("A1", "A2", "A3", "A4", "A5")]
    a_grp = group_closure(a_gens)
    full = group_closure(a_gens + [gens["T"]])

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
        "twist_fifth_power_is_scalar": _is_scalar(_scale([t5])[1][0]),
        "scalars_in_involution_closure": [
            format_gaussian(x) for x in scalar_elements(a_grp)],
        "similitude_count_full": _similitude_count(full),
        "odd_involution_conjugator_nu": format_gaussian(odd.nu),
        "every_involution_closure_element_similitude":
            _similitude_count(a_grp) == a_grp.order,
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
    return EulerFactor(UPoly([one_like(m[0][0]), -tr, _mat.det(m)]))


def endoscopic_factor_check(a, b):
    """char_poly of the embedded pair equals the product of the two GL2
    factors (and hence the endoscopic spin factor when determinants match)."""
    emb = endoscopic_embed(a, b)
    lhs = char_poly(emb)
    rhs = gl2_euler_factor(a).poly * gl2_euler_factor(b).poly
    return lhs == rhs and is_in_levi(emb, "Hen")
