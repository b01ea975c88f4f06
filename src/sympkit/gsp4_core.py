"""The symplectic similitude group GSp4 over exact coefficient domains.

Conventions fixed here and used everywhere else:

* J = [[0, I2], [-I2, 0]]; g is a similitude iff t(g) J g = nu(g) J.
* The pairing of column vectors is <x, y> = x1 y3 + x2 y4 - x3 y1 - x4 y2.
  Entry (i, j) of t(g) J g is <c_i, c_j> for the columns c_i, and the form
  is alternating, so the identity is read on the six pairs i < j:
  <c1, c3> = <c2, c4> = nu != 0, and <c1, c2> = <c1, c4> = <c2, c3> =
  <c3, c4> = 0.
* Characteristic polynomials are det(1 - g T) = 1 + c1 T + ... + c4 T^4
  (constant term first); for a similitude c3 = nu c1 and c4 = nu^2.
* The torus is t(t1, t2, t0) = diag(t1, t2, t0/t1, t0/t2); the two Weyl
  generators act by s1: (t1,t2,t0) -> (t2,t1,t0) and
  s2: (t1,t2,t0) -> (t1, t0/t2, t0).
"""

import itertools
from fractions import Fraction
from math import comb

from . import _mat
from ._base import _Frozen, _Record, one_like
from .exact_arith import GaussianRational, UPoly, rational_sqrt


class NotSimilitude(ValueError):
    pass


def pairing(x, y):
    return x[0] * y[2] + x[1] * y[3] - x[2] * y[0] - x[3] * y[1]


def try_similitude(m):
    "nu with t(m) J m = nu J, or None, from the six column pairs."
    if isinstance(m, GSpElement):
        return m.nu
    c = _mat.transpose(m)
    nu = pairing(c[0], c[2])
    if nu and pairing(c[1], c[3]) == nu and not any(
            pairing(c[i], c[j]) for i, j in ((0, 1), (0, 3), (1, 2), (2, 3))):
        return nu
    return None


def similitude_of(m):
    """The similitude factor nu(m), raising NotSimilitude when none exists.

    nu is multiplicative under matrix products.
    """
    nu = try_similitude(m)
    if nu is None:
        raise NotSimilitude("matrix is not a symplectic similitude")
    return nu


class GSpElement(_Frozen):
    """A verified element of GSp4: matrix plus its cached similitude factor.

    The similitude relation is recomputed at construction; an element can
    never be in an unverified state.
    """

    __slots__ = ("mat", "nu")

    def __init__(self, mat):
        if isinstance(mat, GSpElement):
            mat = mat.mat
        mat = _mat.freeze(mat)
        if _mat.shape(mat) != (4, 4):
            raise ValueError("need a 4x4 matrix")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "nu", similitude_of(mat))

    def __mul__(self, other):
        if isinstance(other, GSpElement):
            other = other.mat
        return GSpElement(_mat.mat_mul(self.mat, other))

    def inverse(self):
        return GSpElement(_mat.mat_inv(self.mat))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return GSpElement(_mat.mat_pow(self.mat, n))

    def __eq__(self, other):
        if isinstance(other, GSpElement):
            return self.mat == other.mat
        if isinstance(other, (tuple, list)):
            return _mat.mat_eq(self.mat, _mat.freeze(other))
        return NotImplemented

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return "GSpElement(%r, nu=%r)" % ([list(r) for r in self.mat], self.nu)


def torus(t1, t2, t0):
    "t(t1, t2, t0) = diag(t1, t2, t0/t1, t0/t2)."
    return _mat.diag(t1, t2, t0 / t1, t0 / t2)


def weyl_s1(one=None):
    one = Fraction(1) if one is None else one
    z = one - one
    return ((z, one, z, z), (one, z, z, z), (z, z, z, one), (z, z, one, z))


def weyl_s2(one=None):
    one = Fraction(1) if one is None else one
    z = one - one
    return ((one, z, z, z), (z, z, z, one), (z, z, one, z), (z, -one, z, z))


def char_poly(g):
    """det(1 - g T) as a degree <= 4 UPoly with constant term 1.

    Division-free (principal-minor sums), so it works over any commutative
    coefficient domain.
    """
    m = g.mat if isinstance(g, GSpElement) else _mat.freeze(g)
    n = len(m)
    one = one_like(m[0][0])
    coeffs = [one]
    for k in range(1, n + 1):
        ek = None
        for idx in itertools.combinations(range(n), k):
            sub = tuple(tuple(m[i][j] for j in idx) for i in idx)
            d = _mat.det(sub)
            ek = d if ek is None else ek + d
        coeffs.append(ek if k % 2 == 0 else -ek)
    return UPoly(coeffs)


_LEVI_ZERO = {
    "B": [(i, j) for i in range(4) for j in range(4) if i != j],
    "P": [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)],
    "Q": [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 0), (2, 1), (2, 3),
          (3, 0), (3, 2)],
    "Hen": [(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)],
}


def is_in_levi(g, which):
    """Exact block-pattern membership in a Levi or the endoscopic subgroup.

    which is one of "B" (diagonal torus), "P" (Siegel Levi, block-diagonal
    (A, u t(A)^-1)), "Q" (Klingen Levi), "Hen" (the checkerboard subgroup of
    pairs of 2x2 blocks with equal determinant).
    """
    key = {"b": "B", "p": "P", "q": "Q", "hen": "Hen"}.get(str(which).lower())
    if key is None:
        raise ValueError("unknown Levi tag %r" % (which,))
    el = g if isinstance(g, GSpElement) else GSpElement(g)
    m = el.mat
    if any(m[i][j] for i, j in _LEVI_ZERO[key]):
        return False
    if key == "P":
        a = ((m[0][0], m[0][1]), (m[1][0], m[1][1]))
        d = ((m[2][2], m[2][3]), (m[3][2], m[3][3]))
        nu_id = _mat.scalar_mul(el.nu, _mat.identity(2, one_like(el.nu)))
        return _mat.mat_eq(_mat.mat_mul(_mat.transpose(a), d), nu_id)
    if key == "Q":
        inner = ((m[1][1], m[1][3]), (m[3][1], m[3][3]))
        return bool(m[0][0]) and m[0][0] * m[2][2] == _mat.det(inner) == el.nu
    if key == "Hen":
        a = ((m[0][0], m[0][2]), (m[2][0], m[2][2]))
        b = ((m[1][1], m[1][3]), (m[3][1], m[3][3]))
        return _mat.det(a) == _mat.det(b)
    return True


# ---------------------------------------------------------------------------
# Weyl group combinatorics


class WeylWord(_Record):
    """A word in the two Weyl generators, stored as a tuple over {1, 2}."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        if not all(k in (1, 2) for k in word):
            raise ValueError("a Weyl word has letters 1 and 2 only")
        object.__setattr__(self, "word", word)

    def matrix(self, one=None):
        out = _mat.identity(4, Fraction(1) if one is None else one)
        for k in self.word:
            out = _mat.mat_mul(out, weyl_s1(one) if k == 1 else weyl_s2(one))
        return out

    def __iter__(self):
        return iter(self.word)

    def __len__(self):
        return len(self.word)

    def __str__(self):
        return "1" if not self.word else "".join("s%d" % k for k in self.word)


def weyl_words():
    """The 8 canonical (shortest, lex-least) words, one per Weyl group element.

    A word is keyed by its image of the torus point (2, 3, 7) under weyl_act:
    the 8 images are distinct, so two words share a key iff they are the
    same element."""
    point = (Fraction(2), Fraction(3), Fraction(7))
    seen = {point: ()}
    frontier = [()]
    while frontier:
        nxt = []
        for w in sorted(frontier):
            for k in (1, 2):
                w2 = w + (k,)
                key = weyl_act(w2, point)
                if key not in seen:
                    seen[key] = w2
                    nxt.append(w2)
        frontier = nxt
    assert len(seen) == 8
    return tuple(WeylWord(w) for w in sorted(seen.values(), key=lambda w: (len(w), w)))


def weyl_act(w, t):
    """Apply a Weyl word to a torus triple (t1, t2, t0), leftmost letter first.

    s1 swaps t1 and t2; s2 sends t2 to t0/t2 and fixes t1, t0.
    """
    t1, t2, t0 = t
    word = w.word if isinstance(w, WeylWord) else tuple(w)
    for k in word:
        if k == 1:
            t1, t2 = t2, t1
        else:
            t2 = t0 / t2
    return (t1, t2, t0)


class CharacterData(_Record):
    """A character of the real torus: three sign bits and three exact exponents.

    chi(t) = eps1(t1)|t1|^s1 * eps2(t2)|t2|^s2 * eps0(t0)|t0|^s0 with each
    eps either trivial (+1) or the sign character (-1).
    """

    __slots__ = ("eps1", "eps2", "eps0", "s1", "s2", "s0")

    def __init__(self, eps1, eps2, eps0, s1=0, s2=0, s0=0):
        if not all(e in (1, -1) for e in (eps1, eps2, eps0)):
            raise ValueError("each sign eps must be 1 or -1")
        s1, s2, s0 = Fraction(s1), Fraction(s2), Fraction(s0)
        for name, value in zip(self.__slots__, (eps1, eps2, eps0, s1, s2, s0)):
            object.__setattr__(self, name, value)


def chi_act(w, chi):
    """The Weyl action on characters, dual to weyl_act (letters left to right).

    s1 swaps the (eps1, s1) and (eps2, s2) slots; s2 inverts the second slot
    and folds it into the central one: chi2 -> chi2^-1, sigma -> chi2 sigma.
    """
    e1, e2, e0 = chi.eps1, chi.eps2, chi.eps0
    s1, s2, s0 = chi.s1, chi.s2, chi.s0
    word = w.word if isinstance(w, WeylWord) else tuple(w)
    for k in word:
        if k == 1:
            e1, e2, s1, s2 = e2, e1, s2, s1
        else:
            e0, s0 = e2 * e0, s2 + s0
            s2 = -s2
    return CharacterData(e1, e2, e0, s1, s2, s0)


def weyl_orbit_and_stabilizer(chi):
    """(orbit, stabilizer) of a character under the 8-element Weyl group.

    The orbit is a frozenset of CharacterData; the stabilizer is the tuple of
    canonical words fixing chi.  |orbit| * |stabilizer| = 8 always.
    """
    orbit = set()
    stab = []
    for w in weyl_words():
        im = chi_act(w, chi)
        orbit.add(im)
        if im == chi:
            stab.append(w)
    return frozenset(orbit), tuple(stab)


def casimir_pair(s1, s2):
    "((s1^2 + s2^2 - 5) / 12, s1^2 s2^2), both exact."
    s1, s2 = Fraction(s1), Fraction(s2)
    return ((s1 * s1 + s2 * s2 - 5) / 12, s1 * s1 * s2 * s2)


def infinity_type_solve(c1, c2):
    """All (s1, s2), s1 >= s2 >= 0 rational, with casimir_pair(s1, s2) = (c1, c2).

    Writing u = s1^2, v = s2^2 turns the system into u + v = 12 c1 + 5,
    u v = c2, so u and v are the roots of X^2 - (12 c1 + 5) X + c2; a
    solution survives iff both roots are non-negative squares of rationals.
    """
    p = 12 * Fraction(c1) + 5
    q = Fraction(c2)
    disc = p * p - 4 * q
    root = rational_sqrt(disc)
    if root is None:
        return set()
    out = set()
    u, v = (p + root) / 2, (p - root) / 2
    if u >= 0 and v >= 0:
        su, sv = rational_sqrt(u), rational_sqrt(v)
        if su is not None and sv is not None:
            out.add((max(su, sv), min(su, sv)))
    return out


# ---------------------------------------------------------------------------
# Oddness normal form


def oddness_normalize(g):
    """A conjugator P in Sp4 with P^-1 g P = diag(1, -1, -1, 1), exactly.

    Preconditions: g is an involution, nu(g) = -1, eigenvalues 1, 1, -1, -1
    (checked through char_poly = (1-T)^2 (1+T)^2 so that no factorization
    over the coefficient field is needed).

    Both eigenspaces V+ = im(g + 1) and V- = im(g - 1) are Lagrangian, as
    <x, y> = <gx, gy> / nu(g) = -<x, y> on each, so the pairing joins them
    perfectly.  P has columns p1, p2, p3, p4: (p1, p4) is the reduced row
    echelon basis of V+, and p3, p2 are the vectors of V- with
    <p1, p3> = <p2, p4> = 1 and <p4, p3> = <p1, p2> = 0.  So nu(P) = 1; P is
    the identity for diag(1, -1, -1, 1) and s2 for diag(1, 1, -1, -1).
    """
    el = g if isinstance(g, GSpElement) else GSpElement(g)
    m = el.mat
    one = one_like(m[0][0])
    ident = _mat.identity(4, one)
    if el.nu != -one:
        raise ValueError("precondition: nu(g) must be -1")
    if not _mat.mat_eq(_mat.mat_mul(m, m), ident):
        raise ValueError("precondition: g must be an involution")
    if char_poly(el) != UPoly([one, one - one, -(one + one), one - one, one]):
        raise ValueError("precondition: eigenvalues must be 1, 1, -1, -1")

    def plane(sign):
        "The basis of im(g + sign): the nonzero rows of its echelon form."
        shifted = _mat.mat_add(m, _mat.scalar_mul(sign, ident))
        return _mat.row_reduce(_mat.transpose(shifted))[0][:2]

    (p1, p4), minus = plane(one), plane(-one)
    # pair[j][i] = <(p1, p4)[i], minus[j]>, so pair^-1 minus has rows p3, -p2
    pair = tuple(tuple(pairing(u, v) for u in (p1, p4)) for v in minus)
    p3, neg_p2 = _mat.mat_mul(_mat.mat_inv(pair), minus)
    p = _mat.transpose((p1, tuple(-x for x in neg_p2), p3, p4))
    target = _mat.diag(one, -one, -one, one)
    conj = _mat.mat_mul(_mat.mat_inv(p), _mat.mat_mul(m, p))
    assert _mat.mat_eq(conj, target), "normalization failed"
    return GSpElement(p)


# ---------------------------------------------------------------------------
# The weight representation and the upper half-space action


def lambda_rep(k1, k2, g):
    """Matrix of the weight-(k1, k2) representation det^k2 Sym^(k1-k2) on the
    monomial basis x^(m-i) y^i, m = k1 - k2.

    The 2x2 input acts by substitution x -> a x + c y, y -> b x + d y for
    g = [[a, b], [c, d]], which makes the map multiplicative:
    lambda_rep(g h) = lambda_rep(g) lambda_rep(h).
    """
    if k1 < k2:
        raise ValueError("need k1 >= k2")
    g = _mat.freeze(g)
    (a, b), (c, d) = g
    det = a * d - b * c
    if not det:
        raise ZeroDivisionError("singular 2x2 input")
    m = k1 - k2
    scale = det ** k2
    cols = []
    for i in range(m + 1):
        # expand (a x + c y)^(m-i) (b x + d y)^i
        coeff = [scale - scale] * (m + 1)
        for r in range(m - i + 1):
            for s in range(i + 1):
                term = (comb(m - i, r) * comb(i, s)) * scale \
                    * a ** (m - i - r) * c ** r * b ** (i - s) * d ** s
                coeff[r + s] = coeff[r + s] + term
        cols.append(coeff)
    return _mat.transpose(_mat.freeze(cols))


class SiegelPoint(_Record):
    """A point of the degree-2 upper half-space: Z symmetric 2x2 over the
    Gaussian rationals with positive definite imaginary part (checked by
    leading principal minors, exactly)."""

    __slots__ = ("Z",)

    def __init__(self, Z):
        Z = _mat.freeze(
            tuple(tuple(GaussianRational(x) for x in row) for row in Z)
        )
        if _mat.shape(Z) != (2, 2) or Z[0][1] != Z[1][0]:
            raise ValueError("need a symmetric 2x2 matrix")
        y00 = Z[0][0].im
        ydet = Z[0][0].im * Z[1][1].im - Z[0][1].im * Z[1][0].im
        if not (y00 > 0 and ydet > 0):
            raise ValueError("imaginary part is not positive definite")
        object.__setattr__(self, "Z", Z)

    def imag(self):
        return tuple(tuple(x.im for x in row) for row in self.Z)

    def __repr__(self):
        return "SiegelPoint(%r)" % (self.Z,)


def moebius(gamma, Z):
    """(gamma Z, J(gamma, Z)) for the fractional-linear action on the upper
    half-space: gamma Z = (A Z + B)(C Z + D)^-1 with automorphy factor
    C Z + D.  Requires nu(gamma) real and positive; the cocycle identity
    J(gamma delta, Z) = J(gamma, delta Z) J(delta, Z) holds exactly.
    """
    el = gamma if isinstance(gamma, GSpElement) else GSpElement(gamma)
    nu = el.nu
    if isinstance(nu, (int, Fraction)):
        nu = GaussianRational(nu)
    if not isinstance(nu, GaussianRational):
        raise ValueError("the half-space action needs rational entries")
    if nu.im or nu.re <= 0:
        raise ValueError("need a similitude with positive rational nu")
    zpt = Z if isinstance(Z, SiegelPoint) else SiegelPoint(Z)
    m = tuple(tuple(GaussianRational(x) for x in row) for row in el.mat)
    a = ((m[0][0], m[0][1]), (m[1][0], m[1][1]))
    b = ((m[0][2], m[0][3]), (m[1][2], m[1][3]))
    c = ((m[2][0], m[2][1]), (m[3][0], m[3][1]))
    d = ((m[2][2], m[2][3]), (m[3][2], m[3][3]))
    num = _mat.mat_add(_mat.mat_mul(a, zpt.Z), b)
    j = _mat.mat_add(_mat.mat_mul(c, zpt.Z), d)
    try:
        jinv = _mat.mat_inv(j)
    except ZeroDivisionError:
        raise ValueError("automorphy factor is singular at this point")
    return SiegelPoint(_mat.mat_mul(num, jinv)), j


# ---------------------------------------------------------------------------
# Standard generators of Sp4 and GSp4 over any exact field, for tests that
# need generic similitudes (finite_census._full_gens builds the full groups
# that a census lists)


def unipotent_alpha(c):
    "The short-root one-parameter element [[1,c,0,0],[0,1,0,0],[0,0,1,0],[0,0,-c,1]]."
    one = one_like(c)
    z = one - one
    return ((one, c, z, z), (z, one, z, z), (z, z, one, z), (z, z, -c, one))


def unipotent_beta(c):
    "The long-root element [[I2, diag(0,c)], [0, I2]]."
    one = one_like(c)
    z = one - one
    return ((one, z, z, z), (z, one, z, c), (z, z, one, z), (z, z, z, one))


def standard_generators(gamma):
    """Generators of Sp4 over the domain of gamma: two torus coweights at the
    unit gamma, the simple-root unipotents and their transposes, and the two
    Weyl representatives.  Over F_l with gamma a primitive root these
    generate the full symplectic group.
    """
    one = one_like(gamma)
    gens = [
        torus(gamma, one, one),
        torus(one, gamma, one),
        unipotent_alpha(one),
        unipotent_beta(one),
        _mat.transpose(unipotent_alpha(one)),
        _mat.transpose(unipotent_beta(one)),
        weyl_s1(one),
        weyl_s2(one),
    ]
    return [_mat.freeze(g) for g in gens]


def similitude_generator(gamma):
    "diag(1, 1, gamma, gamma): nu = gamma; with Sp4 it generates GSp4."
    one = one_like(gamma)
    return _mat.diag(one, one, gamma, gamma)
