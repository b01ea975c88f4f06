"""Satake/Hecke Euler factors at weight (2, 1).

The dictionary implemented here is the scalar-weight-normalized one: for
Satake parameters (alpha0, alpha1, alpha2) with central value
eps = alpha0^2 alpha1 alpha2,

    lambda(p) = a1 = alpha0 (1 + alpha1)(1 + alpha2)
    a2 = eps (alpha1 + alpha2 + 2 + alpha1^-1 + alpha2^-1 - 1 - p^-2) / p

and the degree-4 Hecke polynomial is

    H_p(T) = 1 - a1 T + {p a2 + (1 + p^-2) eps} T^2 - a1 eps T^3 + eps^2 T^4,

whose roots are the spin parameters (a0a1a2, a0a1, a0a2, a0).  Everything is
computed exactly; floats appear only in the density diagnostic.  The
coefficients of the root-of-unity factors of rou_charpolys are column sums
of integer rows x^s mod Phi_L, indexed by exponent sums s, each turned into
a Cyclotomic value once per distinct multiset of sums.  The whole module,
rou_charpolys included, computes with the standard library alone.
"""

import functools
import itertools
import math
from fractions import Fraction
from math import gcd, isqrt

from ._base import _Frozen, _Record, is_prime, one_like
from .exact_arith import (Cyclotomic, GaussianRational, UPoly,
                          cyclotomic_polynomial, format_gaussian, lcm_upto,
                          parse_gaussian)


class SatakeParams(_Frozen):
    """Exact Satake parameters (alpha0, alpha1, alpha2), all nonzero.

    Entries live in any exact field domain (Fraction, GaussianRational,
    Cyclotomic); eps = alpha0^2 alpha1 alpha2 is cached at construction.
    """

    __slots__ = ("alpha0", "alpha1", "alpha2", "eps")

    def __init__(self, alpha0, alpha1, alpha2):
        vals = []
        for a in (alpha0, alpha1, alpha2):
            if isinstance(a, int):
                a = Fraction(a)
            if not a:
                raise ValueError("Satake parameters must be nonzero")
            vals.append(a)
        alpha0, alpha1, alpha2 = vals
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)
        object.__setattr__(self, "eps", alpha0 * alpha0 * alpha1 * alpha2)

    def spin_roots(self):
        "(a0 a1 a2, a0 a1, a0 a2, a0) in this fixed order."
        a0, a1, a2 = self.alpha0, self.alpha1, self.alpha2
        return (a0 * a1 * a2, a0 * a1, a0 * a2, a0)

    def c_value(self):
        "c(p) = alpha1 + alpha2 + 1 + alpha1^-1 + alpha2^-1."
        a1, a2 = self.alpha1, self.alpha2
        return a1 + a2 + one_like(a1) + a1 ** -1 + a2 ** -1

    def __repr__(self):
        return "SatakeParams(%r, %r, %r)" % (self.alpha0, self.alpha1, self.alpha2)


class HeckeData(_Frozen):
    "Eigenvalue data at a prime p: a1 = lambda(p), a2, and the central eps."

    __slots__ = ("a1", "a2", "eps", "p")

    def __init__(self, a1, a2, eps, p):
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        if isinstance(eps, int):
            eps = Fraction(eps)
        if not eps:
            raise ValueError("eps must be nonzero")
        object.__setattr__(self, "a1", Fraction(a1) if isinstance(a1, int) else a1)
        object.__setattr__(self, "a2", Fraction(a2) if isinstance(a2, int) else a2)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "p", p)

    def __repr__(self):
        return "HeckeData(a1=%r, a2=%r, eps=%r, p=%d)" % (
            self.a1, self.a2, self.eps, self.p)


class EulerFactor(_Record):
    """A reciprocal local factor: polynomial in T with constant term 1.

    Degree 4 for spin factors (c3 = eps c1, c4 = eps^2 when attached to a
    similitude), degree 5 for the standard factors, degree 2 for GL2 inputs.
    """

    __slots__ = ("degree", "poly")

    def __init__(self, poly):
        if not isinstance(poly, UPoly):
            poly = UPoly(poly)
        if poly.degree < 0 or poly.coeff(0) != one_like(poly.coeff(0)):
            raise ValueError("an Euler factor has constant term 1")
        object.__setattr__(self, "degree", poly.degree)
        object.__setattr__(self, "poly", poly)

    @property
    def coeffs(self):
        return self.poly.coeffs

    def coeff(self, k):
        return self.poly.coeff(k)

    def __call__(self, x):
        return self.poly(x)

    def __mul__(self, other):
        if not isinstance(other, EulerFactor):
            return NotImplemented
        return EulerFactor(self.poly * other.poly)

    def to_json_dict(self):
        return {"degree": self.degree,
                "coeffs": [_coeff_str(c) for c in self.coeffs]}

    def __repr__(self):
        return "EulerFactor(%r)" % (self.poly,)


def _coeff_str(c):
    if isinstance(c, (int, Fraction, GaussianRational)):
        return format_gaussian(c)
    return repr(c)


def hecke_poly(h):
    """H_p(T) = 1 - a1 T + {p a2 + (1+p^-2) eps} T^2 - a1 eps T^3 + eps^2 T^4."""
    pinv2 = Fraction(1, h.p * h.p)
    c2 = h.p * h.a2 + (1 + pinv2) * h.eps
    return EulerFactor(UPoly([
        one_like(h.eps),
        -h.a1,
        c2,
        -(h.a1 * h.eps),
        h.eps * h.eps,
    ]))


def satake_to_hecke(s, p):
    """The weight-(2,1) eigenvalue dictionary (the k1+k2-3 = 0 specialization).

    a1 = alpha0 (1+alpha1)(1+alpha2);
    a2 = eps (alpha1 + alpha2 + 2 + alpha1^-1 + alpha2^-1 - 1 - p^-2) / p.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    one = one_like(s.alpha0)
    a1 = s.alpha0 * (one + s.alpha1) * (one + s.alpha2)
    # alpha1 + alpha2 + 2 + alpha1^-1 + alpha2^-1 - 1 - p^-2 = c(p) - p^-2
    a2 = s.eps * (s.c_value() - Fraction(1, p * p)) * Fraction(1, p)
    return HeckeData(a1, a2, s.eps, p)


def spin_factor(s):
    "prod (1 - rT) over the four spin roots; equals hecke_poly of the dictionary."
    return EulerFactor(UPoly.from_roots(s.spin_roots()))


def std5_factor(s):
    """(1-a1 T)(1-a2 T)(1-T)(1-a1^-1 T)(1-a2^-1 T): degree 5, independent of
    alpha0, palindromic, with 1 always a root."""
    a1, a2 = s.alpha1, s.alpha2
    return EulerFactor(UPoly.from_roots(
        [a1, a2, one_like(a1), a1 ** -1, a2 ** -1]))


def wedge2_params(s):
    """The six pairwise products r_i r_j (i < j) of the spin roots: equal to
    eps * {alpha1, alpha2, 1, 1, alpha2^-1, alpha1^-1} as a multiset."""
    r = s.spin_roots()
    return tuple(r[i] * r[j] for i, j in itertools.combinations(range(4), 2))


def lambda_p2(h, c_p):
    "lambda(p^2) = lambda(p)^2 - eps p^-1 - eps (c(p) + 1)."
    one = one_like(h.eps)
    return h.a1 * h.a1 - h.eps * Fraction(1, h.p) - h.eps * (c_p + one)


class LatticeRing(_Record):
    """One of the three integer lattices Z, Z[i], Z[omega] (omega a primitive
    cube root of unity), with exact membership tests and bounded enumeration
    by the sup of squared absolute values over all complex embeddings."""

    __slots__ = ("tag",)
    _TAGS = ("Z", "Zi", "Zw")

    def __init__(self, tag):
        if tag not in self._TAGS:
            raise ValueError("unknown lattice ring %r (want Z, Zi or Zw)" % (tag,))
        object.__setattr__(self, "tag", tag)

    def __repr__(self):
        return "LatticeRing(%r)" % (self.tag,)

    # -- membership ---------------------------------------------------------

    def contains(self, x):
        """Exact ring membership (Z[omega] also takes a + b omega as the pair
        (a, b), as elements_up_to lists it).  Raises ValueError when x does
        not even lie in the fraction field of the lattice."""
        if isinstance(x, (int, Fraction)):
            return Fraction(x).denominator == 1
        if (self.tag == "Zw" and isinstance(x, tuple) and len(x) == 2
                and all(isinstance(t, (int, Fraction)) for t in x)):
            return all(Fraction(t).denominator == 1 for t in x)
        if isinstance(x, GaussianRational):
            if x.im and self.tag != "Zi":
                raise ValueError("%s does not lie in the fraction field of %s"
                                 % (x, self.tag))
            return x.den == 1  # both parts are integers exactly then
        if isinstance(x, Cyclotomic):
            return self._contains_cyclotomic(x)
        raise ValueError("cannot test %r against %s" % (x, self.tag))

    def _contains_cyclotomic(self, x):
        if not any(x.num[1:]):
            return x.den == 1
        if self.tag == "Z":
            raise ValueError("non-rational cyclotomic value against Z")
        gen_order = 4 if self.tag == "Zi" else 3
        if x.order % gen_order:
            raise ValueError("value lies outside the fraction field of %s"
                             % (self.tag,))
        gen = Cyclotomic.root_of_unity(x.order, x.order // gen_order)
        # solve x = a + b*gen on the power basis
        j = next(k for k, c in enumerate(gen.coeffs) if k and c)
        b = x.coeffs[j] / gen.coeffs[j]
        rest = x - gen * b
        if any(rest.num[1:]):
            raise ValueError("value lies outside the fraction field of %s"
                             % (self.tag,))
        return rest.den == 1 and b.denominator == 1

    # -- enumeration --------------------------------------------------------

    def elements_up_to(self, c):
        "All lattice points whose every embedding has squared modulus <= c."
        c = Fraction(c)
        if c < 0:
            raise ValueError("need c >= 0")
        if self.tag == "Z":
            bound = isqrt(int(c))
            return frozenset(range(-bound, bound + 1))
        if self.tag == "Zi":
            bound = isqrt(int(c))
            return frozenset(
                GaussianRational(a, b)
                for a in range(-bound, bound + 1)
                for b in range(-bound, bound + 1)
                if a * a + b * b <= c
            )
        # Z[omega]: a + b*omega with |a + b*omega|^2 = a^2 - ab + b^2
        bound = isqrt(int(2 * c)) + 1
        return frozenset(
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            if a * a - a * b + b * b <= c
        )


def check_int(h, c_p, ring):
    """The integrality test: lambda(p) and lambda(p)^2 - lambda(p^2) - eps/p
    (= eps (c(p)+1)) must both be ring elements."""
    one = one_like(h.eps)
    return ring.contains(h.a1) and ring.contains(h.eps * (c_p + one))


def enumerate_Y(c, ring):
    "Y(c): lattice points with every embedding of squared modulus <= c."
    return ring.elements_up_to(c)


def _power_rows(order):
    """x^e reduced mod Phi_order for e = 0 .. order-1, as integer rows on the
    power basis 1, x, ..., x^(d-1)."""
    phi = cyclotomic_polynomial(order)
    rows = [(1,) + (0,) * (len(phi) - 2)]
    while len(rows) < order:
        # x * row, with x^d = -(phi_0 + ... + phi_(d-1) x^(d-1))
        row = rows[-1]
        rows.append(tuple(a - row[-1] * c
                          for a, c in zip((0,) + row[:-1], phi)))
    return rows


def rou_charpolys(A, symplectic_only=False):
    """All degree-4 factors prod (1 - z_i T) whose roots are roots of unity of
    order < A, with exact cyclotomic coefficients.

    With z_i = zeta^(e_i), zeta a primitive L-th root, L = lcm(1..A-1), the
    coefficient of T^k is (-1)^k e_k(z), a sum of powers zeta^(sum of a
    k-subset of the e_i): the column sum of the integer rows x^s mod Phi_L
    over those exponent sums s, built into a Cyclotomic value once per sign
    and sorted tuple of sums mod L.

    With symplectic_only, keep only root multisets admitting a pairing
    {r, nu/r} x {r', nu/r'} (the similitude constraint on eigenvalues), i.e.
    e0 + e1, e0 + e2 or e0 + e3 congruent to the other two mod L.
    """
    if A < 1:
        raise ValueError("need A >= 1")
    if A == 1:
        return frozenset()
    order = lcm_upto(A - 1)
    exps = sorted({(order // n) * k for n in range(1, A) for k in range(n)
                   if gcd(k, n) == 1})
    rows = _power_rows(order)
    value = functools.cache(lambda sign, sums: Cyclotomic._make(
        order, [sign * c for c in map(sum, zip(*[rows[s] for s in sums]))], 1))
    factors = set()
    for quad in itertools.combinations_with_replacement(exps, 4):
        a, b, c, d = quad
        if symplectic_only and (a + b - c - d) % order and (
                a + c - b - d) % order and (a + d - b - c) % order:
            continue
        factors.add(EulerFactor(UPoly([value((-1) ** k, tuple(sorted(
            sum(sub) % order for sub in itertools.combinations(quad, k))))
            for k in range(5)])))
    return frozenset(factors)


def density_ratio(eigdata, s):
    """(sum over (p, lambda(p)) of |lambda(p)|^2 / p^s) / log(1/(s-1)).

    A floating diagnostic for the Rankin-Selberg cuspidality bound; a genuine
    cuspidal eigenvalue list keeps the ratio bounded as s -> 1+.
    """
    if not s > 1:
        raise ValueError("need s > 1")
    total = 0.0
    for p, lam in eigdata:
        if isinstance(lam, GaussianRational):
            sq = float(lam.norm())
        elif isinstance(lam, (int, Fraction)):
            sq = float(lam) ** 2
        else:
            sq = abs(lam) ** 2
        total += sq / float(p) ** s
    if not eigdata:
        return 0.0
    return total / math.log(1.0 / (s - 1.0))


def endoscopic_spin_factor(f1, f2):
    """The endoscopic degree-4 spin factor: the product of two degree-2 GL2
    factors sharing a central character (their T^2 coefficients agree)."""
    for f in (f1, f2):
        if not isinstance(f, EulerFactor) or f.degree != 2:
            raise ValueError("need two degree-2 Euler factors")
    eps = f1.coeff(2)
    if eps != f2.coeff(2):
        raise ValueError("central characters differ: %r vs %r"
                         % (f1.coeff(2), f2.coeff(2)))
    out = f1 * f2
    assert out.coeff(3) == eps * out.coeff(1)
    assert out.coeff(4) == eps * eps
    return out


def read_eigen_csv(lines):
    """Parse a (p, lambda_p, lambda_p2, eps) eigenvalue table.

    Accepts an iterable of CSV lines with header p,lambda_p,lambda_p2,eps;
    entries are exact rationals or Gaussians in the a/b+c/d*i notation.
    """
    import csv  # only here: a hecke, ylattice or gallery run loads no csv

    rows = list(csv.DictReader(lines))
    out = []
    for row in rows:
        out.append((
            int(row["p"]),
            parse_gaussian(row["lambda_p"]),
            parse_gaussian(row["lambda_p2"]),
            parse_gaussian(row["eps"]),
        ))
    return out
