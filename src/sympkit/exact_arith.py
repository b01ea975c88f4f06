"""Exact coefficient domains of characteristic 0.

Rationals (stdlib Fraction), the cyclotomic fields Q[x]/Phi_L, and
univariate polynomials over any of these or over F_l (_base).  The
Gaussian rationals Q(i) are order 4 of the cyclotomic kernel: a
GaussianRational is a Cyclotomic fixed at Phi_4 = x^2 + 1, so Q(i) and
Q(zeta_L) share one integer-row arithmetic.  Everything downstream is
generic over these domains; all values are immutable after construction
(every value type of the package derives from _base._Frozen).
"""

import cmath
import functools
from fractions import Fraction
from math import gcd, isqrt, lcm

from ._base import _Field, _Record, format_rational, one_like


Rational = Fraction


def rational_sqrt(q):
    """Exact square root of a non-negative Fraction, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def format_gaussian(z):
    """Serialize a GaussianRational as "a/b+c/d*i" (parts omitted when zero)."""
    z = GaussianRational(z)
    if not z.im:
        return format_rational(z.re)
    imag = format_rational(abs(z.im)) + "*i"
    sign = "-" if z.im < 0 else "+"
    if not z.re:
        return ("-" if z.im < 0 else "") + imag
    return format_rational(z.re) + sign + imag


def parse_gaussian(s):
    "Inverse of format_gaussian.  Accepts plain rationals too."
    s = s.strip().replace(" ", "")
    if "i" not in s:
        return GaussianRational(Fraction(s))
    s = s[:-1]  # strip trailing i
    if s.endswith("*"):
        s = s[:-1]
    # split off the real part, watching for a leading sign on it
    for k in range(len(s) - 1, 0, -1):
        if s[k] in "+-" and s[k - 1] not in "+-/*":
            re_part, im_part = s[:k], s[k] + s[k + 1:]
            break
    else:
        re_part, im_part = "", s
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    re = Fraction(re_part) if re_part else Fraction(0)
    return GaussianRational(re, Fraction(im_part))


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _promote(coeffs):
    "Lift a mixed int/Fraction/GaussianRational list into one common domain."
    if any(isinstance(c, GaussianRational) for c in coeffs):
        return [GaussianRational(c) for c in coeffs]
    if all(isinstance(c, (int, Fraction)) for c in coeffs):
        return [Fraction(c) for c in coeffs]
    return list(coeffs)


class UPoly(_Record):
    """Univariate polynomial, constant term first.

    Normalized so the stored leading coefficient is nonzero (the zero
    polynomial keeps an empty coefficient tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(_strip(_promote(coeffs))))

    @property
    def degree(self):
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        raise IndexError(k)

    def coeff(self, k):
        "Coefficient of T^k, with zeros beyond the degree."
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0 * self.coeffs[0] if self.coeffs else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UPoly(out)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UPoly([])
        out = [self.coeffs[0] * other.coeffs[0] * 0] * (
            len(self.coeffs) + len(other.coeffs) - 1
        )
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out)

    def __call__(self, x):
        out = None
        for c in reversed(self.coeffs):
            out = c if out is None else out * x + c
        return 0 * x if out is None else out

    @classmethod
    def from_roots(cls, roots):
        "prod (1 - r*T) over the given roots."
        roots = list(roots)
        if not roots:
            return cls([1])
        one = one_like(roots[0])
        p = cls([one])
        for r in roots:
            p = p * cls([one, -r])
        return p

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "UPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("%s*T" % (c,))
            else:
                terms.append("%s*T^%d" % (c, k))
        return "UPoly(%s)" % " + ".join(terms)


@functools.cache
def cyclotomic_polynomial(n):
    """Coefficients (constant first) of the n-th cyclotomic polynomial, exact."""
    if n < 1:
        raise ValueError(n)
    # (x^n - 1) / prod_{d | n, d < n} Phi_d, by repeated exact division
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        phi_d = cyclotomic_polynomial(d)
        num = _polydiv_exact(num, phi_d)
    return tuple(num)


def _polydiv_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0, "non-exact cyclotomic division"
        out[k] = q
        for j, c in enumerate(den):
            num[k + j] -= q * c
    assert not any(num), "non-exact cyclotomic division"
    return out


def _reduce(phi, row):
    "An integer row reduced mod the monic phi and padded to its degree."
    d = len(phi) - 1
    row = list(row)
    while len(row) > d:
        lead = row.pop()
        if lead:
            k = len(row) - d
            for j in range(d):
                row[k + j] -= lead * phi[j]
    return row + [0] * (d - len(row))


class Cyclotomic(_Field):
    """An element of Q[x]/Phi_L(x) on the power basis 1, x, ..., x^(d-1).

    Stored as `num`, a tuple of ints reduced mod Phi_L, over `den`, one
    positive common denominator, in lowest terms (gcd(den, *num) == 1), so
    arithmetic, equality and hashing run on plain ints.  The rational
    coefficients num[k] / den are read through `coeffs`, a tuple of
    Fractions built on first read and cached, as is the hash.
    """

    __slots__ = ("order", "num", "den", "_coeffs", "_hash")

    def __new__(cls, order, coeffs):
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
                  for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        return cls._make(order, [c.numerator * (den // c.denominator)
                                 for c in coeffs], den)

    @classmethod
    def _make(cls, order, num, den):
        "num / den from an integer row and a positive int, in lowest terms."
        num = _reduce(cyclotomic_polynomial(order), num)
        g = gcd(den, *num) if den != 1 else 1
        if g != 1:
            num, den = [n // g for n in num], den // g
        out = object.__new__(cls)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "num", tuple(num))
        object.__setattr__(out, "den", den)
        return out

    @property
    def coeffs(self):
        try:
            return self._coeffs
        except AttributeError:
            out = tuple(Fraction(n, self.den) for n in self.num)
            object.__setattr__(self, "_coeffs", out)
            return out

    @classmethod
    def root_of_unity(cls, order, k):
        "x^k in Z[x]/Phi_order, i.e. the exact primitive-order root to the k."
        k %= order
        return cls(order, [0] * k + [1])

    def one(self):
        return self._make(self.order, [1], 1)

    def _coerce(self, other):
        # a subclass (GaussianRational) is a domain of its own
        if type(other) is type(self):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self._make(self.order, [other.numerator], other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return self._make(
            self.order, [x * b + y * a for x, y in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if not a:
                continue
            for j, b in enumerate(o.num):
                out[i + j] += a * b
        return self._make(self.order, out, self.den * o.den)

    __rmul__ = __mul__

    def __neg__(self):
        return self._make(self.order, [-a for a in self.num], self.den)

    def inverse(self):
        """Multiplicative inverse, by solving the multiplication-by-self linear
        system over Q on the power basis."""
        from ._mat import row_reduce  # hecke and ylattice need no _mat

        d = len(self.num)
        phi = cyclotomic_polynomial(self.order)
        # column j is den * self * x^j; solving for den * e_0 gives 1 / self
        cols = [_reduce(phi, [0] * j + list(self.num)) for j in range(d)]
        red, pivots = row_reduce(
            [Fraction(cols[j][i]) for j in range(d)]
            + [Fraction(self.den if i == 0 else 0)] for i in range(d))
        if pivots[:d] != tuple(range(d)):
            raise ZeroDivisionError("zero divisor in cyclotomic ring")
        return Cyclotomic(self.order, [row[d] for row in red])

    def __bool__(self):
        return any(self.num)

    def __abs__(self):
        # float modulus under zeta_L -> exp(2 pi i / L); used only by
        # floating diagnostics
        return abs(sum(n * cmath.exp(2j * cmath.pi * k / self.order)
                       for k, n in enumerate(self.num))) / self.den

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        out = getattr(self, "_hash", None)
        if out is None:
            # a rational value equals its Fraction, so hashes as that Fraction
            n, d = self.num[0], self.den
            out = (hash((self.order, d, self.num)) if any(self.num[1:])
                   else hash(n if d == 1 else Fraction(n, d)))
            object.__setattr__(self, "_hash", out)
        return out

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.order, list(self.coeffs))


class GaussianRational(Cyclotomic):
    """a + b*i with exact rational a, b: Q(i) as Q[x]/Phi_4, with Cyclotomic's
    arithmetic, equality and hashing; `re` and `im` are the cached coeffs."""

    __slots__ = ()

    def __new__(cls, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im:
                raise ValueError("a GaussianRational takes no second part")
            return re
        return super().__new__(cls, 4, [re, im])

    @property
    def re(self):
        return self.coeffs[0]

    @property
    def im(self):
        return self.coeffs[1]

    @staticmethod
    def i():
        return GaussianRational._make(4, [0, 1], 1)

    @classmethod
    def root_of_unity(cls, order, k):
        "i^k; Q(i) is taken as the field of order 4 only."
        if order != 4:
            raise ValueError("GaussianRational roots of unity have order 4")
        return cls._make(4, [0] * (k % 4) + [1], 1)

    def conjugate(self):
        a, b = self.num
        return self._make(4, [a, -b], self.den)

    def norm(self):
        "re^2 + im^2, a Fraction.  Multiplicative."
        a, b = self.num
        return Fraction(a * a + b * b, self.den * self.den)

    def inverse(self):
        # den / (a + b*i) = (a*den - b*den*i) / (a^2 + b^2)
        a, b = self.num
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of 0")
        return self._make(4, [a * self.den, -b * self.den], n)

    def __abs__(self):
        # float modulus; used only by floating diagnostics
        return float(self.norm()) ** 0.5

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __str__(self):
        return format_gaussian(self)


def lcm_upto(n):
    return lcm(*range(1, n + 1))
