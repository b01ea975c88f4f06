"""The F_ell core and the value-type bases of the package.

Primality, the prime fields F_l for odd l (PrimeFieldElem and the two
searches over it), and the bases every value type derives from: _Frozen
(fields set once), _Record (one slot-wise equality and hash) and _Field
(the operators a field derives from its own).  The F_ell subcommands load
this module and not exact_arith, whose characteristic-0 domains they never
use.
"""

import operator
from fractions import Fraction


def is_prime(n):
    "Whether n is a prime; a non-integer (2.0, Fraction(7)) is not."
    try:
        n = operator.index(n)  # ints, bools and numpy integers
    except TypeError:
        return False
    if n < 3 or n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_odd_prime(n):
    "Whether n is an odd prime (is_prime); a non-integer (3.0) is not."
    return is_prime(n) and n != 2


def _require_odd_prime(ell):
    if not is_odd_prime(ell):
        raise ValueError("modulus must be an odd prime, got %r" % (ell,))


def _restore(cls, fields):
    "A _Frozen value of class `cls` with its slots set from (name, value)."
    obj = object.__new__(cls)
    for name, value in fields:
        object.__setattr__(obj, name, value)
    return obj


class _Frozen:
    """Base of the package's value types: fields are set once, in __init__,
    through object.__setattr__; assignment and deletion are refused.  Copy
    and pickle restore the set slots the same way (__reduce__)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def __delattr__(self, name):
        raise AttributeError("immutable")

    def __reduce__(self):
        names = [n for c in type(self).__mro__ for n in getattr(c, "__slots__", ())]
        return _restore, (type(self), [(n, getattr(self, n))
                                       for n in names if hasattr(self, n)])


class _Record(_Frozen):
    """A value equal to another of its class with the same slots, hashed as
    the value of its one slot or the tuple of its slots, and shown as
    Name(slot=value, ...).  Each subclass reads its slots through one
    getter, `_key`, built when the class is."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._key(self) == self._key(other))

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class _Field(_Frozen):
    """The operators every field domain derives from its own `one`,
    `_coerce`, `-`, `*` and `inverse`."""

    __slots__ = ()

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def one_like(x):
    "Multiplicative identity of the domain x lives in."
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    return x.one()


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class PrimeFieldElem(_Field, _Record):
    """An element of F_l, l an odd prime; it equals only one of the same F_l."""

    __slots__ = ("mod", "val")

    def __init__(self, mod, val):
        _require_odd_prime(mod)
        object.__setattr__(self, "mod", operator.index(mod))  # int, for pow
        object.__setattr__(self, "val", val % self.mod)

    def _make(self, val):
        "An element of this field, whose modulus needs no second check."
        out = object.__new__(PrimeFieldElem)
        object.__setattr__(out, "mod", self.mod)
        object.__setattr__(out, "val", val % self.mod)
        return out

    def one(self):
        return self._make(1)

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElem):
            if other.mod != self.mod:
                raise ValueError("mixed moduli: %d vs %d" % (self.mod, other.mod))
            return other
        if isinstance(other, int):
            return self._make(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.val + o.val)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.val - o.val)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.val * o.val)

    __rmul__ = __mul__

    def inverse(self):
        if self.val == 0:
            raise ZeroDivisionError("inverse of 0 mod %d" % self.mod)
        return self._make(pow(self.val, -1, self.mod))

    def __neg__(self):
        return self._make(-self.val)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return self._make(pow(self.val, n, self.mod))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "PrimeFieldElem(%d, %d)" % (self.mod, self.val)


def quadratic_nonresidue(ell):
    """Smallest positive non-square mod ell (an odd prime).  Deterministic."""
    _require_odd_prime(ell)
    squares = {(x * x) % ell for x in range(ell)}
    for u in range(1, ell):
        if u not in squares:
            return PrimeFieldElem(ell, u)
    raise ValueError("no non-residue mod %d" % ell)  # unreachable for odd prime


def solve_sum_of_squares(u):
    """Lexicographically smallest (a, b), both nonzero, with a^2+b^2 = u in
    F_l, for a PrimeFieldElem u of F_l."""
    ell, u = u.mod, u.val
    for a in range(1, ell):
        for b in range(1, ell):
            if (a * a + b * b) % ell == u:
                return PrimeFieldElem(ell, a), PrimeFieldElem(ell, b)
    raise ValueError("no two-nonzero-square representation of %d mod %d" % (u, ell))
