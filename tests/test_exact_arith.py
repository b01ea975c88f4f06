import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest

from sympkit import _mat
from sympkit._base import (
    PrimeFieldElem,
    format_rational,
    is_odd_prime,
    is_prime,
    legendre,
    one_like,
    quadratic_nonresidue,
    solve_sum_of_squares,
)
from sympkit.exact_arith import (
    Cyclotomic,
    GaussianRational,
    UPoly,
    cyclotomic_polynomial,
    format_gaussian,
    lcm_upto,
    parse_gaussian,
    rational_sqrt,
)


def test_rational_sqrt():
    assert rational_sqrt(F(4)) == 2
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-1)) is None
    assert rational_sqrt(F(49, 121)) == F(7, 11)


def test_is_odd_prime():
    assert [n for n in range(30) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    # a prime-valued non-integer is no prime, so each guard refuses it with
    # ValueError rather than building a float field that fails later
    import numpy as np

    from sympkit.census import closed_form_census
    from sympkit.families import FamilySpec

    assert is_odd_prime(np.int64(13)) and not is_odd_prime(np.int16(9))
    for n in (3.0, 7.5, F(7)):
        assert not is_odd_prime(n), n
        for build in (lambda: PrimeFieldElem(n, 2),
                      lambda: FamilySpec("LeviB", n),
                      lambda: closed_form_census(n, "gsp4")):
            with pytest.raises(ValueError, match="odd prime"):
                build()


def test_is_prime_is_the_one_predicate():
    # 2 or an odd prime; the guards of P^1 and of the Hecke data read it, so
    # a prime-valued float is refused there with ValueError too
    import numpy as np

    from sympkit.census import enumerate_P1_reps
    from sympkit.hecke_l import HeckeData, SatakeParams, satake_to_hecke

    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17,
                                                     19, 23, 29]
    assert all(is_prime(n) == (n == 2 or is_odd_prime(n))
               for n in range(-5, 200))
    assert is_prime(np.int64(2)) and not is_prime(True)
    for n in (2.0, 3.0, F(2)):
        assert not is_prime(n), n
    for build in (lambda: enumerate_P1_reps(2.0, 1),
                  lambda: HeckeData(1, 1, 1, 2.0),
                  lambda: satake_to_hecke(SatakeParams(1, 1, 1), 2.0)):
        with pytest.raises(ValueError, match="p must be prime"):
            build()
    assert len(enumerate_P1_reps(np.int64(2), 1)) == 3


def test_prime_field_keeps_an_int_modulus():
    # a numpy modulus is stored as an int: three-argument pow, which the
    # inverse calls, refuses a numpy one
    import pickle

    import numpy as np

    a = PrimeFieldElem(np.int64(7), 3)
    assert type(a.mod) is int and a.inverse() == PrimeFieldElem(7, 5)
    assert a == PrimeFieldElem(7, 3) and hash(a) == hash(PrimeFieldElem(7, 3))
    assert pickle.loads(pickle.dumps(a)) == a


def test_gaussian_basics():
    i = GaussianRational.i()
    assert i * i == -1
    z = GaussianRational(F(1, 2), F(-3, 4))
    assert z + z.conjugate() == 1
    assert z * z.inverse() == 1
    assert z ** 0 == 1
    assert z ** -2 == (z * z).inverse()
    assert bool(GaussianRational(0)) is False
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


def test_gaussian_from_gaussian_takes_no_second_part():
    z = GaussianRational(F(1, 2), 3)
    assert GaussianRational(z) == z
    assert GaussianRational(z, 0) == z
    with pytest.raises(ValueError):
        GaussianRational(GaussianRational(1), 5)


@pytest.mark.parametrize("q", [1, F(1, 2), F(-7, 3), 0])
def test_gaussian_hash_agrees_with_equality(q):
    # a real Gaussian equals its rational part, so it must hash like it
    z = GaussianRational(q)
    assert z == q and hash(z) == hash(q) == hash(F(q))
    assert len({z, q}) == 1 and len({z, F(q)}) == 1
    w = GaussianRational(q, F(2, 4))
    assert hash(w) == hash(GaussianRational(F(q), F(1, 2))) and w != q
    c = Cyclotomic(5, [q])
    assert c == q and hash(c) == hash(q) == hash(F(q))
    assert len({c, q}) == 1 and len({c, F(q)}) == 1
    # the hash is cached on first call: later calls, and a fresh equal value
    # from another route, give the same number
    x = _z5()
    assert hash(c) == hash(c) == hash(x * q / x) == hash(q)
    v = Cyclotomic(5, [q, 1])
    assert hash(v) == hash(v) == hash(v + 0) == hash((5, v.den, v.num))


def test_gaussian_field_axioms_random():
    rng = random.Random(7)

    def rand():
        return GaussianRational(
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            F(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(50):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if a:
            assert a * a.inverse() == 1
        # the componentwise Fraction formulas of Q(i)
        p, t = a * b, a + b
        assert (p.re, p.im) == (a.re * b.re - a.im * b.im,
                                a.re * b.im + a.im * b.re)
        assert (t.re, t.im) == (a.re + b.re, a.im + b.im)
        if a:
            n, inv = a.re * a.re + a.im * a.im, a.inverse()
            assert (inv.re, inv.im) == (a.re / n, -a.im / n)
            assert type(b / a) is GaussianRational
        for x in (t, p, a ** 3, a.conjugate(), a.one(), 1 - a):
            assert type(x) is GaussianRational


def test_gaussian_norm_and_conjugation():
    rng = random.Random(8)
    for _ in range(30):
        a = GaussianRational(rng.randint(-6, 6), rng.randint(-6, 6))
        b = GaussianRational(rng.randint(-6, 6), rng.randint(-6, 6))
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-19, 8)) == "-19/8"


def test_format_parse_gaussian():
    assert format_gaussian(GaussianRational(F(1, 2), F(3, 4))) == "1/2+3/4*i"
    assert format_gaussian(GaussianRational(F(1, 2), F(-3, 4))) == "1/2-3/4*i"
    assert format_gaussian(GaussianRational(0, 1)) == "1*i"
    assert format_gaussian(GaussianRational(0, -1)) == "-1*i"
    assert format_gaussian(GaussianRational(F(5))) == "5"
    assert parse_gaussian("1/2-3/4*i") == GaussianRational(F(1, 2), F(-3, 4))
    assert parse_gaussian("-7/3") == GaussianRational(F(-7, 3))
    assert parse_gaussian("i") == GaussianRational.i()
    assert parse_gaussian("-i") == -GaussianRational.i()
    rng = random.Random(9)
    for _ in range(40):
        z = GaussianRational(
            F(rng.randint(-20, 20), rng.randint(1, 12)),
            F(rng.randint(-20, 20), rng.randint(1, 12)),
        )
        assert parse_gaussian(format_gaussian(z)) == z


def test_prime_field_basics():
    a = PrimeFieldElem(7, 3)
    b = PrimeFieldElem(7, 5)
    assert (a + b).val == 1
    assert (a * b).val == 1
    assert (a - b).val == 5
    assert (a / b).val == (3 * pow(5, -1, 7)) % 7
    assert (-a).val == 4
    assert a ** 6 == a.one()
    # an element equals only an element of the same field, so that equal
    # values hash alike; arithmetic with an int coerces it
    assert a == PrimeFieldElem(7, 10) and a + 7 == a
    assert a != 3 and 3 != a and a != PrimeFieldElem(5, 3)
    # every nonzero element is invertible
    for v in range(1, 7):
        x = PrimeFieldElem(7, v)
        assert x * x.inverse() == x.one()
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElem(7, 0).inverse()


def test_prime_field_rejects_bad_moduli():
    for bad in (2, 4, 9, 1, 0, -3):
        with pytest.raises(ValueError):
            PrimeFieldElem(bad, 1)


def test_prime_field_mixed_moduli_error():
    with pytest.raises(ValueError):
        PrimeFieldElem(5, 1) + PrimeFieldElem(7, 1)


def test_quadratic_nonresidue_pinned():
    assert quadratic_nonresidue(3).val == 2
    assert quadratic_nonresidue(5).val == 2
    assert quadratic_nonresidue(7).val == 3
    for ell in (3, 5, 7, 11, 13):
        u = quadratic_nonresidue(ell)
        assert all((x * x) % ell != u.val for x in range(ell))


def test_legendre_table_at_every_odd_prime_below_100():
    for ell in filter(is_odd_prime, range(100)):
        chi, root = legendre(ell)
        assert len(chi) == len(root) == ell and chi[0] == 0
        for x in range(ell):
            for y in range(ell):
                assert chi[x * y % ell] == chi[x] * chi[y], (ell, x, y)
        assert chi[ell - 1] == (-1) ** ((ell - 1) // 2)
        assert chi.count(-1) == (ell - 1) // 2
        squares = {r * r % ell for r in range(ell)}
        for x in range(ell):
            assert (chi[x] >= 0) == (x in squares), (ell, x)
            if x in squares:
                assert root[x] ** 2 % ell == x, (ell, x)
        assert quadratic_nonresidue(ell).val == chi.index(-1)


def test_solve_sum_of_squares_pinned():
    for ell, pair in ((3, (1, 1)), (5, (1, 1)), (7, (1, 3))):
        a, b = solve_sum_of_squares(quadratic_nonresidue(ell))
        assert (a.val, b.val) == pair
    for ell in (3, 5, 7, 11, 13):
        a, b = solve_sum_of_squares(quadratic_nonresidue(ell))
        assert a and b
        assert a * a + b * b == quadratic_nonresidue(ell)


def test_upoly_basics():
    p = UPoly([1, 0, -2, 0, 1])
    assert p.degree == 4
    assert p.coeff(2) == -2
    assert p.coeff(9) == 0
    assert p(F(1)) == 0
    assert p(F(2)) == 9
    z = UPoly([])
    assert z.degree == -1 and not z
    assert UPoly([1, 0, 0]).degree == 0  # trailing zeros stripped
    with pytest.raises(TypeError):  # a polynomial adds only a polynomial
        UPoly([1]) + 1


def test_upoly_ring_properties():
    rng = random.Random(10)
    for _ in range(25):
        a = UPoly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))])
        b = UPoly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))])
        x = F(rng.randint(-4, 4))
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)
        if a and b:
            assert (a * b).degree == a.degree + b.degree


def test_upoly_from_roots():
    p = UPoly.from_roots([F(2), F(3)])
    assert p == UPoly([1, -5, 6])
    assert p(F(1, 2)) == 0
    assert UPoly.from_roots([]) == UPoly([1])


def test_upoly_domain_promotion():
    p = UPoly([1, GaussianRational.i()])
    assert all(isinstance(c, GaussianRational) for c in p.coeffs)
    q = UPoly([1, F(1, 2)])
    assert all(isinstance(c, F) for c in q.coeffs)
    r = UPoly([PrimeFieldElem(5, 1), PrimeFieldElem(5, 3)])
    assert all(isinstance(c, PrimeFieldElem) for c in r.coeffs)


def test_one_like():
    assert one_like(F(7)) == F(1)
    assert one_like(3) == F(1)
    assert one_like(GaussianRational(0)) == GaussianRational(1)
    assert one_like(PrimeFieldElem(5, 0)) == PrimeFieldElem(5, 1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    phi = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 10: 4, 12: 4}
    for n, d in phi.items():
        assert len(cyclotomic_polynomial(n)) - 1 == d
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_ring():
    # GaussianRational is order 4 of the kernel, a domain of its own type
    for cls, order in ((Cyclotomic, 4), (Cyclotomic, 5), (Cyclotomic, 12),
                       (GaussianRational, 4)):
        z = cls.root_of_unity(order, 1)
        powers = [z ** k for k in range(order)]
        assert type(z) is cls and z ** order == z.one()
        assert all(p != z.one() for p in powers[1:])
        assert len(set(powers)) == order
        assert powers == [cls.root_of_unity(order, k) for k in range(order)]
        total = powers[0]
        for p in powers[1:]:
            total = total + p
        assert total == 0  # sum of all order-th roots
    assert GaussianRational.root_of_unity(4, -1) == -GaussianRational.i()
    with pytest.raises(ValueError):
        GaussianRational.root_of_unity(8, 1)
    w = Cyclotomic.root_of_unity(12, 7)
    assert w == Cyclotomic.root_of_unity(12, 1) ** 7
    with pytest.raises(ValueError):
        Cyclotomic.root_of_unity(12, 1) + Cyclotomic.root_of_unity(8, 1)


def _z5():
    return Cyclotomic.root_of_unity(5, 1)


# pairs of equal values reached by different routes
CYCLOTOMIC_ROUTES = [
    (lambda: Cyclotomic(5, [F(1, 2), F(1, 2)]),
     lambda: Cyclotomic(5, [1, 1]) / 2),
    (lambda: (_z5() * 6) / 4, lambda: Cyclotomic(5, [0, F(3, 2)])),
    (lambda: Cyclotomic(5, [F(4), F(-6, 3), F(0, 5)]),
     lambda: Cyclotomic(5, [4, -2])),
    (lambda: Cyclotomic(5, [0, 0, 0, 0, F(1, 3)]),
     lambda: -(1 + _z5() + _z5() ** 2 + _z5() ** 3) / 3),
    (lambda: _z5() / 6 + _z5() / 3, lambda: _z5() * F(1, 2)),
    (lambda: _z5() - _z5(), lambda: Cyclotomic(5, [F(0, 7)])),
]


@pytest.mark.parametrize("make_a, make_b", CYCLOTOMIC_ROUTES, ids=[
    "halves", "scaled-root", "fraction-row", "reduced-power", "mixed-dens",
    "zero"])
def test_cyclotomic_rows_are_canonical(make_a, make_b):
    a, b = make_a(), make_b()
    assert a == b
    assert (a.num, a.den) == (b.num, b.den) and hash(a) == hash(b)
    for x in (a, b):
        assert all(type(n) is int for n in x.num) and len(x.num) == 4
        assert type(x.den) is int and x.den > 0
        assert math.gcd(x.den, *x.num) == 1


def test_cyclotomic_coeffs_are_cached_fractions():
    x = Cyclotomic(12, [F(-1, 6), 2, 0, F(3, 4)])
    assert (x.num, x.den) == ((-2, 24, 0, 9), 12)
    c = x.coeffs
    assert c is x.coeffs and type(c) is tuple
    assert all(type(q) is F for q in c)
    assert c == (F(-1, 6), F(2), F(0), F(3, 4))
    assert repr(x) == ("Cyclotomic(12, [Fraction(-1, 6), Fraction(2, 1), "
                       "Fraction(0, 1), Fraction(3, 4)])")
    assert Cyclotomic(12, [0]).den == 1 and not Cyclotomic(12, [0]).num[0]


# one nonzero element of each field domain; Cyclotomic(4) shares Q(i)'s
# kernel but is a domain apart from GaussianRational
FIELD_ELEMENTS = [GaussianRational(F(1, 2), F(-3, 4)), PrimeFieldElem(7, 3),
                  Cyclotomic(5, [1, 2, 0, F(1, 3)]), Cyclotomic(4, [0, 1])]
FIELD_IDS = ["GaussianRational", "PrimeFieldElem", "Cyclotomic", "Cyclotomic4"]


@pytest.mark.parametrize("z", FIELD_ELEMENTS, ids=FIELD_IDS)
def test_field_derived_operators(z):
    assert 1 - z == -(z - 1)
    assert 1 / z == z.inverse()
    assert z / z == z.one()
    assert z ** -3 == z.inverse() ** 3
    assert z ** 5 == z * z * z * z * z
    assert z ** 0 == z.one()
    # the Gauss-Jordan elimination behind Cyclotomic.inverse and mat_inv
    with pytest.raises(ZeroDivisionError):
        (z - z).inverse()
    with pytest.raises(ZeroDivisionError):
        _mat.mat_inv(((z, 2 * z), (3 * z, 6 * z)))
    m = ((z - z, z.one()), (z, z.one()))  # det -z; the pivot needs a swap
    assert _mat.mat_mul(_mat.mat_inv(m), m) == _mat.identity(2, z.one())
    assert _mat.mat_pow(m, 3) == _mat.mat_mul(m, _mat.mat_mul(m, m))
    with pytest.raises(ValueError):  # no inverse power: -1 >> 1 == -1
        _mat.mat_pow(m, -1)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_mixed_field_domains_raise_type_error(op):
    # both operand orders; a reflected operator that called back into the
    # other operand's forward one would recurse instead
    for a, b in itertools.permutations(FIELD_ELEMENTS, 2):
        # two orders of one domain are mixed orders, not mixed domains
        with pytest.raises(ValueError if type(a) is type(b) else TypeError):
            op(a, b)


def test_lcm_upto():
    assert lcm_upto(1) == 1
    assert lcm_upto(4) == 12
    assert lcm_upto(10) == 2520
