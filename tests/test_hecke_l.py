import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest

from sympkit.exact_arith import Cyclotomic, GaussianRational, UPoly
from sympkit.hecke_l import (
    EulerFactor,
    HeckeData,
    LatticeRing,
    SatakeParams,
    check_int,
    density_ratio,
    endoscopic_spin_factor,
    enumerate_Y,
    hecke_poly,
    lambda_p2,
    read_eigen_csv,
    rou_charpolys,
    satake_to_hecke,
    spin_factor,
    std5_factor,
    wedge2_params,
)


def rand_gaussian_nonzero(rng):
    while True:
        z = GaussianRational(
            F(rng.randint(-3, 3), rng.randint(1, 2)),
            F(rng.randint(-3, 3), rng.randint(1, 2)),
        )
        if z:
            return z


def test_satake_params():
    s = SatakeParams(1, 1, 1)
    assert s.eps == 1
    assert s.spin_roots() == (1, 1, 1, 1)
    assert s.c_value() == 5
    with pytest.raises(ValueError):
        SatakeParams(0, 1, 1)
    s = SatakeParams(F(1, 2), 2, -3)
    assert s.eps == F(1, 4) * 2 * -3


def test_trivial_point_dictionary():
    h = satake_to_hecke(SatakeParams(1, 1, 1), 2)
    assert (h.a1, h.a2, h.eps) == (4, F(19, 8), 1)
    assert hecke_poly(h).coeffs == (1, -4, 6, -4, 1)


def test_hecke_poly_pinned():
    h = HeckeData(4, F(19, 8), 1, 2)
    assert hecke_poly(h).coeffs == (1, -4, 6, -4, 1)
    # a1 = 0 with eps = -1 at alpha = (1, -1, 1)
    h2 = satake_to_hecke(SatakeParams(1, -1, 1), 3)
    assert h2.a1 == 0 and h2.eps == -1
    assert hecke_poly(h2).coeffs == (1, 0, -2, 0, 1)
    # pure substitution case
    h3 = HeckeData(0, 0, 1, 3)
    assert hecke_poly(h3).coeffs == (1, 0, F(10, 9), 0, 1)


def test_hecke_data_validation():
    with pytest.raises(ValueError):
        HeckeData(1, 1, 1, 4)
    with pytest.raises(ValueError):
        HeckeData(1, 1, 0, 2)


def test_spin_factor_pinned():
    assert spin_factor(SatakeParams(1, 1, 1)).coeffs == (1, -4, 6, -4, 1)
    assert spin_factor(SatakeParams(1, -1, 1)).coeffs == (1, 0, -2, 0, 1)


def test_spin_identity_random():
    """hecke_poly(satake_to_hecke(s, p)) == spin_factor(s), exactly."""
    rng = random.Random(20)
    for _ in range(100):
        s = SatakeParams(rand_gaussian_nonzero(rng), rand_gaussian_nonzero(rng),
                         rand_gaussian_nonzero(rng))
        p = rng.choice([2, 3, 5, 7])
        assert hecke_poly(satake_to_hecke(s, p)) == spin_factor(s)


def test_spin_palindrome_random():
    rng = random.Random(21)
    for _ in range(40):
        s = SatakeParams(rand_gaussian_nonzero(rng), rand_gaussian_nonzero(rng),
                         rand_gaussian_nonzero(rng))
        f = spin_factor(s)
        assert f.coeff(3) == s.eps * f.coeff(1)
        assert f.coeff(4) == s.eps * s.eps
        assert f.coeff(1) == -satake_to_hecke(s, 2).a1


def test_std5_pinned():
    assert std5_factor(SatakeParams(9, 1, 1)).poly == UPoly.from_roots([F(1)] * 5)
    f = std5_factor(SatakeParams(1, 2, 1))
    assert f.poly == UPoly.from_roots([F(2), F(1), F(1), F(1), F(1, 2)])
    assert f.coeff(1) == -SatakeParams(1, 2, 1).c_value()


def test_std5_properties():
    rng = random.Random(22)
    for _ in range(30):
        s = SatakeParams(rand_gaussian_nonzero(rng), rand_gaussian_nonzero(rng),
                         rand_gaussian_nonzero(rng))
        f = std5_factor(s)
        assert f.degree == 5
        # independent of alpha0
        assert f == std5_factor(SatakeParams(GaussianRational(7), s.alpha1, s.alpha2))
        # 1 is always a root, and the factor is antipalindromic: c_k = -c_{5-k}
        one = GaussianRational(1)
        assert f(one) == GaussianRational(0)
        for k in range(6):
            assert f.coeff(k) == -f.coeff(5 - k)
        assert f.coeff(1) == -s.c_value()


def test_wedge2_params():
    s = SatakeParams(1, 2, 1)
    w = wedge2_params(s)
    assert w == (4, 2, 2, 2, 2, 1)
    eps = s.eps
    normalized = sorted(x / eps for x in w)
    assert normalized == [F(1, 2), 1, 1, 1, 1, 2]
    rng = random.Random(23)
    for _ in range(25):
        s = SatakeParams(rand_gaussian_nonzero(rng), rand_gaussian_nonzero(rng),
                         rand_gaussian_nonzero(rng))
        w = wedge2_params(s)
        inv = s.eps.inverse()
        norm = [x * inv for x in w]
        # the eps-normalized multiset is {a1, a2, 1, 1, a2^-1, a1^-1}
        expect = [s.alpha1, s.alpha2, GaussianRational(1), GaussianRational(1),
                  s.alpha2.inverse(), s.alpha1.inverse()]
        assert sorted(map(str, norm)) == sorted(map(str, expect))
        # wedge2 product = (1 - eps T) * (eps-twisted std5 factor)
        lhs = UPoly.from_roots(w)
        rhs = UPoly.from_roots([s.eps]) * UPoly.from_roots(
            [s.eps * r for r in (s.alpha1, s.alpha2, GaussianRational(1),
                                 s.alpha1.inverse(), s.alpha2.inverse())])
        assert lhs == rhs


def test_lambda_p2_pinned():
    h = HeckeData(4, F(19, 8), 1, 2)
    assert lambda_p2(h, F(5)) == F(19, 2)  # 16 - 1/2 - 6


def test_lambda_p2_identities():
    rng = random.Random(24)
    for _ in range(50):
        s = SatakeParams(F(rng.randint(1, 5)), F(rng.randint(1, 5)),
                         F(rng.randint(1, 5)))
        p = rng.choice([2, 3, 5])
        h = satake_to_hecke(s, p)
        c = s.c_value()
        l2 = lambda_p2(h, c)
        assert h.a1 ** 2 - l2 - h.eps * F(1, p) == h.eps * (c + 1)
        # eigenvalue-side counterpart of the T^2 Hecke coefficient
        assert p * h.a2 + (1 + F(1, p * p)) * h.eps == h.eps * (c + 1)


def test_check_int():
    zring = LatticeRing("Z")
    h = HeckeData(4, F(19, 8), 1, 2)
    assert check_int(h, F(5), zring)
    assert not check_int(HeckeData(F(1, 2), 0, 1, 2), F(0), zring)
    # weight-one style cyclotomic point (1, z3, z3^2): lambda = 1, c = -1
    z3 = Cyclotomic.root_of_unity(12, 4)
    s = SatakeParams(Cyclotomic(12, [1]), z3, z3 ** 2)
    h = satake_to_hecke(s, 2)
    assert h.a1 == Cyclotomic(12, [1])
    assert s.c_value() == Cyclotomic(12, [-1])
    assert check_int(h, s.c_value(), zring)
    # Gaussian-integer point (1, i, i): lambda(p) = 2i
    si = SatakeParams(GaussianRational(1), GaussianRational.i(), GaussianRational.i())
    hi = satake_to_hecke(si, 2)
    assert hi.a1 == GaussianRational(0, 2)
    assert check_int(hi, si.c_value(), LatticeRing("Zi"))
    with pytest.raises(ValueError):
        check_int(hi, si.c_value(), zring)


def test_lattice_membership():
    zi = LatticeRing("Zi")
    assert zi.contains(GaussianRational(1, 1))
    assert not zi.contains(GaussianRational(F(1, 2), F(1, 2)))
    one12 = Cyclotomic(12, [1])
    i12 = Cyclotomic.root_of_unity(12, 3)
    assert zi.contains(one12 + i12)
    assert not zi.contains((one12 + i12) * F(1, 2))
    zw = LatticeRing("Zw")
    w12 = Cyclotomic.root_of_unity(12, 4)
    assert zw.contains(w12)
    assert zw.contains(w12 * 5 - 3)
    with pytest.raises(ValueError):
        zw.contains(i12)
    for tag in ("Z", "Zi"):  # omega lies in neither Q nor Q(i)
        with pytest.raises(ValueError):
            LatticeRing(tag).contains(Cyclotomic(3, [0, 1]))
    with pytest.raises(ValueError):
        LatticeRing("Q")


def test_every_point_of_Y_lies_in_its_ring():
    # Z[omega]'s points are the pairs (a, b) of a + b omega, and its
    # membership test takes them as such
    for tag in ("Z", "Zi", "Zw"):
        ring = LatticeRing(tag)
        for c in (0, 1, F(9, 4), 7):
            assert all(ring.contains(y) for y in enumerate_Y(c, ring)), (tag, c)
    zw = LatticeRing("Zw")
    assert zw.contains((0, 1)) and zw.contains((F(-3), 2))
    assert not zw.contains((F(1, 2), 0)) and not zw.contains((1, F(1, 3)))
    for tag, x in (("Z", (0, 1)), ("Zi", (0, 1)), ("Zw", (0, 1, 2)),
                   ("Zw", (0.5, 1))):
        with pytest.raises(ValueError):
            LatticeRing(tag).contains(x)


def test_enumerate_Y_pinned():
    zi = LatticeRing("Zi")
    y2 = enumerate_Y(2, zi)
    assert len(y2) == 9
    i = GaussianRational.i()
    assert y2 == frozenset([GaussianRational(0), GaussianRational(1),
                            GaussianRational(-1), i, -i,
                            GaussianRational(1, 1), GaussianRational(1, -1),
                            GaussianRational(-1, 1), GaussianRational(-1, -1)])
    assert len(enumerate_Y(1, zi)) == 5
    assert enumerate_Y(4, LatticeRing("Z")) == frozenset({-2, -1, 0, 1, 2})


def test_enumerate_Y_properties():
    zi = LatticeRing("Zi")
    i = GaussianRational.i()
    for c in (0, 1, 2, F(7, 2), 5):
        y = enumerate_Y(c, zi)
        assert frozenset(z * i for z in y) == y  # unit symmetry
        assert frozenset(z.conjugate() for z in y) == y
    assert enumerate_Y(1, zi) <= enumerate_Y(2, zi) <= enumerate_Y(5, zi)
    zw = LatticeRing("Zw")
    y = enumerate_Y(3, zw)
    assert len(y) == 13
    assert frozenset((-b, a - b) for a, b in y) == y  # multiplication by omega
    assert frozenset((a - b, -b) for a, b in y) == y  # conjugation
    assert enumerate_Y(1, zw) <= y
    with pytest.raises(ValueError):
        enumerate_Y(-1, zw)


def test_rou_charpolys_counts():
    with pytest.raises(ValueError, match="need A >= 1"):
        rou_charpolys(0)
    assert len(rou_charpolys(1)) == 0
    r2 = rou_charpolys(2)
    assert len(r2) == 1
    (only,) = r2
    assert [c.coeffs[0] for c in only.coeffs] == [1, -4, 6, -4, 1]
    assert len(rou_charpolys(3)) == 5
    assert len(rou_charpolys(4)) == 35  # C(4+3, 4)


def test_rou_charpolys_contains_oddness_shape():
    one = Cyclotomic.root_of_unity(2, 0)
    neg = Cyclotomic.root_of_unity(2, 1)
    target = EulerFactor(UPoly.from_roots([one, one, neg, neg]))
    assert target in rou_charpolys(3)
    assert target in rou_charpolys(3, symplectic_only=True)


def test_rou_charpolys_symplectic_filter():
    assert len(rou_charpolys(3, symplectic_only=True)) == 3
    assert len(rou_charpolys(4, symplectic_only=True)) == 14
    assert rou_charpolys(4, symplectic_only=True) <= rou_charpolys(4)


def test_rou_charpolys_equal_products_of_roots():
    # the oracle: multiply out prod (1 - z T) over the Cyclotomic roots and
    # filter pairings by products of roots, not by exponent sums
    for a in range(1, 6):
        order = math.lcm(*range(1, a))
        roots = [Cyclotomic.root_of_unity(order, order // n * k)
                 for n in range(1, a) for k in range(n) if math.gcd(k, n) == 1]
        for symplectic in (False, True):
            want = set()
            for quad in itertools.combinations_with_replacement(roots, 4):
                r0, r1, r2, r3 = quad
                if symplectic and not (r0 * r1 == r2 * r3 or r0 * r2 == r1 * r3
                                       or r0 * r3 == r1 * r2):
                    continue
                want.add(EulerFactor(UPoly.from_roots(quad)))
            assert rou_charpolys(a, symplectic_only=symplectic) == want


def test_rou_charpolys_frozen_counts():
    # distinct root multisets give distinct factors: with r roots of order
    # < A there are C(r + 3, 4); r = 10 for A = 6 and r = 12 for A = 7
    assert len(rou_charpolys(6)) == math.comb(13, 4) == 715
    assert len(rou_charpolys(6, symplectic_only=True)) == 86
    assert len(rou_charpolys(7)) == math.comb(15, 4) == 1365


def _canonical(factors, from_rows):
    """The sorted JSON coefficient vectors, each coefficient the list of its
    power-basis entries as strings (the benchmark's canonical form).  They
    are read off `Cyclotomic.coeffs`, or with from_rows off the integer row
    num over den, which writes the same strings with no Fraction built for
    an integer entry."""
    def entries(c):
        if not from_rows:
            return [str(q) for q in c.coeffs]
        return [str(n) if c.den == 1 else str(F(n, c.den)) for n in c.num]

    return sorted(json.dumps([entries(f.coeff(k))
                              for k in range(f.degree + 1)]) for f in factors)


def _digest(canon):
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


@pytest.mark.parametrize("a, symplectic, count, digest", [
    (7, False, 1365,
     "45981102e653e9ecf8998a6727c70d2af781df0b4bdbd23ef844aca4137500ae"),
    (7, True, 135,
     "d92f30e2f1f84566955c692f3e76d6bf4d6b232c58cd5b8b69b3d3cf3facb334"),
    (8, False, 5985,
     "96a02fd36dcd10aee038158a24b87a8ca0e9050463b88fb287b5c766bf1f43cb"),
    (8, True, 288,
     "a5b530783e77f75686fd5d5de75d2052fd6cfcb2a891bcfec166bc1829dfbaaf"),
])
def test_rou_charpolys_frozen_digests(a, symplectic, count, digest):
    # frozen from the numpy-summed, Fraction-row implementation; 5985 is
    # C(18 + 3, 4), with 18 roots of unity of order < 8
    # A = 8 reads the integer rows (about 2.9 million Fractions otherwise);
    # at A = 7 both readings are taken and must agree
    factors = rou_charpolys(a, symplectic_only=symplectic)
    assert len(factors) == count
    canon = _canonical(factors, from_rows=a == 8)
    assert _digest(canon) == digest
    if a == 7:
        assert _canonical(factors, from_rows=True) == canon


def test_density_ratio():
    assert density_ratio([], 1.5) == 0.0
    got = density_ratio([(2, 1)], 1.5)
    assert abs(got - (1 / 2 ** 1.5) / math.log(2)) < 1e-12
    with pytest.raises(ValueError):
        density_ratio([(2, 1)], 1.0)
    # Gaussian eigenvalues use the norm
    got = density_ratio([(2, GaussianRational(1, 1))], 1.5)
    assert abs(got - (2 / 2 ** 1.5) / math.log(2)) < 1e-12
    # a lambda(p) = 4 (one-dimensional-like) table blows through the bound
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    assert density_ratio([(p, 4) for p in primes], 1.2) > 2


def test_density_ratio_of_a_cyclotomic_eigenvalue():
    # an Artin trace is a sum of roots of unity: |1 + zeta_5|^2 is
    # 2 + 2 cos(2 pi / 5) under zeta_5 -> exp(2 pi i / 5)
    got = density_ratio([(2, Cyclotomic.root_of_unity(5, 1) + 1)], 1.5)
    want = (2 + 2 * math.cos(2 * math.pi / 5)) / 2 ** 1.5 / math.log(2)
    assert abs(got - want) < 1e-12
    # 1 + x in Q[x]/Phi_4 is 1 + i
    assert abs(density_ratio([(2, Cyclotomic(4, [1, 1]))], 1.5)
               - density_ratio([(2, GaussianRational(1, 1))], 1.5)) < 1e-12


def test_endoscopic_spin_factor():
    f1 = EulerFactor(UPoly([1, -1, 1]))
    f2 = EulerFactor(UPoly([1, 1, 1]))
    out = endoscopic_spin_factor(f1, f2)
    assert out.coeffs == (1, 0, 1, 0, 1)
    sq = EulerFactor(UPoly([F(1), F(-2), F(1)]))
    assert endoscopic_spin_factor(sq, sq).coeffs == (1, -4, 6, -4, 1)
    with pytest.raises(ValueError):
        endoscopic_spin_factor(f1, EulerFactor(UPoly([1, 1, 2])))
    with pytest.raises(ValueError):
        endoscopic_spin_factor(f1, EulerFactor(UPoly([1, -4, 6, -4, 1])))


def test_euler_factor_validation():
    with pytest.raises(ValueError):
        EulerFactor(UPoly([2, 1]))
    f = EulerFactor(UPoly([1, F(-1, 2)]))
    assert f.degree == 1
    assert f.to_json_dict() == {"degree": 1, "coeffs": ["1", "-1/2"]}
    g = EulerFactor(UPoly([GaussianRational(1), GaussianRational(0, 1)]))
    assert g.to_json_dict() == {"degree": 1, "coeffs": ["1", "1*i"]}


def test_read_eigen_csv():
    lines = ["p,lambda_p,lambda_p2,eps", "2,4,19/2,1", "3,1/2-3/4*i,0,1*i"]
    rows = read_eigen_csv(lines)
    assert rows[0] == (2, GaussianRational(4), GaussianRational(F(19, 2)),
                       GaussianRational(1))
    assert rows[1][1] == GaussianRational(F(1, 2), F(-3, 4))
    assert rows[1][3] == GaussianRational.i()
