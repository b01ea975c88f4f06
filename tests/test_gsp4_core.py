import random
from fractions import Fraction as F

import pytest

from sympkit import _mat
from sympkit._base import PrimeFieldElem
from sympkit.exact_arith import GaussianRational, UPoly
from sympkit.gsp4_core import (
    CharacterData,
    GSpElement,
    NotSimilitude,
    SiegelPoint,
    WeylWord,
    casimir_pair,
    char_poly,
    chi_act,
    infinity_type_solve,
    is_in_levi,
    lambda_rep,
    moebius,
    oddness_normalize,
    similitude_generator,
    similitude_of,
    standard_generators,
    torus,
    try_similitude,
    unipotent_alpha,
    unipotent_beta,
    weyl_act,
    weyl_orbit_and_stabilizer,
    weyl_s1,
    weyl_s2,
    weyl_words,
)

J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def random_similitude(rng, domain_one, extra=None):
    "A pseudorandom word in the standard generators, as a raw matrix."
    gens = standard_generators(domain_one + domain_one) + [
        similitude_generator(domain_one + domain_one)
    ]
    if extra:
        gens += extra
    m = _mat.identity(4, domain_one)
    for _ in range(rng.randint(3, 10)):
        m = _mat.mat_mul(m, rng.choice(gens))
    return m


def test_similitude_pinned():
    assert similitude_of(J) == 1
    assert similitude_of(_mat.diag(F(1), F(1), F(7), F(7))) == 7
    with pytest.raises(NotSimilitude):
        similitude_of(_mat.diag(F(1), F(2), F(3), F(4)))
    assert try_similitude(_mat.diag(F(1), F(2), F(3), F(4))) is None
    assert try_similitude(J) == 1


def _gram_oracle(m):
    "nu with t(m) J m = nu J, all 16 entries compared, or None: the reference."
    gram = _mat.mat_mul(_mat.transpose(m), _mat.mat_mul(J, m))
    nu = gram[0][2]
    return nu if nu and _mat.mat_eq(gram, _mat.scalar_mul(nu, J)) else None


def test_try_similitude_matches_the_full_gram():
    # try_similitude reads t(m) J m = nu J on the six column pairs i < j;
    # the full product decides the same, with the same nu, over each domain
    rng = random.Random(11)
    partner = {0: 2, 1: 3, 2: 0, 3: 1}  # <c_i, c_partner> = +-nu
    draws = [
        (F(1), lambda: F(rng.randint(-3, 3), rng.randint(1, 3))),
        (GaussianRational(1),
         lambda: GaussianRational(F(rng.randint(-3, 3), rng.randint(1, 2)),
                                  rng.randint(-2, 2))),
        (PrimeFieldElem(7, 1), lambda: PrimeFieldElem(7, rng.randrange(7))),
    ]
    for one, draw in draws:
        sims = [random_similitude(rng, one) for _ in range(10)]
        broken = []
        for m in sims:
            # c_j + c_partner(i) changes <c_i, c_j> and no other pair i < j
            for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
                broken.append(tuple(
                    tuple(x + row[partner[i]] if k == j else x
                          for k, x in enumerate(row)) for row in m))
        # columns in the Lagrangian span(e1, e2) have every pairing 0
        null = [tuple(tuple(draw() if r < 2 else one - one for _ in range(4))
                      for r in range(4)) for _ in range(10)]
        drawn = [tuple(tuple(draw() for _ in range(4)) for _ in range(4))
                 for _ in range(40)]
        for kind, mats in (("similitude", sims), ("one pair broken", broken),
                           ("nu = 0", null), ("drawn", drawn)):
            for m in mats:
                got, want = try_similitude(m), _gram_oracle(m)
                assert (got is None) == (want is None) and got == want, (
                    kind, m)
                if kind != "drawn":
                    assert (got is not None) == (kind == "similitude"), (
                        kind, m)


def test_similitude_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        a = random_similitude(rng, F(1))
        b = random_similitude(rng, F(1))
        assert similitude_of(_mat.mat_mul(a, b)) == similitude_of(a) * similitude_of(b)
    for _ in range(20):
        a = random_similitude(rng, PrimeFieldElem(7, 1))
        b = random_similitude(rng, PrimeFieldElem(7, 1))
        assert similitude_of(_mat.mat_mul(a, b)) == similitude_of(a) * similitude_of(b)


def test_gsp_element():
    g = GSpElement(J)
    assert g.nu == 1
    assert (g * g).mat == _mat.diag(-1, -1, -1, -1)
    assert g ** 4 == _mat.identity(4, F(1))
    assert g.inverse() * g == _mat.identity(4, F(1))
    assert (g ** -3) == g.inverse() ** 3
    h = GSpElement(_mat.diag(F(1), F(1), F(3), F(3)))
    assert (g * h).nu == 3
    with pytest.raises(NotSimilitude):
        GSpElement(_mat.diag(F(1), F(2), F(3), F(4)))
    with pytest.raises(AttributeError):
        g.nu = 5
    assert hash(GSpElement(J)) == hash(g)


def test_char_poly_pinned():
    assert char_poly(_mat.identity(4, F(1))) == UPoly([1, -4, 6, -4, 1])
    assert char_poly(_mat.diag(F(1), F(-1), F(-1), F(1))) == UPoly([1, 0, -2, 0, 1])
    t = torus(F(2), F(3), F(30))
    assert char_poly(t) == UPoly.from_roots([F(2), F(3), F(15), F(10)])
    assert char_poly(GSpElement(J)) == UPoly([1, 0, 2, 0, 1])


def test_char_poly_palindrome():
    rng = random.Random(4)
    for one in (F(1), PrimeFieldElem(5, 1)):
        for _ in range(15):
            g = random_similitude(rng, one)
            nu = similitude_of(g)
            cp = char_poly(g)
            assert cp.coeff(0) == one
            assert cp.coeff(3) == nu * cp.coeff(1)
            assert cp.coeff(4) == nu * nu


def test_is_in_levi_pinned():
    t = torus(F(2), F(3), F(30))
    for which in ("B", "P", "Q", "Hen"):
        assert is_in_levi(t, which)
    assert is_in_levi(_mat.diag(F(1), F(-1), F(-1), F(1)), "Hen")
    assert not is_in_levi(weyl_s2(), "P")
    assert is_in_levi(weyl_s1(), "P")
    # s2 sits inside the Klingen Levi (it is the Weyl element of its SL2 factor)
    assert is_in_levi(weyl_s2(), "Q")
    assert not is_in_levi(weyl_s1(), "Q")
    assert not is_in_levi(weyl_s1(), "B")
    with pytest.raises(ValueError):
        is_in_levi(t, "X")


def test_levi_membership_is_block_exact():
    # a Siegel-Levi element with a genuine GL2 block
    a = ((F(1), F(2)), (F(3), F(7)))
    nu = F(5)
    d = _mat.scalar_mul(nu, _mat.transpose(_mat.mat_inv(a)))
    g = _mat.block2(a, ((F(0),) * 2,) * 2, ((F(0),) * 2,) * 2, d)
    assert similitude_of(g) == 5
    assert is_in_levi(g, "P")
    assert not is_in_levi(g, "B")
    assert not is_in_levi(g, "Hen")
    # perturb one off-block entry: no longer in M_P
    rows = [list(r) for r in g]
    rows[0][2] = F(1)
    assert try_similitude(rows) is None or not is_in_levi(rows, "P")


def test_weyl_words_canonical():
    ws = weyl_words()
    assert [w.word for w in ws] == [
        (), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2), (1, 2, 1, 2)]
    mats = {w.matrix() for w in ws}
    assert len(mats) == 8
    # weyl_words keys each word by its image of (2, 3, 7): all 8 differ
    assert len({weyl_act(w, (F(2), F(3), F(7))) for w in ws}) == 8
    for w in ws:
        assert similitude_of(w.matrix()) == 1
    assert str(ws[0]) == "1" and str(ws[5]) == "s1s2s1"


def test_weyl_act_pinned():
    a, b, c = F(2), F(3), F(30)
    assert weyl_act((1,), (a, b, c)) == (b, a, c)
    assert weyl_act((2,), (a, b, c)) == (a, c / b, c)
    assert weyl_act((1, 1), (a, b, c)) == (a, b, c)
    assert weyl_act((2, 2), (a, b, c)) == (a, b, c)
    assert weyl_act(WeylWord((1, 2)), (a, b, c)) == weyl_act((2,), (b, a, c))
    for word in ((3,), (1, 0)):
        with pytest.raises(ValueError):
            WeylWord(word)


def test_weyl_act_matches_matrix_conjugation():
    """The combinatorial action equals torus conjugation by the representative."""
    for trip in [(F(2), F(3), F(30)), (F(-1), F(5), F(7))]:
        for w in weyl_words():
            m = w.matrix()
            lhs = torus(*weyl_act(w, trip))
            rhs = _mat.mat_mul(_mat.mat_inv(m), _mat.mat_mul(torus(*trip), m))
            assert _mat.mat_eq(lhs, rhs)


def test_weyl_action_on_prime_field():
    one = PrimeFieldElem(11, 1)
    trip = (one * 2, one * 6, one * 7)
    for w in weyl_words():
        m = w.matrix(one)
        lhs = torus(*weyl_act(w, trip))
        rhs = _mat.mat_mul(_mat.mat_inv(m), _mat.mat_mul(torus(*trip), m))
        assert _mat.mat_eq(lhs, rhs)


def test_orbit_and_stabilizer_pinned():
    chi = CharacterData(1, -1, -1)
    orbit, stab = weyl_orbit_and_stabilizer(chi)
    assert len(orbit) == 4
    assert {(c.eps1, c.eps2, c.eps0) for c in orbit} == {
        (1, -1, 1), (-1, 1, 1), (1, -1, -1), (-1, 1, -1)}
    assert {w.word for w in stab} == {(), (1, 2, 1)}
    assert len(orbit) * len(stab) == 8
    for signs in ((2, 1, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            CharacterData(*signs)


def test_orbit_trivial_character():
    orbit, stab = weyl_orbit_and_stabilizer(CharacterData(1, 1, 1))
    assert len(orbit) == 1
    assert len(stab) == 8


def test_orbit_stabilizer_all_sign_patterns():
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e0 in (1, -1):
                orbit, stab = weyl_orbit_and_stabilizer(CharacterData(e1, e2, e0))
                assert len(orbit) * len(stab) == 8


def test_chi_act_is_dual_to_weyl_act():
    # letterwise duality: the sign of chi_act(w,chi) at t equals the sign of
    # chi at weyl_act(w,t), for sign characters evaluated on sign triples
    def ev(chi, t):
        s = 1
        for eps, x in ((chi.eps1, t[0]), (chi.eps2, t[1]), (chi.eps0, t[2])):
            if eps == -1 and x < 0:
                s = -s
        return s

    triples = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e0 in (1, -1):
                chi = CharacterData(e1, e2, e0)
                for k in ((1,), (2,)):
                    for t in triples:
                        t = tuple(F(x) for x in t)
                        assert ev(chi_act(k, chi), t) == ev(chi, weyl_act(k, t))


def test_casimir_pinned():
    assert casimir_pair(0, 0) == (F(-5, 12), 0)
    assert casimir_pair(1, 2) == (0, 4)
    assert casimir_pair(2, 1) == (0, 4)
    assert casimir_pair(F(1, 2), 3) == casimir_pair(3, F(1, 2))


def test_infinity_type_solve_pinned():
    assert infinity_type_solve(F(-5, 12), 0) == {(0, 0)}
    assert infinity_type_solve(0, 4) == {(2, 1)}
    assert infinity_type_solve(-1, 0) == set()


def test_infinity_type_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        s2 = F(rng.randint(0, 12), rng.choice((1, 2, 3)))
        s1 = s2 + F(rng.randint(0, 9), rng.choice((1, 2)))
        c1, c2 = casimir_pair(s1, s2)
        assert infinity_type_solve(c1, c2) == {(s1, s2)}


def test_oddness_pinned():
    p = oddness_normalize(_mat.diag(F(1), F(-1), F(-1), F(1)))
    assert p == _mat.identity(4, F(1))
    p = oddness_normalize(_mat.diag(F(1), F(1), F(-1), F(-1)))
    assert p == weyl_s2()


def test_oddness_random_conjugates():
    """Conjugates h g0 h^-1 over F_7, F_11, Q and Q(i) are all normalized
    back by a conjugator of similitude factor 1."""
    rng = random.Random(6)
    for one in (PrimeFieldElem(7, 1), PrimeFieldElem(11, 1), F(1),
                GaussianRational(1)):
        g0 = _mat.diag(one, one, -one, -one)
        target = _mat.diag(one, -one, -one, one)
        for _ in range(8):
            h = random_similitude(rng, one)
            g = _mat.mat_mul(h, _mat.mat_mul(g0, _mat.mat_inv(h)))
            p = oddness_normalize(g)
            assert similitude_of(p.mat) is not None
            assert p.nu == one
            conj = _mat.mat_mul(_mat.mat_inv(p.mat), _mat.mat_mul(g, p.mat))
            assert _mat.mat_eq(conj, target)


def test_oddness_rejects_bad_inputs():
    with pytest.raises(ValueError):
        oddness_normalize(_mat.identity(4, F(1)))  # nu = +1
    with pytest.raises(ValueError):
        oddness_normalize(torus(F(2), F(1), F(-1)))  # nu = -1 but not an involution


def test_lambda_rep_pinned():
    i2 = _mat.identity(2, F(1))
    assert lambda_rep(2, 1, i2) == i2
    g = _mat.diag(F(2), F(3))
    assert lambda_rep(2, 1, g) == _mat.diag(F(12), F(18))
    anyg = ((F(1), F(2)), (F(3), F(4)))
    assert lambda_rep(3, 3, anyg) == ((F(-8),),)  # det^3
    assert lambda_rep(0, 0, anyg) == ((F(1),),)
    with pytest.raises(ZeroDivisionError):
        lambda_rep(2, 1, ((F(1), F(2)), (F(2), F(4))))
    with pytest.raises(ValueError):
        lambda_rep(1, 2, i2)


def test_lambda_rep_multiplicative():
    rng = random.Random(12)
    for k1, k2 in ((2, 1), (3, 0), (4, 2), (3, 3)):
        for _ in range(10):
            while True:
                g = tuple(tuple(F(rng.randint(-4, 4)) for _ in range(2)) for _ in range(2))
                if _mat.det(g):
                    break
            while True:
                h = tuple(tuple(F(rng.randint(-4, 4)) for _ in range(2)) for _ in range(2))
                if _mat.det(h):
                    break
            lhs = lambda_rep(k1, k2, _mat.mat_mul(g, h))
            rhs = _mat.mat_mul(lambda_rep(k1, k2, g), lambda_rep(k1, k2, h))
            assert _mat.mat_eq(lhs, rhs)


def test_lambda_rep_dimension_and_dets():
    g = ((F(1), F(1)), (F(0), F(1)))
    m = lambda_rep(5, 2, g)
    assert _mat.shape(m) == (4, 4)
    assert _mat.det(m) == 1  # det(g)=1 => unipotent image


def _i2_point():
    i = GaussianRational.i()
    return SiegelPoint(((i, GaussianRational(0)), (GaussianRational(0), i)))


def test_siegel_point_validation():
    i = GaussianRational.i()
    with pytest.raises(ValueError):
        SiegelPoint(((i, GaussianRational(1)), (GaussianRational(0), i)))
    with pytest.raises(ValueError):
        SiegelPoint(((-i, GaussianRational(0)), (GaussianRational(0), i)))
    z = _i2_point()
    assert z.imag() == ((1, 0), (0, 1))


def test_moebius_pinned():
    z = _i2_point()
    i = GaussianRational.i()
    gz, jf = moebius(_mat.identity(4, F(1)), z)
    assert gz == z and _mat.mat_eq(jf, _mat.identity(2, GaussianRational(1)))
    gz, jf = moebius(J, z)
    assert gz == z
    assert _mat.mat_eq(jf, _mat.diag(-i, -i))
    # translation by a symmetric integer matrix
    s = ((F(1), F(2)), (F(2), F(5)))
    tr = _mat.block2(_mat.identity(2, F(1)), s,
                     ((F(0),) * 2,) * 2, _mat.identity(2, F(1)))
    gz, jf = moebius(tr, z)
    assert _mat.mat_eq(jf, _mat.identity(2, GaussianRational(1)))
    assert gz.Z[0][0] == GaussianRational(1, 1) and gz.Z[0][1] == GaussianRational(2)


def test_moebius_cocycle():
    rng = random.Random(13)
    z = _i2_point()
    for _ in range(10):
        g = random_similitude(rng, F(1))
        if similitude_of(g) < 0:
            g = _mat.mat_mul(g, g)
        h = random_similitude(rng, F(1))
        if similitude_of(h) < 0:
            h = _mat.mat_mul(h, h)
        hz, jh = moebius(h, z)
        _, jgh = moebius(_mat.mat_mul(g, h), z)
        _, jg = moebius(g, hz)
        assert _mat.mat_eq(jgh, _mat.mat_mul(jg, jh))


def test_moebius_rejects_bad_nu():
    z = _i2_point()
    with pytest.raises(ValueError):
        moebius(_mat.diag(F(1), F(-1), F(-1), F(1)), z)  # nu = -1


def test_standard_generators_are_similitudes():
    for one in (F(1), PrimeFieldElem(5, 1)):
        gens = standard_generators(one + one)
        assert len(gens) == 8
        for g in gens:
            assert similitude_of(g) == one
        sim = similitude_generator(one + one)
        assert similitude_of(sim) == one + one
    assert similitude_of(unipotent_alpha(F(5))) == 1
    assert similitude_of(unipotent_beta(F(5))) == 1
