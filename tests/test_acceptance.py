"""Acceptance gate: twelve release criteria, one test function each.

Every criterion prints a single PASS/FAIL line (written to the real stdout
so it is visible under any pytest capture mode) and collects all of its
missed sub-assertions into one failure message, so a red criterion shows
everything it missed at once.  Nothing here is weakened to force green:
a criterion whose stated expectation disagrees with the exact computation
fails, with the computed value in the message.

An expected value is either a stated target or a derived fact.  A derived
fact is one proven without the program (a closed form, a relation in the
generator table, a hand computation on the entries), and it carries its
derivation in a comment next to the assertion.
"""

import contextlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction

from sympkit import _mat, cli, finite_census
from sympkit._base import PrimeFieldElem
from sympkit.artin_gallery import (
    SYM3_P,
    gallery_generators,
    gauss_mat,
    group_closure,
    quotient_by_sign,
    sym3_swap_image,
)
from sympkit.census import (c_eta_M, enumerate_P1_reps,
                            gl2_charpoly_census)
from sympkit.exact_arith import GaussianRational
from sympkit.families import FamilySpec, build_family, family_with_base
from sympkit.finite_census import (
    charpoly_census,
    enumerate_gsp4,
    enumerate_sp4,
    gsp4_order,
    sp4_order,
)
from sympkit.gsp4_core import (
    CharacterData,
    casimir_pair,
    infinity_type_solve,
    oddness_normalize,
    similitude_generator,
    standard_generators,
    try_similitude,
    weyl_orbit_and_stabilizer,
    weyl_s2,
)
from sympkit.hecke_l import (
    LatticeRing,
    SatakeParams,
    enumerate_Y,
    hecke_poly,
    lambda_p2,
    rou_charpolys,
    satake_to_hecke,
    spin_factor,
)

from keysets import sorted_keys

_CACHE = {}

_FAMILY_NAMES = ("LeviB", "LeviP", "LeviQ", "Hen",
                "Case5", "Case6", "Case7", "Case8", "Case9")


def _sp4_3():
    if "sp4" not in _CACHE:
        _CACHE["sp4"] = enumerate_sp4(3)
    return _CACHE["sp4"]


def _gsp4_3():
    if "gsp4" not in _CACHE:
        _CACHE["gsp4"] = enumerate_gsp4(3)
    return _CACHE["gsp4"]


def _want(failures, cond, msg):
    if not cond:
        failures.append(msg)


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print("%s criterion %2d: %s" % (status, num, label), file=sys.__stdout__)
    sys.__stdout__.flush()
    assert not failures, "criterion %d (%s): %s" % (
        num, label, "; ".join(failures))


def rand_gaussian_nonzero(rng):
    while True:
        z = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
        )
        if z:
            return z


def random_similitude(rng, one):
    gens = standard_generators(one + one) + [similitude_generator(one + one)]
    m = _mat.identity(4, one)
    for _ in range(rng.randint(3, 10)):
        m = _mat.mat_mul(m, rng.choice(gens))
    return m


def test_criterion_01_group_orders():
    failures = []
    start = time.monotonic()
    sp4 = _sp4_3()
    gsp4 = _gsp4_3()
    elapsed = time.monotonic() - start
    _want(failures, sp4.order == 51840,
          "sp4 order: expected 51840, got %d" % sp4.order)
    _want(failures, gsp4.order == 103680,
          "gsp4 order: expected 103680, got %d" % gsp4.order)
    _want(failures, sp4.order == sp4_order(3) and gsp4.order == gsp4_order(3),
          "orders disagree with the closed forms l^4(l^2-1)(l^4-1)(l-1)")
    _want(failures, elapsed < 60.0,
          "runtime %.1f s exceeds the 60 s budget" % elapsed)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _want(failures, peak_kib < 1024 * 1024,
          "peak memory %d KiB exceeds 1 GiB" % peak_kib)
    _verdict(1, "group orders at ell=3 within time/memory budget", failures)


def _p_part(n, p):
    "The largest power of p dividing n."
    part = 1
    while n % p == 0:
        n, part = n // p, part * p
    return part


def test_criterion_02_unipotent_class_count():
    failures = []
    # Derived fact.  A similitude g with char poly (1-aT)^4 has every
    # eigenvalue a; eigenvalues pair as (x, nu/x), so nu = a^2 and g/a is a
    # unipotent element of Sp4(F_3).  Steinberg (Mem. AMS 80, 1968): Sp4(F_q)
    # has exactly q^(2N) unipotents, N = 4 positive roots, and q^N is the
    # p-part of |Sp4(F_q)|.  So the count is (3-part of 51840)^2 = 81^2
    # = 3^8 = 6561 for each a, taken from the closed form, not the census.
    expected = _p_part(sp4_order(3), 3) ** 2
    hist = charpoly_census(_gsp4_3())
    for a in (1, 2):
        key = tuple(x % 3 for x in (-4 * a, 6 * a * a, -4 * a ** 3, a ** 4))
        got = hist.classes.get(key, 0)
        _want(failures, got == expected,
              "count of char poly (1-%dT)^4: expected exactly %d, "
              "full enumeration gives %d" % (a, expected, got))
    _verdict(2, "scalar-unipotent characteristic class count 3^8 "
                "(Steinberg)", failures)


def test_criterion_03_gl2_class_bounds():
    failures = []
    c3 = gl2_charpoly_census(3)
    _want(failures, max(c3.values()) == 12,
          "GL2(F_3) max class: expected 12, got %d" % max(c3.values()))
    c5 = gl2_charpoly_census(5)
    _want(failures, max(c5.values()) <= 30,
          "GL2(F_5) max class: expected <= 30, got %d" % max(c5.values()))
    _verdict(3, "GL2 characteristic class bounds l^2 + l", failures)


def test_criterion_04_spin_identity():
    failures = []
    rng = random.Random(41)
    primes = (2, 3, 5, 7)
    for k in range(100):
        s = SatakeParams(rand_gaussian_nonzero(rng),
                         rand_gaussian_nonzero(rng),
                         rand_gaussian_nonzero(rng))
        p = primes[k % 4]
        if hecke_poly(satake_to_hecke(s, p)) != spin_factor(s):
            failures.append("spin identity fails at sample %d (p=%d)" % (k, p))
            break
    _verdict(4, "spin identity on 100 random Satake points", failures)


def test_criterion_05_lambda_p2_relation():
    failures = []
    rng = random.Random(42)
    primes = (2, 3, 5, 7)
    for k in range(100):
        s = SatakeParams(rand_gaussian_nonzero(rng),
                         rand_gaussian_nonzero(rng),
                         rand_gaussian_nonzero(rng))
        p = primes[k % 4]
        h = satake_to_hecke(s, p)
        c = s.c_value()
        one = GaussianRational(1)
        lhs = h.a1 * h.a1 - lambda_p2(h, c) - h.eps * Fraction(1, p)
        if lhs != h.eps * (c + one):
            failures.append("lambda(p^2) relation fails at sample %d" % k)
            break
        if p * h.a2 + (1 + Fraction(1, p * p)) * h.eps != h.eps * (c + one):
            failures.append("counterpart relation fails at sample %d" % k)
            break
    h = satake_to_hecke(SatakeParams(1, 1, 1), 2)
    _want(failures, h.a1 == 4, "trivial point a1: expected 4, got %r" % (h.a1,))
    _want(failures, h.a2 == Fraction(19, 8),
          "trivial point a2: expected 19/8, got %r" % (h.a2,))
    lam2 = lambda_p2(h, SatakeParams(1, 1, 1).c_value())
    _want(failures, lam2 == Fraction(19, 2),
          "trivial point lambda(p^2): expected 19/2, got %r" % (lam2,))
    _verdict(5, "lambda(p^2) relation and trivial-point values", failures)


def test_criterion_06_weyl_data():
    failures = []
    orbit, stab = weyl_orbit_and_stabilizer(CharacterData(1, -1, -1))
    got = {(c.eps1, c.eps2, c.eps0) for c in orbit}
    want = {(1, -1, 1), (-1, 1, 1), (1, -1, -1), (-1, 1, -1)}
    _want(failures, got == want,
          "orbit of chi(1,sgn,sgn): expected %r, got %r" % (want, got))
    words = {w.word for w in stab}
    _want(failures, words == {(), (1, 2, 1)},
          "stabilizer words: expected {(), (1,2,1)}, got %r" % (words,))
    cas = casimir_pair(0, 0)
    _want(failures, cas == (Fraction(-5, 12), 0),
          "casimir_pair(0,0): expected (-5/12, 0), got %r" % (cas,))
    sol = infinity_type_solve(Fraction(-5, 12), 0)
    _want(failures, sol == {(0, 0)},
          "infinity_type_solve(-5/12, 0): expected {(0,0)}, got %r" % (sol,))
    _verdict(6, "Weyl orbit, stabilizer, and infinity-type inversion",
             failures)


def test_criterion_07_oddness_normalization():
    failures = []
    p = oddness_normalize(_mat.diag(Fraction(1), Fraction(1),
                                    Fraction(-1), Fraction(-1)))
    _want(failures, p == weyl_s2(),
          "normalizing diag(1,1,-1,-1) should produce the Weyl element s2")
    for one, count in ((PrimeFieldElem(7, 1), 50), (GaussianRational(1), 50)):
        rng = random.Random(7)
        g0 = _mat.diag(one, one, -one, -one)
        target = _mat.diag(one, -one, -one, one)
        for k in range(count):
            h = random_similitude(rng, one)
            g = _mat.mat_mul(h, _mat.mat_mul(g0, _mat.mat_inv(h)))
            conj = oddness_normalize(g)
            if try_similitude(conj.mat) is None:
                failures.append("conjugator %d is not a similitude" % k)
                break
            back = _mat.mat_mul(_mat.mat_inv(conj.mat),
                                _mat.mat_mul(g, conj.mat))
            if not _mat.mat_eq(back, target):
                failures.append("conjugate %d not normalized over %r"
                                % (k, type(one).__name__))
                break
    _verdict(7, "oddness normalization, pinned and 100 random conjugates",
             failures)


def test_criterion_08_gallery_structure():
    failures = []
    # CPU time: the closure is single-threaded, so this measures its cost
    # without counting time lost to other processes on a loaded machine.
    start = time.process_time()
    gens = gallery_generators()
    nu_want = {"A1": 1, "A2": -1, "A3": -1, "A4": 1, "A5": -1}
    for name, want in nu_want.items():
        nu = try_similitude(gens[name])
        _want(failures, nu is not None and nu == want,
              "nu(%s): expected %d, got %r" % (name, want, nu))
    t = gens["T"]
    tinv = _mat.mat_inv(t)
    # Derived fact: T is not a similitude.  Conjugation by a similitude
    # keeps nu, since nu is multiplicative; but nu(T A1 T^-1) = -1 while
    # nu(A1) = 1.  (t(T) J T is antidiag(1,-1,1,-1), not a multiple of J.)
    nu_t = try_similitude(t)
    _want(failures, nu_t is None,
          "generator T passes the similitude test, nu = %r" % (nu_t,))
    nu_conj = try_similitude(_mat.mat_mul(t, _mat.mat_mul(gens["A1"], tinv)))
    _want(failures, nu_conj is not None and nu_conj != nu_want["A1"],
          "nu(T A1 T^-1) = %r should differ from nu(A1) = 1" % (nu_conj,))
    # Derived fact: the table gives A3 = i * A1 A5 A2, so the scalar iI
    # lies in <A1..A5>.
    i_scalar = _mat.mat_mul(gens["A3"], _mat.mat_inv(
        _mat.mat_mul(gens["A1"], _mat.mat_mul(gens["A5"], gens["A2"]))))
    i_id = _mat.scalar_mul(GaussianRational.i(),
                           _mat.identity(4, GaussianRational(1)))
    _want(failures, _mat.mat_eq(i_scalar, i_id),
          "A3 (A1 A5 A2)^-1 is not the scalar i")
    a_gens = [gens[k] for k in ("A1", "A2", "A3", "A4", "A5")]
    a_grp = group_closure(a_gens)
    _want(failures, i_id in a_grp,
          "the scalar i is missing from the involution closure")
    # Derived fact: every generator is monomial with entries in {+-1, +-i},
    # so the scalars of <A> are exactly {+-1, +-i}.  Modulo scalars, A3 is
    # A1 A5 A2, and A1, A2, A4, A5 square to +-I and commute up to sign; the
    # 16 products A1^a A2^b A4^c A5^d differ in block or sign pattern.  So
    # |<A>| = 4 * 16 = 64, and <A>/{+-1} has order 32 and exponent 2.
    _want(failures, a_grp.order == 64,
          "involution closure order: expected 64, got %d" % a_grp.order)
    q_order, q_exp = quotient_by_sign(a_grp)
    _want(failures, q_order == 32,
          "quotient order mod {+-1}: expected 32, got %d" % q_order)
    _want(failures, q_exp == 2,
          "quotient mod {+-1}: expected exponent 2, got %d" % q_exp)
    _want(failures,
          all(_mat.mat_mul(t, _mat.mat_mul(a, tinv)) in a_grp
              for a in a_gens),
          "T does not normalize the involution closure")
    # Derived fact: T has order 5 and normalizes the 2-group <A>, which
    # therefore meets <T> trivially, so |<A, T>| = 5 * 64 = 320.
    full = group_closure(a_gens + [t])
    _want(failures, full.order == 320,
          "full closure order: expected 320, got %d" % full.order)
    elapsed = time.process_time() - start
    _want(failures, elapsed < 5.0,
          "CPU time %.2f s exceeds the 5 s budget" % elapsed)
    _verdict(8, "gallery generator structure and closure orders", failures)


def test_criterion_09_conjugator_identities():
    failures = []
    one = GaussianRational(1)
    half = GaussianRational(Fraction(1, 2))
    p = SYM3_P
    pt = _mat.transpose(p)
    pinv = _mat.mat_inv(p)
    j = gauss_mat(((0, 0, 1, 0), (0, 0, 0, 1),
                   (-1, 0, 0, 0), (0, -1, 0, 0)))
    # Derived fact: the rows of P are orthogonal, each of squared length
    # 1/2, so P t(P) = I/2 and P^-1 = 2 t(P).
    _want(failures, _mat.mat_eq(pinv, _mat.scalar_mul(GaussianRational(2), pt)),
          "P^-1 = 2 t(P) fails exactly")
    # Derived fact: t(P) J P has (i, j) entry w(Pe_i, Pe_j) for the form
    # w(x, y) = x1 y3 + x2 y4 - x3 y1 - x4 y2.  With Pe_1 = (1,0,0,1)/2 and
    # Pe_3 = (0,1,-1,0)/2, w(Pe_1, Pe_3) = -1/4 - 1/4 = -1/2, and likewise
    # on (Pe_2, Pe_4); the other pairs vanish.  So t(P) J P = -J/2, and P is
    # a similitude of factor -1/2.
    ptjp = _mat.mat_mul(pt, _mat.mat_mul(j, p))
    _want(failures, _mat.mat_eq(ptjp, _mat.scalar_mul(-half, j)),
          "t(P) J P = -J/2 fails exactly")
    nu_p = try_similitude(p)
    _want(failures, nu_p == -half,
          "nu(P): expected -1/2, got %r" % (nu_p,))
    swap_image = sym3_swap_image()
    antidiag = gauss_mat(((0, 0, 0, 1), (0, 0, 1, 0),
                          (0, 1, 0, 0), (1, 0, 0, 0)))
    _want(failures, _mat.mat_eq(swap_image, antidiag),
          "cubic lift of the swap is not antidiag(1,1,1,1)")
    conj = _mat.mat_mul(pinv, _mat.mat_mul(swap_image, p))
    _want(failures, _mat.mat_eq(conj, _mat.diag(one, -one, -one, one)),
          "P^-1 J' P = diag(1,-1,-1,1) fails exactly")
    _verdict(9, "conjugator identities for the cubic lift: P^-1 = 2 t(P), "
                "t(P) J P = -J/2, P^-1 J' P = diag(1,-1,-1,1)", failures)


def test_criterion_10_coverage_machinery():
    failures = []
    etas = [Fraction(k, 20) for k in range(1, 20)]
    for tag in _FAMILY_NAMES:
        hist = charpoly_census(build_family(FamilySpec(tag, 3)))
        vals = [c_eta_M(hist, eta) for eta in etas]
        if any(a < b for a, b in zip(vals, vals[1:])):
            failures.append("c_eta_M not non-increasing on %s" % tag)
    full, base = map(charpoly_census, family_with_base(FamilySpec("Case7", 3)))
    for eta in [Fraction(k, 20) for k in range(1, 10)]:
        if c_eta_M(base, 2 * eta) > c_eta_M(full, eta):
            failures.append("index-2 coverage transfer fails at eta=%s" % eta)
    _verdict(10, "coverage counts monotone; index-2 transfer on the "
                 "doubled family", failures)


def test_criterion_11_lattice_sieve():
    failures = []
    n = len(enumerate_Y(2, LatticeRing("Zi")))
    _want(failures, n == 9, "Y(2, Z[i]): expected 9 points, got %d" % n)
    for tag in ("Z", "Zi", "Zw"):
        ring = LatticeRing(tag)
        sizes = [len(enumerate_Y(c, ring)) for c in (0, 1, 2, 4)]
        _want(failures, sizes == sorted(sizes),
              "enumerate_Y not monotone on %s: %r" % (tag, sizes))
    n = len(rou_charpolys(3))
    _want(failures, n == 5, "rou_charpolys(3): expected 5, got %d" % n)
    counts = [len(enumerate_P1_reps(3, beta)) for beta in (0, 1, 2)]
    _want(failures, counts == [1, 4, 12],
          "P^1 representative counts at p=3: expected [1, 4, 12], got %r"
          % (counts,))
    _verdict(11, "lattice sieve counts and projective representatives",
             failures)


def test_criterion_12_determinism(monkeypatch, tmp_path):
    failures = []
    base = _gsp4_3()
    # the same group from its generators in another order: a chain of other
    # strong generators, but the same keys
    full_gens = finite_census._full_gens
    rng = random.Random(12)
    for label, reorder in (("reversed", lambda gens: gens[::-1]),
                           ("shuffled", lambda gens: rng.sample(gens,
                                                                len(gens)))):
        monkeypatch.setattr(finite_census, "_full_gens",
                            lambda ell, name: reorder(full_gens(ell, name)))
        other = enumerate_gsp4(3)
        _want(failures,
              sorted_keys(base).tobytes() == sorted_keys(other).tobytes(),
              "GSp4(F_3) keys differ with the generators %s" % label)
        _want(failures,
              charpoly_census(base).csv_rows()
              == charpoly_census(other).csv_rows(),
              "census CSV differs with the generators %s" % label)
    monkeypatch.undo()
    # no run starts a pool: --threads and SYMPKIT_THREADS change nothing
    runs = [(["--threads", str(t)], None) for t in (1, 2, 8)]
    runs.append(([], "2"))
    outputs = []
    for k, (flags, env) in enumerate(runs):
        if env is None:
            monkeypatch.delenv("SYMPKIT_THREADS", raising=False)
        else:
            monkeypatch.setenv("SYMPKIT_THREADS", env)
        path = tmp_path / ("census-%d.csv" % k)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["census", "--ell", "3", "--enumerate", "--json",
                             "--csv", str(path), *flags])
        report = json.loads(out.getvalue())
        outputs.append((code, path.read_bytes(), report["assertions"]))
        _want(failures, code == 0,
              "census --enumerate %r exits %d" % (flags, code))
    _want(failures, all(o == outputs[0] for o in outputs),
          "census --ell 3 --enumerate --csv output differs across "
          "--threads 1/2/8 and SYMPKIT_THREADS")
    _verdict(12, "bit-identical keys and census across generator orders "
                 "and thread settings", failures)
