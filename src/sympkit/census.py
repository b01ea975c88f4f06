"""The characteristic-polynomial census of Sp4/GSp4(F_ell) and of the nine
subgroup families in closed form.

Pure Python, with no numpy: the group orders, the CharPolyHistogram (its
nu_classes, the one stored count, and classes read from it),
closed_form_census, the GL2 census gl2_charpoly_census, the coverage count
c_eta_M and the projective-line representatives of enumerate_P1_reps.
finite_census holds the enumerations that check the closed forms.

closed_form_census lists no element.  An element g = s u (Jordan
decomposition) with multiplier nu and char poly f lies in the semisimple
class of s, which f and nu determine, and the centralizer C(s) is connected
since Sp4 is simply connected (Steinberg, Mem. AMS 80, 1968).  Steinberg's
count of ell^(dim - rank) unipotents in C(s), and |C_GSp(s)| =
(ell - 1)|C_Sp(s)| (nu maps C(s) onto F_ell^x), give

    count(f, nu) = |Sp4| / |C_Sp(s)| * ell^(dim C_Sp(s) - 2).

C_Sp(s) is the product of one factor per irreducible factor h of f, of
degree d and multiplicity e, with h^nu the factor whose roots are nu/lambda
for the roots lambda of h (Wall, J. Austral. Math. Soc. 3, 1963):
Sp_e(ell^d) when every root has lambda^2 = nu, U_e(ell^(d/2)) when
h = h^nu otherwise, and GL_e(ell^d) for a pair {h, h^nu} of distinct
factors, taken once.  f is the char poly of an element exactly when the
ranks sum to 2; it is keyed by det(1 - gT) = (-a, b, -nu a, nu^2) and nu.

The families are built from 2x2 blocks, and c(t, d), the number of A in
GL2(F_ell) with trace t and determinant d, is ell^2 + ell, ell^2 - ell or
ell^2 as t^2 - 4d is a nonzero square, a non-square or 0: the classes of
a split, a non-split and a repeated eigenvalue (W. Fulton and J. Harris,
Representation Theory, 1991, sec. 5.2; R. W. Carter, Finite Groups of Lie
Type, 1985).  With f(t, d) = 1 - tT + dT^2, each family's census is a sum
over its block parameters (FAMILY_FORMS, _family_terms).  Each row gives
the elements, then det(1 - gT), nu and the count, for A of trace t and
determinant d:

    LeviB  diag(t1, t2, nu/t1, nu/t2):
           f(t1 + nu/t1, nu) f(t2 + nu/t2, nu), nu, 1
    LeviP  [[A, 0], [0, nu t(A)^-1]]:
           f(t, d) f(nu t/d, nu^2/d), nu, c(t, d)
    LeviQ  t on e1, B of trace s and determinant nu on (e2, e4), nu/t on e3:
           f(t + nu/t, nu) f(s, nu), nu, c(s, nu)
    Hen    the checkerboard (A, B), of traces t1 and t2, det A = det B = d:
           f(t1, d) f(t2, d), d, c(t1, d) c(t2, d)
    Case5  LeviP, and its coset by the block swap, s the trace of A W:
           1 + nu (s^2 - 2d)/d T^2 + nu^2 T^4, -nu, c(s, d)
    Case6  Hen, and its coset by the exchange, det(1 - AB T^2):
           1 - sT^2 + d^2 T^4, d, |SL2| c(s, d^2)
    Case9  X (x) Y for Y = I; diag(1, -1) or antidiag(1, 1); antidiag(1, -1):
           f(t, d)^2; f(t, d) f(-t, d); 1 + (t^2 - 2d) T^2 + d^2 T^4,
           d, c(t, d); 2 c(t, d); c(t, d)

Case7 and Case8 double bases over F_q = F_ell(sqrt u) (q = ell^2, u the least
non-residue) by a w acting as sigma, the conjugation of F_q; N f(a, b) =
f(a, b) f(sigma a, sigma b) over F_ell, and z is a square iff N(z) is (chi):

    Case7  X in GL2(F_q) of trace x + y sqrt u and det d in F_ell^x:
           N f(x + y sqrt u, d), d, q^2 + q chi(N((x + y sqrt u)^2 - 4d))
    Case8  z A, z in F_q^x / F_ell^x: N f(z t, z^2 d), N(z) d, c(t, d)
    coset  by w: 1 + tT^2 + nu^2 T^4, nu, (ell^3 + ell or ell + 1) c(t, nu^2)

Case8's base (unitary similitudes) is conjugate to F_q^x GL2(F_ell): both
keep a hermitian form up to scalars, of order (ell + 1)|GL2|.  sqrt u
commutes with a base and anticommutes with w, so Xw is conjugate to -Xw.
Case7's coset is Shintani descent (T. Shintani, J. Math. Soc. Japan 28,
1976): X sigma(X) takes sigma-classes of GL2(F_q) to classes of GL2(F_ell),
centralizers kept; det X in F_ell^x keeps 2/(ell + 1) of each.  Case8's
g = z A sigma is A (x) m on F_ell^2 (x) F_q, m(x) = z sigma(x), m^2 = n =
N(z): det(1 - gT) = det(1 - n A^2 T^2), nu = e n det A (e = +-1 fixed).
n has ell + 1 roots z, g is (z c, A/c) for ell - 1 c: so (ell + 1)/(ell - 1)
times the A with tr(A)^2 = r det A, r = 2 - e t/nu, which over det A = d is
sum (1 + chi(r d))(ell^2 + ell chi(d (r - 4))) = (ell - 1) c(t, nu^2).
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain
from math import prod

from ._base import (_Frozen, _require_odd_prime, is_prime, legendre,
                    quadratic_nonresidue)


def sp4_order(ell):
    return ell ** 4 * (ell ** 2 - 1) * (ell ** 4 - 1)


def gsp4_order(ell):
    return (ell - 1) * sp4_order(ell)


class CharPolyHistogram(_Frozen):
    """Census of det(1 - gT) = 1 + c1 T + c2 T^2 + c3 T^3 + c4 T^4 over a set,
    stored once: `nu_classes` maps (c1, c2, c3, c4, nu), nu the similitude
    factor, to a nonzero count; `total` is its sum, the set order, and
    `classes`, by (c1, c2, c3, c4), is read from it as its sum over nu, on
    first read, and kept in `_classes` for the next (c_eta_M and the greedy
    cover of ceta each read it)."""

    __slots__ = ("ell", "nu_classes", "total", "_classes")

    def __init__(self, ell, nu_classes):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "nu_classes", dict(nu_classes))
        object.__setattr__(self, "total", sum(self.nu_classes.values()))

    @property
    def classes(self):
        "nu_classes summed over nu, one dict that every read shares."
        try:
            return self._classes
        except AttributeError:
            out = {}
            for key, n in self.nu_classes.items():
                key = key[:4]
                if key in out:
                    out[key] += n
                else:
                    out[key] = n
            object.__setattr__(self, "_classes", out)
            return out

    def max_class(self):
        return max(self.classes.values())

    def csv_rows(self):
        "Deterministic CSV lines: header then one sorted row per (coeffs, nu)."
        return ["c1,c2,c3,c4,nu,count"] + [
            ",".join(map(str, key + (n,)))
            for key, n in sorted(self.nu_classes.items())]


# The factor of C_Sp(s) that one irreducible factor h of f contributes, as
# (kind, degree of h, multiplicity of h), indexed by a Legendre symbol (see
# _factor_types).  Kinds: "sp" when every root has lambda^2 = nu, "u" when
# h = h^nu otherwise, "gl" for a pair {h, h^nu} of distinct factors.
_OVER_RATIONAL_Y = {0: ("sp", 1, 2), 1: ("gl", 1, 1), -1: ("u", 2, 1)}
_OVER_CONJUGATE_Y = {0: ("sp", 2, 2), 1: ("gl", 2, 1), -1: ("u", 4, 1)}


def _factor_types(a, b, nu, ell, chi, root):
    """(kind, d, e) per irreducible factor h of f = x^4 - a x^3 + b x^2
    - nu a x + nu^2 over F_ell, with the pair {h, h^nu} listed once; h^nu
    has the roots nu/lambda of h, and f^nu = f.

    With y = x + nu/x, f/x^2 = y^2 - a y + p for p = b - 2 nu, so f is
    (x^2 - y1 x + nu)(x^2 - y2 x + nu) over the roots y1, y2 of that
    quadratic.  A factor x^2 - y x + nu has discriminant y^2 - 4 nu, which
    vanishes exactly when its roots satisfy lambda^2 = nu.  For y1, y2
    conjugate in F_ell^2, y1^2 - 4 nu is a square there iff its norm
    (y1^2 - 4 nu)(y2^2 - 4 nu) is a square in F_ell; the norm vanishes only
    for f = (x^2 - nu)^2 with nu a non-square, whose roots +-sqrt(nu) have
    lambda^2 = nu: the factor is Sp_2(ell^2), not U_2(ell).  `chi` is the
    Legendre symbol and `root` a square root of each square, as lists."""
    p = (b - 2 * nu) % ell
    disc = (a * a - 4 * p) % ell
    if chi[disc] < 0:
        norm = p * p - 4 * nu * (a * a - 2 * p) + 16 * nu * nu
        return (_OVER_CONJUGATE_Y[chi[norm % ell]],)
    half = (ell + 1) // 2
    if disc == 0:  # one double root y: each factor twice
        ys, mult = (a * half % ell,), 2
    else:
        ys, mult = ((a + root[disc]) * half % ell,
                    (a - root[disc]) * half % ell), 1
    out = []
    for y in ys:
        kind, d, e = _OVER_RATIONAL_Y[chi[(y * y - 4 * nu) % ell]]
        out.append((kind, d, e * mult))
    return tuple(sorted(out))


def _centralizer_factor(kind, d, e, ell):
    """(order, dim, rank) of Sp_e(ell^d), U_e(ell^(d/2)) or GL_e(ell^d) for
    kind "sp", "u" or "gl" (Wall's classification of centralizers)."""
    if kind == "sp":
        q, m = ell ** d, e // 2  # e is even: the constant term nu^2 forces it
        order = q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))
        return order, d * m * (2 * m + 1), d * m
    k, sign = (d // 2, -1) if kind == "u" else (d, 1)
    q = ell ** k
    order = q ** (e * (e - 1) // 2) * prod(
        q ** i - sign ** i for i in range(1, e + 1))
    return order, k * e * e, k * e


def _gl2_count(ell):
    "c(t, d) of the module docstring, for d != 0 mod ell."
    chi = legendre(ell)[0]
    return lambda t, d: ell * ell + ell * chi[(t * t - 4 * d) % ell]


def gl2_charpoly_census(ell):
    """Census of det(1 - AT) = 1 + c1 T + c2 T^2 over all of GL2(F_ell):
    a dict (c1, c2) -> count, each c(-c1, c2) of the module docstring.  The
    largest class has ell^2 + ell members."""
    _require_odd_prime(ell)
    c = _gl2_count(ell)
    return {(-t % ell, d): c(t, d) for t in range(ell) for d in range(1, ell)}


# the families whose census closed_form_census computes (module docstring)
FAMILY_FORMS = ("LeviB", "LeviP", "LeviQ", "Hen", "Case5", "Case6", "Case7",
                "Case8", "Case9")


def _pair(t1, d1, t2, d2, ell):
    "(c1, c2, c3, c4) of f(t1, d1) f(t2, d2) (module docstring) mod ell."
    return ((-t1 - t2) % ell, (d1 + d2 + t1 * t2) % ell,
            -(t1 * d2 + t2 * d1) % ell, d1 * d2 % ell)


def _family_terms(tag, ell):
    """((c1, c2, c3, c4) of det(1 - gT), nu, count) over the parameters of
    the family `tag`, by the table of the module docstring."""
    c = _gl2_count(ell)
    inv = [0] + [pow(x, -1, ell) for x in range(1, ell)]
    field, units = range(ell), range(1, ell)

    def even(a, b):  # 1 + a T^2 + b T^4
        return (0, a % ell, 0, b % ell)

    if tag == "LeviB":
        return ((_pair(t1 + nu * inv[t1], nu, t2 + nu * inv[t2], nu, ell),
                 nu, 1) for t1 in units for t2 in units for nu in units)
    if tag == "LeviP":
        return ((_pair(t, d, nu * t * inv[d], nu * nu * inv[d], ell), nu,
                 c(t, d)) for t in field for d in units for nu in units)
    if tag == "LeviQ":
        return ((_pair(t + nu * inv[t], nu, s, nu, ell), nu, c(s, nu))
                for t in units for s in field for nu in units)
    if tag == "Hen":
        return ((_pair(t1, d, t2, d, ell), d, c(t1, d) * c(t2, d))
                for t1 in field for t2 in field for d in units)
    if tag == "Case5":
        return chain(_family_terms("LeviP", ell), (
            (even(nu * (s * s - 2 * d) * inv[d], nu * nu), ell - nu, c(s, d))
            for s in field for d in units for nu in units))
    if tag == "Case6":
        sl2 = ell * (ell * ell - 1)
        return chain(_family_terms("Hen", ell), (
            (even(-s, d * d), d, sl2 * c(s, d * d))
            for s in field for d in units))
    if tag in ("Case7", "Case8"):
        chi, q = legendre(ell)[0], ell * ell
        u = quadratic_nonresidue(ell).val  # the u of families._ext_params
        def norm(a0, a1, b0, b1):  # N f(a0 + a1 sqrt u, b0 + b1 sqrt u)
            return (-2 * a0 % ell, (2 * b0 + a0 * a0 - u * a1 * a1) % ell,
                    -2 * (a0 * b0 - u * a1 * b1) % ell,
                    (b0 * b0 - u * b1 * b1) % ell)

        if tag == "Case7":
            base = ((norm(x, y, d, 0), d, q * q + q * chi[
                ((x * x + u * y * y - 4 * d) ** 2 - 4 * u * x * x * y * y) % ell])
                for x in field for y in field for d in units)
        else:  # z = 1 + y sqrt u, or sqrt u
            base = ((norm(a * t, b * t, (a * a + u * b * b) * d, 2 * a * b * d),
                     (a * a - u * b * b) * d % ell, c(t, d))
                    for a, b in [(1, y) for y in field] + [(0, 1)]
                    for t in field for d in units)
        k = ell * (q + 1) if tag == "Case7" else ell + 1
        return chain(base, ((even(t, nu * nu), nu, k * c(t, nu * nu))
                            for t in field for nu in units))
    if tag == "Case9":
        return ((poly, d, k * c(t, d))
                for t in field for d in units
                for poly, k in ((_pair(t, d, t, d, ell), 1),
                                (_pair(t, d, -t, d, ell), 2),
                                (even(t * t - 2 * d, d * d), 1)))
    raise ValueError("group must be 'sp4', 'gsp4' or one of %s, not %r"
                     % (", ".join(FAMILY_FORMS), tag))


def _group_terms(ell, group):
    """((c1, c2, c3, c4) of det(1 - gT), nu, count) over the char polys of
    Sp4(F_ell) or GSp4(F_ell), each count the formula of the module
    docstring, with C_Sp(s) the product of the _centralizer_factor of each
    factor of f."""
    chi, root = legendre(ell)
    sp4 = sp4_order(ell)
    counts = {}  # factor types -> count, or None when the ranks miss 2

    def count(types):
        if types not in counts:
            parts = [_centralizer_factor(*t, ell) for t in types]
            dim = sum(p[1] for p in parts)
            counts[types] = (sp4 // prod(p[0] for p in parts) * ell ** (dim - 2)
                             if sum(p[2] for p in parts) == 2 else None)
        return counts[types]

    for nu in (range(1, ell) if group == "gsp4" else (1,)):
        for a in range(ell):
            for b in range(ell):
                n = count(_factor_types(a, b, nu, ell, chi, root))
                if n is not None:
                    yield (-a % ell, b, -nu * a % ell, nu * nu % ell), nu, n


def closed_form_census(ell, group):
    """The CharPolyHistogram of Sp4(F_ell) (group "sp4"), GSp4(F_ell)
    ("gsp4") or a family of FAMILY_FORMS (its tag) for any odd prime ell,
    without listing a single element; equal to the charpoly_census of
    enumerate_<group>(ell) or of build_family, its oracle."""
    _require_odd_prime(ell)
    terms = (_group_terms(ell, group) if group in ("sp4", "gsp4")
             else _family_terms(group, ell))
    nu_classes = {}
    for poly, nu, n in terms:
        nu_classes[poly + (nu,)] = nu_classes.get(poly + (nu,), 0) + n
    return CharPolyHistogram(ell, nu_classes)


def _greedy_cover(hist, need):
    """(coeffs, count, covered so far) of the classes of `hist` by descending
    size (ties by coefficients), up to the first that covers `need`, such as
    (1 - eta) |G| once c_eta_M has checked eta."""
    cover, covered = [], 0
    for coeffs, n in sorted(hist.classes.items(), key=lambda kv: (-kv[1], kv[0])):
        if covered >= need:
            break
        covered += n
        cover.append((coeffs, n, covered))
    return cover


def c_eta_M(hist, eta):
    """Least M with some subset of >= (1 - eta) of the group covered by M
    classes of the CharPolyHistogram `hist`: largest classes dominate any
    other choice of M classes, so M is where the prefix sums of the counts,
    sorted down, first reach (1 - eta) |G|.  Found by bisection, apart from
    the loop of _greedy_cover."""
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise ValueError("eta must lie strictly between 0 and 1")
    prefix = list(accumulate(sorted(hist.classes.values(), reverse=True)))
    return bisect_left(prefix, (1 - eta) * hist.total) + 1


def enumerate_P1_reps(p, beta):
    """Determinant-1 integer matrices whose first rows represent P^1(Z/p^beta).

    One representative per class: (1, a) for a mod p^beta and (p b, 1) for
    b mod p^(beta-1); count is p^beta + p^(beta-1) (or 1 when beta = 0).
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return [((1, 0), (0, 1))]
    reps = [((1, a), (0, 1)) for a in range(p ** beta)]
    reps += [((p * b, 1), (-1, 0)) for b in range(p ** (beta - 1))]
    return reps
