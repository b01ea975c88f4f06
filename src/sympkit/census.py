"""The characteristic-polynomial census of Sp4/GSp4(F_ell) in closed form.

Pure Python, with no numpy: the group orders, the CharPolyHistogram,
closed_form_census, the coverage count c_eta_M and the projective-line
representatives of enumerate_P1_reps.  finite_census holds the
enumerations that check the closed form.

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
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import prod

from .exact_arith import _Frozen, _require_odd_prime, is_odd_prime


def sp4_order(ell):
    return ell ** 4 * (ell ** 2 - 1) * (ell ** 4 - 1)


def gsp4_order(ell):
    return (ell - 1) * sp4_order(ell)


class CharPolyHistogram(_Frozen):
    """Census of det(1 - gT) = 1 + c1 T + c2 T^2 + c3 T^3 + c4 T^4 over a set.

    `classes` maps (c1, c2, c3, c4) to a count; `nu_classes` refines by the
    similitude factor for reporting.  Totals always equal the set order.
    """

    __slots__ = ("ell", "classes", "nu_classes", "total")

    def __init__(self, ell, classes, nu_classes):
        total = sum(classes.values())
        if total != sum(nu_classes.values()):
            raise ValueError("inconsistent histogram totals")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "classes", dict(classes))
        object.__setattr__(self, "nu_classes", dict(nu_classes))
        object.__setattr__(self, "total", total)

    def max_class(self):
        return max(self.classes.values())

    def csv_rows(self):
        "Deterministic CSV lines: header then one sorted row per (coeffs, nu)."
        rows = ["c1,c2,c3,c4,nu,count"]
        for key in sorted(self.nu_classes):
            rows.append(",".join(str(x) for x in key)
                        + "," + str(self.nu_classes[key]))
        return rows


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


def closed_form_census(ell, group):
    """The CharPolyHistogram of Sp4(F_ell) (group "sp4") or GSp4(F_ell)
    ("gsp4") for any odd prime ell, without listing a single element; equal
    to charpoly_census(enumerate_<group>(ell)), which is its oracle.  Each
    count is the formula of the module docstring, with C_Sp(s) the product
    of the _centralizer_factor of each factor of f."""
    _require_odd_prime(ell)
    if group not in ("sp4", "gsp4"):
        raise ValueError("group must be 'sp4' or 'gsp4', not %r" % (group,))
    chi = [-1] * ell
    root = [0] * ell
    for r in range(ell):
        chi[r * r % ell], root[r * r % ell] = 1, r
    chi[0] = 0
    sp4 = sp4_order(ell)
    counts = {}  # factor types -> count, or None when the ranks miss 2

    def count(types):
        if types not in counts:
            parts = [_centralizer_factor(*t, ell) for t in types]
            dim = sum(p[1] for p in parts)
            counts[types] = (sp4 // prod(p[0] for p in parts) * ell ** (dim - 2)
                             if sum(p[2] for p in parts) == 2 else None)
        return counts[types]

    nu_classes = {}
    for nu in (range(1, ell) if group == "gsp4" else (1,)):
        for a in range(ell):
            for b in range(ell):
                n = count(_factor_types(a, b, nu, ell, chi, root))
                if n is not None:
                    nu_classes[(-a % ell, b, -nu * a % ell, nu * nu % ell,
                                nu)] = n
    classes = {}
    for key, n in nu_classes.items():
        classes[key[:4]] = classes.get(key[:4], 0) + n
    return CharPolyHistogram(ell, classes, nu_classes)


def _greedy_cover(hist, eta):
    """(coeffs, count, covered so far) of the classes of `hist` by descending
    size (ties by coefficients), up to the first that covers (1 - eta)."""
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise ValueError("eta must lie strictly between 0 and 1")
    need = (1 - eta) * hist.total
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
    if not (p == 2 or is_odd_prime(p)):
        raise ValueError("p must be prime")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0:
        return [((1, 0), (0, 1))]
    reps = [((1, a), (0, 1)) for a in range(p ** beta)]
    reps += [((p * b, 1), (-1, 0)) for b in range(p ** (beta - 1))]
    return reps
