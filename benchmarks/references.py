"""Independent correctness references for every benchmark task type.

Nothing here imports sympkit or reads a value back from it.  Each reference
is a closed form, a value frozen in the package's unit suites, or the
benchmark's own computation (exact Gaussian-rational arithmetic for the
Hecke dictionary, integer loops for lattice points and projective-line
representatives, integer exponent multisets for root-of-unity factors).

`check(task, code, report)` compares only the exit code, the `results`
payload and the `assertions` list of a task's report; `schema`,
`timestamp`, `command` and any other block are ignored.  It returns a list
of problems, empty when the task is correct.
"""

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd


# ---------------------------------------------------------------------------
# group and family orders


def sp4_order(ell):
    return ell ** 4 * (ell ** 2 - 1) * (ell ** 4 - 1)


def gsp4_order(ell):
    return (ell - 1) * sp4_order(ell)


def gl2_order(q):
    return (q * q - 1) * (q * q - q)


# Case9 has no closed form here; these are the orders frozen in the unit suite
CASE9_ORDERS = {3: 192, 5: 1920}


def family_order(tag, ell):
    levi = gl2_order(ell) * (ell - 1)           # GL2 x GL1, Siegel or Klingen
    hen = gl2_order(ell) ** 2 // (ell - 1)      # pairs with equal determinant
    unitary = ell * (ell * ell - 1) * (ell + 1)  # |U2(F_ell^2)|
    orders = {
        "LeviB": (ell - 1) ** 3,
        "LeviP": levi,
        "LeviQ": levi,
        "Hen": hen,
        "Case5": 2 * levi,
        "Case6": 2 * hen,
        # GL2(F_ell^2) elements with determinant in F_ell, doubled
        "Case7": 2 * gl2_order(ell * ell) * (ell - 1) // (ell * ell - 1),
        # GU2 = U2 times the similitude factors, doubled
        "Case8": 2 * unitary * (ell - 1),
        "Case9": CASE9_ORDERS.get(ell),
    }
    return orders[tag]


EXTENDED_FAMILIES = ("Case5", "Case6", "Case7", "Case8")

FAMILY_TAGS = ("LeviB", "LeviP", "LeviQ", "Hen",
               "Case5", "Case6", "Case7", "Case8", "Case9")


def family_tag(text):
    "Canonical family tag of a --case argument."
    for tag in FAMILY_TAGS:
        if text.lower() in (tag.lower(), tag[4:]):
            return tag
    raise ValueError("unknown family %r" % (text,))


# characteristic-polynomial classes of GSp4(F_3), frozen in the unit suite
GSP4_3_CLASSES = {
    (0, 0, 0, 1): 9720, (0, 1, 0, 1): 17010, (0, 2, 0, 1): 10692,
    (1, 0, 1, 1): 6561, (1, 0, 2, 1): 5184, (1, 1, 1, 1): 5184,
    (1, 1, 2, 1): 6480, (1, 2, 1, 1): 4860, (1, 2, 2, 1): 4860,
    (2, 0, 1, 1): 5184, (2, 0, 2, 1): 6561, (2, 1, 1, 1): 6480,
    (2, 1, 2, 1): 5184, (2, 2, 1, 1): 4860, (2, 2, 2, 1): 4860,
}


# ---------------------------------------------------------------------------
# exact Gaussian rationals and their text form "a/b+c/d*i"


class Gauss:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, Gauss) else Gauss(x)

    def __add__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-Gauss.of(o))

    def __mul__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return Gauss(self.re / n, -self.im / n)

    def __eq__(self, o):
        o = Gauss.of(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "Gauss(%s, %s)" % (self.re, self.im)


_GAUSS_RE = re.compile(
    r"^(?:(?P<re>[+-]?\d+(?:/\d+)?)(?=$|[+-]))?"
    r"(?:(?P<im>[+-]?(?:\d+(?:/\d+)?)?)\*?i)?$")


def parse_gauss(text):
    "'a/b+c/d*i', '-c/d*i', 'i' or a plain rational -> Gauss; ValueError else."
    text = text.strip().replace(" ", "")
    m = _GAUSS_RE.match(text)
    if not text or m is None:
        raise ValueError("not a Gaussian rational: %r" % (text,))
    im = m.group("im")
    if im is None:
        im = "0"
    elif im in ("", "+", "-"):
        im += "1"
    return Gauss(Fraction(m.group("re") or 0), Fraction(im))


def factor_from_roots(roots):
    "Coefficients of prod (1 - r T), constant term first."
    coeffs = [Gauss(1)]
    for r in roots:
        nxt = coeffs + [Gauss(0)]
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] - r * c
        coeffs = nxt
    return coeffs


def hecke_reference(satake, p):
    a0, a1, a2 = (parse_gauss(t) for t in satake.split(","))
    eps = a0 * a0 * a1 * a2
    c = a1 + a2 + 1 + a1.inverse() + a2.inverse()
    lam = a0 * (a1 + 1) * (a2 + 1)
    a2_p = eps * (c - Fraction(1, p * p)) * Fraction(1, p)
    return {
        "a1": lam,
        "a2": a2_p,
        "eps": eps,
        "c_p": c,
        "lambda_p2": lam * lam - eps * Fraction(1, p) - eps * (c + 1),
        "spin_factor": factor_from_roots([a0 * a1 * a2, a0 * a1, a0 * a2, a0]),
        "std5_factor": factor_from_roots(
            [a1, a2, Gauss(1), a1.inverse(), a2.inverse()]),
    }


# ---------------------------------------------------------------------------
# lattice points, projective-line representatives


def lattice_points(ring, c):
    "Y(c) by an integer loop: Z -> ints, gaussian/eisenstein -> (a, b)."
    c = Fraction(c)
    bound = 0
    while (bound + 1) ** 2 <= 4 * c:  # |a|, |b| <= 2 sqrt(c) covers every ring
        bound += 1
    rng = range(-bound, bound + 1)
    if ring == "z":
        return {n for n in rng if n * n <= c}
    if ring == "gaussian":
        return {(a, b) for a in rng for b in rng if a * a + b * b <= c}
    return {(a, b) for a in rng for b in rng if a * a - a * b + b * b <= c}


def _parse_point(ring, text):
    if ring == "z":
        return int(text)
    if ring == "gaussian":
        z = parse_gauss(text)
        if z.re.denominator != 1 or z.im.denominator != 1:
            raise ValueError("non-integral point %r" % (text,))
        return (int(z.re), int(z.im))
    m = re.match(r"^(-?\d+)([+-]\d+)\*w$", text)
    if m is None:
        raise ValueError("not an Eisenstein point %r" % (text,))
    return (int(m.group(1)), int(m.group(2)))


def p1_class(row, modulus):
    "Canonical representative of the point (x : y) of P^1(Z/modulus)."
    x, y = row[0] % modulus, row[1] % modulus
    if gcd(x, modulus) == 1:
        return (1, y * pow(x, -1, modulus) % modulus)
    if gcd(y, modulus) == 1:
        return (x * pow(y, -1, modulus) % modulus, 1)
    return None  # not primitive


# ---------------------------------------------------------------------------
# root-of-unity factors


def lcm_upto(n):
    out = 1
    for k in range(2, n + 1):
        out = out * k // gcd(out, k)
    return out


def cyclotomic_poly(n, _memo={}):
    "Integer coefficients (constant first) of Phi_n, by exact division."
    if n not in _memo:
        num = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                den = cyclotomic_poly(d)
                quo = [0] * (len(num) - len(den) + 1)
                for k in range(len(quo) - 1, -1, -1):
                    quo[k] = num[k + len(den) - 1]
                    for j, b in enumerate(den):
                        num[k + j] -= quo[k] * b
                num = quo
        _memo[n] = num
    return _memo[n]


def rou_reference(a, symplectic):
    """(count, sha256) of the factors prod (1 - z_i T) over root multisets of
    orders < a, coefficients as integer vectors in Z[x]/Phi_L, L = lcm(1..a-1).
    The digest uses the same canonical text the benchmark's child prints."""
    order = lcm_upto(a - 1)
    exps = sorted({order // n * k for n in range(1, a) for k in range(n)
                   if gcd(k, n) == 1})
    phi = cyclotomic_poly(order)
    d = len(phi) - 1
    powers = []  # x^e reduced mod Phi_L, e = 0 .. L-1
    vec = [1] + [0] * (d - 1)
    for _ in range(order):
        powers.append(vec)
        lead = vec[-1]
        vec = [0] + vec[:-1]
        vec = [v - lead * phi[j] for j, v in enumerate(vec)]
    canon = set()
    for quad in combinations_with_replacement(exps, 4):
        e0, e1, e2, e3 = quad
        if symplectic and not ((e0 + e1 - e2 - e3) % order == 0
                               or (e0 + e2 - e1 - e3) % order == 0
                               or (e0 + e3 - e1 - e2) % order == 0):
            continue
        coeffs = []
        for k in range(5):
            acc = [0] * d
            for sub in combinations(quad, k):
                acc = [x + y for x, y in zip(acc, powers[sum(sub) % order])]
            coeffs.append([str((-1) ** k * x) for x in acc])
        canon.add(json.dumps(coeffs))
    digest = hashlib.sha256("\n".join(sorted(canon)).encode()).hexdigest()
    return len(canon), digest


# ---------------------------------------------------------------------------
# the checks


def _opt(args, flag):
    "Value of `flag VALUE` or `flag=VALUE` in an argument list."
    for k, arg in enumerate(args):
        if arg == flag:
            return args[k + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return None


def _assertions(report, anchors, failing=()):
    got = {}
    for entry in report.get("assertions", []):
        got[entry["anchor"]] = bool(entry["pass"])
    problems = []
    missing = set(anchors) - set(got)
    if missing:
        problems.append("missing assertions %s" % sorted(missing))
    bad = {name for name, ok in got.items() if not ok}
    if bad != set(failing):
        problems.append("failing assertions %s, want %s"
                        % (sorted(bad), sorted(failing)))
    return problems


def _want(problems, label, got, want):
    if got != want:
        problems.append("%s: got %r, want %r" % (label, got, want))


def _coverage_problems(res, order, eta, classes=None):
    "The ceta trace checked on its own terms, and against known classes."
    problems = []
    need = (1 - eta) * order
    _want(problems, "eta", res.get("eta"), str(eta))
    _want(problems, "order", res.get("order"), order)
    _want(problems, "required_coverage",
          Fraction(res.get("required_coverage", "nan")), need)
    trace = res.get("trace", [])
    _want(problems, "minimal_classes", res.get("minimal_classes"), len(trace))
    covered, last = 0, None
    for step in trace:
        n = step["count"]
        if n <= 0 or (last is not None and n > last):
            problems.append("trace counts not descending")
        covered += n
        last = n
        if step["covered"] != covered:
            problems.append("trace covered is not cumulative")
    if not trace or covered < need or covered - trace[-1]["count"] >= need:
        problems.append("trace is not the minimal covering prefix")
    if classes is not None:
        ranked = sorted(classes.items(), key=lambda kv: (-kv[1], kv[0]))
        want = [[list(k), n] for k, n in ranked[:len(trace)]]
        _want(problems, "trace classes",
              [[s["coeffs"], s["count"]] for s in trace], want)
    return problems


def check_census(args, res, csv_text):
    ell = int(_opt(args, "--ell"))
    problems = []
    _want(problems, "ell", res.get("ell"), ell)
    _want(problems, "order", res.get("order"), gsp4_order(ell))
    classes = GSP4_3_CLASSES if ell == 3 else None
    if classes is not None:
        top = max(classes.items(), key=lambda kv: (kv[1], kv[0]))
        _want(problems, "coefficient_classes",
              res.get("coefficient_classes"), len(classes))
        _want(problems, "largest_class", res.get("largest_class"),
              {"coeffs": list(top[0]), "count": top[1]})
    n_nu = res.get("classes_with_similitude_factor", 0)
    n_cls = res.get("coefficient_classes", 0)
    if not n_cls <= n_nu <= n_cls * (ell - 1):
        problems.append("classes_with_similitude_factor %r out of range"
                        % (n_nu,))
    path = _opt(args, "--csv")
    if path is not None:
        _want(problems, "csv", res.get("csv"), path)
        _want(problems, "csv_rows", res.get("csv_rows"), n_nu)
        problems += _csv_problems(csv_text, ell, classes, n_nu)
    return problems


def _csv_problems(text, ell, classes, n_rows):
    if text is None:
        return ["csv file missing"]
    lines = text.splitlines()
    if not lines or lines[0] != "c1,c2,c3,c4,nu,count":
        return ["csv header wrong"]
    rows = lines[1:]
    problems = []
    if rows != sorted(rows) or len(rows) != n_rows:
        problems.append("csv rows unsorted or miscounted")
    summed = {}
    for row in rows:
        c1, c2, c3, c4, nu, n = (int(x) for x in row.split(","))
        if c3 != c1 * nu % ell or c4 != nu * nu % ell:
            problems.append("csv row %s is not palindromic" % (row,))
        summed[(c1, c2, c3, c4)] = summed.get((c1, c2, c3, c4), 0) + n
    if classes is not None:
        _want(problems, "csv classes", summed, classes)
    _want(problems, "csv total", sum(summed.values()), gsp4_order(ell))
    return problems


def check_ceta(args, res):
    ell = int(_opt(args, "--ell"))
    eta = Fraction(_opt(args, "--eta"))
    case = _opt(args, "--case").lower()
    if case in ("gsp4", "sp4"):
        order = gsp4_order(ell) if case == "gsp4" else sp4_order(ell)
        name = case
    else:
        name = family_tag(case)
        order = family_order(name, ell)
    problems = []
    _want(problems, "group", res.get("group"), name)
    _want(problems, "ell", res.get("ell"), ell)
    known = GSP4_3_CLASSES if (case, ell) == ("gsp4", 3) else None
    return problems + _coverage_problems(res, order, eta, known)


def check_family(args, res):
    ell = int(_opt(args, "--ell"))
    tag = family_tag(_opt(args, "--case"))
    order = family_order(tag, ell)
    problems = []
    _want(problems, "family", res.get("family"), tag)
    _want(problems, "ell", res.get("ell"), ell)
    _want(problems, "order", res.get("order"), order)
    _want(problems, "similitude_factors", res.get("similitude_factors"),
          list(range(1, ell)))
    if tag in EXTENDED_FAMILIES:
        _want(problems, "base_order", res.get("base_order"), order // 2)
    return problems


GALLERY_SOLVABLE = {
    "generator_nu": {"A1": "1", "A2": "-1", "A3": "-1", "A4": "1",
                     "A5": "-1", "T": None},
    "closure_order_without_twist": 64,
    "closure_order_full": 320,
    "quotient_mod_sign_order": 32,
    "quotient_mod_sign_exponent": 2,
    "twist_normalizes_involution_group": True,
    "twist_fifth_power_is_identity": True,
    "twist_fifth_power_is_scalar": True,
    "similitude_count_full": 64,
    "every_involution_closure_element_similitude": True,
}

SYM3_VERDICTS = {
    "P_inverse_equals_P_transpose": False,
    "P_conjugates_antidiag_image_to_diag": True,
    "transport_of_standard_form_is_half": False,
    "antidiag_image_conjugate_to_diag_in_gsp4": True,
}


def check_gallery(args, res):
    problems = []
    if args[1] == "solvable":
        for key, want in GALLERY_SOLVABLE.items():
            _want(problems, key, res.get(key), want)
        scalars = {parse_gauss(s)
                   for s in res.get("scalars_in_involution_closure", [])}
        _want(problems, "scalars", scalars,
              {Gauss(1), Gauss(-1), Gauss(0, 1), Gauss(0, -1)})
        return problems
    verdicts = {e["name"]: e["holds"] for e in res.get("identities", [])}
    _want(problems, "identities", verdicts, SYM3_VERDICTS)
    _want(problems, "lift_factor_samples", res.get("lift_factor_samples"), 20)
    return problems


def check_hecke(args, res):
    p = int(_opt(args, "--p"))
    ref = hecke_reference(_opt(args, "--satake"), p)
    problems = []
    _want(problems, "p", res.get("p"), p)
    for key in ("a1", "a2", "eps", "c_p", "lambda_p2"):
        _want(problems, key, parse_gauss(res.get(key, "")), ref[key])
    for key in ("spin_factor", "std5_factor"):
        got = res.get(key, {})
        _want(problems, key + " degree", got.get("degree"), len(ref[key]) - 1)
        _want(problems, key, [parse_gauss(c) for c in got.get("coeffs", [])],
              ref[key])
    return problems


def check_ylattice(args, res):
    ring, c = _opt(args, "--ring"), Fraction(_opt(args, "--c"))
    want = lattice_points(ring, c)
    problems = []
    _want(problems, "ring", res.get("ring"), ring)
    _want(problems, "c", res.get("c"), str(c))
    _want(problems, "count", res.get("count"), len(want))
    got = [_parse_point(ring, s) for s in res.get("points", [])]
    _want(problems, "points", (len(got), set(got)), (len(want), want))
    return problems


def check_p1reps(args, res):
    p, beta = int(_opt(args, "--p")), int(_opt(args, "--beta"))
    modulus = p ** beta
    want = modulus + modulus // p if beta else 1
    mats = res.get("matrices", [])
    problems = []
    _want(problems, "p", res.get("p"), p)
    _want(problems, "beta", res.get("beta"), beta)
    _want(problems, "count", res.get("count"), want)
    _want(problems, "matrices", len(mats), want)
    if any(m[0][0] * m[1][1] - m[0][1] * m[1][0] != 1 for m in mats):
        problems.append("a representative has determinant != 1")
    points = {p1_class(m[0], modulus) for m in mats} if beta else {None}
    if beta and (None in points or len(points) != len(mats)):
        problems.append("first rows are not distinct points of P^1")
    return problems


def check_rou(args, res):
    a, symplectic = int(args[0]), args[1:] == ["symplectic"]
    count, digest = rou_reference(a, symplectic)
    problems = []
    _want(problems, "A", res.get("A"), a)
    _want(problems, "count", res.get("count"), count)
    _want(problems, "factors_sha256", res.get("factors_sha256"), digest)
    return problems


# subcommand -> (checker, assertion anchors that must be present)
CLI_CHECKS = {
    "census": (None, ("order-closed-form", "histogram-total",
                      "palindrome-classes")),
    "ceta": (check_ceta, ("coverage-count-consistent", "coverage-bound-met",
                          "coverage-minimal-prefix")),
    "family": (check_family, ("closure-verified", "members-are-similitudes")),
    "gallery": (check_gallery, ()),
    "hecke": (check_hecke, ("spin-identity", "palindrome-coefficients",
                            "counterpart-identity", "std5-vanishes-at-one")),
    "ylattice": (check_ylattice, ("origin-included", "closed-under-negation")),
    "p1reps": (check_p1reps, ("determinant-one", "representative-count",
                              "first-rows-primitive")),
}

GALLERY_ANCHORS = {
    "solvable": (("twist-order-five", "twist-normalizes-involutions",
                  "involution-closure-similitudes",
                  "scalar-subgroup-order-four", "quotient-exponent-two",
                  "twist-extension-five-fold"), ()),
    "sym3": (tuple(SYM3_VERDICTS) + ("lift-similitude-det-cubed",),
             tuple(k for k, v in SYM3_VERDICTS.items() if not v)),
}


def expected_exit(kind, args):
    "0 for every task but `gallery sym3`, which fails two identities by design."
    return 1 if kind == "cli" and args[:2] == ["gallery", "sym3"] else 0


def check(kind, args, code, report, csv_text=None):
    """Problems with one task's outcome (empty list: correct).

    kind is "cli" (args are the sympkit arguments without --json) or "rou"
    (args are A and optionally "symplectic"); report is the parsed JSON the
    task printed, or None when it printed none.
    """
    problems = []
    _want(problems, "exit code", code, expected_exit(kind, args))
    if not isinstance(report, dict) or not isinstance(
            report.get("results"), dict):
        return problems + ["no report with a results payload"]
    res = report["results"]
    try:
        if kind == "rou":
            return problems + _assertions(report, ()) + check_rou(args, res)
        checker, anchors = CLI_CHECKS[args[0]]
        failing = ()
        if args[0] == "gallery":
            anchors, failing = GALLERY_ANCHORS[args[1]]
        problems += _assertions(report, anchors, failing)
        if args[0] == "census":
            return problems + check_census(args, res, csv_text)
        return problems + checker(args, res)
    except (KeyError, TypeError, ValueError, IndexError,
            ZeroDivisionError) as exc:
        return problems + ["malformed results: %r" % (exc,)]
