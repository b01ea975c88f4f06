"""Command-line driver.

Every subcommand prints a deterministic report (byte-identical for a fixed
argument list, apart from the timestamp) and embeds exact self-checks.
Exit code 0 means every embedded check passed, 1 means at least one failed
or an internal invariant or limit broke (an AssertionError or RuntimeError,
such as a closure cap; the message goes to stderr), 2 means the invocation
itself was bad (unknown flags, values out of range such as an ell that is no
odd prime or, for a family (family, and ceta --enumerate), an ell above 13,
where a family's keys do not pack into 64 bits, a rational argument with a
zero denominator, --enumerate at an ell other than 3 and 5 for gsp4|sp4, or
--threads with ceta --case <family>; --threads has no other effect).  --json
switches any subcommand to the versioned JSON report {schema, command,
timestamp, results, assertions}.  Each subcommand imports the modules it
uses when it runs, so census, ceta, family and p1reps compile the F_ell core
(_base) and not exact_arith; only --enumerate, which lists a group
(finite_census), loads numpy, once those modules compile; main runs OpenBLAS
on one thread unless OPENBLAS_NUM_THREADS is set.
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction

_RING_NAMES = {"z": "Z", "gaussian": "Zi", "eisenstein": "Zw"}

_LEVI_WORDS = {"levib": "LeviB", "levip": "LeviP", "leviq": "LeviQ", "hen": "Hen"}


def _family_tag(text):
    low = text.strip().lower()
    if low in _LEVI_WORDS:
        return _LEVI_WORDS[low]
    if low.startswith("case"):
        low = low[4:]
    if low in ("5", "6", "7", "8", "9"):
        return "Case" + low
    raise ValueError(
        "unknown family %r (want LeviB, LeviP, LeviQ, Hen, or a case 5-9)"
        % (text,))


def _number(text, gaussian=False):
    "A rational (Gaussian if allowed and written with i); x/0 is a bad value."
    try:
        if gaussian and "i" in text:
            from .exact_arith import parse_gaussian

            return parse_gaussian(text)
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


# ---------------------------------------------------------------------------
# subcommands: each returns (results, assertions)


def _census(args, group):
    """The closed-form census of `group` ("gsp4", "sp4" or a family tag)
    and, under --enumerate, the assertion that the census of the group
    listed from its chain equals it."""
    from .census import closed_form_census

    hist = closed_form_census(args.ell, group)
    if not args.enumerate:
        return hist, []
    from .families import FamilySpec, build_family
    from .finite_census import charpoly_census, enumerate_gsp4, enumerate_sp4

    enum = {"gsp4": enumerate_gsp4, "sp4": enumerate_sp4}.get(group)
    listed = (enum(args.ell) if enum
              else build_family(FamilySpec(group, args.ell)))
    return hist, [("closed-form-equals-enumeration",
                   charpoly_census(listed).nu_classes == hist.nu_classes)]


def _cmd_census(args):
    from .census import gsp4_order, sp4_order

    hist, oracle = _census(args, "gsp4")
    classes = hist.classes  # summed over nu on each read
    top_key, top_n = max(classes.items(), key=lambda kv: (kv[1], kv[0]))
    results = {
        "ell": args.ell,
        "order": hist.total,
        "coefficient_classes": len(classes),
        "classes_with_similitude_factor": len(hist.nu_classes),
        "largest_class": {"coeffs": list(top_key), "count": top_n},
    }
    if args.csv:
        rows = hist.csv_rows()
        with open(args.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        results["csv"] = args.csv
        results["csv_rows"] = len(rows) - 1
    fibers = [0] * args.ell  # the census of each coset of Sp4, by nu
    for key, n in hist.nu_classes.items():
        fibers[key[4]] += n
    palindrome = all(
        c3 == c1 * nu % args.ell and c4 == nu * nu % args.ell
        for (c1, _, c3, c4, nu) in hist.nu_classes)
    assertions = [
        ("order-closed-form", hist.total == gsp4_order(args.ell)),
        ("histogram-total",
         fibers[1:] == [sp4_order(args.ell)] * (args.ell - 1)),
        # by construction of the closed-form keys; no independent check exists
        ("palindrome-classes", palindrome),
    ]
    return results, assertions + oracle


def _cmd_family(args):
    from .families import FamilySpec, family_with_base

    spec = FamilySpec(_family_tag(args.case), args.ell)
    grp, base = family_with_base(spec)
    results = {
        "family": spec.tag,
        "ell": args.ell,
        "order": grp.order,
        "similitude_factors": grp.similitude_factors(),
    }
    assertions = [
        # both hold by construction and check nothing further: the build
        # raises AssertionError (exit 1) unless its linear conditions are
        # closed under products, every generator meets them (an extension's
        # need not) and is a similitude, and the chain has the closed order
        ("closure-verified", True),
        ("members-are-similitudes", True),
    ]
    if base is not None:
        results["base_order"] = base.order
        # holds by construction: the build proves base u base.w a group
        assertions.append(("extension-index-two", True))
    return results, assertions


def _cmd_ceta(args):
    from ._base import format_rational
    from .census import _greedy_cover, c_eta_M

    eta = _number(args.eta)
    low = args.case.strip().lower()
    full = low in ("gsp4", "sp4")
    name = low if full else _family_tag(args.case)
    if not full and args.threads is not None:
        raise ValueError("--threads applies to --case gsp4 and sp4 only")
    hist, oracle = _census(args, name)
    count = c_eta_M(hist, eta)
    need = (1 - eta) * hist.total
    trace = [{"coeffs": list(coeffs), "count": n, "covered": covered}
             for coeffs, n, covered in _greedy_cover(hist, need)]
    covered = trace[-1]["covered"] if trace else 0
    results = {
        "group": name,
        "ell": args.ell,
        "eta": str(eta),
        "order": hist.total,
        "required_coverage": format_rational(need),
        "minimal_classes": count,
        "trace": trace,
    }
    assertions = [
        # c_eta_M bisects prefix sums, apart from the greedy trace
        ("coverage-count-consistent", len(trace) == count),
        ("coverage-bound-met", covered >= need),
        ("coverage-minimal-prefix",
         not trace or covered - trace[-1]["count"] < need),
    ]
    return results, assertions + oracle


def _cmd_hecke(args):
    from ._base import one_like
    from .exact_arith import format_gaussian
    from .hecke_l import (SatakeParams, hecke_poly, lambda_p2,
                          satake_to_hecke, spin_factor, std5_factor)

    parts = [t.strip() for t in args.satake.split(",")]
    if len(parts) != 3:
        raise ValueError('--satake wants three comma-separated values, '
                         'e.g. "1,1,1"')
    vals = [_number(t, gaussian=True) for t in parts]
    s = SatakeParams(*vals)
    h = satake_to_hecke(s, args.p)
    spin = spin_factor(s)
    dictionary = hecke_poly(h)
    std5 = std5_factor(s)
    c = s.c_value()
    one = one_like(h.eps)
    results = {
        "p": args.p,
        "a1": format_gaussian(h.a1),
        "a2": format_gaussian(h.a2),
        "eps": format_gaussian(h.eps),
        "c_p": format_gaussian(c),
        "lambda_p2": format_gaussian(lambda_p2(h, c)),
        "spin_factor": spin.to_json_dict(),
        "std5_factor": std5.to_json_dict(),
    }
    counterpart = (h.p * h.a2 + (1 + Fraction(1, args.p ** 2)) * h.eps
                   == h.eps * (c + one))
    assertions = [
        ("spin-identity", dictionary == spin),
        ("palindrome-coefficients",
         spin.coeff(3) == h.eps * spin.coeff(1)
         and spin.coeff(4) == h.eps * h.eps),
        ("counterpart-identity", counterpart),
        ("std5-vanishes-at-one", std5(one) == 0 * one),
    ]
    return results, assertions


def _cmd_ylattice(args):
    from .exact_arith import GaussianRational, format_gaussian
    from .hecke_l import LatticeRing, enumerate_Y

    ring = LatticeRing(_RING_NAMES[args.ring])
    c = _number(args.c)
    pts = enumerate_Y(c, ring)
    if ring.tag == "Z":
        shown = [str(n) for n in sorted(pts)]
        origin = 0 in pts
        negated = all(-n in pts for n in pts)
    elif ring.tag == "Zi":
        shown = [format_gaussian(z)
                 for z in sorted(pts, key=lambda z: (z.re, z.im))]
        origin = GaussianRational(0) in pts
        negated = all(-z in pts for z in pts)
    else:
        shown = ["%d%+d*w" % ab for ab in sorted(pts)]
        origin = (0, 0) in pts
        negated = all((-a, -b) in pts for a, b in pts)
    results = {"ring": args.ring, "c": str(c), "count": len(pts),
               "points": shown}
    assertions = [
        ("origin-included", origin),
        ("closed-under-negation", negated),
    ]
    return results, assertions


def _random_gaussian(rng):
    from .exact_arith import GaussianRational

    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 2)))


def _cmd_gallery(args):
    import random

    from .artin_gallery import (gallery_report, sym3_identities_check,
                                sym3_similitude_factor)

    if args.which == "solvable":
        rep = gallery_report()
        assertions = [
            ("twist-order-five", rep["twist_fifth_power_is_identity"]),
            ("twist-normalizes-involutions",
             rep["twist_normalizes_involution_group"]),
            ("involution-closure-similitudes",
             rep["every_involution_closure_element_similitude"]),
            ("scalar-subgroup-order-four",
             len(rep["scalars_in_involution_closure"]) == 4),
            ("quotient-exponent-two", rep["quotient_mod_sign_exponent"] == 2),
            ("twist-extension-five-fold",
             rep["closure_order_full"]
             == 5 * rep["closure_order_without_twist"]),
        ]
        return rep, assertions
    checks = sym3_identities_check()
    rng = random.Random(20)
    samples = 0
    factor_ok = True
    while samples < 20:
        g = ((_random_gaussian(rng), _random_gaussian(rng)),
             (_random_gaussian(rng), _random_gaussian(rng)))
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if not det:
            continue
        factor_ok = factor_ok and (
            sym3_similitude_factor(g) == det * det * det)
        samples += 1
    results = {
        "identities": [
            {"name": name, "holds": holds, "detail": detail}
            for name, holds, detail in checks],
        "lift_factor_samples": samples,
    }
    assertions = [(name, holds) for name, holds, _ in checks]
    assertions.append(("lift-similitude-det-cubed", factor_ok))
    return results, assertions


def _cmd_p1reps(args):
    from .census import enumerate_P1_reps

    reps = enumerate_P1_reps(args.p, args.beta)
    mod = args.p ** args.beta
    want = 1 if args.beta == 0 else mod + mod // args.p
    results = {
        "p": args.p,
        "beta": args.beta,
        "count": len(reps),
        "matrices": [[list(row) for row in m] for m in reps],
    }
    assertions = [
        ("determinant-one",
         all(m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1 for m in reps)),
        ("representative-count", len(reps) == want),
        ("first-rows-primitive",
         all(m[0][0] % args.p or m[0][1] % args.p for m in reps)),
    ]
    return results, assertions


# ---------------------------------------------------------------------------
# plumbing


def _short(val):
    if isinstance(val, (list, tuple)) and len(val) > 8:
        head = ", ".join(json.dumps(x) for x in val[:8])
        return "[%s, ... %d total]" % (head, len(val))
    if isinstance(val, (dict, list, tuple)):
        return json.dumps(val)
    return str(val)


def _emit(report, as_json, stream):
    if as_json:
        print(json.dumps(report, indent=2), file=stream)
        return
    print("sympkit %s" % report["command"], file=stream)
    for key, val in report["results"].items():
        print("  %s: %s" % (key, _short(val)), file=stream)
    for entry in report["assertions"]:
        print("check %s: %s" % (entry["anchor"],
                                "ok" if entry["pass"] else "FAIL"),
              file=stream)


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="emit the versioned JSON report")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--enumerate", action="store_true",
                      help="also list the group from its generators' chain "
                           "(ell 3 or 5; a family at ell <= 13) and assert "
                           "that its census equals the closed form")
    pool.add_argument("--threads", type=int, default=None,
                      help="accepted for compatibility; no effect (every "
                           "run is single-threaded)")

    top = argparse.ArgumentParser(
        prog="sympkit",
        description="Exact symplectic-similitude computations "
                    "with embedded self-checks.")
    sub = top.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("census", parents=[shared, pool],
                       help="characteristic-polynomial histogram of "
                            "GSp4(F_ell) in closed form, any odd prime ell")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--csv", metavar="PATH",
                   help="also write the histogram as CSV")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("family", parents=[shared],
                       help="build one explicit subgroup family")
    p.add_argument("--case", required=True,
                   help="LeviB, LeviP, LeviQ, Hen, or a case number 5-9")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("ceta", parents=[shared, pool],
                       help="minimal class count covering a (1-eta) fraction")
    p.add_argument("--case", required=True,
                   help="family name, case number, gsp4, or sp4")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--eta", required=True, help="rational in (0,1), e.g. 1/4")
    p.set_defaults(func=_cmd_ceta)

    p = sub.add_parser("hecke", parents=[shared],
                       help="Euler factors from exact Satake parameters")
    p.add_argument("--satake", required=True, metavar='"a0,a1,a2"')
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("ylattice", parents=[shared],
                       help="lattice points with all embeddings bounded")
    p.add_argument("--ring", required=True, choices=sorted(_RING_NAMES))
    p.add_argument("--c", required=True, help="rational bound, e.g. 2 or 9/4")
    p.set_defaults(func=_cmd_ylattice)

    p = sub.add_parser("gallery", parents=[shared],
                       help="reports on the explicit matrix galleries")
    p.add_argument("which", choices=("solvable", "sym3"))
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("p1reps", parents=[shared],
                       help="determinant-1 projective-line representatives")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=_cmd_p1reps)

    return top


def main(argv=None):
    if "numpy" not in sys.modules:
        # sympkit's numpy work is integer-only and calls no BLAS, so the
        # OpenBLAS worker pool would only cost start-up time
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        results, assertions = args.func(args)
    except AssertionError as exc:
        print("assertion failed: %s" % (exc,), file=sys.stderr)
        return 1
    except RuntimeError as exc:  # an internal limit, such as a closure cap
        print("internal error: %s" % (exc,), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    report = {
        "schema": 1,
        "command": " ".join(argv),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "results": results,
        "assertions": [{"anchor": name, "pass": bool(ok)}
                       for name, ok in assertions],
    }
    _emit(report, args.json, sys.stdout)
    return 0 if all(ok for _, ok in assertions) else 1


if __name__ == "__main__":
    sys.exit(main())
