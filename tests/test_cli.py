"""End-to-end checks of the command-line driver."""

import argparse
import json
import re
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sympkit import census, families, finite_census
from sympkit.census import c_eta_M
from sympkit.cli import build_parser, main
from sympkit.families import FamilySpec, build_family
from sympkit.finite_census import charpoly_census, enumerate_gsp4
from sympkit.hecke_l import LatticeRing, enumerate_Y


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *(argv + ("--json",)))
    return code, json.loads(out)


def test_census_human_output(capsys):
    code, out, _ = run(capsys, "census", "--ell", "3")
    assert code == 0
    assert "order: 103680" in out
    assert "coefficient_classes: 15" in out
    assert "check palindrome-classes: ok" in out


def test_census_json_schema(capsys):
    code, rep = run_json(capsys, "census", "--ell", "3")
    assert code == 0
    assert rep["schema"] == 1
    assert rep["command"].startswith("census --ell 3")
    assert set(rep) == {"schema", "command", "timestamp", "results",
                        "assertions"}
    assert rep["results"]["order"] == 103680
    assert all(entry["pass"] for entry in rep["assertions"])
    anchors = [entry["anchor"] for entry in rep["assertions"]]
    assert anchors == ["order-closed-form", "histogram-total",
                       "palindrome-classes"]


def test_timestamp_is_utc_iso_to_the_second(capsys):
    # the format datetime.now(timezone.utc).isoformat(timespec="seconds")
    # writes, read back by datetime as the present moment in UTC
    _, rep = run_json(capsys, "census", "--ell", "3")
    stamp = rep["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00",
                        stamp), stamp
    when = datetime.fromisoformat(stamp)
    assert when.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - when) < timedelta(minutes=1)


def test_reports_deterministic_modulo_timestamp(capsys):
    _, first, _ = run(capsys, "census", "--ell", "3", "--json")
    _, second, _ = run(capsys, "census", "--ell", "3", "--json",
                       "--threads", "2")
    mask = re.compile(r'"timestamp": "[^"]*"')
    canon = lambda s: mask.sub('"timestamp": "-"', s)
    a, b = json.loads(first), json.loads(second)
    assert a["results"] == b["results"]
    # same argv repeated: byte-identical apart from the timestamp
    _, again, _ = run(capsys, "census", "--ell", "3", "--json")
    assert canon(first) == canon(again)


def test_census_csv(tmp_path, capsys):
    path = tmp_path / "hist.csv"
    code, rep = run_json(capsys, "census", "--ell", "3", "--csv", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    want = charpoly_census(enumerate_gsp4(3)).csv_rows()
    assert lines == want
    assert lines[0] == "c1,c2,c3,c4,nu,count"
    assert rep["results"]["csv_rows"] == len(want) - 1


def test_family_case7(capsys):
    code, rep = run_json(capsys, "family", "--case", "7", "--ell", "3")
    assert code == 0
    res = rep["results"]
    assert res["family"] == "Case7"
    assert res["order"] == 2880
    assert res["base_order"] == 1440
    assert res["similitude_factors"] == [1, 2]
    by_anchor = {e["anchor"]: e["pass"] for e in rep["assertions"]}
    assert by_anchor["extension-index-two"]


def test_family_tag_spellings(capsys):
    for spelling in ("Case7", "case7", "7"):
        code, rep = run_json(capsys, "family", "--case", spelling,
                             "--ell", "3")
        assert code == 0 and rep["results"]["order"] == 2880
    code, _, err = run(capsys, "family", "--case", "Case10", "--ell", "3")
    assert code == 2 and "unknown family" in err


def _patch_row(monkeypatch, tag, gens=None, order=None):
    "Replace the generators or the order formula of a _FAMILIES row."
    row = families._FAMILIES[tag]
    monkeypatch.setitem(families._FAMILIES, tag, (
        row[0] if gens is None else gens, row[1],
        row[2] if order is None else order, row[3]))


def _levi_b_with_a_non_similitude(monkeypatch):
    # {1, diag(1, 1, 1, 2)} is a diagonal group mod 3, but its second member
    # pairs e1 with e3 by 1 and e2 with e4 by 2, so t(m) J m is no multiple
    # of J
    _patch_row(monkeypatch, "LeviB", gens=lambda ell: [np.diag([1, 1, 1, 2])],
               order=lambda q: 2)


def test_family_non_similitude_member_is_an_internal_failure(monkeypatch,
                                                             capsys):
    # the proof tests every generator as a similitude, so the build fails
    # before any report is printed
    _levi_b_with_a_non_similitude(monkeypatch)
    code, out, err = run(capsys, "family", "--case", "LeviB", "--ell", "3")
    assert code == 1 and out == ""
    assert "LeviB: the generators leave the family" in err


def test_ceta_non_similitude_member_is_an_internal_failure(monkeypatch,
                                                          capsys):
    # that group has no census; --enumerate lists the family the package
    # builds, so this is an internal failure (exit 1), not a usage error
    # (exit 2).  Without --enumerate the census is LeviB's closed form, which
    # lists nothing
    _levi_b_with_a_non_similitude(monkeypatch)
    code, out, err = run(capsys, "ceta", "--case", "LeviB", "--ell", "3",
                         "--eta", "1/4", "--enumerate")
    assert code == 1 and out == ""
    assert "LeviB: the generators leave the family" in err


def test_family_with_a_dropped_generator_falls_short(monkeypatch, capsys):
    # without its last generator each family (or base) closes to a proper
    # subgroup, whose count misses the order
    for tag, (gens, _, _, _) in families._FAMILIES.items():
        with monkeypatch.context() as patch:
            _patch_row(patch, tag, gens=lambda ell, gens=gens: gens(ell)[:-1])
            code, out, err = run(capsys, "family", "--case", tag, "--ell", "3")
        assert code == 1 and out == "", tag
        assert re.search(tag + r"( base)?: the generators give \d+ elements, "
                               r"not \d+", err), (tag, err)


def test_family_with_a_generator_outside_the_pattern_fails(monkeypatch,
                                                           capsys):
    # each swap closes, with the other generators, to a group of the
    # family's order, but it breaks the zero pattern
    for tag, w in (("LeviB", families._SWAP),
                   ("Hen", families._EXCHANGE)):
        gens = families._FAMILIES[tag][0]
        with monkeypatch.context() as patch:
            _patch_row(patch, tag,
                       gens=lambda ell, g=gens, w=w: g(ell)[:-1] + [w])
            code, out, err = run(capsys, "family", "--case", tag, "--ell", "3")
        assert code == 1 and out == "", tag
        assert tag + ": the generators leave the family" in err


def test_family_with_a_wrong_order_fails(monkeypatch, capsys):
    # one more than the order: the count falls short; one less: the closure
    # outgrows its cap
    for tag, (_, _, order, _) in families._FAMILIES.items():
        for shift, says in ((1, "elements, not"), (-1, "give more than")):
            with monkeypatch.context() as patch:
                _patch_row(patch, tag,
                           order=lambda q, o=order, d=shift: o(q) + d)
                code, out, err = run(capsys, "family", "--case", tag,
                                     "--ell", "3")
            assert code == 1 and out == "", (tag, shift)
            assert tag in err and says in err, (tag, shift, err)


def test_census_beyond_the_enumerated_primes(capsys):
    for ell in (5, 7):
        code, rep = run_json(capsys, "census", "--ell", str(ell))
        assert code == 0 and all(e["pass"] for e in rep["assertions"])
        res = rep["results"]
        assert res["order"] == finite_census.gsp4_order(ell)
        # every (a, b) in F_ell^2 with every nu is the char poly of an element
        assert res["classes_with_similitude_factor"] == (ell - 1) * ell * ell


def test_enumerate_flag_adds_the_oracle_anchor(capsys):
    for argv in (("census", "--ell", "3"),
                 ("ceta", "--case", "sp4", "--ell", "3", "--eta", "1/4"),
                 ("ceta", "--case", "Case6", "--ell", "3", "--eta", "1/4"),
                 ("ceta", "--case", "7", "--ell", "3", "--eta", "1/4")):
        _, plain = run_json(capsys, *argv)
        code, checked = run_json(capsys, *argv, "--enumerate")
        assert code == 0 and checked["results"] == plain["results"]
        assert checked["assertions"] == plain["assertions"] + [
            {"anchor": "closed-form-equals-enumeration", "pass": True}]


def test_enumerate_checks_a_family_closed_form(monkeypatch, capsys):
    # a closed form that moves one element between two classes keeps its
    # total, so the coverage anchors still pass; only the census of the
    # listing tells
    closed = census.closed_form_census

    def moved(ell, group):
        hist = closed(ell, group)
        nu_classes = dict(hist.nu_classes)
        first, second = sorted(nu_classes)[:2]
        nu_classes[first] += 1
        nu_classes[second] -= 1
        return census.CharPolyHistogram(ell, nu_classes)

    monkeypatch.setattr(census, "closed_form_census", moved)
    argv = ("ceta", "--case", "Hen", "--ell", "3", "--eta", "1/4")
    assert run_json(capsys, *argv)[0] == 0
    code, rep = run_json(capsys, *argv, "--enumerate")
    assert code == 1
    assert [e["anchor"] for e in rep["assertions"] if not e["pass"]] \
        == ["closed-form-equals-enumeration"]


def test_census_anchors_check_the_histogram(monkeypatch, capsys):
    # a census that moves one element between the nu fibers keeps its total
    # and its palindromes, but not its fibers
    closed = census.closed_form_census

    def shifted(ell, group):
        hist = closed(ell, group)
        nu_classes = dict(hist.nu_classes)
        nu_classes[(0, 0, 0, 1, 1)] += 1
        nu_classes[(0, 0, 0, 1, 2)] -= 1
        return census.CharPolyHistogram(ell, nu_classes)

    # cli looks the closed form up in its home module when the command runs
    monkeypatch.setattr(census, "closed_form_census", shifted)
    code, rep = run_json(capsys, "census", "--ell", "3")
    assert code == 1
    by_anchor = {e["anchor"]: e["pass"] for e in rep["assertions"]}
    assert by_anchor == {"order-closed-form": True, "histogram-total": False,
                         "palindrome-classes": True}


def test_census_wrong_closure_order_is_an_internal_failure(monkeypatch,
                                                           capsys):
    order = finite_census.gsp4_order
    monkeypatch.setattr(finite_census, "gsp4_order", lambda ell: order(ell) + 1)
    code, _, err = run(capsys, "census", "--ell", "3", "--enumerate")
    assert code == 1
    assert "GSp4: the generators give 103680 elements, not 103681" in err


def test_enumeration_from_bad_generators_is_an_internal_failure(monkeypatch,
                                                                capsys):
    # a generator of factor 2 among Sp4's, and the SL2 of the Siegel Levi
    # alone, a proper subgroup: the proof fails, which is no usage error
    full_gens = finite_census._full_gens
    for edit, says in (
            (lambda gens: gens + [np.diag([1, 1, 2, 2])],
             "Sp4: the generators give more than 51840 elements"),
            (lambda gens: gens[:2],
             "Sp4: the generators give 24 elements, not 51840")):
        monkeypatch.setattr(finite_census, "_full_gens",
                            lambda ell, name: edit(full_gens(ell, name)))
        code, out, err = run(capsys, "ceta", "--case", "sp4", "--ell", "3",
                             "--eta", "1/4", "--enumerate")
        assert code == 1 and out == "" and says in err, err


def test_family_enumerates_its_base_once(monkeypatch, capsys):
    # `family` and `ceta` build the base's chain once, from the generators;
    # the doubled family's chain extends the base's by w, and is built once
    calls = []
    chain = families._chain

    def recorded(gens, ell, base=None, cap=None):
        out = chain(gens, ell, base, cap)
        calls.append((len(gens), base and families._order(base), cap,
                      families._order(out)))
        return out

    monkeypatch.setattr(families, "_chain", recorded)
    code, rep = run_json(capsys, "family", "--case", "8", "--ell", "3")
    assert code == 0 and calls == [(3, None, 192, 192), (1, 192, 384, 384)]
    assert rep["results"]["order"] == 384
    assert rep["results"]["base_order"] == 192
    assert all(entry["pass"] for entry in rep["assertions"])
    calls.clear()
    code, _ = run_json(capsys, "ceta", "--case", "8", "--ell", "3",
                       "--eta", "1/4", "--enumerate")
    assert code == 0 and calls == [(3, None, 192, 192), (1, 192, 384, 384)]


def test_family_at_ell_13_reaches_its_chain(monkeypatch, capsys):
    # Hen at ell = 13 holds 57,238,272 elements, and Case7 115,839,360, but a
    # build holds no key set: no budget refuses it, and its chain is built.
    # ceta reads their closed forms and builds no chain at all
    def no_chain(*args, **kwargs):
        raise RuntimeError("the chain was reached")

    monkeypatch.setattr(families, "_chain", no_chain)
    code, out, err = run(capsys, "family", "--case", "Hen", "--ell", "13")
    assert code == 1 and out == ""
    assert "internal error: the chain was reached" in err
    for case, order in (("Hen", 57238272), ("7", 115839360)):
        code, rep = run_json(capsys, "ceta", "--case", case, "--ell", "13",
                             "--eta", "1/4")
        assert code == 0 and rep["results"]["order"] == order


def test_family_refuses_primes_beyond_the_key_width(capsys):
    # at ell = 17 an entry takes 5 bits and 16 of them overflow a 64-bit key:
    # a usage error wherever a family is listed (FamilySpec refuses it before
    # any chain is built); a closed-form census lists nothing, so it runs
    for argv in (("family", "--case", "LeviB"),
                 ("ceta", "--case", "7", "--eta", "1/4", "--enumerate"),
                 ("ceta", "--case", "LeviB", "--eta", "1/4", "--enumerate")):
        code, out, err = run(capsys, *argv, "--ell", "17")
        assert code == 2 and out == ""
        assert "ell = 17 does not pack into 64-bit keys" in err
    assert run(capsys, "family", "--case", "LeviB", "--ell", "13")[0] == 0
    # Case7 is its base, of the row's order, doubled by w
    for case, tag, index in (("LeviB", "LeviB", 1), ("7", "Case7", 2)):
        code, rep = run_json(capsys, "ceta", "--case", case, "--ell", "17",
                             "--eta", "1/4")
        assert code == 0 and all(e["pass"] for e in rep["assertions"])
        assert rep["results"]["order"] \
            == index * families._FAMILIES[tag][2](17)


def test_runtime_errors_are_internal_failures(monkeypatch, capsys):
    # an internal limit (closure cap, int64 headroom) is no usage error
    def capped(ell, group):
        raise RuntimeError("closure cap exceeded (10 elements, cap 9)")

    monkeypatch.setattr(census, "closed_form_census", capped)
    code, out, err = run(capsys, "census", "--ell", "3")
    assert code == 1 and out == ""
    assert "closure cap exceeded (10 elements, cap 9)" in err


def test_family_takes_no_pool_flags(capsys):
    code, _, err = run(capsys, "family", "--case", "Hen", "--ell", "3",
                       "--threads", "2")
    assert code == 2 and "unrecognized arguments" in err


def test_ceta_family_takes_no_pool_flags(capsys):
    # a family census enumerates no full group, so --threads is a usage
    # error there
    says = "--threads applies to --case gsp4 and sp4 only"
    for case in ("7", "8", "Hen"):
        code, out, err = run(capsys, "ceta", "--case", case, "--ell", "3",
                             "--eta", "1/4", "--threads", "2")
        assert code == 2 and out == "" and err == "error: %s\n" % says, case
    # the full groups keep accepting it, with or without --enumerate
    for argv in (("census", "--ell", "3"),
                 ("ceta", "--case", "gsp4", "--ell", "3", "--eta", "1/4")):
        code, _ = run_json(capsys, *argv, "--threads", "2")
        assert code == 0


def test_enumeration_is_not_priced(capsys):
    # the census streams the listing and holds no key set, and no memory
    # budget is left to refuse --enumerate
    for argv in (("census", "--ell", "3"),
                 ("ceta", "--case", "sp4", "--ell", "3", "--eta", "1/4")):
        code, rep = run_json(capsys, *argv, "--enumerate")
        assert code == 0
        by_anchor = {e["anchor"]: e["pass"] for e in rep["assertions"]}
        assert by_anchor["closed-form-equals-enumeration"]


def test_ceta_matches_library(capsys):
    code, rep = run_json(capsys, "ceta", "--case", "7", "--ell", "3",
                         "--eta", "1/4")
    assert code == 0
    hist = charpoly_census(build_family(FamilySpec("Case7", 3)))
    from fractions import Fraction
    assert rep["results"]["minimal_classes"] == c_eta_M(hist, Fraction(1, 4))
    trace = rep["results"]["trace"]
    assert len(trace) == rep["results"]["minimal_classes"]
    covered = [step["covered"] for step in trace]
    assert covered == sorted(covered)
    counts = [step["count"] for step in trace]
    assert counts == sorted(counts, reverse=True)


def test_ceta_count_anchor_checks_the_trace(monkeypatch, capsys):
    # a trace that takes the smallest classes first still reaches the bound
    # with a minimal prefix, but it is longer than the least count, which
    # c_eta_M finds apart from the trace
    def smallest_first(hist, need):
        cover, covered = [], 0
        for coeffs, n in sorted(hist.classes.items(), key=lambda kv: kv[::-1]):
            if covered >= need:
                break
            covered += n
            cover.append((coeffs, n, covered))
        return cover

    monkeypatch.setattr(census, "_greedy_cover", smallest_first)
    code, rep = run_json(capsys, "ceta", "--case", "gsp4", "--ell", "3",
                         "--eta", "1/4")
    assert code == 1
    by_anchor = {e["anchor"]: e["pass"] for e in rep["assertions"]}
    assert by_anchor == {"coverage-count-consistent": False,
                         "coverage-bound-met": True,
                         "coverage-minimal-prefix": True}


def test_ceta_rejects_bad_eta(capsys):
    for eta in ("0", "1", "7/4"):
        code, _, err = run(capsys, "ceta", "--case", "7", "--ell", "3",
                           "--eta", eta)
        assert code == 2 and "eta" in err
    # a zero denominator is a bad value too, not a traceback
    code, _, err = run(capsys, "ceta", "--case", "gsp4", "--ell", "3",
                       "--eta", "1/0")
    assert code == 2 and err.startswith("error:") and "1/0" in err


def test_hecke_trivial_point(capsys):
    code, rep = run_json(capsys, "hecke", "--satake", "1,1,1", "--p", "2")
    assert code == 0
    res = rep["results"]
    assert res["a1"] == "4"
    assert res["a2"] == "19/8"
    assert res["lambda_p2"] == "19/2"
    assert res["spin_factor"]["coeffs"] == ["1", "-4", "6", "-4", "1"]
    assert all(entry["pass"] for entry in rep["assertions"])


def test_hecke_gaussian_input(capsys):
    code, rep = run_json(capsys, "hecke", "--satake", "1*i,1,-1", "--p", "3")
    assert code == 0
    assert all(entry["pass"] for entry in rep["assertions"])
    assert rep["results"]["eps"] == "1"  # (i)^2 * 1 * (-1)


def test_hecke_bad_inputs(capsys):
    code, _, err = run(capsys, "hecke", "--satake", "1,1", "--p", "2")
    assert code == 2 and "three comma-separated" in err
    code, _, _ = run(capsys, "hecke", "--satake", "1,1,1", "--p", "4")
    assert code == 2
    code, _, _ = run(capsys, "hecke", "--satake", "0,1,1", "--p", "2")
    assert code == 2
    for satake in ("1/0,1,1", "1,1/0*i,1"):
        code, _, err = run(capsys, "hecke", "--satake", satake, "--p", "3")
        assert code == 2 and err.startswith("error:") and "1/0" in err


def test_ylattice_counts(capsys):
    code, rep = run_json(capsys, "ylattice", "--ring", "gaussian",
                         "--c", "2")
    assert code == 0
    assert rep["results"]["count"] == 9
    for ring, tag, c in (("z", "Z", "4"), ("eisenstein", "Zw", "3")):
        code, rep = run_json(capsys, "ylattice", "--ring", ring, "--c", c)
        assert code == 0
        from fractions import Fraction
        want = len(enumerate_Y(Fraction(c), LatticeRing(tag)))
        assert rep["results"]["count"] == want
        assert len(rep["results"]["points"]) == want


def test_gallery_solvable_and_alias(capsys):
    code, rep = run_json(capsys, "gallery", "solvable")
    assert code == 0
    res = rep["results"]
    assert res["closure_order_without_twist"] == 64
    assert res["closure_order_full"] == 320
    assert res["generator_nu"]["T"] is None
    assert res["generator_nu"]["A2"] == "-1"
    assert all(entry["pass"] for entry in rep["assertions"])
    # the hidden `martin` alias of `solvable` is gone: a usage error
    assert run(capsys, "gallery", "martin")[0] == 2


def test_gallery_sym3_reports_honest_failures(capsys):
    code, rep = run_json(capsys, "gallery", "sym3")
    assert code == 1
    verdicts = [item["holds"] for item in rep["results"]["identities"]]
    assert verdicts == [False, True, False, True]
    by_anchor = {e["anchor"]: e["pass"] for e in rep["assertions"]}
    assert by_anchor["lift-similitude-det-cubed"]
    assert not by_anchor["P_inverse_equals_P_transpose"]
    assert by_anchor["P_conjugates_antidiag_image_to_diag"]


def test_p1reps(capsys):
    code, rep = run_json(capsys, "p1reps", "--p", "3", "--beta", "2")
    assert code == 0
    assert rep["results"]["count"] == 12
    assert all(entry["pass"] for entry in rep["assertions"])
    code, _, _ = run(capsys, "p1reps", "--p", "4", "--beta", "1")
    assert code == 2


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "census")[0] == 2          # missing --ell
    assert run(capsys, "census", "--ell", "9")[0] == 2  # not a prime
    # the closed form runs at any odd prime; the enumeration only at 3 and 5
    assert run(capsys, "census", "--ell", "7", "--enumerate")[0] == 2
    # no memory budget is settable: the parser refuses --budget-mb
    for ell, mb in (("5", "300"), ("3", "64"), ("3", "-1")):
        code, out, err = run(capsys, "census", "--ell", ell, "--enumerate",
                             "--budget-mb", mb)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --budget-mb %s" % mb in err
    code, _, err = run(capsys, "ylattice", "--ring", "z", "--c", "1/0")
    assert code == 2 and err.startswith("error:")


def test_threads_env_override(monkeypatch, capsys):
    # no run starts a pool, so SYMPKIT_THREADS, even unparsable, changes
    # neither the report nor the exit code
    argv = ("census", "--ell", "3", "--enumerate")
    monkeypatch.delenv("SYMPKIT_THREADS", raising=False)
    code, want = run_json(capsys, *argv)
    assert code == 0 and want["results"]["order"] == 103680
    for value in ("2", "many"):
        monkeypatch.setenv("SYMPKIT_THREADS", value)
        code, rep = run_json(capsys, *argv)
        assert code == 0
        assert (rep["results"], rep["assertions"]) == (want["results"],
                                                       want["assertions"])


def test_readme_usage_names_only_accepted_flags():
    # every --flag in the README's "Command line" block is one the parser
    # takes for that subcommand, so a removed flag cannot linger there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    lines = [line.split() for line in block.splitlines() if line.strip()]
    assert [words[1] for words in lines] == list(subparsers.choices)
    for words in lines:
        accepted = subparsers.choices[words[1]]._option_string_actions
        for flag in re.findall(r"--[a-z][a-z-]*", " ".join(words)):
            assert flag in accepted, (words[1], flag)
