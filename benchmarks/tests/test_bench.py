"""Self-tests of the benchmark: references, span accounting, the tracer,
workload generation and the metric list in BENCHMARK.json.

    python3 -m pytest benchmarks/tests -q
"""

import json
import os
import random
import subprocess
import sys
import threading
import time
from math import comb

import layers
import references
import run
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)


def _report(results, anchors, failing=()):
    return {"schema": 1, "timestamp": "2000-01-01T00:00:00+00:00",
            "results": results,
            "assertions": [{"anchor": a, "pass": a not in failing}
                           for a in anchors]}


def _family_report(order=2880):
    return _report({"family": "Case7", "ell": 3, "order": order,
                    "similitude_factors": [1, 2], "base_order": 1440},
                   ["closure-verified", "members-are-similitudes",
                    "extension-index-two"])


FAMILY_ARGS = ["family", "--case", "7", "--ell", "3"]


# ---------------------------------------------------------------------------
# correctness references


def test_correct_report_passes_and_extra_blocks_are_ignored():
    rep = _family_report()
    rep["schema"] = 2
    rep["metrics"] = {"wall_s": 1.0}
    assert references.check("cli", FAMILY_ARGS, 0, rep) == []


def test_corrupted_results_count_in_fail_ratio(capsys):
    good = references.check("cli", FAMILY_ARGS, 0, _family_report())
    bad = references.check("cli", FAMILY_ARGS, 0, _family_report(order=2881))
    assert good == [] and bad
    task = workloads.Task("cli", FAMILY_ARGS)
    outcomes = [run.Outcome(task, 0, 1.0, 10.0, good),
                run.Outcome(task, 0, 1.0, 10.0, bad)]
    failed, _ = run.summarize(outcomes, 2.0, 0.3)
    assert failed == 1
    assert "fail_ratio: 0.5000 (1 of 2 tasks)" in capsys.readouterr().out


def test_wrong_exit_code_crash_and_missing_report_fail():
    assert references.check("cli", FAMILY_ARGS, 1, _family_report())
    assert references.check("cli", FAMILY_ARGS, -9, None)
    assert references.check("cli", FAMILY_ARGS, 0, {"results": "x"})


def test_sym3_must_fail_exactly_its_two_identities():
    names = list(references.SYM3_VERDICTS) + ["lift-similitude-det-cubed"]
    res = {"identities": [{"name": k, "holds": v, "detail": ""}
                          for k, v in references.SYM3_VERDICTS.items()],
           "lift_factor_samples": 20}
    failing = [k for k, v in references.SYM3_VERDICTS.items() if not v]
    args = ["gallery", "sym3"]
    assert references.check("cli", args, 1, _report(res, names, failing)) == []
    assert references.check("cli", args, 0, _report(res, names, failing))
    assert references.check("cli", args, 1, _report(res, names, failing[:1]))


def test_group_and_family_orders():
    assert references.gsp4_order(3) == 103680
    assert references.sp4_order(3) == 51840
    frozen_3 = {"LeviB": 8, "LeviP": 96, "LeviQ": 96, "Hen": 1152,
                "Case5": 192, "Case6": 2304, "Case7": 2880, "Case8": 384,
                "Case9": 192}
    for tag, want in frozen_3.items():
        assert references.family_order(tag, 3) == want
    assert references.family_order("Hen", 5) == 57600
    assert references.family_order("Case9", 5) == 1920


def test_rou_reference_counts():
    count, _ = references.rou_reference(6, False)
    assert count == comb(13, 4) == 715
    sym_count, _ = references.rou_reference(6, True)
    assert 0 < sym_count < count


def test_hecke_reference_matches_worked_example():
    ref = references.hecke_reference("1/2,3,-2", 5)
    g = references.parse_gauss
    assert ref["a1"] == g("-2") and ref["a2"] == g("-269/500")
    assert ref["eps"] == g("-3/2") and ref["c_p"] == g("11/6")
    assert ref["lambda_p2"] == g("171/20")
    assert ref["spin_factor"] == [g(x) for x in ("1", "2", "-17/4", "-3",
                                                 "9/4")]


def test_parse_gauss_forms():
    g = references.parse_gauss
    assert g("3/2+3/2*i") == references.Gauss(
        references.Fraction(3, 2), references.Fraction(3, 2))
    assert g("-16/27*i") == references.Gauss(0, references.Fraction(-16, 27))
    assert g("-1*i") == references.Gauss(0, -1)
    assert g("5") == references.Gauss(5)


def test_lattice_and_p1_references():
    assert len(references.lattice_points("gaussian", "9/4")) == 9
    assert len(references.lattice_points("z", 4)) == 5
    assert len(references.lattice_points("eisenstein", 3)) == 13
    reps = [((1, a), (0, 1)) for a in range(9)] + [((3 * b, 1), (-1, 0))
                                                   for b in range(3)]
    res = {"p": 3, "beta": 2, "count": 12,
           "matrices": [[list(r) for r in m] for m in reps]}
    anchors = ("determinant-one", "representative-count",
               "first-rows-primitive")
    args = ["p1reps", "--p", "3", "--beta", "2"]
    assert references.check("cli", args, 0, _report(res, anchors)) == []
    res["matrices"][1] = [[1, 0], [0, 1]]  # duplicates the class of (1, 0)
    assert references.check("cli", args, 0, _report(res, anchors))


# ---------------------------------------------------------------------------
# span accounting


def test_self_time_of_synthetic_tree():
    records = [["parent", 0.0, 1.0, None, False, None],
               ["child", 0.1, 0.4, 0, False, None],
               ["child", 0.5, 0.7, 0, False, None]]
    selfs = tracer.self_times(records)
    assert abs(selfs[0] - 0.5) < 1e-12
    assert abs(selfs[1] - 0.3) < 1e-12 and abs(selfs[2] - 0.2) < 1e-12


def test_self_time_counts_overlapping_children_once():
    records = [["parent", 0.0, 1.0, None, False, None],
               ["pool", 0.2, 0.6, 0, False, None],
               ["pool", 0.4, 0.8, 0, False, None]]
    assert abs(tracer.self_times(records)[0] - 0.4) < 1e-12


def test_span_in_pool_thread_gets_submitter_as_parent():
    tr = tracer.Tracer()
    executor = tr.executor_class()
    leaf = tr.wrap(lambda x: threading.get_ident(), "layer.leaf")

    def outer():
        with executor(max_workers=2) as pool:
            return list(pool.map(leaf, range(6)))

    idents = tr.wrap(outer, "layer.outer")()
    assert any(i != threading.get_ident() for i in idents)
    recs = tr.records()
    assert recs[0][0] == "layer.outer" and recs[0][3] is None
    leaves = [r for r in recs if r[0] == "layer.leaf"]
    assert len(leaves) == 6 and all(r[3] == 0 for r in leaves)


def test_errors_are_recorded_and_reraised():
    tr = tracer.Tracer()

    def boom():
        raise ValueError("x")

    try:
        tr.wrap(boom, "layer.boom")()
    except ValueError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert tr.records()[0][4] is True
    assert tr.current() is None


def test_traced_child_wraps_from_import_aliases(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), str(trace),
         "cli", "family", "--case", "LeviB", "--ell", "3"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["order"] == 8
    data = json.loads(trace.read_text())
    assert t0 < data["start"] < data["import_done"]
    recs = data["spans"]
    names = [r[0] for r in recs]
    assert names[0] == "cli.main" and recs[0][3] is None
    # cli calls build_family through its own `from ... import` alias
    build = names.index("finite_census.build_family")
    assert recs[build][3] == 0 and recs[build][5] == {"elements": 8}
    # family_base_subgroup raises for LeviB, and cli catches it
    base = names.index("finite_census.family_base_subgroup")
    assert recs[base][4] is True


# ---------------------------------------------------------------------------
# workloads and the metric contract


def _shape(tasks):
    kinds = {}
    for t in tasks:
        key = (t.kind, t.args[0], t.args[1] if t.args[0] == "ceta" else "")
        kinds[key] = kinds.get(key, 0) + 1
    return kinds


def test_workloads_are_seeded_and_fixed_in_shape():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1, "out")
        assert [t.label() for t in a] == [
            t.label() for t in workloads.build(name, 1, "out")]
        b = workloads.build(name, 2, "out")
        assert [t.label() for t in a] != [t.label() for t in b]
        assert _shape(a) == _shape(b)
        assert all(t.threads in (None, 1, 2) for t in a)


def test_every_group_is_spread_evenly_over_the_run():
    for name in workloads.WORKLOADS:
        groups = workloads._BUILDERS[name](random.Random(name), "out")
        order = workloads._spread(random.Random(1), groups)
        assert sorted(map(id, order)) == sorted(id(t) for g in groups for t in g)
        for group in groups:
            members = {id(t) for t in group}
            at = [k for k, t in enumerate(order) if id(t) in members]
            # between two members lie at most len(order)/len(group) tasks of
            # the other groups, plus one per group for the offsets
            limit = len(order) / len(group) + len(groups)
            gaps = [at[0] + 1] + [b - a for a, b in zip(at, at[1:])]
            assert max(gaps) <= limit, (name, group[0].label(), gaps)


def test_tail_percentile_leaves_ten_beyond():
    value, pct, beyond = run.tail([float(k) for k in range(1, 21)])
    assert (value, pct, beyond) == (10.0, 50.0, 10)
    value, pct, beyond = run.tail([float(k) for k in range(1, 41)])
    assert (value, pct, beyond) == (30.0, 75.0, 10)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER
    task = workloads.Task("cli", FAMILY_ARGS)
    _, metrics = run.summarize([run.Outcome(task, 0, 1.0, 10.0, [])], 1.0, 0.3)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}


def test_layer_metrics_cover_every_per_layer_name():
    totals = layers.Totals()
    totals.add([["cli.main", 0.0, 1.0, None, False, None],
                ["finite_census.mulclose", 0.1, 0.6, 0, False,
                 {"elements": 100, "new": 95}],
                ["finite_census.pack_matrices", 0.2, 0.3, 1, False,
                 {"rows": 400}]])
    probes = {name: {"value": 1.0} for name in layers.PROBES}
    out = layers.metrics(totals, probes, 0.3, 1.5, 1.4)
    assert set(out) == set(layers.PER_LAYER)
    assert abs(out["finite_census.mulclose.elements_per_s"]["value"]
               - 200.0) < 1e-9
    assert out["finite_census.mulclose.useful_ratio"]["value"] == 95 / 400
    assert abs(out["cli.self_s"]["value"] - 0.5) < 1e-12
    assert abs(out["trace.uncovered_s"]["value"] - 0.2) < 1e-12
    idle = layers.idle(totals)
    assert "artin_gallery.group_closure.useful_ratio" in idle
    assert "finite_census.mulclose.self_s" not in idle


def test_products_are_counted_under_the_innermost_closure():
    # mulclose's packs: one directly below it and two in a pool shard whose
    # span nests under it; a pack outside any closure is not a product
    census = [["finite_census.enumerate_gsp4", 0.0, 1.0, None, False, None],
              ["finite_census.mulclose", 0.1, 0.9, 0, False,
               {"elements": 50, "new": 45}],
              ["finite_census.pack_matrices", 0.1, 0.2, 1, False,
               {"rows": 5}],
              ["finite_census.unpack_keys", 0.2, 0.5, 1, False, None],
              ["finite_census.pack_matrices", 0.3, 0.4, 3, False,
               {"rows": 60}],
              ["finite_census.pack_matrices", 0.4, 0.5, 1, False,
               {"rows": 35}],
              ["finite_census.pack_matrices", 0.9, 1.0, 0, False,
               {"rows": 1000}]]
    # group_closure's products are its mat_mul calls, one product each; the
    # mat_mul after it returns belongs to the caller
    gallery = [["artin_gallery.gallery_report", 0.0, 1.0, None, False, None],
               ["artin_gallery.group_closure", 0.0, 0.5, 0, False,
                {"elements": 8, "new": 5}]]
    gallery += [["mat.mat_mul", 0.1 + k / 100, 0.105 + k / 100, 1, False,
                 None] for k in range(16)]
    gallery += [["mat.mat_mul", 0.6, 0.7, 0, False, None]]
    totals = layers.Totals()
    totals.add(census)
    totals.add(gallery)
    assert totals.products == {"finite_census.mulclose": 100,
                               "artin_gallery.group_closure": 16}
    probes = {name: {"value": 1.0} for name in layers.PROBES}
    out = layers.metrics(totals, probes, 0.0, 2.0, 2.0)
    assert out["finite_census.mulclose.useful_ratio"]["value"] == 45 / 100
    assert out["artin_gallery.group_closure.useful_ratio"]["value"] == 5 / 16
