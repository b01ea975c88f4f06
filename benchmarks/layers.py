"""Per-layer metrics of a traced workload run, from its tasks' span files.

A layer is one sympkit module (`_mat` is reported as `mat`).  Self times
and call counts are summed over every task of the run; rates divide a count
taken at the call boundary by the inclusive time of the same spans.
PER_LAYER lists every metric with its unit and direction; BENCHMARK.json
lists the same names.  Every traced run reports every metric, so a metric
whose spans a workload never calls reads 0 there; `idle` names them.
Exceptions escaping spanned calls are counted per layer but, like
fail_ratio, printed rather than reported as metrics: they are 0 whenever
the program is correct.
"""

from collections import defaultdict

from tracer import LAYERS, covered, self_times

LAYER_NAMES = tuple(LAYERS.values())

DICTIONARY = tuple("hecke_l." + n for n in (
    "satake_to_hecke", "hecke_poly", "spin_factor", "std5_factor", "lambda_p2"))

# metric -> span names whose self times it sums
SELF = {
    "finite_census.mulclose.self_s": ("finite_census.mulclose",),
    "finite_census.enumerate.self_s": ("finite_census.enumerate_sp4",
                                       "finite_census.enumerate_gsp4"),
    "finite_census.charpoly_census.self_s": ("finite_census.charpoly_census",),
    "finite_census.c_eta_M.self_s": ("finite_census.c_eta_M",),
    "finite_census.build_family.self_s": ("finite_census.build_family",),
    "finite_census.family_base_subgroup.self_s": (
        "finite_census.family_base_subgroup",),
    "finite_census.nu_values.self_s": ("finite_census.nu_values",),
    "finite_census.pack_unpack.self_s": ("finite_census.pack_matrices",
                                         "finite_census.unpack_keys"),
    "artin_gallery.group_closure.self_s": ("artin_gallery.group_closure",),
    "artin_gallery.quotient_by_sign.self_s": ("artin_gallery.quotient_by_sign",),
    "artin_gallery.gallery_report.self_s": ("artin_gallery.gallery_report",),
    "mat.mat_mul.self_s": ("mat.mat_mul",),
    "gsp4_core.try_similitude.self_s": ("gsp4_core.try_similitude",),
    "gsp4_core.lambda_rep.self_s": ("gsp4_core.lambda_rep",),
    "hecke_l.rou_charpolys.self_s": ("hecke_l.rou_charpolys",),
    "hecke_l.dictionary.self_s": DICTIONARY,
    "hecke_l.enumerate_Y.self_s": ("hecke_l.enumerate_Y",),
    "exact_arith.upoly_from_roots.self_s": ("exact_arith.upoly_from_roots",),
}

# metric -> (span name, unit): elements counted at the call boundary per
# inclusive second of the same spans
RATE = {
    "finite_census.mulclose.elements_per_s": ("finite_census.mulclose",
                                              "elements/s"),
    "finite_census.charpoly_census.rows_per_s": (
        "finite_census.charpoly_census", "rows/s"),
    "finite_census.build_family.elements_per_s": (
        "finite_census.build_family", "elements/s"),
    "artin_gallery.group_closure.elements_per_s": (
        "artin_gallery.group_closure", "elements/s"),
    "hecke_l.rou_charpolys.factors_per_s": ("hecke_l.rou_charpolys",
                                            "factors/s"),
}

# metric -> closure span: new elements / products formed
USEFUL = {
    "finite_census.mulclose.useful_ratio": "finite_census.mulclose",
    "artin_gallery.group_closure.useful_ratio": "artin_gallery.group_closure",
}

# closure span -> the span that forms one batch of its products; a
# pack_matrices span counts the rows it packs, a mat_mul span one product
PRODUCTS = {
    "finite_census.mulclose": "finite_census.pack_matrices",
    "artin_gallery.group_closure": "mat.mat_mul",
}

CALLS = {
    "mat.mat_mul.calls": "mat.mat_mul",
    "gsp4_core.try_similitude.calls": "gsp4_core.try_similitude",
}

PROBES = {
    "finite_census.pack_rows_per_s": "rows/s",
    "finite_census.unpack_rows_per_s": "rows/s",
    "finite_census.charpoly_coeffs_rows_per_s": "rows/s",
    "mat.mat_mul_per_s": "mul/s",
    "exact_arith.fraction_mul_per_s": "mul/s",
    "exact_arith.gaussian_mul_per_s": "mul/s",
    "exact_arith.cyclotomic_mul_per_s": "mul/s",
}

# run-level accounting of the traced run
TRACE = {
    "cli.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
    "trace.uncovered_ratio": ("ratio", "lower"),
}


def _per_layer():
    out = {}
    for name in SELF:
        out[name] = ("s", "lower")
    for layer in LAYER_NAMES:
        out[layer + ".self_s"] = ("s", "lower")
    for name, (_, unit) in RATE.items():
        out[name] = (unit, "higher")
    for name in USEFUL:
        out[name] = ("ratio", "higher")
    for name in CALLS:
        out[name] = ("count", "lower")
    for name, unit in PROBES.items():
        out[name] = (unit, "higher")
    out.update(TRACE)
    return out


# metric name -> (unit, better)
PER_LAYER = _per_layer()


class Totals:
    """Per span name: self seconds, inclusive seconds, calls, errors,
    counts; per closure span: products formed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.products = defaultdict(int)
        self.covered_s = 0.0
        self.spans = 0

    def add(self, records):
        "Fold in one task's span records; returns its top-level covered time."
        selfs = self_times(records)
        top = []
        # innermost closure span enclosing each span (a parent always
        # precedes its children in the record list)
        closure = [None] * len(records)
        for k, (rec, own) in enumerate(zip(records, selfs)):
            name, start, end, parent, error, counts = rec
            self.self_s[name] += own
            self.incl_s[name] += end - start
            self.calls[name] += 1
            self.errors[name] += bool(error)
            for key, val in (counts or {}).items():
                self.counts[name][key] += val
            if parent is None:
                top.append((start, end))
                above = None
            else:
                above = closure[parent]
            closure[k] = name if name in PRODUCTS else above
            if above is not None and PRODUCTS[above] == name:
                self.products[above] += (counts or {}).get("rows", 1)
        self.spans += len(records)
        top_s = covered(top)
        self.covered_s += top_s
        return top_s

    def layer_sum(self, table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)


def idle(totals):
    "The span metrics whose spans were never called."
    spans = dict(SELF)
    spans.update({name: (span,) for name, (span, _) in RATE.items()})
    spans.update({name: (span,) for name, span in USEFUL.items()})
    spans.update({name: (span,) for name, span in CALLS.items()})
    return [name for name, names in spans.items()
            if not any(totals.calls[s] for s in names)]


def metrics(totals, probes, import_s, traced_s, untraced_s):
    """Every PER_LAYER metric as {"value", "unit"}.

    import_s: summed launch-to-import time of the traced tasks;
    traced_s / untraced_s: summed task latencies with tracing on / off.
    """
    vals = {}
    for name, spans in SELF.items():
        vals[name] = sum(totals.self_s[s] for s in spans)
    for layer in LAYER_NAMES:
        vals[layer + ".self_s"] = totals.layer_sum(totals.self_s, layer)
    for name, (span, _) in RATE.items():
        secs = totals.incl_s[span]
        vals[name] = totals.counts[span]["elements"] / secs if secs else 0.0
    for name, span in USEFUL.items():
        made = totals.products[span]
        vals[name] = totals.counts[span]["new"] / made if made else 0.0
    for name, span in CALLS.items():
        vals[name] = totals.calls[span]
    for name in PROBES:
        vals[name] = probes[name]["value"]
    uncovered = traced_s - import_s - totals.covered_s
    vals.update({
        "cli.import_s": import_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.uncovered_s": uncovered,
        "trace.uncovered_ratio": uncovered / traced_s if traced_s else 0.0,
    })
    return {name: {"value": vals[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}
