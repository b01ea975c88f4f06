"""The lazy package surface, which subcommands load numpy, and the value
types every module defines."""

import ast
import copy
import importlib
import importlib.util
import inspect
import json
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sympkit

SRC = str(Path(sympkit.__file__).resolve().parents[1])

# sympkit.__all__ as it stood when the package imported every module
# eagerly, less the names deleted since
EAGER_ALL = [
    "Cyclotomic", "GaussianRational", "PrimeFieldElem", "Rational", "UPoly",
    "quadratic_nonresidue", "solve_sum_of_squares", "CharacterData", "GSpElement", "NotSimilitude",
    "SiegelPoint", "WeylWord", "char_poly", "casimir_pair",
    "infinity_type_solve", "is_in_levi", "lambda_rep", "moebius",
    "oddness_normalize", "similitude_of", "torus", "try_similitude",
    "weyl_act", "weyl_orbit_and_stabilizer", "weyl_words",
    "CharPolyHistogram", "FamilySpec", "GroupSet", "build_family", "c_eta_M", "charpoly_census",
    "charpoly_coeffs", "closed_form_census", "enumerate_P1_reps",
    "enumerate_gsp4", "enumerate_sp4",
    "family_with_base", "gl2_charpoly_census", "gsp4_order", "mulclose",
    "pack_matrices", "sp4_order", "unpack_keys",
    "EulerFactor", "HeckeData", "LatticeRing", "SatakeParams", "check_int",
    "density_ratio", "endoscopic_spin_factor", "enumerate_Y", "hecke_poly",
    "lambda_p2", "read_eigen_csv", "rou_charpolys", "satake_to_hecke",
    "spin_factor", "std5_factor", "wedge2_params", "FiniteMatrixGroup",
    "endoscopic_embed", "gallery_generators", "gallery_report",
    "gl2_euler_factor", "group_closure", "sym3_form", "sym3_identities_check",
    "sym3_lift", "__version__",
]

# run in a fresh interpreter: `cli.main(argv)`, then report its exit code,
# whether numpy, dataclasses and concurrent.futures were loaded, which
# sympkit modules were, OPENBLAS_NUM_THREADS and the OS threads (Linux only)
_PROBE = """
import contextlib, io, json, os, sys
csv_at_start = "csv" in sys.modules
if sys.argv[1:] == ["--bare-import"]:
    import sympkit
    code = 0
else:
    from sympkit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
tasks = "/proc/self/task"
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "futures": "concurrent.futures" in sys.modules,
                  "csv_at_start": csv_at_start, "csv": "csv" in sys.modules,
                  "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "os_threads": (len(os.listdir(tasks))
                                 if os.path.isdir(tasks) else None),
                  "modules": sorted(m for m in sys.modules
                                    if m.startswith("sympkit."))}))
"""


def run_python(code, *argv, env=None):
    """Standard output of `python -c code argv...` in a fresh interpreter,
    with the environment `env` (default: this one's)."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=300)
    return out.stdout


def probe(*argv, env=None):
    return json.loads(run_python(_PROBE, *argv, env=env))


def test_all_keeps_the_eager_names():
    assert len(set(sympkit.__all__)) == len(sympkit.__all__)
    assert sorted(sympkit.__all__) == sorted(EAGER_ALL)


def test_every_name_resolves_to_its_home_module():
    for name in sympkit.__all__:
        if name == "__version__":
            assert sympkit.__version__ == "0.1.0"
            continue
        home = "sympkit." + sympkit._HOME[name]
        obj = getattr(sympkit, name)
        assert obj is getattr(importlib.import_module(home), name), name
        # the table names the module that defines it (Rational is Fraction)
        owner = getattr(obj, "__module__", home)
        assert owner == home or not owner.startswith("sympkit"), name
    assert set(sympkit.__all__) <= set(dir(sympkit))


def test_star_import_binds_every_name():
    scope = {}
    exec("from sympkit import *", scope)
    assert set(sympkit.__all__) <= set(scope)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sympkit.no_such_name
    assert not hasattr(sympkit, "numpy")


def test_finite_census_compiles_its_siblings_before_numpy():
    # a child that runs from a fresh checkout compiles every sympkit module
    # it imports; compiled after numpy, a module adds to the peak RSS that
    # numpy has already raised, so finite_census imports its siblings first
    # (sys.modules holds each module from the start of its import)
    out = run_python("import json, sys\n"
                     "import sympkit.finite_census\n"
                     "print(json.dumps(list(sys.modules)))")
    loaded = json.loads(out)
    for name in ("sympkit.census", "sympkit._base", "sympkit._mat",
                 "sympkit.families"):
        assert loaded.index(name) < loaded.index("numpy"), name


def test_bare_import_loads_no_submodule():
    assert probe("--bare-import")["modules"] == []
    out = run_python("import sympkit; print(sympkit.finite_census.__name__)")
    assert out.strip() == "sympkit.finite_census"


@pytest.mark.parametrize("argv", [
    ("census", "--ell", "3"),
    ("census", "--ell", "3", "--csv", os.devnull),
    ("ceta", "--case", "sp4", "--ell", "3", "--eta", "1/4"),
    ("ceta", "--case", "gsp4", "--ell", "3", "--eta", "1/4"),
    ("hecke", "--satake", "1,1,1", "--p", "3"),
    ("ylattice", "--ring", "gaussian", "--c", "2"),
    ("p1reps", "--p", "3", "--beta", "2"),
    ("gallery", "solvable"),
    ("gallery", "sym3"),
    ("ceta", "--case", "LeviB", "--ell", "3", "--eta", "1/4"),
    ("ceta", "--case", "LeviP", "--ell", "3", "--eta", "1/4"),
    ("ceta", "--case", "LeviQ", "--ell", "3", "--eta", "1/4"),
    ("ceta", "--case", "Hen", "--ell", "3", "--eta", "1/4"),
    ("ceta", "--case", "5", "--ell", "3", "--eta", "1/4"),
    ("ceta", "--case", "6", "--ell", "3", "--eta", "1/4"),
    ("ceta", "--case", "9", "--ell", "3", "--eta", "1/4"),
    *(("family", "--case", tag, "--ell", "3")
      for tag in ("LeviB", "LeviP", "LeviQ", "Hen", "5", "6", "7", "8", "9")),
    ("family", "--case", "7", "--ell", "5"),
    ("family", "--case", "8", "--ell", "5"),
    ("ceta", "--case", "7", "--ell", "3", "--eta", "1/4"),
    ("ceta", "--case", "8", "--ell", "3", "--eta", "1/4"),
])
def test_subcommand_runs_without_numpy(argv):
    # dataclasses costs about 10 ms of import per task, and the gallery's
    # closures are its own, so finite_census stays unloaded too; gallery
    # sym3 exits 1 because two printed identities fail (test_cli.py).  Every
    # family has a closed form (census.FAMILY_FORMS) and is not listed, and a
    # family build lists nothing: its chain is pure Python (families).  The
    # F_ell subcommands compile the F_ell core (_base), not exact_arith, and
    # each subcommand compiles only the sympkit modules it runs, which is
    # what a child run from a fresh checkout pays for; csv serves only
    # hecke_l.read_eigen_csv, which no subcommand calls
    got = probe(*argv)
    assert got["code"] == int(argv == ("gallery", "sym3")), got
    assert not got["numpy"], got
    assert not got["dataclasses"], got
    assert got["csv_at_start"] or not got["csv"], got
    loaded = set(got["modules"])
    assert "sympkit.finite_census" not in loaded, got
    for module, commands in (("exact_arith", ("hecke", "ylattice", "gallery")),
                             ("census", ("census", "ceta", "p1reps")),
                             ("families", ("family",)),
                             ("_mat", ("family", "gallery"))):
        assert ("sympkit." + module in loaded) == (argv[0] in commands), \
            (module, got)


@pytest.mark.parametrize("argv", [
    ("census", "--ell", "3", "--enumerate"),
    ("ceta", "--case", "7", "--ell", "3", "--eta", "1/4", "--enumerate"),
    ("ceta", "--case", "LeviB", "--ell", "3", "--eta", "1/4", "--enumerate"),
    ("ceta", "--case", "8", "--ell", "3", "--eta", "1/4", "--enumerate"),
])
def test_subcommand_loads_numpy(argv):
    # only a census under --enumerate lists its group
    got = probe(*argv)
    assert got["code"] == 0 and got["numpy"], got


def _without_blas_threads():
    return {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}


@pytest.mark.parametrize("argv", [
    ("ceta", "--case", "7", "--ell", "3", "--eta", "1/4", "--enumerate"),
    ("census", "--ell", "3", "--enumerate", "--threads", "2"),
])
def test_numpy_subcommand_starts_no_thread_pool(argv):
    # the integer-only numpy work calls no BLAS: main runs OpenBLAS on one
    # thread, and no path imports concurrent.futures, whatever --threads says
    got = probe(*argv, env=_without_blas_threads())
    assert got["code"] == 0 and got["numpy"], got
    assert got["blas_threads"] == "1" and not got["futures"], got
    assert got["os_threads"] in (1, None), got


def test_user_set_blas_threads_are_kept():
    env = dict(_without_blas_threads(), OPENBLAS_NUM_THREADS="3")
    got = probe("ceta", "--case", "7", "--ell", "3", "--eta", "1/4",
                "--enumerate", env=env)
    assert got["code"] == 0 and got["blas_threads"] == "3", got


def test_library_import_leaves_the_environment_alone():
    out = run_python("import os, sympkit.finite_census\n"
                     "print(os.environ.get('OPENBLAS_NUM_THREADS'))",
                     env=_without_blas_threads())
    assert out.strip() == "None"


def test_input_checks_survive_python_O():
    # under -O an assert is skipped, so these checks must raise by hand
    code = ("from sympkit import _mat\n"
            "from sympkit.artin_gallery import sym3_identities_check\n"
            "from sympkit.census import enumerate_P1_reps\n"
            "from sympkit.gsp4_core import CharacterData, WeylWord\n"
            "for check, exc in ((lambda: WeylWord((3,)), ValueError),\n"
            "                   (lambda: CharacterData(2, 1, 1), ValueError),\n"
            "                   (lambda: enumerate_P1_reps(2.0, 1), ValueError),\n"
            "                   (lambda: sym3_identities_check(strict=True),\n"
            "                    AssertionError),\n"
            "                   (lambda: _mat.mat_pow(_mat.identity(2), -1),\n"
            "                    ValueError)):\n"
            "    try:\n"
            "        check()\n"
            "    except exc:\n"
            "        print(exc.__name__)\n"
            "print(__debug__)")
    out = run_python(code, env=dict(os.environ, PYTHONOPTIMIZE="1"))
    assert out.split() == ["ValueError", "ValueError", "ValueError",
                           "AssertionError", "ValueError", "False"]


def test_rou_charpolys_runs_without_numpy():
    out = json.loads(run_python(
        "import json, sys\n"
        "from sympkit.hecke_l import rou_charpolys\n"
        "n = [len(rou_charpolys(5)), "
        "len(rou_charpolys(6, symplectic_only=True))]\n"
        "print(json.dumps([n, 'numpy' in sys.modules]))"))
    assert out == [[126, 86], False]


def test_a_group_answers_without_numpy():
    # a GroupSet is its chain: membership, inclusion, equality, hash, its
    # factors and a pickle round trip sift or read the chain, so Case7 at
    # ell = 13 (115,839,360 elements) lists no key and loads no numpy
    out = json.loads(run_python(
        "import json, pickle, sys\n"
        "from sympkit.families import FamilySpec, _SWAP, family_with_base\n"
        "G, base = family_with_base(FamilySpec('Case7', 13))\n"
        "got = [_SWAP in G, base.subset_of(G), G == G, hash(G),\n"
        "       G.similitude_factors(), pickle.loads(pickle.dumps(G)) == G]\n"
        "print(json.dumps([got, G.order, 'numpy' in sys.modules]))"))
    assert out == [[True, True, True, hash((13, 115839360)), list(range(1, 13)),
                    True], 115839360, False]


def test_gl2_charpoly_census_runs_without_numpy():
    # its home is census, beside the family closed forms that share its count
    out = json.loads(run_python(
        "import json, sys\n"
        "from sympkit import gl2_charpoly_census\n"
        "n = sum(gl2_charpoly_census(13).values())\n"
        "print(json.dumps([n, 'numpy' in sys.modules]))"))
    assert out == [(13 * 13 - 1) * (13 * 13 - 13), False]


def _identity(n, one):
    return tuple(tuple(one if i == j else 0 * one for j in range(n))
                 for i in range(n))


# (type name, a factory for one instance, one of its fields)
VALUES = [
    ("GaussianRational", lambda: sympkit.GaussianRational(1, 2), "im"),
    ("PrimeFieldElem", lambda: sympkit.PrimeFieldElem(7, 3), "val"),
    ("UPoly", lambda: sympkit.UPoly([1, 2]), "coeffs"),
    ("Cyclotomic", lambda: sympkit.Cyclotomic(5, [1, 2]), "coeffs"),
    ("GroupSet", lambda: sympkit.build_family(sympkit.FamilySpec("LeviB", 3)),
     "ell"),
    ("FamilySpec", lambda: sympkit.FamilySpec("LeviB", 3), "tag"),
    ("SatakeParams", lambda: sympkit.SatakeParams(1, 2, 3), "eps"),
    ("HeckeData", lambda: sympkit.HeckeData(1, 2, 1, 3), "a1"),
    ("EulerFactor", lambda: sympkit.EulerFactor([1, 2]), "poly"),
    ("LatticeRing", lambda: sympkit.LatticeRing("Zi"), "tag"),
    ("GSpElement", lambda: sympkit.GSpElement(_identity(4, 1)), "nu"),
    ("SiegelPoint",
     lambda: sympkit.SiegelPoint(_identity(2, sympkit.GaussianRational.i())),
     "Z"),
    ("CharPolyHistogram",
     lambda: sympkit.CharPolyHistogram(3, {(0, 0, 0, 1, 1): 1}), "total"),
    ("FiniteMatrixGroup",
     lambda: sympkit.FiniteMatrixGroup(
         [_identity(2, sympkit.GaussianRational(1))],
         [_identity(2, sympkit.GaussianRational(1))]), "elements"),
    ("WeylWord", lambda: sympkit.WeylWord((1, 2)), "word"),
    ("CharacterData", lambda: sympkit.CharacterData(1, -1, 1), "s0"),
]


@pytest.mark.parametrize("make, field", [v[1:] for v in VALUES],
                         ids=[v[0] for v in VALUES])
def test_value_types_refuse_assignment_and_deletion(make, field):
    obj = make()
    value = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, value)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.no_such_field = 0
    assert getattr(obj, field) is value
    # __slots__ = () on every base keeps instances free of a __dict__
    assert not hasattr(obj, "__dict__")


def _same(a, b):
    "Deep equality that compares numpy arrays by value."
    if hasattr(a, "shape"):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a).__eq__ is object.__eq__ and hasattr(type(a), "__slots__"):
        # the levels of a GroupSet's chain compare slot by slot
        return type(a) is type(b) and all(
            _same(getattr(a, n), getattr(b, n)) for n in type(a).__slots__)
    return a == b


@pytest.mark.parametrize("make", [v[1] for v in VALUES],
                         ids=[v[0] for v in VALUES])
def test_value_types_copy_and_pickle(make):
    obj = make()
    cls = type(obj)
    fields = [n for c in cls.__mro__ for n in getattr(c, "__slots__", ())]
    fields += list(getattr(obj, "__dict__", ()))
    # each copy is taken in turn, so the first copies a value whose cache
    # slots are unset and the later ones a value the checks below have hashed
    for copier in (copy.copy, copy.deepcopy,
                   lambda x: pickle.loads(pickle.dumps(x))):
        twin = copier(obj)
        assert type(twin) is cls
        for name in fields:  # a cache slot may be unset on both
            assert _same(getattr(twin, name, None),
                         getattr(obj, name, None)), name
        if cls.__eq__ is not object.__eq__:
            assert twin == obj
        if cls.__hash__ not in (None, object.__hash__):
            assert hash(twin) == hash(obj)


# (a factory of one value from its fields, the fields of one value, the
# fields of another that differs from it in one field)
RECORDS = [
    ("UPoly", sympkit.UPoly, ([1, 2],), ([1, 3],)),
    ("EulerFactor", sympkit.EulerFactor, ([1, 2],), ([1, 3],)),
    ("LatticeRing", sympkit.LatticeRing, ("Zi",), ("Zw",)),
    ("SiegelPoint", sympkit.SiegelPoint,
     (_identity(2, sympkit.GaussianRational.i()),),
     (((sympkit.GaussianRational(1, 1), 0),
       (0, sympkit.GaussianRational.i())),)),
    ("FamilySpec", sympkit.FamilySpec, ("LeviB", 3), ("LeviB", 5)),
    ("WeylWord", sympkit.WeylWord, ((1, 2),), ((2, 1),)),
    ("CharacterData", sympkit.CharacterData, (1, -1, 1), (1, -1, -1)),
]


@pytest.mark.parametrize("make, fields, other", [r[1:] for r in RECORDS],
                         ids=[r[0] for r in RECORDS])
def test_record_types_share_one_slotwise_equality(make, fields, other):
    from sympkit._base import _Record

    assert make.__eq__ is _Record.__eq__
    assert make.__hash__ is _Record.__hash__
    a, b = make(*fields), make(*fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make(*other)
    slots = tuple(getattr(a, name) for name in type(a).__slots__)
    assert a != slots and a != None  # noqa: E711



def test_equal_values_hash_alike():
    # Python requires a == b to imply hash(a) == hash(b).  Each value of each
    # exact domain, drawn small so that equal pairs are common, is compared
    # both ways with values of its domain and with ints and Fractions.  Two
    # Cyclotomic orders still refuse to compare (ROADMAP item 5), so each
    # Cyclotomic draw keeps one order
    rng = random.Random(35)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 2))

    domains = [
        lambda: sympkit.PrimeFieldElem(rng.choice((5, 7)), rng.randint(-8, 8)),
        lambda: sympkit.GaussianRational(rational(), rng.choice((0, 1))),
        lambda: sympkit.Cyclotomic(12, [rational(), rng.choice((0, 1))]),
        lambda: sympkit.UPoly([rational(), rng.choice((0, 1))]),
    ] + [make for _, make, _ in VALUES]
    plain = [*range(-8, 9), *(Fraction(n, 2) for n in range(-8, 9))]
    for draw in domains:
        values = [draw() for _ in range(40)]
        for a in values:
            for b in values + plain:
                if a == b or b == a:
                    assert hash(a) == hash(b), (a, b)
    # two chains of Sp4(F_3), from its generators in two orders, hold other
    # strong generators and transversals, yet compare equal and hash alike
    from sympkit.families import _chain
    from sympkit.finite_census import _full_gens
    gens = _full_gens(3, "Sp4")
    a, b = (sympkit.GroupSet(3, _chain(g, 3), [1]) for g in (gens, gens[::-1]))
    assert a._chain[0].u != b._chain[0].u
    assert a == b and b == a and hash(a) == hash(b)
    assert len({sympkit.PrimeFieldElem(7, 1), 1, 8}) == 3
    assert sympkit.PrimeFieldElem(7, 1) != 1 and 8 != sympkit.PrimeFieldElem(7, 1)


def test_every_module_parses_at_the_python_floor():
    # pyproject.toml declares the oldest Python the package supports; every
    # module must parse in that grammar, so syntax newer than the floor
    # fails here, under whichever interpreter runs the tests
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      pyproject.read_text())
    version = tuple(map(int, floor.groups()))
    assert version == (3, 10)
    modules = sorted((Path(SRC) / "sympkit").rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), str(path), feature_version=version)
        assert not _starred_after_the_floor(tree), path
    # feature_version is best-effort: both parse under it at 3.11 or later
    for snippet in ("def f(*a: *tuple[int]): pass", "t[*a]"):
        try:
            tree = ast.parse(snippet, feature_version=version)
        except SyntaxError:  # an interpreter at the floor refuses it itself
            continue
        assert _starred_after_the_floor(tree), snippet
    assert not _starred_after_the_floor(ast.parse("t[f(*a)]"))


def _starred_after_the_floor(tree):
    """Whether a tree holds the starred forms of 3.11 (PEP 646) that
    feature_version=(3, 10) lets through: a starred annotation (`*a: *Ts`)
    or a starred subscript (`t[*a]`).  A starred call inside either, as in
    `t[f(*a)]`, is 3.10 syntax and passes; a parenthesized `t[(*a,)]`, also
    3.10, is refused with `t[*a]`, since the two parse alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and isinstance(node.annotation,
                                                    ast.Starred):
            return True
        if isinstance(node, ast.Subscript):
            index = node.slice
            items = index.elts if isinstance(index, ast.Tuple) else [index]
            if any(isinstance(x, ast.Starred) for x in items):
                return True
    return False


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# span names that the benchmark still reads but that name no function of
# sympkit since their code moved (ROADMAP item 1 mends them)
STALE_SPANS = {"finite_census.build_family", "finite_census.c_eta_M",
               "finite_census.family_base_subgroup"}


def _load(name, monkeypatch):
    "The benchmark module benchmarks/<name>.py, imported by its path."
    spec = importlib.util.spec_from_file_location(name,
                                                  BENCHMARKS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # layers imports tracer
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not BENCHMARKS.is_dir(), reason="no benchmarks/ here")
def test_the_benchmark_calls_only_names_that_exist(monkeypatch):
    # every span the benchmark traces or reads, and every finite_census
    # function its probes call, names a function of its layer's module (or
    # a traced method), so a rename in src/ cannot silently zero a metric
    tracer = _load("tracer", monkeypatch)
    layers = _load("layers", monkeypatch)
    modules = {layer: name for name, layer in tracer.LAYERS.items()}
    methods = {}
    for (modname, clsname, attr), span in tracer.METHODS.items():
        raw = vars(getattr(importlib.import_module(modname), clsname)).get(attr)
        methods[span] = inspect.isfunction(getattr(raw, "__func__", raw))
    spans = set(tracer.COUNTERS) | set(tracer.METHODS.values())
    spans |= {s for names in layers.SELF.values() for s in names}
    spans |= {span for span, _ in layers.RATE.values()}
    spans |= set(layers.USEFUL.values()) | set(layers.CALLS.values())
    spans |= set(layers.PRODUCTS) | set(layers.PRODUCTS.values())
    spans |= {"finite_census." + name for name in re.findall(
        r"\bfinite_census\.(\w+)\(", (BENCHMARKS / "probes.py").read_text())}

    def resolves(span):
        if span in methods:
            return methods[span]
        layer, _, name = span.partition(".")
        obj = getattr(importlib.import_module(modules[layer]), name, None)
        return inspect.isfunction(obj) and obj.__module__ == modules[layer]

    missing = {span for span in spans if not resolves(span)}
    assert missing == STALE_SPANS, sorted(missing ^ STALE_SPANS)
