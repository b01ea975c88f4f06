"""Fixed-size throughput probes of sympkit's kernels (tracing run only).

Domain operations run millions of times per task, so they get probes rather
than spans.  Each probe times one public kernel on seeded operands shaped
like the workloads' operands, in batches of at least MIN_BATCH_S seconds,
and reports the median rate over BATCHES batches together with the input
size it was measured at.
"""

import random
import statistics
import time
from fractions import Fraction

MIN_BATCH_S = 0.05
BATCHES = 5
KEY_ROWS = 1 << 14
ELL = 5
DOMAIN_PAIRS = 256
CYCLOTOMIC_ORDER = 60  # lcm(1..5), the order rou_charpolys(6) works in


def _rate(op, items):
    "Median over BATCHES of items/second, each batch repeating op >= MIN_BATCH_S."
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            op()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        reps *= 2
    rates = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            op()
        rates.append(items * reps / (time.perf_counter() - t0))
    return statistics.median(rates)


def _fraction(rng):
    "Nonzero rational with a small numerator and denominator 1 or 2."
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


def _pairwise(op, pairs):
    def run():
        for a, b in pairs:
            op(a, b)
    return run


def run_all(seed):
    import numpy as np

    from sympkit import _mat, finite_census
    from sympkit.exact_arith import Cyclotomic, GaussianRational

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    mats = nprng.integers(0, ELL, size=(KEY_ROWS, 4, 4), dtype=np.int64)
    keys = finite_census.pack_matrices(mats, ELL)
    key_size = "%d random 4x4 matrices over F_%d" % (KEY_ROWS, ELL)

    def gauss():
        return GaussianRational(_fraction(rng), _fraction(rng))

    fractions = [(_fraction(rng), _fraction(rng)) for _ in range(DOMAIN_PAIRS)]
    gaussians = [(gauss(), gauss()) for _ in range(DOMAIN_PAIRS)]
    gauss_mats = [
        tuple(tuple(tuple(gauss() for _ in range(4)) for _ in range(4))
              for _ in range(2))
        for _ in range(16)]

    def cyclotomic():
        # a sum of one to three roots of unity, like a factor coefficient
        return sum((Cyclotomic.root_of_unity(CYCLOTOMIC_ORDER,
                                             rng.randrange(CYCLOTOMIC_ORDER))
                    for _ in range(rng.randint(1, 3))),
                   Cyclotomic(CYCLOTOMIC_ORDER, [0]))

    cyclotomics = [(cyclotomic(), cyclotomic()) for _ in range(64)]

    probes = {
        "finite_census.pack_rows_per_s": (
            "rows/s", key_size, KEY_ROWS,
            lambda: finite_census.pack_matrices(mats, ELL)),
        "finite_census.unpack_rows_per_s": (
            "rows/s", key_size, KEY_ROWS,
            lambda: finite_census.unpack_keys(keys, ELL)),
        "finite_census.charpoly_coeffs_rows_per_s": (
            "rows/s", key_size, KEY_ROWS,
            lambda: finite_census.charpoly_coeffs(mats, ELL)),
        "mat.mat_mul_per_s": (
            "mul/s", "16 products of 4x4 GaussianRational matrices, "
            "entry parts with denominators 1-2", len(gauss_mats),
            _pairwise(_mat.mat_mul, gauss_mats)),
        "exact_arith.fraction_mul_per_s": (
            "mul/s", "%d Fraction products, denominators 1-2" % DOMAIN_PAIRS,
            DOMAIN_PAIRS, _pairwise(lambda a, b: a * b, fractions)),
        "exact_arith.gaussian_mul_per_s": (
            "mul/s", "%d GaussianRational products, denominators 1-2"
            % DOMAIN_PAIRS, DOMAIN_PAIRS,
            _pairwise(lambda a, b: a * b, gaussians)),
        "exact_arith.cyclotomic_mul_per_s": (
            "mul/s", "%d Cyclotomic products of order %d, sums of 1-3 roots"
            % (len(cyclotomics), CYCLOTOMIC_ORDER), len(cyclotomics),
            _pairwise(lambda a, b: a * b, cyclotomics)),
    }
    return {name: {"value": _rate(op, items), "unit": unit, "size": size}
            for name, (unit, size, items, op) in probes.items()}
