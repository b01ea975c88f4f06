"""sympkit: exact arithmetic for GSp4 and its arithmetic invariants.

Subpackages split by concern: the prime fields F_ell and the value-type
bases (_base), the exact domains of characteristic 0 (exact_arith), the
similitude group and its parabolic combinatorics (gsp4_core), the
closed-form censuses of Sp4/GSp4 and seven subgroup families over prime
fields (census), the explicit subgroup families and their Schreier-Sims
chain (families), enumerations over prime fields (finite_census),
Hecke/Satake Euler factors (hecke_l), and explicit four-dimensional
Galois-type galleries (artin_gallery).

`import sympkit` loads none of them: each public name is imported from its
home module on first use (PEP 562), so only what a caller touches is
loaded: numpy only with the modules that need it, and the F_ell names,
whose home is _base, without exact_arith.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "_base": "PrimeFieldElem quadratic_nonresidue solve_sum_of_squares",
    "exact_arith": "Cyclotomic GaussianRational Rational UPoly",
    "gsp4_core": """CharacterData GSpElement NotSimilitude SiegelPoint WeylWord
        char_poly casimir_pair infinity_type_solve is_in_levi lambda_rep
        moebius oddness_normalize similitude_of torus try_similitude weyl_act
        weyl_orbit_and_stabilizer weyl_words""",
    "census": """CharPolyHistogram c_eta_M closed_form_census enumerate_P1_reps
        gl2_charpoly_census gsp4_order sp4_order""",
    "families": "FamilySpec GroupSet build_family family_with_base",
    "finite_census": """charpoly_census charpoly_coeffs enumerate_gsp4
        enumerate_sp4 mulclose pack_matrices unpack_keys""",
    "hecke_l": """EulerFactor HeckeData LatticeRing SatakeParams check_int
        density_ratio endoscopic_spin_factor enumerate_Y hecke_poly lambda_p2
        read_eigen_csv rou_charpolys satake_to_hecke spin_factor std5_factor
        wedge2_params""",
    "artin_gallery": """FiniteMatrixGroup endoscopic_embed gallery_generators
        gallery_report gl2_euler_factor group_closure sym3_form
        sym3_identities_check sym3_lift""",
}

_HOME = {name: mod for mod, names in _EXPORTS.items()
         for name in names.split()}

_SUBMODULES = frozenset(_EXPORTS) | {"_mat", "cli"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
