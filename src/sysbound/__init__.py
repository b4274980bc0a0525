"""Exact-arithmetic bound calculator for a catalog of explicit manifolds.

The package evaluates sharp curvature-systole, volume, and width constants
through characteristic-class calculus in truncated rational cohomology rings,
twist (index) polynomials, nef-cone optimization, Grassmannian-bundle Gysin
pushforwards, and exact lattice reduction.

The public names are loaded on first use (PEP 562): ``import sysbound``
imports no engine module, and ``sysbound.NormedLattice`` loads ``lattices``
and what it imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: home module of each public name
_HOMES = {name: home for home, names in (
    ("catalog", ("Space", "blowup_point", "circle", "complete_intersection",
                 "grassmann_section", "integrate", "product",
                 "proj_bundle_over_curve", "projective_space", "quadric",
                 "sphere", "twist_spin_c", "weighted_del_pezzo_x4",
                 "weighted_del_pezzo_x6", "weighted_mukai_x6")),
    ("characteristic", ("ChernData", "PowerSums", "a_hat", "chern_character",
                        "chern_from_power_sums", "newton_power_sums", "todd",
                        "whitney_quotient")),
    ("cones", ("ConeProblem", "ContractionReport", "Unbounded",
               "bundle_profile_sup", "bundle_systole_profile", "cone_problem",
               "multiproj_contractions", "nef_threshold", "phi", "phi_sup",
               "s_alpha")),
    ("engine", ("IndexPolynomial", "RationalPolynomial",
                "avg_scalar_curvature", "gromov_width_bound",
                "hilbert_polynomial", "index_polynomial", "length",
                "product_length_bound", "systolic_bound", "todd_genus",
                "volume")),
    ("graded", ("GradedClass", "Generator", "Ring", "RingPresentation",
                "exp_class", "make_ring", "tensor_ring")),
    ("lattices", ("NormedLattice", "ReducedDualBasis", "TransferenceReport",
                  "dual_lattice", "reduced_dual_basis", "successive_minima",
                  "transference_check")),
    ("pushforward", ("SymmetricPolynomial", "localization_pushforward",
                     "primitive_coefficient", "segre_pushforward")),
    ("values", ("PiScaled",)),
) for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_import_module("." + home, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
