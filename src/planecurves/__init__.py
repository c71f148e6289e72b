"""Exact computation on plane projective curves over finite fields:
point counting, singularity analysis, line spectra, extremal point-count
bounds, a catalog of equality cases, and coefficient-space search.

Every public name and submodule is loaded on first access (PEP 562
``__getattr__``), from the one table below, so ``import planecurves``
loads no submodule and a caller pays only for the modules it uses.
``search`` is the only module that imports numpy."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines; a submodule is itself public
_EXPORTS = {
    "analysis": ("INFINITE", "CountReport", "LineSpectrum", "count_by_line_sweep",
                 "count_points", "intersection_multiplicity", "is_frobenius_nonclassical",
                 "is_geometrically_nonsingular", "line_spectrum", "random_singular_instances",
                 "tangent_line"),
    "bounds": ("BoundReport", "bound_values", "bound_verdicts", "equivalent_by_point_frames",
               "projective_equivalent", "step3_solution"),
    "catalog": ("CATALOG", "catalog_curve", "exceptional_quartic", "verify_catalog"),
    "curve": ("BinaryForm", "PlaneCurve", "curve_mul", "divides", "exact_divide",
              "frobenius_form", "has_linear_component", "monomials", "rational_points",
              "singular_rational_points"),
    "field": ("ExtensionField", "FiniteField"),
    "linalg": (),
    "locus": ("NonsingularityVerdict", "decide_singular_locus", "singular_points_over_extension"),
    "plane": ("enumerate_lines", "enumerate_points", "incident", "is_arc", "line_through",
              "lines_through_point", "meet", "normalize"),
    "search": ("SearchRecord", "SearchTask", "run_search"),
    "unipoly": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    # import_module, not "from . import ...": the latter asks this
    # function for the submodule again before it imports anything.
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
