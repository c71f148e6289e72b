"""Exact computation on plane projective curves over finite fields:
point counting, singularity analysis, line spectra, extremal point-count
bounds, a catalog of equality cases, and coefficient-space search.

The search names (``SearchRecord``, ``SearchTask``, ``run_search`` and the
``search`` module) are loaded on first access, because ``search`` is the
only module that imports numpy: importing the package, and every other
operation, runs without it.  ``random_singular_instances`` draws its
curves in pure Python and is exported from ``analysis``."""

from importlib import import_module as _import_module

from .analysis import (
    INFINITE,
    CountReport,
    LineSpectrum,
    NonsingularityVerdict,
    count_by_line_sweep,
    count_points,
    intersection_multiplicity,
    is_frobenius_nonclassical,
    is_geometrically_nonsingular,
    line_spectrum,
    random_singular_instances,
    rational_points,
    singular_rational_points,
    tangent_line,
)
from .bounds import (
    BoundReport,
    bound_values,
    bound_verdicts,
    equivalent_by_point_frames,
    projective_equivalent,
    step3_solution,
)
from .catalog import CATALOG, catalog_curve, exceptional_quartic, verify_catalog
from .curve import (
    BinaryForm,
    PlaneCurve,
    curve_mul,
    divides,
    exact_divide,
    frobenius_form,
    has_linear_component,
    monomials,
)
from .field import ExtensionField, FiniteField
from .locus import decide_singular_locus, singular_points_over_extension
from .plane import (
    enumerate_lines,
    enumerate_points,
    incident,
    is_arc,
    line_through,
    lines_through_point,
    meet,
    normalize,
)

__version__ = "0.1.0"

_SEARCH_NAMES = ("SearchRecord", "SearchTask", "run_search")

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")] + ["search", *_SEARCH_NAMES]
)


def __getattr__(name):
    if name != "search" and name not in _SEARCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not "from . import search": the latter asks this
    # function for "search" again before it imports anything.
    search = _import_module(f"{__name__}.search")
    value = search if name == "search" else getattr(search, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
