"""Per-layer metrics of the traced run: which code each layer name covers,
the counting wrappers, and the assembly of the reported figures.

Layers are the modules of ``src/planecurves``.  Times come from the
sampler; counts come from call results, ``lru_cache`` statistics and the
class-level wrappers installed here.  The wrappers are installed only in a
traced run and count only while the sampler is active.
"""

from __future__ import annotations

from collections import Counter

from sampler import OUTSIDE, Sampler, lines_calling

MODULES = ("search", "field", "unipoly", "curve", "locus", "plane",
           "analysis", "bounds", "linalg", "catalog", "cli")

# Inclusive-time groups: metric name -> dotted names of functions
# "module:qualname" inside planecurves.
GROUPS = {
    "search.linear_flags_s": ["search:_Engine.linear_flags"],
    "search.counts_s": ["search:_Engine.counts"],
    "search.engine_init_s": ["search:_Engine.__init__"],
    "search.draw_s": ["search:_materialize_block", "search:_combine_basis"],
    "search.verify_s": ["search:count_exact"],
    "field.check_s": ["field:_FieldOps.check"],
    "curve.restrict_s": ["curve:PlaneCurve.restrict"],
    "curve.evaluate_s": ["curve:PlaneCurve.evaluate"],
    "curve.has_linear_component_s": ["curve:has_linear_component"],
    "locus.decide_s": ["locus:decide_singular_locus"],
    "plane.build_s": ["plane:ProjectivePlane.__init__"],
    "analysis.count_points_s": ["analysis:count_points"],
    "analysis.line_spectrum_s": ["analysis:line_spectrum"],
    "bounds.frame_equiv_s": ["bounds:equivalent_by_point_frames"],
}

# Random draws run inline in these functions, on the lines calling
# ``rng.integers``; they belong to search.draw_s as well.
INLINE_DRAWS = ["search:run_search", "search:random_singular_instances"]

COUNT_NAMES = ("search.rows", "search.witnesses_verified",
               "field.extension_builds", "unipoly.find_irreducible_calls",
               "locus.nonsingular", "locus.singular", "locus.inconclusive",
               "plane.builds")


def _resolve(dotted: str):
    import importlib

    module, _, qualname = dotted.partition(":")
    obj = importlib.import_module(f"planecurves.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class Probes:
    """Groups and counting wrappers bound to one sampler."""

    def __init__(self, sampler: Sampler):
        from planecurves import field, plane, unipoly

        self.sampler = sampler
        self.counts: Counter = Counter()
        for name, dotted in GROUPS.items():
            lines = set()
            if name == "search.draw_s":
                for fn in INLINE_DRAWS:
                    lines |= lines_calling(_resolve(fn), "rng.integers")
            sampler.add_group(name, codes=[_resolve(d).__code__ for d in dotted],
                              lines=lines)
        self._plane = plane
        self._misses0 = plane.get_plane.cache_info().misses
        self._wrap(field.ExtensionField, "__init__", "field.extension_builds")
        self._wrap(unipoly, "find_irreducible", "unipoly.find_irreducible_calls")

    def _wrap(self, owner, attr: str, counter: str) -> None:
        original = getattr(owner, attr)
        sampler, counts = self.sampler, self.counts

        def counted(*args, **kwargs):
            if sampler.active:
                counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def finish(self) -> dict:
        """Counts gathered so far, plane builds included."""
        out = dict(self.counts)
        out["plane.builds"] = self._plane.get_plane.cache_info().misses - self._misses0
        return out


def library_time(snapshot: dict) -> float:
    """Sampled self time of the library's own modules in a snapshot."""
    return sum(secs for mod, secs in snapshot["self_s"].items() if mod in MODULES)


def layer_metrics(snapshots: list, counts: Counter, search_examined: int,
                  overhead_ratio: float, coverage: float) -> dict:
    """Per-layer metric values from sampler snapshots and counts."""
    self_s: Counter = Counter()
    group_s: Counter = Counter()
    wall = 0.0
    samples = 0
    for snap in snapshots:
        for mod, secs in snap["self_s"].items():
            self_s[mod if mod in MODULES else OUTSIDE] += secs
        group_s.update(snap["group_s"])
        wall += snap["wall_s"]
        samples += snap["samples"]
    values = {f"{m}.self_s": self_s[m] for m in MODULES}
    values[f"{OUTSIDE}.self_s"] = self_s[OUTSIDE]
    values.update({name: group_s[name] for name in GROUPS})
    values.update({name: counts.get(name, 0) for name in COUNT_NAMES})
    rows = counts.get("search.rows", 0)
    values["search.useful_ratio"] = search_examined / rows if rows else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.coverage"] = coverage
    values["trace.wall_s"] = wall
    values["trace.samples"] = samples
    return values


UNITS = {"search.useful_ratio": "ratio", "trace.overhead_ratio": "ratio",
         "trace.coverage": "ratio", "trace.samples": "count"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"
