"""Import hygiene and the public API: numpy is loaded by `search` alone, so
importing the package and running any other command never loads it;
importing the package loads no submodule, and a command only the modules
it calls; every public name stays reachable from the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planecurves

PACKAGE = Path(planecurves.__file__).resolve().parent
SEARCH_NAMES = ("SearchRecord", "SearchTask", "random_singular_instances", "run_search")

# `from planecurves import *` before the search names were made lazy.
STAR_EXPORTS = {
    "BinaryForm", "BoundReport", "CATALOG", "CountReport", "ExtensionField",
    "FiniteField", "INFINITE", "LineSpectrum", "NonsingularityVerdict", "PlaneCurve",
    "SearchRecord", "SearchTask", "analysis", "bound_values", "bound_verdicts",
    "bounds", "catalog", "catalog_curve", "count_by_line_sweep", "count_points",
    "curve", "curve_mul", "decide_singular_locus", "divides", "enumerate_lines",
    "enumerate_points", "equivalent_by_point_frames", "exact_divide",
    "exceptional_quartic", "field", "frobenius_form", "has_linear_component",
    "incident", "intersection_multiplicity", "is_arc", "is_frobenius_nonclassical",
    "is_geometrically_nonsingular", "linalg", "line_spectrum", "line_through",
    "lines_through_point", "locus", "meet", "monomials", "normalize", "plane",
    "projective_equivalent", "random_singular_instances", "rational_points",
    "run_search", "search", "singular_points_over_extension",
    "singular_rational_points", "step3_solution", "tangent_line", "unipoly",
    "verify_catalog",
}

# Exhaustive search over the 63 conics of GF(2), as printed before the
# search names were made lazy (the engine id aside, as in test_search).
SEARCH_ARGV = ["search", "--field", "p=2,k=1", "--degree", "2", "--witness-cap", "2"]
SEARCH_RECORD = {
    "best_N": 5, "curves_examined": 63, "degree": 2, "discarded_linear": 0,
    "discarded_zero": 0, "generator": "exhaustive-lex",
    "histogram": {"1": 7, "3": 35, "5": 21}, "mode": "exhaustive",
    "params": {"budget": 10000000, "n_samples": None,
               "require_no_linear_component": False, "singular_at": None},
    "q": 2, "seed": None, "witness_cap": 2,
    "witnesses": [[[[0, 0, 2], 1], [[1, 0, 1], 1]],
                  [[[0, 0, 2], 1], [[0, 2, 0], 1], [[1, 0, 1], 1], [[1, 1, 0], 1]]],
}

# (argv, exit code) of the commands that must run without numpy.
NON_SEARCH = [
    (["field-info", "--field", "p=2,k=2"], 0),
    (["count", "--field", "p=2,k=2", "--catalog", "exceptional_quartic"], 0),
    (["bounds", "--field", "p=2,k=2", "--catalog", "exceptional_quartic"], 2),
    (["spectrum", "--field", "p=2,k=2", "--catalog", "exceptional_quartic"], 0),
    (["lemma-check", "--field", "p=5,k=1", "--catalog", "deg_q"], 0),
    (["verify-catalog", "--q", "2,3"], 0),
]

# Runs in a fresh interpreter, since this test process has numpy loaded.
_SCRIPT = """
import contextlib, io, json, sys
import planecurves
state = {"import": "numpy" in sys.modules, "dir": dir(planecurves)}
from planecurves.cli import main
state["runs"] = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--no-timestamp"])
    state["runs"].append([code, "numpy" in sys.modules, out.getvalue()])
print(json.dumps(state))
"""

# One analyze-style cycle in a fresh interpreter: forced-singular draws,
# bound verdicts and line spectra over GF(4) and GF(5).
_ANALYSIS_SCRIPT = """
import sys
from planecurves import FiniteField, bound_verdicts, line_spectrum, random_singular_instances
for p, k in ((2, 2), (5, 1)):
    for cur in random_singular_instances(FiniteField(p, k), 3, (0, 0, 1), 2, seed=7):
        bound_verdicts(cur)
        line_spectrum(cur)
print("numpy" in sys.modules)
"""


# Prints the planecurves submodules loaded after running the statement in
# sys.argv[1], in a fresh interpreter; command output is swallowed.
_LOADED_SCRIPT = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(name.split(".", 1)[1] for name in sys.modules
                        if name.startswith("planecurves."))))
"""


def _loaded_after(statement):
    return set(json.loads(_fresh_python("-c", _LOADED_SCRIPT, statement)))


def _cli(*argv):
    return f"from planecurves.cli import main; assert main({list(argv)!r}) == 0"


def _fresh_python(*args):
    """Run python with the given arguments in a fresh interpreter, with this
    package on its path; returns its stdout."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _module_level_imports(tree):
    """Top-level module names imported when the module is executed: every
    import outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        stack.extend(ast.iter_child_nodes(node))


def test_only_search_imports_numpy_at_module_level():
    importers = {
        path.stem for path in PACKAGE.glob("*.py")
        if "numpy" in _module_level_imports(ast.parse(path.read_text()))
    }
    assert importers == {"search"}


def test_non_search_commands_run_without_numpy():
    commands = [argv for argv, _ in NON_SEARCH] + [SEARCH_ARGV]
    state = json.loads(_fresh_python("-c", _SCRIPT, json.dumps(commands)))
    assert state["import"] is False
    assert set(SEARCH_NAMES) | {"search"} <= set(state["dir"])
    *others, (code, numpy_loaded, out) = state["runs"]
    for (argv, expected), (code_seen, loaded, _) in zip(NON_SEARCH, others):
        assert (code_seen, loaded) == (expected, False), argv
    assert code == 0 and numpy_loaded is True
    record = json.loads(out)
    record.pop("engine")
    assert record == SEARCH_RECORD


def test_analysis_runs_without_numpy():
    assert _fresh_python("-c", _ANALYSIS_SCRIPT).strip() == "False"


def test_star_import_exports_the_same_names():
    namespace = {}
    exec("from planecurves import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_EXPORTS
    assert set(planecurves.__all__) == STAR_EXPORTS


def test_search_names_resolve_to_the_search_module():
    for name in SEARCH_NAMES:
        assert getattr(planecurves, name) is getattr(planecurves.search, name)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        planecurves.no_such_name
    assert not hasattr(planecurves, "no_such_name")


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import planecurves") == set()


def test_field_and_plane_load_only_their_own_imports():
    assert _loaded_after("import planecurves.field, planecurves.plane") == {
        "field", "unipoly", "plane"}


def test_field_info_loads_only_the_cli_field_and_plane():
    assert _loaded_after(_cli("field-info", "--field", "p=2,k=2")) == {
        "cli", "field", "unipoly", "plane"}


@pytest.mark.parametrize("command", ["count", "spectrum", "frobenius"])
def test_analysis_commands_load_neither_bounds_nor_search(command):
    loaded = _loaded_after(_cli(command, "--field", "p=2,k=2", "--catalog",
                                "exceptional_quartic"))
    assert "analysis" in loaded and not loaded & {"bounds", "search"}


def test_every_export_is_the_object_of_its_module():
    for module, names in planecurves._EXPORTS.items():
        owner = importlib.import_module(f"planecurves.{module}")
        assert getattr(planecurves, module) is owner
        for name in names:
            assert name in vars(owner), (module, name)
            assert getattr(planecurves, name) is getattr(owner, name), (module, name)
    assert set(planecurves.__all__) == set(planecurves._EXPORTS) | set(planecurves._OWNER)
