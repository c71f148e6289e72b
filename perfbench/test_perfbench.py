"""Tests of the benchmark itself (not collected by the library's suite).

    python3 -m pytest perfbench -q

Each workload runs at its smallest size (``--seconds 0``: two cycles) and
must pass its output checks and print exactly the metrics that
BENCHMARK.json names; the sampler must charge time spent inside a long
numpy call to the Python function that made it.
"""

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from sampler import Sampler  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list) -> None:
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_at_smoke_size_passes_its_checks(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    _assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_the_declared_layer_metrics():
    result = _run("search-random-ext", trace=1)
    assert result["correct"] is True
    _assert_metrics(result, BENCH["per_layer"])
    assert result["metrics"]["search.rows"]["value"] > 0


def test_sampler_charges_a_long_numpy_call_to_its_caller(tmp_path, monkeypatch):
    (tmp_path / "heavy.py").write_text(
        "import numpy as np\n"
        "def work():\n"
        "    a = np.random.default_rng(0).random((700, 700))\n"
        "    for _ in range(4):\n"
        "        np.linalg.eigvals(a)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    heavy = importlib.import_module("heavy")
    sampler = Sampler(str(tmp_path))
    sampler.add_group("work", codes=[heavy.work.__code__])
    sampler.start()
    start = time.perf_counter()
    heavy.work()
    wall = time.perf_counter() - start
    sampler.stop()
    # Few samples land (the handler waits for each numpy call to return),
    # yet their weights cover the call.
    assert sampler.self_s["heavy"] >= 0.8 * wall
    assert sampler.group_s["work"] >= 0.8 * wall
