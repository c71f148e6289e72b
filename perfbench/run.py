"""planecurves benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``src/planecurves``
of that checkout.  The workload runs whole cycles of calls until
``--seconds`` of wall time have passed (at least two cycles), then checks
every output against independent oracles.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: cycles alternate between sampled and unsampled,
so the sampler's cost shows as ``trace.overhead_ratio`` measured against
the same work in the same process.  Each run writes its call spans (and,
traced, the sampler's aggregates) to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json`` when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter

from common import (OUT_DIR, PACKAGE_DIR, ROOT, InProcessReference, MissingLibrary, child_env,
                    import_planecurves, normalize, pin_cpu, pin_threads, reference, run_child)
from workloads import WORKLOADS, children_cpu

DEFAULT_SEED = 1
MIN_CYCLES = 2
SETUP_REPEATS = 5
SETUP_TIMEOUT = 60
# The tail is the highest percentile with at least ten calls beyond it,
# but never below p90: with fewer than 100 calls in a run, p90 stands in.
TAIL_FLOOR = 90.0
# A child process spends part of its wall time starting and exiting the
# interpreter, outside any sampler (about 10% of the cli workload's).
COVERAGE_RANGE = (0.8, 1.05)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def environment(cpu: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def measure_setup(workload) -> tuple[list, list]:
    """Normalized CPU seconds and wall seconds of fresh interpreters that
    start, get ready and exit."""
    norm, wall = [], []
    ref = reference()
    for _ in range(SETUP_REPEATS):
        argv = workload.setup_argv()
        c0, start = children_cpu(), time.perf_counter()
        code, out, err, refs = run_child([sys.executable, str(ROOT / "perfbench" / argv[0]),
                                          *argv[1:]], child_env(), SETUP_TIMEOUT)
        wall.append(time.perf_counter() - start)
        used = children_cpu() - c0
        if code != 0 or not out:
            raise RuntimeError(f"set-up process failed: {err.decode(errors='replace')[-300:]}")
        ref_after = reference()
        norm.append(normalize(used, [ref, *refs, ref_after]))
        ref = ref_after
    return norm, wall


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the call-latency tail, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max(TAIL_FLOOR, 100.0 * (n - 10) / n)
    rank = max(0, math.ceil(pct / 100.0 * n) - 1)
    return ordered[rank], pct


def calibrate(sampler) -> float:
    """The reference loop's time, with the sampler (if any) paused so that
    its cost shows in the calls and not in their calibration."""
    if sampler is None:
        return reference()
    with sampler.paused():
        return reference()


def run_cycles(workload, seconds: float, sampler, cli_trace: bool) -> tuple[list, list]:
    """Run whole cycles until ``seconds`` have passed; returns the calls and
    (traced, seconds) per cycle.  With tracing, odd cycles are sampled."""
    cpu_clock = time.process_time if workload.in_process else children_cpu
    calls, cycles = [], []
    start = time.perf_counter()
    index = 0
    while True:
        traced = (sampler is not None or cli_trace) and index % 2 == 1
        batch = workload.cycle(index)
        cycle_start = time.perf_counter()
        if traced and sampler is not None:
            sampler.start()
        ref = calibrate(sampler)
        for j, call in enumerate(batch):
            call.cycle, call.traced = index, traced
            if traced and cli_trace:
                call.trace_file = OUT_DIR / f"cli-{os.getpid()}-{index}-{j}.json"
            in_call = InProcessReference() if workload.in_process and sampler is None else None
            c0, t0 = cpu_clock(), time.perf_counter()
            try:
                with in_call or contextlib.nullcontext():
                    call.result = workload.invoke(call)
            except Exception as exc:  # a failed call is counted, not fatal
                call.error = f"{type(exc).__name__}: {exc}"
            call.seconds = time.perf_counter() - t0
            call.cpu = cpu_clock() - c0
            if in_call is not None:
                call.cpu -= in_call.spent
                call.refs = in_call.refs
            ref_after = calibrate(sampler)
            call.norm = normalize(call.cpu, [ref, *call.refs, ref_after])
            ref = ref_after
        if traced and sampler is not None:
            sampler.stop()
        cycles.append((traced, time.perf_counter() - cycle_start))
        calls.extend(batch)
        index += 1
        if index >= MIN_CYCLES and time.perf_counter() - start >= seconds:
            return calls, cycles


def check_all(workload, calls) -> None:
    for call in calls:
        if call.error is None:
            try:
                workload.check(call, call.problems)
            except Exception as exc:
                call.problems.append(f"check raised {type(exc).__name__}: {exc}")
    try:
        workload.final_checks(calls)
    except Exception as exc:
        calls[0].problems.append(f"final check raised {type(exc).__name__}: {exc}")


def end_to_end(workload, calls, setup, rss_kb) -> tuple[dict, list]:
    """End-to-end values from normalized CPU times, and notes with the raw
    CPU and wall-clock figures."""
    setup_norm, setup_wall = setup
    items = sum(c.items for c in calls)
    kept = [c for c in calls if workload.latency_counts(c)]

    def figures(seconds):
        ms = [seconds(c) * 1000 for c in kept]
        return (items / sum(seconds(c) for c in calls), statistics.median(ms), *tail(ms))

    ips, p50, tail_ms, tail_pct = figures(lambda c: c.norm)
    values = {
        "setup_s": statistics.median(setup_norm),
        "items_per_s": ips,
        "call_p50_ms": p50,
        "call_tail_ms": tail_ms,
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = [f"call_tail_ms is p{tail_pct:.1f} of {len(kept)} calls; setup_s is the median "
             f"of {len(setup_norm)} fresh processes; times are normalized CPU time"]
    for label, seconds in (("raw cpu", lambda c: c.cpu), ("wall", lambda c: c.seconds)):
        ips, p50, tail_ms, _ = figures(seconds)
        notes.append(f"{label}: {ips:.6g} items/s, p50 {p50:.4g} ms, tail {tail_ms:.4g} ms")
    notes[-1] += f", setup {statistics.median(setup_wall):.4g} s"
    return values, notes


def per_layer(workload, calls, cycles, sampler, probes, warm_library) -> tuple[dict, dict]:
    """Per-layer values.  ``trace.coverage`` is the sampled time the calls
    account for over their wall time: for calls in this process, the
    library's self time outside the warm-up; for child processes, all of
    each child's sampled time."""
    from layers import layer_metrics, library_time

    counts: Counter = Counter()
    snapshots = []
    if sampler is not None:
        snapshots.append(sampler.snapshot())
        counts.update(probes.finish())
        accounted = library_time(snapshots[0]) - warm_library
    else:
        accounted = 0.0
    for call in calls:
        if not call.traced:
            continue
        counts.update(call.counts)
        if call.trace_file is not None and call.trace_file.exists():
            child = json.loads(call.trace_file.read_text())
            call.trace_file.unlink()
            snapshots.append(child["snapshot"])
            counts.update(child["counts"])
            accounted += sum(child["snapshot"]["self_s"].values())
    coverage = accounted / sum(c.seconds for c in calls if c.traced)
    per_cycle = Counter()
    for call in calls:
        per_cycle[call.cycle] += call.norm
    traced = [per_cycle[i] for i, (t, _) in enumerate(cycles) if t]
    plain = [per_cycle[i] for i, (t, _) in enumerate(cycles) if not t]
    overhead = statistics.mean(traced) / statistics.mean(plain)
    values = layer_metrics(snapshots, counts, counts.get("search.examined", 0), overhead,
                           coverage)
    return values, {"snapshots": snapshots, "counts": dict(counts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    cpu = pin_cpu()

    cls = WORKLOADS[args.workload]
    in_process_trace = args.trace == 1 and cls.in_process
    sampler = probes = None
    if in_process_trace:
        from sampler import Sampler

        sampler = Sampler(str(PACKAGE_DIR))
        sampler.start()  # imports and warm-up are part of the sampled time
    try:
        import_planecurves()
    except MissingLibrary as exc:
        if sampler is not None:
            sampler.stop()
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if sampler is not None:
        from layers import Probes

        probes = Probes(sampler)
    OUT_DIR.mkdir(exist_ok=True)

    setup = None if args.trace else measure_setup(cls)
    workload = cls(args.seed)
    workload.warm()
    warm_library = 0.0
    if sampler is not None:
        sampler.stop()
        from layers import library_time

        warm_library = library_time(sampler.snapshot())

    calls, cycles = run_cycles(workload, args.seconds, sampler,
                               cli_trace=args.trace == 1 and not cls.in_process)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    rss_kb = resource.getrusage(who).ru_maxrss
    check_all(workload, calls)
    failed = [c for c in calls if c.error or c.problems]
    correct = not failed

    print(f"workload {cls.name} seed {args.seed}: {len(calls)} calls in {len(cycles)} cycles, "
          f"{sum(c.seconds for c in calls):.2f} s timed, trace {args.trace}")
    print(f"env {json.dumps(environment(cpu), sort_keys=True)}")
    for call in failed[:10]:
        print(f"FAILED {call.kind}: {call.error or '; '.join(call.problems[:3])}")
    print(f"fail_ratio {len(failed) / len(calls):.6g} ({len(failed)}/{len(calls)})")

    dump = {"workload": cls.name, "seed": args.seed, "trace": args.trace,
            "spans": [{"cycle": c.cycle, "kind": c.kind, "wall_s": c.seconds, "cpu_s": c.cpu,
                       "norm_s": c.norm, "traced": c.traced} for c in calls]}
    if args.trace:
        values, layers_dump = per_layer(workload, calls, cycles, sampler, probes, warm_library)
        from layers import unit_of

        units = {name: unit_of(name) for name in values}
        lo, hi = COVERAGE_RANGE
        if not lo <= values["trace.coverage"] <= hi:
            correct = False
            print(f"FAILED trace coverage {values['trace.coverage']:.3f} outside [{lo}, {hi}]")
        print("trace: one thread and no queues, so no layer has a wait time to report")
        dump.update(layers_dump)
    else:
        values, notes = end_to_end(workload, calls, setup, rss_kb)
        units = END_TO_END_UNITS
        print("\n".join(notes))
        dump["setup"] = {"norm_s": setup[0], "wall_s": setup[1]}
    dump["metrics"] = values
    out = OUT_DIR / f"{cls.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dump, indent=1, sort_keys=True))
    print(f"spans written to {out.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
