"""The four benchmark workloads: their inputs, the public call each input
makes, and the output checks that run after the timed loop.

Every workload is a closed loop with one client: calls run back to back in
one process (``cli`` runs one child process at a time), with ``workers=1``
and BLAS pinned to one thread.  A workload is a fixed list of call kinds
per cycle; the workload seed and the cycle index choose the concrete inputs
(random curves, search seeds) and the order within the cycle, so a run is
a whole number of cycles and the mix of call kinds is the same in every
run.  Each check that fails is reported against the call that produced
the output.
"""

from __future__ import annotations

import json
import random
import resource
import sys
from dataclasses import dataclass, field

from common import ROOT, child_env, run_child

SING_POINT = (0, 0, 1)


def children_cpu() -> float:
    """User + system CPU seconds of all reaped child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Call:
    """One timed public call: ``kind`` names the inputs' shape (field, degree,
    mode), ``args`` holds the generated inputs."""

    kind: str
    args: dict
    result: object = None
    error: str | None = None
    seconds: float = 0.0
    cpu: float = 0.0
    norm: float = 0.0
    refs: list = field(default_factory=list)  # reference times taken during the call
    items: int = 0
    cycle: int = 0
    traced: bool = False
    trace_file: object = None  # where a sampled child process writes its trace
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def _field(p: int, k: int):
    from planecurves.field import FiniteField

    return FiniteField(p, k)


def _singular_at_origin(curve) -> bool:
    """F and its three partials vanish at (0:0:1), read off the coefficients
    of z^d, x z^(d-1) and y z^(d-1) (independent of the library's check)."""
    d = curve.degree
    return all(curve.terms.get(m, 0) == 0
               for m in ((0, 0, d), (1, 0, d - 1), (0, 1, d - 1)))


def _check_witness(curve, best_n: int, errors: list, label: str) -> None:
    from planecurves.analysis import count_by_line_sweep
    from planecurves.curve import has_linear_component

    swept = count_by_line_sweep(curve)
    if swept != best_n:
        errors.append(f"{label}: witness has {swept} points by line sweep, record says {best_n}")
    if has_linear_component(curve) is not None:
        errors.append(f"{label}: witness has a linear component")


def _search_counts(record) -> dict:
    return {
        "search.rows": record.curves_examined + record.discarded_linear + record.discarded_zero,
        "search.examined": record.curves_examined,
        "search.witnesses_verified": len(record.witnesses),
    }


class Workload:
    name = ""
    # Calls run in the benchmark process, which is then the one whose CPU
    # time and peak RSS count; False: in child processes, one at a time.
    in_process = True
    # (p, k) of every field the workload uses; set-up builds their planes.
    fields: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def setup_argv(cls) -> list:
        """Script and arguments of the fresh process whose start-up is set-up."""
        return ["probe.py"] + [f"{p},{k}" for p, k in cls.fields]

    def warm(self) -> None:
        from planecurves.plane import get_plane

        for p, k in self.fields:
            get_plane(_field(p, k))

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def invoke(self, call: Call):
        raise NotImplementedError

    def latency_counts(self, call: Call) -> bool:
        """Whether the call's latency enters call_p50_ms / call_tail_ms."""
        return True

    def check(self, call: Call, errors: list) -> None:
        raise NotImplementedError

    def final_checks(self, calls: list) -> None:
        """Checks across calls; problems go to the call they concern."""



class SearchExhaustivePrime(Workload):
    """Whole-space searches over prime fields with the linear-component
    filter: both d <= q and d > q (the regime in which a restriction with
    q+1 roots need not vanish)."""

    name = "search-exhaustive-prime"
    fields = ((2, 1), (3, 1), (5, 1), (7, 1))
    # (q, d).  An odd number of call kinds of distinct cost puts the median
    # call inside one kind rather than on the edge between two.
    TASKS = ((2, 3), (2, 4), (3, 3), (5, 2), (7, 2))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ctx = {q: _field(q, 1) for q, _ in self.TASKS}
        self._first: dict = {}

    def cycle(self, index: int) -> list:
        tasks = list(self.TASKS)
        _rng(self.name, self.seed, index).shuffle(tasks)
        return [Call(f"q={q} d={d}", {"q": q, "d": d}) for q, d in tasks]

    def invoke(self, call):
        from planecurves.search import SearchTask, run_search

        task = SearchTask(ctx=self.ctx[call.args["q"]], degree=call.args["d"],
                          mode="exhaustive", require_no_linear_component=True)
        record = run_search(task, workers=1)
        call.counts = _search_counts(record)
        call.items = call.counts["search.rows"]
        return record

    def check(self, call, errors):
        q, d = call.args["q"], call.args["d"]
        record = call.result
        label = f"exhaustive q={q} d={d}"
        first = self._first.get(call.kind)
        if first is not None:
            # Every cycle repeats the same search: its record must replay exactly.
            if record.to_json_dict() != first.to_json_dict():
                errors.append(f"{label}: record differs from the first run of the same search")
            return
        self._first[call.kind] = record
        total = (q ** ((d + 1) * (d + 2) // 2) - 1) // (q - 1)
        if call.items != total:
            errors.append(f"{label}: {call.items} rows, expected {total}")
        if d <= q + 1 and record.best_N != (d - 1) * q + 1:
            errors.append(f"{label}: best_N {record.best_N} != (d-1)q+1 = {(d - 1) * q + 1}")
        if not record.witnesses:
            errors.append(f"{label}: no witnesses")
        for w in record.witnesses:
            _check_witness(w, record.best_N, errors, label)


class SearchRandomExt(Workload):
    """Many small seeded searches over extension fields, through the
    table-gather path: random draws with the filter, and draws constrained
    to curves singular at (0:0:1)."""

    name = "search-random-ext"
    fields = ((2, 2), (2, 3), (3, 2))
    # (mode, p, k, d, samples)
    TASKS = (
        ("random", 2, 2, 4, 4096),
        ("random", 2, 3, 3, 4096),
        ("random", 3, 2, 3, 4096),
        ("constrained_random", 2, 2, 4, 1024),
        ("constrained_random", 3, 2, 3, 1024),
    )
    REPLAYS = 3
    # Witnesses re-checked per call: recounting all of up to 64 per call
    # would cost more than the timed loop.
    WITNESS_SAMPLE = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ctx = {(p, k): _field(p, k) for p, k in self.fields}

    def cycle(self, index: int) -> list:
        rng = _rng(self.name, self.seed, index)
        calls = [
            Call(f"{mode} q={p ** k} d={d}",
                 {"mode": mode, "pk": (p, k), "d": d, "n": n, "seed": rng.getrandbits(32)})
            for mode, p, k, d, n in self.TASKS
        ]
        rng.shuffle(calls)
        return calls

    def task(self, args):
        from planecurves.search import SearchTask

        constrained = args["mode"] == "constrained_random"
        return SearchTask(ctx=self.ctx[args["pk"]], degree=args["d"], mode=args["mode"],
                          seed=args["seed"], n_samples=args["n"],
                          require_no_linear_component=True,
                          singular_at=SING_POINT if constrained else None)

    def invoke(self, call):
        from planecurves.search import run_search

        record = run_search(self.task(call.args), workers=1)
        call.counts = _search_counts(record)
        call.items = call.counts["search.rows"]
        return record

    def check(self, call, errors):
        args, record = call.args, call.result
        q, d = args["pk"][0] ** args["pk"][1], args["d"]
        label = f"{call.kind} seed={args['seed']}"
        if call.items != args["n"]:
            errors.append(f"{label}: {call.items} rows for {args['n']} samples")
        if record.best_N is None:
            return
        constrained = args["mode"] == "constrained_random"
        if constrained:
            limit = (d - 1) * q
        else:
            limit = 14 if (q, d) == (4, 4) else (d - 1) * q + 1
        if record.best_N > limit:
            errors.append(f"{label}: best_N {record.best_N} exceeds {limit}")
        sample = record.witnesses[:1] + record.witnesses[1:][-(self.WITNESS_SAMPLE - 1):]
        for w in sample:
            _check_witness(w, record.best_N, errors, label)
            if constrained and not _singular_at_origin(w):
                errors.append(f"{label}: witness not singular at (0:0:1)")

    def final_checks(self, calls):
        from planecurves.search import run_search

        for call in calls[: self.REPLAYS]:
            if call.error is None:
                again = run_search(self.task(call.args), workers=1)
                if again.to_json_dict() != call.result.to_json_dict():
                    call.problems.append("the same seed replays a different record")


class Analyze(Workload):
    """Per-curve exact analysis of seeded random curves: bound verdicts
    (classification, singular locus, Frobenius) and the line spectrum, plus
    batches of forced-singular instances."""

    name = "analyze"
    FIELDS = {4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2), 11: (11, 1), 13: (13, 1)}
    fields = tuple(FIELDS.values())
    DEGREES = (3, 4, 5)
    SINGULAR = ((4, 3), (5, 4), (7, 5))  # (q, d) of the forced-singular batches
    BATCH = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ctx = {q: _field(*pk) for q, pk in self.FIELDS.items()}

    def cycle(self, index: int) -> list:
        from planecurves.curve import PlaneCurve, monomials

        rng = _rng(self.name, self.seed, index)
        calls = []
        for q, ctx in self.ctx.items():
            for d in self.DEGREES:
                terms = {}
                while not terms:
                    terms = {m: c for m in monomials(d) if (c := rng.randrange(q))}
                calls.append(Call(f"curve q={q} d={d}", {"curve": PlaneCurve(ctx, d, terms)}))
        q, d = self.SINGULAR[index % len(self.SINGULAR)]
        calls.append(Call(f"singular q={q} d={d}",
                          {"q": q, "d": d, "seed": rng.getrandbits(32)}))
        rng.shuffle(calls)
        return calls

    def invoke(self, call):
        from planecurves import bound_verdicts, line_spectrum, random_singular_instances

        if "curve" in call.args:
            curve = call.args["curve"]
            report = bound_verdicts(curve)
            spectrum = line_spectrum(curve)
            call.items = 1
            status = report.flags["geometrically_nonsingular"]
            call.counts = {f"locus.{status}": 1}
            return report, spectrum
        args = call.args
        out = random_singular_instances(self.ctx[args["q"]], args["d"], SING_POINT,
                                        self.BATCH, seed=args["seed"])
        call.items = len(out)
        return out

    def latency_counts(self, call):
        return "curve" in call.args

    def check(self, call, errors):
        from planecurves.analysis import count_by_line_sweep

        if "curve" not in call.args:
            q, d = call.args["q"], call.args["d"]
            if len(call.result) != self.BATCH:
                errors.append(f"{call.kind}: {len(call.result)} instances, asked {self.BATCH}")
            for cur in call.result:
                if not _singular_at_origin(cur):
                    errors.append(f"{call.kind}: instance not singular at (0:0:1)")
                n = count_by_line_sweep(cur)
                if n > (d - 1) * q:
                    errors.append(f"{call.kind}: instance has {n} > (d-1)q points")
            return
        curve = call.args["curve"]
        report, spectrum = call.result
        q, d = curve.ctx.q, curve.degree
        n = count_by_line_sweep(curve)
        label = f"{call.kind} {sorted(curve.terms.items())}"
        if report.N != n or spectrum.N != n:
            errors.append(f"{label}: N {report.N}/{spectrum.N}, line sweep {n}")
        if spectrum.sum_a() != q * q + q + 1:
            errors.append(f"{label}: sum a_i = {spectrum.sum_a()}")
        if spectrum.sum_ia() != (q + 1) * n:
            errors.append(f"{label}: sum i a_i = {spectrum.sum_ia()}")
        if spectrum.sum_pairs() != n * (n - 1) // 2:
            errors.append(f"{label}: sum C(i,2) a_i = {spectrum.sum_pairs()}")
        # Sziklai's bound holds for q != 4 (Homma-Kim).
        if (q != 4 and not report.flags["has_linear_component"] and 2 <= d <= q + 1
                and n > (d - 1) * q + 1):
            errors.append(f"{label}: {n} points breaks (d-1)q+1 without a linear component")


class Cli(Workload):
    """A fixed script of fresh ``planecurves`` processes; every process
    builds the projective planes it needs and pays for its imports."""

    name = "cli"
    in_process = False
    # (argv, expected exit code, catalog entry whose N the output must show).
    # Three cheap commands, four at GF(16), verify-catalog and three at
    # GF(25) of similar cost: the median call falls among the GF(16)
    # commands and p90 among the GF(25) ones.
    SCRIPT = (
        (["field-info", "--field", "p=2,k=4"], 0, None),
        (["frobenius", "--field", "p=2,k=4", "--catalog", "hermitian"], 0, None),
        (["bounds", "--field", "p=2,k=2", "--catalog", "exceptional_quartic"], 2,
         "exceptional_quartic"),
        (["count", "--field", "p=2,k=4", "--catalog", "hermitian"], 0, "hermitian"),
        (["bounds", "--field", "p=2,k=4", "--catalog", "hermitian"], 0, "hermitian"),
        (["spectrum", "--field", "p=2,k=4", "--catalog", "hermitian"], 0, "hermitian"),
        (["lemma-check", "--field", "p=2,k=4", "--catalog", "hermitian"], 0, "hermitian"),
        (["verify-catalog", "--q", "2,3,4,5"], 0, None),
        (["spectrum", "--field", "p=5,k=2", "--catalog", "hermitian"], 0, "hermitian"),
        (["count", "--field", "p=5,k=2", "--catalog", "smooth_conic"], 0, "smooth_conic"),
        (["lemma-check", "--field", "p=5,k=2", "--catalog", "smooth_conic"], 0, "smooth_conic"),
    )
    TIMEOUT = 150

    def __init__(self, seed: int):
        super().__init__(seed)
        self._outputs: dict = {}

    @classmethod
    def setup_argv(cls):
        return ["cli_runner.py"] + cls.SCRIPT[0][0]

    def warm(self):
        pass

    def cycle(self, index):
        calls = [Call(" ".join(argv), {"argv": argv + ["--no-timestamp"],
                                       "exit": code, "entry": entry})
                 for argv, code, entry in self.SCRIPT]
        _rng(self.name, self.seed, index).shuffle(calls)
        return calls

    def invoke(self, call):
        extra = {"PERFBENCH_TRACE": str(call.trace_file)} if call.trace_file else {}
        # A sampled child runs alone, so the sampler sees all of its wall time.
        code, out, err, call.refs = run_child(
            [sys.executable, str(ROOT / "perfbench" / "cli_runner.py"), *call.args["argv"]],
            child_env(**extra), self.TIMEOUT, calibrate=call.trace_file is None,
        )
        call.items = 1
        if call.args["argv"][0] == "bounds" and code in (0, 2):
            status = json.loads(out)["flags"]["geometrically_nonsingular"]
            call.counts = {f"locus.{status}": 1}
        return code, out, err

    def check(self, call, errors):
        from planecurves.catalog import CATALOG

        code, out, err = call.result
        label = call.kind
        if code != call.args["exit"]:
            errors.append(f"{label}: exit {code}, expected {call.args['exit']}: "
                          f"{err.decode(errors='replace')[-300:]}")
            return
        seen = self._outputs.setdefault(call.kind, out)
        if seen != out:
            errors.append(f"{label}: --no-timestamp output differs between runs")
        payload = json.loads(out)
        argv = call.args["argv"]
        entry = call.args["entry"]
        if entry is not None:
            spec = argv[argv.index("--field") + 1]
            p, k = (int(part.split("=")[1]) for part in spec.split(","))
            expected = CATALOG[entry].expected_count(p ** k)
            if payload.get("N") != expected:
                errors.append(f"{label}: N {payload.get('N')}, catalog says {expected}")
        if argv[0] == "verify-catalog":
            if payload["failures"] != 0 or not all(
                    r["count_ok"] for r in payload["rows"] if r["count_ok"] is not None):
                errors.append(f"{label}: catalog rows failed")
        if argv[0] == "frobenius" and payload["frobenius_nonclassical"] is not True:
            errors.append(f"{label}: the Hermitian curve must be Frobenius nonclassical")



WORKLOADS = {w.name: w for w in (SearchExhaustivePrime, SearchRandomExt, Analyze, Cli)}
