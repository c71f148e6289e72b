import gc
import json
import random
import tracemalloc

import numpy as np
import pytest

from planecurves import analysis, plane, search
from planecurves.curve import PlaneCurve, curve_mul, has_linear_component, monomials
from planecurves.field import ExtensionField, FiniteField
from planecurves.search import (
    SearchTask,
    _combine_basis,
    _Engine,
    count_exact,
    random_singular_instances,
    run_search,
    singular_constraint_basis,
)

from conftest import field_for, random_curve


def test_exhaustive_small_conics():
    """All 63 canonical conics over GF(2); the no-linear-component maximum
    is the conjectured (d-1)q + 1 = 3."""
    task = SearchTask(ctx=field_for(2), degree=2, mode="exhaustive",
                      require_no_linear_component=True)
    record = run_search(task)
    assert record.curves_examined + record.discarded_linear == 63
    assert record.best_N == 3
    assert sum(record.histogram.values()) == record.curves_examined
    for witness in record.witnesses:
        assert has_linear_component(witness) is None
        assert len(analysis.rational_points(witness)) == 3


@pytest.mark.parametrize("q,d,expected", [(2, 3, 5), (3, 2, 4), (3, 3, 7)])
def test_exhaustive_maxima_match_theory(q, d, expected):
    task = SearchTask(ctx=field_for(q), degree=d, mode="exhaustive",
                      require_no_linear_component=True)
    record = run_search(task)
    assert record.best_N == expected == (d - 1) * q + 1
    assert record.witnesses


def test_exhaustive_budget_refused():
    task = SearchTask(ctx=field_for(3), degree=4, mode="exhaustive", budget=1000)
    with pytest.raises(ValueError, match="budget"):
        run_search(task)


@pytest.mark.parametrize("task", [
    SearchTask(ctx=field_for(3), degree=2, mode="exhaustive",
               require_no_linear_component=True),
    SearchTask(ctx=field_for(2), degree=4, mode="exhaustive",
               require_no_linear_component=True),
    SearchTask(ctx=field_for(4), degree=4, mode="random", seed=5, n_samples=40_000,
               require_no_linear_component=True),
    SearchTask(ctx=field_for(9), degree=3, mode="constrained_random", seed=6,
               n_samples=40_000, singular_at=(0, 0, 1)),
], ids=["exhaustive-gf3-conics", "exhaustive-gf2-quartics", "random-gf4-quartics",
        "constrained-gf9-cubics"])
def test_worker_count_independence(task):
    """One block for GF(3) conics; the others span several blocks (GF(2)
    quartics 15, the random searches 3 each), so block order and the
    windows of blocks drawn ahead for the pool both play a part."""
    expected = run_search(task, workers=1).to_json_dict()
    for workers in (2, 3, 4):
        assert run_search(task, workers=workers).to_json_dict() == expected


def test_random_replay_bit_for_bit():
    task = SearchTask(ctx=field_for(4), degree=3, mode="random",
                      seed=99, n_samples=4000)
    a = run_search(task).to_json_dict()
    b = run_search(task).to_json_dict()
    assert a == b
    assert a["generator"] == "numpy-pcg64"
    assert sum(a["histogram"].values()) == a["curves_examined"]


def test_random_requires_seed_and_samples():
    with pytest.raises(ValueError, match="seed"):
        run_search(SearchTask(ctx=field_for(2), degree=2, mode="random"))


@pytest.mark.parametrize("changes,workers,match", [
    ({"degree": -1}, 1, "degree must be >= 0"),
    ({"mode": "random", "seed": 1, "n_samples": 0}, 1, "at least one sample"),
    ({"mode": "constrained_random", "seed": 1, "n_samples": -2, "singular_at": (0, 0, 1)},
     1, "at least one sample"),
    ({"witness_cap": -1}, 1, "witness_cap must be >= 0"),
    ({}, 0, "workers must be >= 1"),
    ({}, -1, "workers must be >= 1"),
    ({"seed": 1}, 1, "exhaustive searches take no seed"),
    ({"n_samples": 5}, 1, "exhaustive searches take no n_samples"),
    ({"singular_at": (0, 0, 1)}, 1, "singular_at is for constrained_random"),
    ({"mode": "random", "seed": 1, "n_samples": 5, "singular_at": (0, 0, 1)},
     1, "singular_at is for constrained_random"),
    ({"mode": "constrained_random", "degree": 1, "seed": 1, "n_samples": 5,
      "singular_at": (0, 0, 1)}, 1, "constrained_random needs degree >= 2"),
], ids=["negative-degree", "no-samples", "negative-samples", "negative-witness-cap",
        "zero-workers", "negative-workers", "exhaustive-seed", "exhaustive-samples",
        "exhaustive-singular-at", "random-singular-at", "constrained-degree-1"])
def test_invalid_search_parameters_refused(engine_builds, changes, workers, match):
    """Refused before any engine is built; exhaustive GF(3) conics would
    otherwise find 35 witnesses."""
    task = SearchTask(**{"ctx": field_for(3), "degree": 2, "mode": "exhaustive", **changes})
    with pytest.raises(ValueError, match=match):
        run_search(task, workers=workers)
    assert engine_builds == []


def _rows_with_linear_factor(ctx, d, n, rng):
    """Coefficient rows of (random line) * (random degree-(d-1) form)."""
    rows = []
    for _ in range(n):
        line = random_curve(ctx, 1, rng)
        prod = curve_mul(line, random_curve(ctx, d - 1, rng))
        rows.append([prod.terms.get(m, 0) for m in monomials(d)])
    return np.array(rows, dtype=np.uint8)


def _check_engine_rows(ctx, d, engine, batch):
    counts, on = engine.counts(batch)
    flags = engine.linear_flags(batch, on)
    pl = plane.get_plane(ctx)
    for row, n, members, flag in zip(batch, counts, on, flags):
        assert count_exact(ctx, d, [row]) == [n]
        terms = {m: int(c) for m, c in zip(monomials(d), row) if c}
        cur = PlaneCurve(ctx, d, terms)
        assert set(np.nonzero(members)[0]) == {
            pl.point_index[pt] for pt in analysis.rational_points(cur)}
        assert (has_linear_component(cur) is not None) == flag
    return flags


# (q, d) on both sides of d <= q, where the incidence test alone decides
# the linear component; for d >= q+1 candidates are restricted to lines.
ENGINE_CASES = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 5), (5, 3),
                (5, 6), (7, 3), (8, 3), (9, 3), (16, 3), (25, 2), (27, 3))


def test_engine_matches_exact_counts():
    rng = np.random.default_rng(7)
    prng = random.Random(7)
    for q, d in ENGINE_CASES:
        ctx = field_for(q)
        engine = _Engine(ctx, d, with_linear_flags=True)
        n_random = 30 if q <= 9 else 8
        batch = rng.integers(0, q, size=(n_random, len(monomials(d)))).astype(np.uint8)
        batch = np.vstack([batch[batch.any(axis=1)],
                           _rows_with_linear_factor(ctx, d, 4, prng)])
        flags = _check_engine_rows(ctx, d, engine, batch)
        assert flags[-4:].all(), (q, d)


def test_engine_batches_without_candidates():
    """d > q: a batch in which no line lies wholly on any curve, and an
    empty batch, both go through the restriction branch."""
    ctx = field_for(2)
    engine = _Engine(ctx, 4, with_linear_flags=True)
    pl = plane.get_plane(ctx)
    rng = np.random.default_rng(3)
    batch = rng.integers(0, 2, size=(200, len(monomials(4)))).astype(np.uint8)
    keep = []
    for row in batch:
        terms = {m: int(c) for m, c in zip(monomials(4), row) if c}
        if not terms:
            continue
        on = {pl.point_index[pt] for pt in analysis.rational_points(PlaneCurve(ctx, 4, terms))}
        keep.append(not any(set(pts) <= on for pts in pl.points_on))
    batch = batch[batch.any(axis=1)][np.array(keep)]
    assert 0 < len(batch)
    assert not _check_engine_rows(ctx, 4, engine, batch).any()
    counts, on = engine.counts(batch[:0])
    assert counts.shape == (0,) and engine.linear_flags(batch[:0], on).shape == (0,)


def test_combine_basis_matches_elementwise_sum():
    """Including primes above 36, whose base-p digits numpy's base_repr
    cannot write, and a tower."""
    rng = np.random.default_rng(11)
    fields = [field_for(q) for q in (2, 4, 5, 8, 9)]
    fields += [FiniteField(37), FiniteField(251), ExtensionField(field_for(4), 2)]
    for ctx in fields:
        q = ctx.q
        for degree in range(2, 6):
            basis = singular_constraint_basis(ctx, degree, (1, 2 % q, 1))
            combo = rng.integers(0, q, size=(50, len(basis)), dtype=np.int64)
            got = _combine_basis(ctx, basis, combo)
            for out_row, coeffs in zip(got, combo):
                want = [0] * len(basis[0])
                for c, vec in zip(coeffs, basis):
                    for i, v in enumerate(vec):
                        want[i] = ctx.add(want[i], ctx.mul(int(c), v))
                assert out_row.tolist() == want


# Records of two seeded searches, recorded before the counting engine was
# rewritten: any change to the random stream, the filter or the witness
# order shows here.  The engine id is left out.
PINNED_RANDOM_GF4 = {
    "q": 4, "degree": 3, "mode": "random", "seed": 2024, "generator": "numpy-pcg64",
    "curves_examined": 2761, "discarded_linear": 239, "discarded_zero": 0,
    "histogram": {"0": 8, "1": 24, "2": 265, "3": 174, "4": 786, "5": 287, "6": 777,
                  "7": 167, "8": 248, "9": 25},
    "best_N": 9,
    "witnesses": [
        [[[0, 0, 3], 1], [[0, 1, 2], 3], [[0, 2, 1], 1], [[0, 3, 0], 3], [[1, 0, 2], 1],
         [[2, 0, 1], 3], [[2, 1, 0], 3], [[3, 0, 0], 3]],
        [[[0, 2, 1], 2], [[0, 3, 0], 3], [[1, 0, 2], 1], [[1, 2, 0], 2], [[2, 0, 1], 1],
         [[2, 1, 0], 1]],
        [[[0, 0, 3], 3], [[0, 2, 1], 1], [[1, 2, 0], 3], [[2, 0, 1], 3], [[2, 1, 0], 3]],
        [[[0, 1, 2], 2], [[0, 2, 1], 1], [[0, 3, 0], 3], [[1, 0, 2], 2], [[1, 2, 0], 2],
         [[2, 0, 1], 3]],
    ],
    "witness_cap": 4,
    "params": {"n_samples": 3000, "require_no_linear_component": True,
               "singular_at": None, "budget": 10000000},
}
PINNED_CONSTRAINED_GF9 = {
    "q": 9, "degree": 3, "mode": "constrained_random", "seed": 7,
    "generator": "numpy-pcg64", "curves_examined": 709, "discarded_linear": 91,
    "discarded_zero": 0, "histogram": {"1": 1, "9": 336, "10": 72, "11": 300},
    "best_N": 11,
    "witnesses": [
        [[[0, 2, 1], 2], [[1, 1, 1], 2], [[1, 2, 0], 2], [[2, 0, 1], 7], [[2, 1, 0], 8]],
        [[[0, 2, 1], 7], [[0, 3, 0], 6], [[1, 1, 1], 5], [[1, 2, 0], 3], [[2, 0, 1], 8],
         [[2, 1, 0], 4], [[3, 0, 0], 1]],
        [[[0, 2, 1], 7], [[0, 3, 0], 1], [[1, 1, 1], 7], [[1, 2, 0], 5], [[2, 0, 1], 1],
         [[3, 0, 0], 4]],
        [[[0, 2, 1], 7], [[0, 3, 0], 5], [[1, 1, 1], 1], [[1, 2, 0], 4], [[2, 0, 1], 2],
         [[2, 1, 0], 8], [[3, 0, 0], 7]],
    ],
    "witness_cap": 4,
    "params": {"n_samples": 800, "require_no_linear_component": True,
               "singular_at": "0:0:1", "budget": 10000000},
}


@pytest.mark.parametrize("task,pinned", [
    (SearchTask(ctx=field_for(4), degree=3, mode="random", seed=2024, n_samples=3000,
                require_no_linear_component=True, witness_cap=4), PINNED_RANDOM_GF4),
    (SearchTask(ctx=field_for(9), degree=3, mode="constrained_random", seed=7,
                n_samples=800, require_no_linear_component=True, singular_at=(0, 0, 1),
                witness_cap=4), PINNED_CONSTRAINED_GF9),
], ids=["random-gf4", "constrained-gf9"])
def test_seeded_records_pinned(task, pinned):
    record = json.loads(json.dumps(run_search(task).to_json_dict()))
    record.pop("engine")
    assert record == pinned


def test_search_refuses_q_above_256():
    task = SearchTask(ctx=FiniteField(257), degree=2, mode="random", seed=1, n_samples=10)
    with pytest.raises(ValueError, match="256"):
        run_search(task)


def test_witnesses_reverify():
    task = SearchTask(ctx=field_for(3), degree=3, mode="random",
                      seed=5, n_samples=2000, require_no_linear_component=True)
    record = run_search(task)
    for witness in record.witnesses:
        assert len(analysis.rational_points(witness)) == record.best_N
        assert has_linear_component(witness) is None


def test_singular_constraint_basis_dimension():
    """Four linear conditions on the coefficient space; when the
    characteristic divides the degree the membership row is dependent."""
    for q, d in ((5, 4), (4, 3), (7, 5)):
        ctx = field_for(q)
        basis = singular_constraint_basis(ctx, d, (0, 0, 1))
        n_monos = len(monomials(d))
        assert len(basis) >= n_monos - 4
        for vec in basis[:3]:
            terms = {m: c for m, c in zip(monomials(d), vec) if c}
            if not terms:
                continue
            cur = PlaneCurve(ctx, d, terms)
            assert cur.evaluate((0, 0, 1)) == 0


def test_random_singular_instances_properties():
    for q, d in ((4, 3), (5, 4)):
        ctx = field_for(q)
        instances = random_singular_instances(ctx, d, (0, 0, 1), 25, seed=77)
        assert len(instances) == 25
        for cur in instances:
            assert (0, 0, 1) in analysis.singular_rational_points(cur)
            assert has_linear_component(cur) is None
            assert len(analysis.rational_points(cur)) <= (d - 1) * q


def test_constrained_random_mode_matches_instances():
    ctx = field_for(5)
    task = SearchTask(ctx=ctx, degree=4, mode="constrained_random", seed=3,
                      n_samples=300, require_no_linear_component=True,
                      singular_at=(0, 0, 1))
    record = run_search(task)
    assert record.curves_examined > 0
    for witness in record.witnesses:
        assert (0, 0, 1) in analysis.singular_rational_points(witness)
    assert record.best_N <= (4 - 1) * 5


def _gf8_cubic_task(**kwargs):
    """The random GF(8) d=3 search whose 64 witnesses the memory tests keep."""
    return SearchTask(ctx=field_for(8), degree=3, mode="random", seed=11, n_samples=4096,
                      require_no_linear_component=True, **kwargs)


def test_reverification_catches_a_miscounting_engine(monkeypatch):
    counts = _Engine.counts

    def off_by_one(self, coeffs):
        n, on = counts(self, coeffs)
        return n + 1, on

    monkeypatch.setattr(_Engine, "counts", off_by_one)
    with pytest.raises(RuntimeError, match="re-verification failed"):
        run_search(_gf8_cubic_task(witness_cap=4))


def test_reverification_checks_every_kept_witness(monkeypatch):
    task = _gf8_cubic_task(witness_cap=4)
    assert len(run_search(task).witnesses) == 4
    real = search.count_exact

    def last_row_wrong(ctx, degree, rows):
        out = real(ctx, degree, rows)
        out[-1] += 1
        return out

    monkeypatch.setattr(search, "count_exact", last_row_wrong)
    with pytest.raises(RuntimeError, match="re-verification failed"):
        run_search(task)


@pytest.fixture
def engine_builds(monkeypatch):
    """The arguments of every _Engine built, starting from an empty cache."""
    search._engine.cache_clear()
    builds = []
    init = _Engine.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(_Engine, "__init__", counted)
    yield builds
    search._engine.cache_clear()


def test_searches_with_the_same_key_share_one_engine(engine_builds):
    task = SearchTask(ctx=FiniteField(2, 2), degree=3, mode="random", seed=5,
                      n_samples=500, require_no_linear_component=True)
    first = run_search(task).to_json_dict()
    assert run_search(task).to_json_dict() == first
    # an equal but distinct field object is the same key
    other = SearchTask(ctx=FiniteField(2, 2), degree=3, mode="random", seed=6,
                       n_samples=500, require_no_linear_component=True)
    run_search(other)
    assert len(engine_builds) == 1
    # the filter is part of the key
    run_search(SearchTask(ctx=FiniteField(2, 2), degree=3, mode="random", seed=5, n_samples=500))
    assert len(engine_builds) == 2


def test_engine_cache_is_bounded(engine_builds):
    maxsize = search._engine.cache_info().maxsize
    ctx = field_for(2)
    tasks = [SearchTask(ctx=ctx, degree=d, mode="random", seed=1, n_samples=50)
             for d in range(1, maxsize + 2)]
    for task in tasks:
        run_search(task)
    assert len(engine_builds) == maxsize + 1
    assert search._engine.cache_info().currsize == maxsize
    run_search(tasks[-1])  # still cached
    assert len(engine_builds) == maxsize + 1
    run_search(tasks[0])  # the oldest key was evicted
    assert len(engine_builds) == maxsize + 2


def test_warm_engine_records_equal_cold_ones(engine_builds):
    tasks = [_gf8_cubic_task(witness_cap=8),
             SearchTask(ctx=field_for(9), degree=3, mode="constrained_random", seed=3,
                        n_samples=400, require_no_linear_component=True,
                        singular_at=(0, 0, 1)),
             SearchTask(ctx=field_for(2), degree=4, mode="exhaustive",
                        require_no_linear_component=True)]
    warm = [run_search(t).to_json_dict() for t in tasks]
    assert [run_search(t).to_json_dict() for t in tasks] == warm
    search._engine.cache_clear()
    assert [run_search(t).to_json_dict() for t in tasks] == warm
    assert len(engine_builds) == 2 * len(tasks)


def test_witnesses_are_compact():
    """Witness curves carry no __dict__ and share the monomials(d) triples
    as their term keys."""
    record = run_search(_gf8_cubic_task())
    assert len(record.witnesses) == 64
    monos = {id(m) for m in monomials(3)}
    for witness in record.witnesses:
        assert not hasattr(witness, "__dict__")
        assert all(id(key) in monos for key in witness.terms)


def test_search_record_memory_budget():
    """The memory a record with 64 witness curves keeps: about 28 KB with
    compact witnesses, about 67 KB when every curve holds a __dict__ and its
    own exponent tuples (tracemalloc, CPython 3.11)."""
    task = _gf8_cubic_task()
    run_search(task)  # the plane and the engine are cached, not retained
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record = run_search(task)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(record.witnesses) == 64
    assert retained < 32_000


@pytest.mark.parametrize("workers", [1, 3])
def test_random_search_memory_does_not_grow_with_samples(workers):
    """Blocks are drawn as they are processed and merged into running state,
    so the traced peak of a search with 32 blocks is about that of one with
    8, which fills a window of 2 * workers blocks (ratio 1.0 at one worker,
    0.97-1.08 at three; 2.5 and 1.9-2.0 when every block is drawn up front
    and every outcome kept)."""

    def peak(n_samples):
        task = SearchTask(ctx=field_for(2), degree=2, mode="random", seed=3,
                          n_samples=n_samples)
        gc.collect()
        tracemalloc.start()
        try:
            run_search(task, workers=workers)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(search._CHUNK)  # builds and caches the plane and the engine
    assert peak(32 * search._CHUNK) / peak(8 * search._CHUNK) < 1.5
