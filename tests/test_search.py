import gc
import itertools
import json
import random
import threading
from math import comb
import tracemalloc

import numpy as np
import pytest

from planecurves import analysis, linalg, plane, search
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


def _forms(q, m):
    """Nonzero forms in m coefficients, up to scalars."""
    return (q ** m - 1) // (q - 1)


@pytest.mark.parametrize("q,d", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                 (4, 2), (4, 3), (5, 2), (7, 2)])
def test_exhaustive_records_meet_their_closed_forms(q, d):
    """The Reed-Muller weight moments of the unfiltered histogram, and the
    inclusion-exclusion count of forms with a linear factor; d > q for
    (2, 3) and (2, 4).  run_search checks both itself, and raises if not."""
    points, n = q * q + q + 1, (d + 1) * (d + 2) // 2
    plain = run_search(SearchTask(ctx=field_for(q), degree=d, mode="exhaustive"))
    for t in range(1, d + 2):
        moment = sum(comb(big_n, t) * times for big_n, times in plain.histogram.items())
        assert moment == comb(points, t) * _forms(q, n - t), t
    filtered = run_search(SearchTask(ctx=field_for(q), degree=d, mode="exhaustive",
                                     require_no_linear_component=True))
    with_line = sum((-1) ** (s + 1) * comb(points, s) * _forms(q, (d - s + 1) * (d - s + 2) // 2)
                    for s in range(1, d + 1))
    assert filtered.discarded_linear == with_line
    assert filtered.curves_examined + with_line == _forms(q, n) == plain.curves_examined


def test_certificate_catches_a_miscounted_row(monkeypatch):
    """A row that is no witness, counted one point short: only the moments see it."""
    counts, blocks = _Engine.counts, []

    def first_row_short(self, coeffs):
        n, on = counts(self, coeffs)
        if not blocks:
            n[0] -= 1
        blocks.append(len(n))
        return n, on

    monkeypatch.setattr(_Engine, "counts", first_row_short)
    with pytest.raises(RuntimeError, match="exhaustive certificate failed"):
        run_search(SearchTask(ctx=field_for(2), degree=3, mode="exhaustive"))


@pytest.mark.parametrize("q,d", [(3, 2), (2, 3)], ids=["d<=q", "d>q"])
def test_certificate_catches_a_flipped_linear_flag(monkeypatch, q, d):
    linear_flags, blocks = _Engine.linear_flags, []

    def first_flag_flipped(self, coeffs, on):
        flags = linear_flags(self, coeffs, on)
        if not blocks:
            flags[0] = not flags[0]
        blocks.append(len(flags))
        return flags

    monkeypatch.setattr(_Engine, "linear_flags", first_flag_flipped)
    with pytest.raises(RuntimeError, match="discarded_linear"):
        run_search(SearchTask(ctx=field_for(q), degree=d, mode="exhaustive",
                              require_no_linear_component=True))


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
    ({"degree": -1}, 1, "degree must be >= 1"),
    ({"degree": 0, "mode": "random", "seed": 1, "n_samples": 3,
      "require_no_linear_component": True}, 1, "degree must be >= 1"),
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
], ids=["negative-degree", "zero-degree", "no-samples", "negative-samples",
        "negative-witness-cap",
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
# the linear component; for d >= q+1 each row that holds a whole line is
# also tested on that line's restriction coefficients g_1 .. g_(d-q).
ENGINE_CASES = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 5), (5, 3),
                (5, 6), (7, 3), (8, 3), (9, 3), (16, 3), (25, 2), (27, 3))


def test_engine_matches_exact_counts():
    rng = np.random.default_rng(7)
    prng = random.Random(7)
    for q, d in ENGINE_CASES:
        ctx = field_for(q)
        engine = _Engine(ctx, d)
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
    engine = _Engine(ctx, 4)
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


@pytest.mark.parametrize("q,d", [(q, d) for q in (2, 3, 4, 5) for d in range(q + 1, q + 4)])
def test_vanishing_binary_forms_are_fixed_by_their_low_coefficients(q, d):
    """The lemma behind the d > q filter, by brute force over field
    operations alone.  A binary form g = sum g_i s^(d-i) t^i that vanishes
    at (1:0) and (0:1) has g_0 = g_d = 0, so the q^(d-1) <= 5^7 forms with
    those two coefficients zero hold every form vanishing on P^1(F_q).
    Exactly q^(d-q) of them vanish at every (s:1), and only the zero form
    among them has g_1 = ... = g_(d-q) = 0."""
    ctx = field_for(q)
    powers = []  # for each s != 0, the list s^(d-i) for i = 0 .. d
    for s in range(1, q):
        pw = [1]
        for _ in range(d):
            pw.append(ctx.mul(pw[-1], s))
        powers.append(pw[::-1])

    def value(g, pw):
        acc = 0
        for c, w in zip(g, pw):
            if c:
                acc = ctx.add(acc, ctx.mul(c, w))
        return acc

    vanishing = [g for g in ((0, *inner, 0) for inner in itertools.product(range(q), repeat=d - 1))
                 if all(value(g, pw) == 0 for pw in powers)]
    assert len(vanishing) == q ** (d - q)
    assert [g for g in vanishing if not any(g[1:d - q + 1])] == [(0,) * (d + 1)]


def _curve_restricting_to(ctx, d, line, g, rng):
    """g(X, Y) + Z * H(X, Y, Z), H random, moved so that its restriction to
    the line, parametrized by (a, b) = plane.span, is the binary form g."""
    a, b = plane.span(ctx, line)
    c = next(pt for pt in plane.enumerate_points(ctx) if linalg.det3(ctx, (a, b, pt)))
    z_part = curve_mul(PlaneCurve(ctx, 1, {(0, 0, 1): 1}), random_curve(ctx, d - 1, rng))
    terms = {**{(d - i, i, 0): gi for i, gi in enumerate(g) if gi}, **z_part.terms}
    # F(P) = F'(M^-1 P), M with columns a, b, c, so F(s a + t b) = F'(s, t, 0)
    cur = PlaneCurve(ctx, d, terms).transform(linalg.mat_inv(ctx, tuple(zip(a, b, c))))
    assert cur.restrict(a, b).coeffs == tuple(g)
    return cur


def _random_binary(ctx, degree, rng, free):
    """A nonzero binary form of the given degree, zero outside positions free."""
    while True:
        g = [rng.randrange(ctx.q) if i in free else 0 for i in range(degree + 1)]
        if any(g):
            return g


@pytest.mark.parametrize("q,d", [(q, d) for q in (2, 3, 4, 5) for d in (q + 1, q + 2)])
def test_linear_flags_match_the_oracle_on_adversarial_rows(q, d):
    """d > q, row by row against has_linear_component: (a) planted factors
    L * G; (b) curves through every point of a line they do not contain,
    restricting to (s^q t - s t^q) * M there, M = t^(d-q-1) among them so
    g_1 .. g_(d-q-1) vanish too; (c) curves whose g_1 .. g_(d-q) vanish on
    a line that is not wholly on them."""
    ctx = field_for(q)
    rng = random.Random(q * 100 + d)
    lines = plane.get_plane(ctx).lines
    curves = []
    for kind in "bbbbbccccc":
        line = rng.choice(lines)
        if kind == "b":
            cofactor = [0] * (d - q - 1) + [1] if not curves else _random_binary(
                ctx, d - q - 1, rng, range(d - q))
            g = [0] * (d + 1)
            for j, mj in enumerate(cofactor):  # s^q t * M - s t^q * M
                g[j + 1] = ctx.add(g[j + 1], mj)
                g[j + q] = ctx.sub(g[j + q], mj)
            cur = _curve_restricting_to(ctx, d, line, g, rng)
            assert all(cur.evaluate(pt) == 0 for pt in plane.get_plane(ctx).points_on_line(line))
        else:
            g = _random_binary(ctx, d, rng, [0, *range(d - q + 1, d + 1)])
            cur = _curve_restricting_to(ctx, d, line, g, rng)
        curves.append([cur.terms.get(m, 0) for m in monomials(d)])
    batch = np.vstack([_rows_with_linear_factor(ctx, d, 4, rng), np.array(curves, dtype=np.uint8)])
    flags = _check_engine_rows(ctx, d, _Engine(ctx, d), batch)
    assert flags[:4].all()


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

# Two filtered random searches recorded while the filter still multiplied
# the membership matrix by a dense point-line incidence matrix: GF(3)
# quartics (d > q, so the filter also tests restriction coefficients) and
# GF(16) cubics.
PINNED_RANDOM_GF3_QUARTICS = {
    "q": 3, "degree": 4, "mode": "random", "seed": 31, "generator": "numpy-pcg64",
    "curves_examined": 1917, "discarded_linear": 83, "discarded_zero": 0,
    "histogram": {"0": 18, "1": 63, "2": 204, "3": 376, "4": 452, "5": 422, "6": 237,
                  "7": 115, "8": 23, "9": 6, "10": 1},
    "best_N": 10,
    "witnesses": [
        [[[0, 2, 2], 2], [[0, 3, 1], 2], [[1, 0, 3], 2], [[1, 1, 2], 1], [[1, 2, 1], 1],
         [[2, 0, 2], 2], [[2, 1, 1], 2], [[2, 2, 0], 2], [[3, 0, 1], 1], [[4, 0, 0], 1]],
    ],
    "witness_cap": 4,
    "params": {"n_samples": 2000, "require_no_linear_component": True,
               "singular_at": None, "budget": 10000000},
}
PINNED_RANDOM_GF16 = {
    "q": 16, "degree": 3, "mode": "random", "seed": 16, "generator": "numpy-pcg64",
    "curves_examined": 1498, "discarded_linear": 2, "discarded_zero": 0,
    "histogram": {"9": 2, "10": 96, "12": 156, "13": 23, "14": 182, "16": 256, "17": 21,
                  "18": 280, "20": 208, "21": 29, "22": 152, "24": 92, "25": 1},
    "best_N": 25,
    "witnesses": [
        [[[0, 2, 1], 12], [[0, 3, 0], 7], [[1, 0, 2], 12], [[1, 2, 0], 13], [[2, 0, 1], 1],
         [[2, 1, 0], 15], [[3, 0, 0], 9]],
    ],
    "witness_cap": 4,
    "params": {"n_samples": 1500, "require_no_linear_component": True,
               "singular_at": None, "budget": 10000000},
}


@pytest.mark.parametrize("task,pinned", [
    (SearchTask(ctx=field_for(4), degree=3, mode="random", seed=2024, n_samples=3000,
                require_no_linear_component=True, witness_cap=4), PINNED_RANDOM_GF4),
    (SearchTask(ctx=field_for(9), degree=3, mode="constrained_random", seed=7,
                n_samples=800, require_no_linear_component=True, singular_at=(0, 0, 1),
                witness_cap=4), PINNED_CONSTRAINED_GF9),
    (SearchTask(ctx=field_for(3), degree=4, mode="random", seed=31, n_samples=2000,
                require_no_linear_component=True, witness_cap=4), PINNED_RANDOM_GF3_QUARTICS),
    (SearchTask(ctx=field_for(16), degree=3, mode="random", seed=16, n_samples=1500,
                require_no_linear_component=True, witness_cap=4), PINNED_RANDOM_GF16),
], ids=["random-gf4", "constrained-gf9", "random-gf3-quartics", "random-gf16"])
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


def test_record_stores_the_normalized_singular_point():
    """(0:0:2) and (0:0:1) are one point and give the same draws, so one
    record, which replays through --singular-at 0:0:1."""
    records = [run_search(SearchTask(ctx=field_for(3), degree=3, mode="constrained_random",
                                     seed=1, n_samples=50, singular_at=point)).to_json_dict()
               for point in ((0, 0, 2), (0, 0, 1))]
    assert records[0]["params"]["singular_at"] == "0:0:1"
    assert records[0] == records[1]


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
    # the filter is not part of the key
    run_search(SearchTask(ctx=FiniteField(2, 2), degree=3, mode="random", seed=5, n_samples=500))
    assert len(engine_builds) == 1
    run_search(SearchTask(ctx=FiniteField(2, 2), degree=4, mode="random", seed=5, n_samples=500))
    assert len(engine_builds) == 2


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("task", [
    SearchTask(ctx=field_for(2), degree=4, mode="exhaustive"),
    SearchTask(ctx=field_for(4), degree=4, mode="random", seed=5, n_samples=40_000),
    SearchTask(ctx=field_for(9), degree=3, mode="constrained_random", seed=6,
               n_samples=40_000, singular_at=(0, 0, 1)),
], ids=["exhaustive", "random", "constrained"])
def test_unfiltered_searches_build_no_plane(engine_builds, monkeypatch, task, workers):
    """From a cold engine cache: counting reads the points from
    plane.enumerate_points, and only the linear-component filter reads the
    plane's lines."""
    def refuse(ctx):
        raise AssertionError("an unfiltered search read the projective plane")

    monkeypatch.setattr(plane, "get_plane", refuse)
    assert run_search(task, workers=workers).curves_examined > 0
    assert len(engine_builds) == 1


def test_filter_tables_are_built_once_before_dispatch(engine_builds, monkeypatch):
    """GF(2) quartics span 15 blocks, and d > q, so the tables include the
    lifted restriction maps; the calling thread builds them, once per key."""
    real, calls = plane.get_plane, []

    def counted(ctx):
        calls.append(threading.current_thread())
        return real(ctx)

    monkeypatch.setattr(plane, "get_plane", counted)
    task = SearchTask(ctx=field_for(2), degree=4, mode="exhaustive",
                      require_no_linear_component=True)
    first = run_search(task, workers=3).to_json_dict()
    assert calls == [threading.main_thread()]
    assert run_search(task, workers=3).to_json_dict() == first
    assert len(calls) == 1 and len(engine_builds) == 1


def test_filter_tables_and_flags_stay_small():
    """A GF(16) engine's filter tables hold the 17 x 273 point indices of
    the lines, about 37 KB; the dense 273 x 273 float64 incidence matrix
    they replace was 0.6 MB.  The flags of a batch hold no array larger
    than its membership matrix beside it."""
    ctx = field_for(16)
    engine = _Engine(ctx, 3)
    plane.get_plane(ctx)  # cached for every caller, not part of the engine
    batch = np.random.default_rng(4).integers(1, 16, size=(2048, 10)).astype(np.uint8)
    _, on = engine.counts(batch)
    gc.collect()
    tracemalloc.start()
    try:
        line_points, rest_map = engine.line_tables
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        engine.linear_flags(batch, on)
        flags_peak = tracemalloc.get_traced_memory()[1] - retained
    finally:
        tracemalloc.stop()
    assert line_points.shape == (17, 273) and rest_map is None
    assert retained < 100_000
    assert flags_peak < 2.2 * on.nbytes


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
