"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single PASS line on success (run with -s or -rA to see
them); a failure surfaces as an ordinary pytest assertion.  Seeds are
fixed so every run checks the same instances.
"""

import random
import time
from fractions import Fraction
from math import isqrt

from planecurves import analysis, bounds, plane
from planecurves.catalog import CATALOG, catalog_curve, exceptional_quartic
from planecurves.curve import has_linear_component
from planecurves.field import FiniteField
from planecurves.search import SearchTask, random_singular_instances, run_search

from conftest import field_for, random_curve

PRIME_POWERS_25 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_exceptional_quartic():
    start = time.perf_counter()
    ctx = FiniteField(2, 2)
    quartic = exceptional_quartic(ctx)
    rep = analysis.count_points(quartic)
    assert rep.N == 14
    assert rep.linear_component is None
    assert rep.rational_singular == ()
    verdict = analysis.is_geometrically_nonsingular(quartic)
    assert verdict.status == "nonsingular"
    sziklai = bounds.bound_values(4, 4).values["sziklai"]
    assert sziklai == 13 and rep.N > sziklai
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, cap is 1s"
    _report(1, f"14-point quartic certified nonsingular, violates 13 ({elapsed:.2f}s)")


def test_criterion_2_catalog_equalities():
    start = time.perf_counter()
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_for(q)
        expectations = {"deg_q": (q - 1) * q + 1, "deg_q_plus_1": q * q + 1,
                        "smooth_conic": q + 1}
        if q >= 3:
            expectations["deg_q_minus_1"] = (q - 2) * q + 1
        if q in (4, 9):
            expectations["hermitian"] = q * isqrt(q) + 1
        for name, expected in expectations.items():
            cur = catalog_curve(name, ctx)
            n = len(analysis.rational_points(cur))
            assert n == expected == CATALOG[name].expected_count(q), (name, q, n)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s, cap is 10s"
    _report(2, f"{checked} catalog equalities exact ({elapsed:.2f}s)")


def test_criterion_3_incidence_identities():
    failures = 0
    checked_subset = 0
    for q in (3, 5, 7):
        ctx = field_for(q)
        rng = random.Random(1000 + q)
        degrees = list(range(2, q + 2))
        for trial in range(100):
            d = degrees[trial % len(degrees)]
            cur = random_curve(ctx, d, rng)
            spec = analysis.line_spectrum(cur)
            n = spec.N
            if spec.sum_a() != q * q + q + 1:
                failures += 1
            if spec.sum_ia() != (q + 1) * n:
                failures += 1
            if spec.sum_pairs() != n * (n - 1) // 2:
                failures += 1
            rep = analysis.count_points(cur)
            if rep.linear_component is None and not rep.rational_singular:
                checked_subset += 1
                tangency = sum(min(i, d - i) for (_l, i, _s) in spec.per_line)
                if n > tangency:
                    failures += 1
    assert failures == 0
    _report(3, f"identities exact on 300 curves, tangency bound on {checked_subset}")


def test_criterion_4_step3_identity_replay():
    for q in (5, 7, 8, 9):
        sol = bounds.step3_solution(q)
        expected = Fraction((q - 2) * (4 - q))
        assert sol["a_q_minus_1"] == expected
        assert sol["a_q_minus_1"] < 0
    _report(4, "a_(q-1) = (q-2)(4-q) < 0 for q in {5,7,8,9}, exact rationals")


def test_criterion_5_bound_algebra():
    pairs = 0
    for q in PRIME_POWERS_25:
        for d in range(2, q + 2):
            sz = Fraction((d - 1) * q + 1)
            assert sz - Fraction(d * (d + q - 1), 2) == Fraction((d - 2) * (q - d - 1), 2)
            pairs += 1
            r = isqrt(q)
            if r * r == q:
                assert sz - d * (q - d + 2) == (d - r - 1) * (d + r - 1)
    _report(5, f"bound identities hold as exact integers on {pairs} (q, d) pairs")


def test_criterion_6_frobenius_dichotomy():
    start = time.perf_counter()
    for q, expected_n in ((4, 9), (9, 28)):
        ctx = field_for(q)
        hermitian = catalog_curve("hermitian", ctx)
        assert analysis.is_frobenius_nonclassical(hermitian)
        d = hermitian.degree
        n = len(analysis.rational_points(hermitian))
        assert n == d * (q - d + 2) == expected_n
    conic = catalog_curve("smooth_conic", field_for(9))
    assert not analysis.is_frobenius_nonclassical(conic)
    n = len(analysis.rational_points(conic))
    assert 2 * n <= 2 * (2 + 9 - 1)  # N <= d(d+q-1)/2 with d = 2
    quartic = exceptional_quartic(field_for(4))
    assert not analysis.is_frobenius_nonclassical(quartic)
    n = len(analysis.rational_points(quartic))
    assert n == 4 * (4 + 4 - 1) // 2 == 14  # attains the classical bound
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.2f}s, cap is 5s"
    _report(6, f"nonclassical equalities 9/28, classical verdicts exact ({elapsed:.2f}s)")


def test_criterion_7_exhaustive_maxima():
    timings = {}
    for q in (2, 3):
        ctx = field_for(q)
        for d in range(2, q + 2):
            start = time.perf_counter()
            task = SearchTask(ctx=ctx, degree=d, mode="exhaustive",
                              require_no_linear_component=True)
            record = run_search(task)
            timings[(q, d)] = time.perf_counter() - start
            assert record.best_N == (d - 1) * q + 1, (q, d, record.best_N)
            assert record.witnesses
            for witness in record.witnesses[:4]:
                assert has_linear_component(witness) is None
                assert len(analysis.rational_points(witness)) == record.best_N
    big = timings[(3, 4)]
    assert big < 600.0, f"q=3 d=4 exhaustive took {big:.0f}s, cap is 600s"
    note = "within 60s" if big < 60 else "within the 10-minute cap"
    _report(7, f"exhaustive maxima = (d-1)q+1 for q in {{2,3}}; q=3 d=4 in {big:.0f}s ({note})")


def test_criterion_8_randomized_q4_evidence():
    start = time.perf_counter()
    ctx = FiniteField(2, 2)
    task = SearchTask(
        ctx=ctx, degree=4, mode="random", seed=42, n_samples=10 ** 6,
        require_no_linear_component=True, budget=2 * 10 ** 6, witness_cap=4096,
    )
    record = run_search(task)
    total = record.curves_examined + record.discarded_linear + record.discarded_zero
    assert total == 10 ** 6
    assert record.best_N is not None and record.best_N <= 14
    fourteens = record.histogram.get(14, 0)
    if record.best_N == 14:
        assert len(record.witnesses) == fourteens <= task.witness_cap
    target = exceptional_quartic(ctx)
    for witness in record.witnesses:
        mat = bounds.equivalent_by_point_frames(witness, target)
        assert mat is not None, "a 14-point quartic failed the equivalence check"
        assert witness.transform(mat).scalar_equal(target)
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"criterion 8 took {elapsed:.0f}s, cap is 900s"
    _report(8, f"10^6 quartics: best_N={record.best_N}, {fourteens} hits all "
               f"equivalent with witnesses ({elapsed:.0f}s)")


def test_criterion_9_forced_singularity_bound():
    failures = 0
    for q, d in ((4, 3), (5, 4), (7, 5)):
        ctx = field_for(q)
        instances = random_singular_instances(ctx, d, (0, 0, 1), 200, seed=q * 100 + d)
        assert len(instances) == 200
        for cur in instances:
            assert (0, 0, 1) in analysis.singular_rational_points(cur)
            if len(analysis.rational_points(cur)) > (d - 1) * q:
                failures += 1
    assert failures == 0
    _report(9, "600 forced-singular curves all satisfy N <= (d-1)q")


def test_criterion_10_oracle_equivalence():
    rng = random.Random(2024)
    per_q = 143  # 7 prime powers in 2..9 -> 1001 curves
    agreements = 0
    spectra_checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_for(q)
        pl = plane.get_plane(ctx)
        degrees = list(range(2, min(q + 1, 4) + 1))
        for trial in range(per_q):
            d = degrees[trial % len(degrees)]
            cur = random_curve(ctx, d, rng)
            pts = analysis.rational_points(cur)
            assert len(pts) == analysis.count_by_line_sweep(cur)
            agreements += 1
            if trial % 5 == 0:
                spec = analysis.line_spectrum(cur)
                # per-line counts re-derived from the rational point list
                point_set = set(pts)
                for line, i_count, _s in spec.per_line:
                    derived = sum(
                        1 for p in pl.points_on_line(line) if p in point_set
                    )
                    assert derived == i_count
                # and the restriction-based path agrees
                assert analysis.line_spectrum_by_restriction(cur) == spec.a
                spectra_checked += 1
    _report(10, f"{agreements} counter agreements, {spectra_checked} spectra re-derived exactly")
