"""Property tests of the search's witness re-verification.

``search.count_exact`` must count, row for row, the rational points that
the independent scan ``analysis.rational_points`` finds.  Random fields
are GF(p^k) and towers of degree 2 or 3 over them with q up to 32, where
the scan is cheap; fixed rows cover larger tabled fields up to GF(251).
It must also equal the element-by-element loop it replaced, kept here as
its reference, and stay independent of the engine it checks.
Example counts are fixed and derandomized so the suite replays exactly.
"""

import ast
import functools
import gc
import inspect
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecurves import analysis, plane, search
from planecurves.curve import PlaneCurve, curve_mul, monomials
from planecurves.field import ExtensionField, FiniteField
from planecurves.search import count_exact

from conftest import random_curve

PRIMES = (2, 3, 5, 7, 11, 13)
Q_RANDOM = 32

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                             derandomize=True)


@functools.cache
def _field(p: int, k: int, m: int = 1):
    """GF(p^k), or for m > 1 the degree-m tower over it."""
    F = FiniteField(p, k)
    return F if m == 1 else ExtensionField(F, m)


def _exact_counts(ctx, degree, rows) -> list[int]:
    return [len(analysis.rational_points(PlaneCurve(ctx, degree, dict(zip(monomials(degree), row)))))
            for row in rows]


def _reference_counts(ctx, degree, rows) -> list[int]:
    """The element-by-element loop count_exact ran before its table fold:
    one pass over the plane, each row's sum of terms at a point built from
    the field's add and mul tables."""
    q, monos = ctx.q, monomials(degree)
    terms = [[(i, c * q) for i, c in enumerate(row) if c] for row in rows]
    add, mul = ctx._add_t, ctx._mul_t
    counts = [0] * len(terms)
    for point in plane.enumerate_points(ctx):
        xs, ys, zs = ([1] * (degree + 1) for _ in range(3))
        for pows, c in zip((xs, ys, zs), point):
            for e in range(degree):
                pows[e + 1] = mul[pows[e] * q + c]
        values = [mul[xs[i] * q + mul[ys[j] * q + zs[k]]] for i, j, k in monos]
        for r, row in enumerate(terms):
            acc = 0
            for i, cq in row:
                acc = add[acc * q + mul[cq + values[i]]]
            if not acc:
                counts[r] += 1
    return counts


def _row(curve) -> list[int]:
    return [curve.terms.get(m, 0) for m in monomials(curve.degree)]


def _planted_row(ctx, degree, rng) -> list[int]:
    """The coefficients of (a random line) * (a random degree-(d-1) form)."""
    line = random_curve(ctx, 1, rng)
    if degree == 1:
        return _row(line)
    return _row(curve_mul(line, random_curve(ctx, degree - 1, rng)))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_count_exact_matches_rational_points(data):
    p = data.draw(st.sampled_from(PRIMES), label="p")
    sizes = [(k, m) for k in range(1, 6) for m in (1, 2, 3) if p ** (k * m) <= Q_RANDOM]
    k, m = data.draw(st.sampled_from(sizes), label="k, m")
    ctx = _field(p, k, m)
    degree = data.draw(st.integers(1, 6), label="degree")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    n_rows = data.draw(st.integers(0, 3), label="rows")
    rows = [_planted_row(ctx, degree, rng) if data.draw(st.booleans(), label="planted")
            else _row(random_curve(ctx, degree, rng)) for _ in range(n_rows)]
    assert count_exact(ctx, degree, rows) == _exact_counts(ctx, degree, rows)


@pytest.mark.parametrize("args,degree", [
    ((251, 1, 1), 2),  # the largest tabled prime field
    ((2, 2, 3), 6),    # GF(4)^3, q = 64
    ((3, 2, 2), 3),    # GF(9)^2, q = 81
], ids=["GF(251)", "GF(4)^3", "GF(9)^2"])
def test_count_exact_on_larger_fields(args, degree):
    ctx = _field(*args)
    rng = random.Random(degree)
    rows = [_planted_row(ctx, degree, rng)]
    if ctx.q < 251:
        rows.append(_row(random_curve(ctx, degree, rng)))
    assert count_exact(ctx, degree, rows) == _exact_counts(ctx, degree, rows)
    assert count_exact(ctx, degree, []) == []


@pytest.mark.parametrize("args", [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (251, 1),
    (2, 2, 3),  # GF(4)^3, q = 64
], ids=["GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(13)",
        "GF(251)", "GF(4)^3"])
def test_count_exact_matches_reference_loop(args):
    """Seeded rows, every other one with a planted linear factor."""
    ctx = _field(*args)
    degrees = (2,) if ctx.q > 64 else (1, 2, 3, 5)
    for degree in degrees:
        rng = random.Random(ctx.q * 10 + degree)
        rows = [_planted_row(ctx, degree, rng) if r % 2 else _row(random_curve(ctx, degree, rng))
                for r in range(4 if ctx.q > 64 else 8)]
        assert count_exact(ctx, degree, rows) == _reference_counts(ctx, degree, rows)


def test_count_exact_working_set_is_bounded():
    """64 rows over GF(251), whose 63 253 points make one unsliced fold
    temporary of 64 x 63 253 intp about 32 MB; the sliced fold peaks at
    about 7 MB, most of it the point list of plane.enumerate_points."""
    ctx = _field(251, 1)
    rng = random.Random(64)
    rows = [_row(random_curve(ctx, 2, rng)) for _ in range(64)]
    gc.collect()
    tracemalloc.start()
    try:
        counts = count_exact(ctx, 2, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == 64
    assert peak < 8_000_000


def test_count_exact_is_independent_of_the_engine():
    """The oracle names no part of the engine it checks."""
    engine_names = {"_Engine", "_engine", "_gfp_tables", "_lift", "_products", "_vanishing",
                    "point_map", "line_tables", "get_plane"}
    defs = {node.name: node for node in ast.parse(inspect.getsource(search)).body
            if isinstance(node, ast.FunctionDef)}
    nodes = list(ast.walk(defs["count_exact"]))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert not names & engine_names


def test_count_exact_reads_numpy_integer_codes():
    ctx = _field(5, 1)
    rows = [_row(random_curve(ctx, 3, random.Random(r))) for r in range(4)]
    want = count_exact(ctx, 3, rows)
    assert count_exact(ctx, 3, [[np.int64(c) for c in row] for row in rows]) == want
    assert count_exact(ctx, 3, tuple(tuple(np.uint8(c) for c in row) for row in rows)) == want
    assert count_exact(ctx, 3, np.array(rows, dtype=np.uint8)) == want


def test_count_exact_of_no_rows_scans_no_plane(monkeypatch):
    def refuse(ctx):
        raise AssertionError("enumerated the plane for no rows")

    monkeypatch.setattr(plane, "enumerate_points", refuse)
    assert count_exact(_field(251, 1), 5, []) == []


def test_count_exact_refuses_bad_codes_and_large_fields():
    ctx = _field(3, 1)
    row = [1] * len(monomials(2))
    for bad in (row[:-1] + [3], row[:-1] + [-1], row[:-1] + [True], row[:-1] + [2.0],
                row[:-1] + [np.bool_(True)], row[:-1] + [np.float64(1)], row[:-1] + [np.int64(3)],
                row[:-1], [0] * len(row)):
        with pytest.raises(ValueError):
            count_exact(ctx, 2, [row, bad])
    with pytest.raises(ValueError, match="256"):
        count_exact(_field(257, 1), 2, [row])
