"""Property tests of the search's element-wise re-verification.

``search.count_exact`` must count, row for row, the rational points that
the independent scan ``analysis.rational_points`` finds.  Random fields
are GF(p^k) and towers of degree 2 or 3 over them with q up to 32, where
the scan is cheap; fixed rows cover larger tabled fields up to GF(251).
Example counts are fixed and derandomized so the suite replays exactly.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecurves import analysis
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


def test_count_exact_refuses_bad_codes_and_large_fields():
    ctx = _field(3, 1)
    row = [1] * len(monomials(2))
    with pytest.raises(ValueError):
        count_exact(ctx, 2, [row, row[:-1] + [3]])
    with pytest.raises(ValueError):
        count_exact(ctx, 2, [[0] * len(row)])
    with pytest.raises(ValueError, match="256"):
        count_exact(_field(257, 1), 2, [row])
