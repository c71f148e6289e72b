"""Property tests of the dense linear algebra in ``linalg``.

``mat_inv`` and ``nullspace`` share one Gauss-Jordan reduction.  They and
the closed-form ``det3`` are checked against a cofactor determinant,
against the definition of the kernel and, over small fields, against
brute-force enumeration of every vector.  Fields are prime and extension fields, a tower, two untabled
fields and the rationals context of the step-3 system.  Example counts are
fixed and derandomized so the suite replays exactly.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecurves import bounds, linalg
from planecurves.field import ExtensionField, FiniteField

FIELDS = {
    "GF(2)": lambda: FiniteField(2, 1),
    "GF(5)": lambda: FiniteField(5, 1),
    "GF(4)": lambda: FiniteField(2, 2),
    "GF(9)": lambda: FiniteField(3, 2),
    "GF(3)^3": lambda: ExtensionField(FiniteField(3, 1), 3),
    "GF(257)": lambda: FiniteField(257, 1),  # untabled: computed mod p
    "GF(512)": lambda: FiniteField(2, 9),    # untabled extension
    "Q": lambda: bounds._RATIONALS,
}

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                             derandomize=True)


@functools.cache
def _field(name):
    return FIELDS[name]()


def _elements(name):
    """Element codes of the field, zero drawn often so that singular
    matrices and nontrivial kernels are common."""
    if name == "Q":
        nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        nonzero = st.integers(1, _field(name).q - 1)
    return st.one_of(st.just(0), nonzero)


def _matrix(draw, name, nrows, ncols):
    return tuple(tuple(draw(_elements(name)) for _ in range(ncols)) for _ in range(nrows))


def _det(ctx, m):
    """Cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    acc = 0
    for j, a in enumerate(m[0]):
        if a:
            minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
            term = ctx.mul(a, _det(ctx, minor))
            acc = ctx.sub(acc, term) if j % 2 else ctx.add(acc, term)
    return acc


@st.composite
def square_matrices(draw, n=None):
    name = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(1, 4)) if n is None else n
    return name, _matrix(draw, name, n, n)


@st.composite
def row_systems(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 6))
    return name, ncols, _matrix(draw, name, nrows, ncols)


@PROPERTY_SETTINGS
@given(square_matrices())
def test_inverse_exists_exactly_when_the_determinant_is_nonzero(case):
    name, m = case
    ctx = _field(name)
    inv = linalg.mat_inv(ctx, m)
    if _det(ctx, m) == 0:
        assert inv is None
    else:
        assert inv is not None
        assert linalg.mat_mul(ctx, m, inv) == linalg.identity(len(m))


@PROPERTY_SETTINGS
@given(square_matrices(3))
def test_det3_vanishes_exactly_when_there_is_no_inverse(case):
    name, m = case
    ctx = _field(name)
    det = linalg.det3(ctx, m)
    assert det == _det(ctx, m)
    assert (det == 0) == (linalg.mat_inv(ctx, m) is None)


@PROPERTY_SETTINGS
@given(row_systems())
def test_every_kernel_vector_is_annihilated_by_every_row(case):
    name, ncols, rows = case
    ctx = _field(name)
    basis = linalg.nullspace(ctx, rows, ncols)
    assert all(len(v) == ncols for v in basis)
    for v in basis:
        assert any(v)
        assert linalg.mat_vec(ctx, rows, v) == (0,) * len(rows)


@pytest.mark.parametrize("q", [2, 3])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_kernel_basis_spans_the_whole_kernel(q, data):
    """Over GF(2) and GF(3) with at most 4 columns, the span of the basis is
    exactly the set of vectors that every row annihilates, and has
    q^len(basis) elements."""
    ctx = FiniteField(q, 1)
    ncols = data.draw(st.integers(1, 4))
    nrows = data.draw(st.integers(0, 5))
    rows = tuple(tuple(data.draw(st.integers(0, q - 1)) for _ in range(ncols))
                 for _ in range(nrows))
    basis = linalg.nullspace(ctx, rows, ncols)
    kernel = {v for v in itertools.product(range(q), repeat=ncols)
              if linalg.mat_vec(ctx, rows, v) == (0,) * nrows}
    assert len(kernel) == q ** len(basis)
    span = set()
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        v = (0,) * ncols
        for c, b in zip(coeffs, basis):
            v = tuple(ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, b))
        span.add(v)
    assert span == kernel

