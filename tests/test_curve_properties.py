"""Property tests of exact division and linear substitution of plane-curve
forms.

``exact_divide`` must recover h from f * h, and ``divides`` must answer
False whenever a rational point lies on f but not on g, which evaluation
decides without the division code.  ``transform`` and ``restrict`` must
agree with evaluating the curve at the substituted point.  Fields are pinned: small prime and
tabled fields, a tower from ``ctx.extension(2)`` and GF(257), which has
no tables.  Example counts are fixed and derandomized so the suite
replays exactly.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planecurves import linalg, plane
from planecurves.curve import PlaneCurve, curve_mul, divides, exact_divide, monomials
from planecurves.field import FiniteField

FIELDS = (FiniteField(2), FiniteField(3), FiniteField(2, 2), FiniteField(3, 2), FiniteField(13),
          FiniteField(2, 2).extension(2), FiniteField(257))

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None,
                             derandomize=True)


def _coeffs(data, ctx, degree, label):
    n = len(monomials(degree))
    return data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n), label=label)


def _curve(ctx, degree, coeffs):
    """The form with these coefficients on monomials(degree), or None if zero."""
    terms = {m: c for m, c in zip(monomials(degree), coeffs) if c}
    return PlaneCurve(ctx, degree, terms) if terms else None


@PROPERTY_SETTINGS
@given(data=st.data())
def test_exact_divide_recovers_the_cofactor(data):
    ctx = data.draw(st.sampled_from(FIELDS), label="field")
    deg_f = data.draw(st.integers(1, 3), label="deg f")
    f = _curve(ctx, deg_f, _coeffs(data, ctx, deg_f, "f"))
    deg_h = data.draw(st.integers(0, 3), label="deg h")
    h = _curve(ctx, deg_h, _coeffs(data, ctx, deg_h, "h"))
    assume(f is not None and h is not None)
    fh = curve_mul(f, h)
    assert divides(f, fh)
    assert exact_divide(fh, f) == h


@PROPERTY_SETTINGS
@given(data=st.data())
def test_a_point_on_f_off_g_refutes_divisibility(data):
    """f is drawn, then moved onto a drawn rational point P; g is a
    multiple of f, plus a drawn form of the same degree half the time."""
    ctx = data.draw(st.sampled_from(FIELDS), label="field")
    point = tuple(data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=3, max_size=3),
                            label="P"))
    assume(any(point))
    deg_f = data.draw(st.integers(1, 3), label="deg f")
    coeffs = _coeffs(data, ctx, deg_f, "f")
    # cancel f(P) on a pure power of a nonzero coordinate of P
    axis = next(a for a, x in enumerate(point) if x)
    mono = tuple(deg_f if a == axis else 0 for a in range(3))
    index = monomials(deg_f).index(mono)
    f_at_p = _curve(ctx, deg_f, coeffs)
    if f_at_p is not None:
        value = ctx.div(f_at_p.evaluate(point), ctx.pow(point[axis], deg_f))
        coeffs[index] = ctx.sub(coeffs[index], value)
    f = _curve(ctx, deg_f, coeffs)
    assume(f is not None)
    assert f.evaluate(point) == 0
    deg_h = data.draw(st.integers(0, 2), label="deg h")
    h = _curve(ctx, deg_h, _coeffs(data, ctx, deg_h, "h"))
    terms = dict(curve_mul(f, h).terms) if h is not None else {}
    if data.draw(st.booleans(), label="perturb g"):
        for m, c in zip(monomials(deg_f + deg_h), _coeffs(data, ctx, deg_f + deg_h, "noise")):
            terms[m] = ctx.add(terms.get(m, 0), c)
    g = _curve(ctx, deg_f + deg_h, [terms.get(m, 0) for m in monomials(deg_f + deg_h)])
    assume(g is not None)
    if g.evaluate(point) != 0:
        assert not divides(f, g)
    elif divides(f, g):
        assert curve_mul(f, exact_divide(g, f)) == g


@PROPERTY_SETTINGS
@given(data=st.data())
def test_substitution_commutes_with_evaluation(data):
    """f.transform(M)(P) == f(M P) and f.restrict(A, B)(s, t) == f(sA + tB)."""
    ctx = data.draw(st.sampled_from(FIELDS), label="field")
    element = st.integers(0, ctx.q - 1)
    triple = st.tuples(element, element, element)
    degree = data.draw(st.integers(1, 5), label="degree")
    f = _curve(ctx, degree, _coeffs(data, ctx, degree, "f"))
    assume(f is not None)
    point = data.draw(triple, label="P")
    matrix = data.draw(st.tuples(triple, triple, triple), label="M")
    if linalg.mat_inv(ctx, matrix) is not None:
        image = tuple(ctx.add(ctx.add(ctx.mul(r[0], point[0]), ctx.mul(r[1], point[1])),
                              ctx.mul(r[2], point[2])) for r in matrix)
        assert f.transform(matrix).evaluate(point) == f.evaluate(image)
    a, b = data.draw(triple, label="A"), data.draw(triple, label="B")
    assume(any(a) and any(b) and plane.normalize(ctx, a) != plane.normalize(ctx, b))
    s, t = data.draw(element, label="s"), data.draw(element, label="t")
    on_line = tuple(ctx.add(ctx.mul(s, x), ctx.mul(t, y)) for x, y in zip(a, b))
    assert f.restrict(a, b).evaluate(s, t) == f.evaluate(on_line)
