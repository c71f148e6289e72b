import random

import pytest

from planecurves import analysis, linalg, plane
from planecurves.catalog import catalog_curve, exceptional_quartic
from planecurves.curve import (
    PlaneCurve,
    curve_mul,
    divides,
    exact_divide,
    frobenius_form,
    has_linear_component,
    monomials,
    restriction_map,
)

from conftest import field_for, random_curve


def test_monomial_count_and_order():
    assert len(monomials(4)) == 15
    assert monomials(2) == ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0))


def test_curve_make_validation():
    F3 = field_for(3)
    line = PlaneCurve(F3, 1, {(0, 0, 1): 1})
    assert line.degree == 1
    with pytest.raises(ValueError, match="sum"):
        PlaneCurve(field_for(2), 2, {(2, 0, 0): 1, (0, 1, 0): 1})
    with pytest.raises(ValueError, match="nonzero term"):
        PlaneCurve(F3, 2, {(2, 0, 0): 0})
    with pytest.raises(ValueError):
        PlaneCurve(F3, 2, {(2, 0, 0): 5})  # coefficient out of range
    with pytest.raises(ValueError, match="degree must be >= 0"):
        PlaneCurve(F3, -1, {(0, 0, 1): 1})


def test_quartic_evaluation(gf4):
    quartic = exceptional_quartic(gf4)
    # nine unit terms at (1,1,1) sum to 1 in characteristic 2
    assert quartic.evaluate((1, 1, 1)) == 1
    z_curve = PlaneCurve(gf4, 1, {(0, 0, 1): 1})
    assert z_curve.evaluate((1, 0, 0)) == 0


def test_evaluate_degree_q_curve_at_infinity_point():
    for q in (3, 4, 5):
        ctx = field_for(q)
        neg = ctx.neg(1)
        cur = PlaneCurve(ctx, q, {(q, 0, 0): 1, (1, 0, q - 1): neg,
                                  (0, q - 1, 1): 1, (0, 0, q): neg})
        assert cur.evaluate((0, 1, 0)) == 0


def test_partials_zero_marker():
    F2 = field_for(2)
    fx, fy, fz = PlaneCurve(F2, 2, {(2, 0, 0): 1}).partials()
    assert fx is None and fy is None and fz is None
    fx, fy, fz = PlaneCurve(F2, 3, {(1, 1, 1): 1}).partials()
    assert fx.terms == {(0, 1, 1): 1}
    assert fy.terms == {(1, 0, 1): 1}
    assert fz.terms == {(1, 1, 0): 1}


def test_partials_fermat_cubic_char2(gf4):
    fx, fy, fz = PlaneCurve(gf4, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}).partials()
    assert fx.terms == {(2, 0, 0): 1}
    assert fy.terms == {(0, 2, 0): 1}
    assert fz.terms == {(0, 0, 2): 1}


def test_restrict_conic_to_line():
    F5 = field_for(5)
    conic = PlaneCurve(F5, 2, {(0, 1, 1): 1, (2, 0, 0): F5.neg(1)})
    g = conic.restrict((0, 0, 1), (0, 1, 0))
    assert g == (0, 1, 0)  # g(s, t) = s t


def test_restrict_zero_form_for_contained_line():
    F3 = field_for(3)
    z_curve = PlaneCurve(F3, 1, {(0, 0, 1): 1})
    g = z_curve.restrict((1, 0, 0), (0, 1, 0))
    assert g == (0, 0)


def test_restrict_degree_preserved(gf4):
    quartic = PlaneCurve(gf4, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    g = quartic.restrict((1, 0, 0), (0, 1, 1))
    assert type(g) is tuple and len(g) == 5


def test_restriction_vs_pointwise_evaluation():
    """g(s, t), the sum of c_i s^(d-i) t^i over the restriction's
    coefficients, must equal F(sP + tQ) at every parameter value."""
    rng = random.Random(11)
    for q in (3, 4, 5):
        ctx = field_for(q)
        for _ in range(10):
            cur = random_curve(ctx, rng.choice([2, 3]), rng)
            pts = plane.enumerate_points(ctx)
            p_pt = pts[rng.randrange(len(pts))]
            q_pt = next(p for p in pts if p != p_pt)
            form = cur.restrict(p_pt, q_pt)
            d = len(form) - 1
            for s in range(q):
                for t in range(q):
                    if (s, t) == (0, 0):
                        continue
                    combo = tuple(
                        ctx.add(ctx.mul(s, a), ctx.mul(t, b))
                        for a, b in zip(p_pt, q_pt)
                    )
                    spow, tpow = ctx.powers(s, d), ctx.powers(t, d)
                    value = 0
                    for i, c in enumerate(form):
                        value = ctx.add(value, ctx.mul(c, ctx.mul(spow[d - i], tpow[i])))
                    assert value == cur.evaluate(combo)


def test_divides_examples():
    F2 = field_for(2)
    assert divides(
        PlaneCurve(F2, 1, {(1, 0, 0): 1, (0, 1, 0): 1}),
        PlaneCurve(F2, 2, {(2, 0, 0): 1, (0, 2, 0): 1}),
    )
    assert not divides(
        PlaneCurve(F2, 1, {(1, 0, 0): 1}),
        PlaneCurve(F2, 2, {(0, 1, 1): 1}),
    )


def test_divides_explicit_multiple(gf4):
    quartic = exceptional_quartic(gf4)
    multiple = curve_mul(PlaneCurve(gf4, 4, {(4, 0, 0): 1}), quartic)
    assert divides(quartic, multiple)
    assert exact_divide(multiple, quartic).terms == {(4, 0, 0): 1}


def test_divides_random_products_transitive_scalar_invariant():
    rng = random.Random(23)
    for q in (2, 3):
        ctx = field_for(q)
        for _ in range(8):
            f = random_curve(ctx, rng.choice([1, 2]), rng)
            g = random_curve(ctx, rng.choice([1, 2]), rng)
            h = random_curve(ctx, 1, rng)
            fg = curve_mul(f, g)
            fgh = curve_mul(fg, h)
            assert divides(f, fg) and divides(fg, fgh) and divides(f, fgh)
            # scalar invariance
            s = rng.randrange(1, q)
            f_scaled = PlaneCurve(ctx, f.degree,
                                  {e: ctx.mul(s, c) for e, c in f.terms.items()})
            assert divides(f_scaled, fg)
            assert exact_divide(fg, f).scalar_equal(g)


def test_divides_needs_extension_point():
    """X^q Y - X Y^q vanishes at every rational point, so no rational point
    tells its divisors apart; division by the leading term still does."""
    F2 = field_for(2)
    cur = PlaneCurve(F2, 3, {(2, 1, 0): 1, (1, 2, 0): 1})
    assert all(cur.evaluate(p) == 0 for p in plane.enumerate_points(F2))
    assert divides(PlaneCurve(F2, 1, {(1, 0, 0): 1}), cur)
    assert not divides(PlaneCurve(F2, 1, {(0, 0, 1): 1}), cur)


def test_division_builds_no_extension_field(extension_builds):
    """Division stays in the curves' own field, also for a curve through
    every rational point and for the GF(16) Hermitian Frobenius form."""
    F2 = field_for(2)
    cur = PlaneCurve(F2, 3, {(2, 1, 0): 1, (1, 2, 0): 1})  # X^2 Y + X Y^2
    x_plus_y = PlaneCurve(F2, 1, {(1, 0, 0): 1, (0, 1, 0): 1})
    assert divides(x_plus_y, cur) and divides(cur, cur)
    assert exact_divide(cur, x_plus_y).terms == {(1, 1, 0): 1}
    hermitian = catalog_curve("hermitian", field_for(16))
    form = frobenius_form(hermitian)
    assert divides(hermitian, form)
    assert curve_mul(hermitian, exact_divide(form, hermitian)) == form  # form = H^4
    assert extension_builds == []


def test_has_linear_component_examples(gf4):
    F2 = field_for(2)
    composite = PlaneCurve(F2, 3, {(1, 1, 1): 1, (3, 0, 0): 1})  # X(YZ + X^2)
    assert has_linear_component(composite) == (1, 0, 0)
    assert has_linear_component(exceptional_quartic(gf4)) is None
    # X^q Y - X Y^q vanishes on q+1 lines
    F3 = field_for(3)
    split = PlaneCurve(F3, 4, {(3, 1, 0): 1, (1, 3, 0): F3.neg(1)})
    assert has_linear_component(split) is not None
    # X^2 Y + X Y^2 + Z^3 holds all three points of Z = 0 (the cubic
    # restricts to XY(X + Y) there) but has no linear component
    cubic = PlaneCurve(F2, 3, {(2, 1, 0): 1, (1, 2, 0): 1, (0, 0, 3): 1})
    assert all(cubic.evaluate(p) == 0 for p in ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    assert has_linear_component(cubic) is None


def test_transform_identity_and_swap():
    F3 = field_for(3)
    cur = PlaneCurve(F3, 1, {(0, 0, 1): 1})
    ident = linalg.identity(3)
    assert cur.transform(ident) == cur
    swap = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert cur.transform(swap).terms == {(1, 0, 0): 1}
    with pytest.raises(ValueError, match="invertible"):
        cur.transform(((1, 0, 0), (1, 0, 0), (0, 0, 1)))


def test_transform_compatible_with_evaluation():
    """evaluate(transform(F, M), P) == evaluate(F, M.P) for all points."""
    rng = random.Random(5)
    for q in (2, 3, 4):
        ctx = field_for(q)
        cur = random_curve(ctx, 3, rng)
        for _ in range(5):
            while True:
                mat = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
                if linalg.mat_inv(ctx, mat) is not None:
                    break
            moved = cur.transform(mat)
            for p_pt in plane.enumerate_points(ctx):
                image = linalg.mat_vec(ctx, mat, p_pt)
                assert moved.evaluate(p_pt) == cur.evaluate(image)


def test_transform_round_trip_up_to_scalar():
    rng = random.Random(17)
    ctx = field_for(4)
    cur = random_curve(ctx, 3, rng)
    while True:
        mat = tuple(tuple(rng.randrange(4) for _ in range(3)) for _ in range(3))
        if linalg.mat_inv(ctx, mat) is not None:
            break
    inv = linalg.mat_inv(ctx, mat)
    assert cur.transform(mat).transform(inv).scalar_equal(cur)


def test_euler_relation():
    """X F_X + Y F_Y + Z F_Z = d F with d reduced mod p, as polynomials."""
    rng = random.Random(31)
    for q in (2, 3, 5):
        ctx = field_for(q)
        for d in (1, 2, 3, 4):
            cur = random_curve(ctx, d, rng)
            acc: dict = {}
            for axis, part in enumerate(cur.partials()):
                if part is None:
                    continue
                for (i, j, k), c in part.terms.items():
                    key = (i + (axis == 0), j + (axis == 1), k + (axis == 2))
                    v = ctx.add(acc.get(key, 0), c)
                    if v:
                        acc[key] = v
                    else:
                        acc.pop(key, None)
            dmod = d % ctx.char
            expected = {}
            for e, c in cur.terms.items():
                s = 0
                for _ in range(dmod):
                    s = ctx.add(s, c)
                if s:
                    expected[e] = s
            assert acc == expected


def test_frobenius_form_zero_marker_and_hermitian(gf4):
    F2 = field_for(2)
    assert frobenius_form(PlaneCurve(F2, 2, {(2, 0, 0): 1})) is None
    hermitian = PlaneCurve(gf4, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    form = frobenius_form(hermitian)
    assert form.degree == 4 + 3 - 1
    assert form.terms == curve_mul(hermitian, hermitian).terms
    assert divides(hermitian, form)


def test_restriction_map_linearity():
    """Restriction is linear in the coefficients: the per-line matrix applied
    to a coefficient vector equals restricting the curve directly."""
    rng = random.Random(2)
    ctx = field_for(3)
    d = 3
    line = plane.enumerate_lines(ctx)[7]
    rows = restriction_map(ctx, d, line)
    cur = random_curve(ctx, d, rng)
    vec = [cur.terms.get(m, 0) for m in monomials(d)]
    combined = [0] * (d + 1)
    for c, row in zip(vec, rows):
        for idx, rc in enumerate(row):
            combined[idx] = ctx.add(combined[idx], ctx.mul(c, rc))
    direct = cur.restrict(*plane.span(ctx, line))
    assert tuple(combined) == direct


def test_curve_file_round_trip_and_errors(tmp_path, gf4):
    quartic = exceptional_quartic(gf4)
    path = tmp_path / "quartic.curve"
    path.write_text(quartic.to_text())
    assert PlaneCurve.from_file(path) == quartic
    with pytest.raises(ValueError, match="line 3"):
        PlaneCurve.from_text("p=2 k=2 mod=1,1,1\nd=2\n1 1 1 1\n")
    with pytest.raises(ValueError, match="degree"):
        PlaneCurve.from_text("p=2 k=1\nd=0\n")
    with pytest.raises(ValueError, match="duplicate"):
        PlaneCurve.from_text("p=2 k=1\nd=1\n1 0 0 1\n1 0 0 1\n")
    with pytest.raises(ValueError, match=r"^line 3: 9 is not an element code of GF\(4\)$"):
        PlaneCurve.from_text("p=2 k=2\nd=1\n1 0 0 9\n")
    # an empty modulus is refused, not read as the default one
    with pytest.raises(ValueError, match="line 1: bad field spec 'p=2 k=2 mod='"):
        PlaneCurve.from_text("p=2 k=2 mod=\nd=1\n1 0 0 1\n")


def test_parse_inline(gf4):
    cur = PlaneCurve.parse_inline(gf4, "2 0 0 1; 0 1 1 3")
    assert cur.terms == {(2, 0, 0): 1, (0, 1, 1): 3}
    with pytest.raises(ValueError):
        PlaneCurve.parse_inline(gf4, "2 0 0")


@pytest.mark.parametrize("text,message", [
    ("0 0 x 1", "non-integer field in '0 0 x 1'"),
    ("2 0 0 1; -1 2 0 1", "negative exponent in '-1 2 0 1'"),
    ("2 0 0", "expected '<i> <j> <k> <coeff>', got '2 0 0'"),
])
def test_parse_inline_names_the_bad_term(gf4, text, message):
    with pytest.raises(ValueError) as info:
        PlaneCurve.parse_inline(gf4, text)
    assert str(info.value) == message


def test_curve_file_refuses_a_negative_exponent():
    with pytest.raises(ValueError) as info:
        PlaneCurve.from_text("p=3 k=1\nd=1\n1 0 0 1\n-1 2 0 1\n")
    assert str(info.value) == "line 4: negative exponent in '-1 2 0 1'"


def test_constructor_names_a_negative_exponent():
    with pytest.raises(ValueError) as info:
        PlaneCurve(field_for(3), 1, {(-1, 2, 0): 1})
    assert str(info.value) == "negative exponent in term X^-1 Y^2 Z^0"


@pytest.mark.parametrize("text", ["0 0 2 1; 0 0 2 3; 2 0 0 1", "1 0 0 1;1 0 0 1"])
def test_parse_inline_refuses_a_duplicate_term(gf4, text):
    """As a curve file does: the later term must not silently win."""
    with pytest.raises(ValueError, match=r"duplicate term \((0, 0, 2|1, 0, 0)\)"):
        PlaneCurve.parse_inline(gf4, text)


def test_canonical_scaling():
    F5 = field_for(5)
    cur = PlaneCurve(F5, 2, {(0, 0, 2): 3, (2, 0, 0): 4})
    canon = cur.canonical()
    assert canon.terms[(0, 0, 2)] == 1  # lex-first term scaled to 1
    assert cur.scalar_equal(canon)


def test_binary_form_roots():
    F3 = field_for(3)
    # XY - Y^2 on the line Z = 0, through (1:0:0) and (0:1:0), is
    # g(s,t) = t(s - t): roots (1:0) and (1:1), not (0:1)
    cur = PlaneCurve(F3, 2, {(1, 1, 0): 1, (0, 2, 0): F3.neg(1)})
    assert cur.restrict((1, 0, 0), (0, 1, 0)) == (0, 1, F3.neg(1))
    orders = [analysis.intersection_multiplicity(cur, (0, 0, 1), pt)
              for pt in ((1, 0, 0), (1, 1, 0), (0, 1, 0))]
    assert orders == [1, 1, 0]
    # the two lines Y = 0 and X = Y: 2 components, 2 more lines through
    # their meet (0:0:1), and 9 lines, Z = 0 among them, with two roots
    assert analysis.line_spectrum_by_restriction(cur) == {4: 2, 1: 2, 2: 9}
