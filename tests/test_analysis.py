import json
import random

import pytest

from planecurves import analysis, cli, locus, plane
from planecurves.analysis import INFINITE
from planecurves.bounds import bound_verdicts
from planecurves.catalog import CATALOG, catalog_curve, exceptional_quartic, verify_catalog
from planecurves.curve import PlaneCurve, curve_mul, restriction_map
from planecurves.field import FiniteField
from planecurves.locus import singular_points_over_extension
from planecurves.search import random_singular_instances

from conftest import field_for, random_curve, squared_point_free_cubic


def test_count_quartic(gf4):
    rep = analysis.count_points(exceptional_quartic(gf4))
    assert rep.N == 14
    assert rep.rational_singular == ()
    assert rep.linear_component is None
    assert rep.N == len(rep.points)


def test_count_line_and_deg_q():
    F5 = field_for(5)
    assert analysis.count_points(PlaneCurve(F5, 1, {(0, 0, 1): 1})).N == 6
    F3 = field_for(3)
    cur = catalog_curve("deg_q", F3)
    assert analysis.count_points(cur).N == 7  # (3-1)*3 + 1


def test_counters_agree_on_random_curves():
    rng = random.Random(101)
    for _ in range(150):
        q = rng.choice([2, 3, 4, 5, 7, 8, 9])
        ctx = field_for(q)
        cur = random_curve(ctx, rng.choice([1, 2, 3, 4]), rng)
        assert len(analysis.rational_points(cur)) == analysis.count_by_line_sweep(cur)


def test_singular_rational_points():
    F5 = field_for(5)
    conic = PlaneCurve(F5, 2, {(0, 1, 1): 1, (2, 0, 0): F5.neg(1)})
    assert analysis.singular_rational_points(conic) == ()
    cusp = PlaneCurve(F5, 3, {(0, 2, 1): 1, (3, 0, 0): F5.neg(1)})
    assert analysis.singular_rational_points(cusp) == ((0, 0, 1),)


def test_membership_required_when_char_divides_degree():
    """Vanishing partials alone must not count as singular."""
    F2 = field_for(2)
    # F = X^2 + YZ: F_X = 0, F_Y = Z, F_Z = Y; at (1,0,0) partials vanish
    # but F(1,0,0) = 1, so it is not a singular point.
    cur = PlaneCurve(F2, 2, {(2, 0, 0): 1, (0, 1, 1): 1})
    assert cur.evaluate((1, 0, 0)) == 1
    assert analysis.singular_rational_points(cur) == ()


def test_nonsingularity_verdicts(gf4, gf5):
    hermitian = PlaneCurve(gf4, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    v = analysis.is_geometrically_nonsingular(hermitian)
    assert v.status == "nonsingular" and v.witness_degree is None
    cusp = PlaneCurve(gf5, 3, {(0, 2, 1): 1, (3, 0, 0): gf5.neg(1)})
    v = analysis.is_geometrically_nonsingular(cusp)
    assert v.status == "singular" and v.witness_degree == 1


# over GF(32): the product of the four GF(32^4)-conjugates of one line
CONJUGATE_LINE_QUARTIC_GF32 = (
    "0 0 4 1; 0 1 3 3; 0 2 2 6; 0 3 1 31; 0 4 0 16; 1 0 3 18; 1 1 2 29; 1 2 1 25; "
    "1 3 0 28; 2 0 2 3; 2 1 1 18; 2 2 0 16; 3 0 1 9; 3 1 0 20; 4 0 0 1")


def test_one_dimensional_branch_degree_is_exact():
    """A square is singular along its whole root curve.  The four conjugate
    lines L1, ..., L4 of the quartic are permuted cyclically by Frobenius
    sigma, so sigma^2 swaps L1 and L3 and fixes their meet: a point of
    degree 2.  Every coordinate line meets the quartic only in points of
    degree 4, so a witness read off those lines alone would say 4."""
    square = squared_point_free_cubic()
    v = analysis.is_geometrically_nonsingular(square)
    assert (v.status, v.witness_degree) == ("singular", 3)
    quartic = PlaneCurve.parse_inline(FiniteField(2, 5), CONJUGATE_LINE_QUARTIC_GF32)
    assert [locus._restrict_line_case(quartic.ctx, [quartic], line)
            for line in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] == [4, 4, 4]
    v = analysis.is_geometrically_nonsingular(curve_mul(quartic, quartic))
    assert (v.status, v.witness_degree) == ("singular", 2)
    assert v.to_json_dict() == {"status": "singular", "witness_degree": 2,
                                "witness_point": None}


# Z^5 + Y^2Z^3 + Y^5 + XY^3Z + X^2Z^3 + X^2YZ^2 + X^2Y^3 + X^3YZ + X^5 over
# GF(2): the product of the five GF(32)-conjugates of one line
CONJUGATE_LINE_QUINTIC = ("0 0 5 1; 0 2 3 1; 0 5 0 1; 1 3 1 1; 2 0 3 1; 2 1 2 1; "
                          "2 3 0 1; 3 1 1 1; 5 0 0 1")


def test_quintic_singular_only_over_gf32():
    """Its 10 singular points, where two conjugate lines meet, all lie over
    GF(32): a least singular degree of 5, found by the elimination branch."""
    cur = PlaneCurve.parse_inline(field_for(2), CONJUGATE_LINE_QUINTIC)
    assert analysis.rational_points(cur) == ()
    found = [len(singular_points_over_extension(cur, m)[0]) for m in range(1, 6)]
    assert found == [0, 0, 0, 0, 10]
    v = analysis.is_geometrically_nonsingular(cur)
    assert (v.status, v.witness_degree) == ("singular", 5)


def _conjugate_line_product(ctx, n: int, rng: random.Random) -> PlaneCurve:
    """The product of the n Frobenius conjugates of a random line
    X + bY + cZ over GF(q^n): a curve of degree n over GF(q)."""
    ext = ctx.extension(n)
    coeffs = (1, rng.randrange(ext.q), rng.randrange(ext.q))
    product = None
    for _ in range(n):
        line = PlaneCurve(ext, 1, {m: c for m, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                                         coeffs) if c})
        product = line if product is None else curve_mul(product, line)
        coeffs = tuple(ext.pow(c, ctx.q) for c in coeffs)
    return PlaneCurve(ctx, n, product.terms)


def test_verdict_is_the_locus_decision():
    """The verdict is the decision itself; over random, forced-singular,
    conjugate-line and non-reduced curves a singular one comes at a least
    degree of at most max(1, d(d-1)/2)."""
    assert analysis.is_geometrically_nonsingular is locus.decide_singular_locus
    rng = random.Random(31)
    cases = [random_curve(field_for(q), d, rng)
             for q in (2, 3, 4, 5, 7, 8, 9) for d in (2, 3, 4, 5) for _ in range(5)]
    cases += [cur for q, d in ((3, 3), (4, 4), (5, 3), (7, 4))
              for cur in random_singular_instances(field_for(q), d, (0, 0, 1), 6, seed=q + d)]
    cases += [_conjugate_line_product(field_for(q), n, rng)
              for q in (2, 3, 4, 5) for n in (3, 4, 5) for _ in range(2)]
    for q in (2, 3, 4, 5):
        for d in (1, 1, 2, 2):
            base = random_curve(field_for(q), d, rng)
            cases.append(curve_mul(base, base))
    singular = 0
    for cur in cases:
        d = cur.degree
        v = locus.decide_singular_locus(cur)
        assert v.status in ("nonsingular", "singular")
        assert (v.status == "singular") == (v.witness_degree is not None)
        if v.status == "singular":
            assert 1 <= v.witness_degree <= max(1, d * (d - 1) // 2)
            singular += 1
    assert singular >= len(cases) // 3


def test_deg_q_plus_1_nonsingular_within_budget():
    F3 = field_for(3)
    cur = catalog_curve("deg_q_plus_1", F3)
    assert analysis.is_geometrically_nonsingular(cur).status == "nonsingular"


def test_tangent_lines(gf5):
    conic = PlaneCurve(gf5, 2, {(0, 1, 1): 1, (2, 0, 0): gf5.neg(1)})
    assert analysis.tangent_line(conic, (0, 0, 1)) == (0, 1, 0)
    assert analysis.tangent_line(conic, (1, 1, 1)) == (1, 2, 2)
    with pytest.raises(ValueError, match="not on the curve"):
        analysis.tangent_line(conic, (1, 0, 0))
    cusp = PlaneCurve(gf5, 3, {(0, 2, 1): 1, (3, 0, 0): gf5.neg(1)})
    with pytest.raises(ValueError, match="singular"):
        analysis.tangent_line(cusp, (0, 0, 1))


def test_tangent_meets_with_multiplicity_two(gf5):
    conic = PlaneCurve(gf5, 2, {(0, 1, 1): 1, (2, 0, 0): gf5.neg(1)})
    for p_pt in analysis.rational_points(conic):
        tangent = analysis.tangent_line(conic, p_pt)
        assert plane.incident(gf5, p_pt, tangent)
        m = analysis.intersection_multiplicity(conic, tangent, p_pt)
        assert m >= 2


def test_intersection_multiplicity_cases(gf5):
    conic = PlaneCurve(gf5, 2, {(0, 1, 1): 1, (2, 0, 0): gf5.neg(1)})
    assert analysis.intersection_multiplicity(conic, (0, 1, 0), (0, 0, 1)) == 2
    line_curve = PlaneCurve(gf5, 1, {(0, 0, 1): 1})
    assert analysis.intersection_multiplicity(line_curve, (0, 0, 1), (1, 0, 0)) is INFINITE
    # transversal line through a curve point
    assert analysis.intersection_multiplicity(conic, (1, 0, 0), (0, 0, 1)) == 1
    with pytest.raises(ValueError, match="lie on the line"):
        analysis.intersection_multiplicity(conic, (0, 0, 1), (1, 1, 1))


def test_multiplicity_independent_of_parameterization(gf4):
    """The order of vanishing must not depend on the second point chosen."""
    quartic = exceptional_quartic(gf4)
    pl = plane.get_plane(gf4)
    p_pt = analysis.rational_points(quartic)[0]
    line = analysis.tangent_line(quartic, p_pt)
    others = [p for p in pl.points_on_line(line) if p != p_pt]
    orders = set()
    for other in others:
        form = quartic.restrict(p_pt, other)
        orders.add(next(i for i, c in enumerate(form) if c))
    assert len(orders) == 1


def test_bezout_along_lines(gf5):
    """Sum of multiplicities over rational points of a non-component line
    is at most d."""
    rng = random.Random(13)
    for _ in range(10):
        cur = random_curve(gf5, 3, rng)
        pl = plane.get_plane(gf5)
        for line in pl.lines[:12]:
            pts = [p for p in pl.points_on_line(line) if cur.evaluate(p) == 0]
            mults = [analysis.intersection_multiplicity(cur, line, p) for p in pts]
            if any(m is INFINITE for m in mults):
                continue
            assert sum(mults) <= cur.degree


def test_line_spectrum_of_a_line():
    F2 = field_for(2)
    spec = analysis.line_spectrum(PlaneCurve(F2, 1, {(0, 0, 1): 1}))
    assert spec.a == {1: 6, 3: 1}
    assert spec.sum_a() == 7 and spec.sum_ia() == 9


def test_quartic_spectrum_identities(gf4):
    spec = analysis.line_spectrum(exceptional_quartic(gf4))
    assert spec.sum_a() == 21
    assert spec.sum_ia() == 5 * 14
    assert spec.sum_pairs() == 14 * 13 // 2
    # no linear component: a_i = 0 beyond min(d, q+1)
    assert max(spec.a) <= 4


def test_contained_line_lands_in_a_q_plus_1():
    F3 = field_for(3)
    with_line = curve_mul(
        PlaneCurve(F3, 1, {(0, 0, 1): 1}),
        PlaneCurve(F3, 1, {(0, 1, 0): 1}),
    )
    spec = analysis.line_spectrum(with_line)
    assert spec.a.get(4, 0) >= 2


def test_spectrum_restriction_oracle_and_tangency():
    rng = random.Random(37)
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        ctx = field_for(q)
        d = rng.choice([2, 3, 4])
        cur = random_curve(ctx, d, rng)
        spec = analysis.line_spectrum(cur)
        assert spec.sum_a() == q * q + q + 1
        assert spec.sum_ia() == (q + 1) * spec.N
        assert spec.sum_pairs() == spec.N * (spec.N - 1) // 2
        assert analysis.line_spectrum_by_restriction(cur) == spec.a
        rep = analysis.count_points(cur)
        if rep.linear_component is None and not rep.rational_singular:
            # every nonsingular rational point has exactly one tangent
            assert sum(s for (_l, _i, s) in spec.per_line) == spec.N
            for _line, i, s in spec.per_line:
                assert s <= min(i, d - i) if i <= d else True


def test_spectrum_tangency_against_multiplicity_oracle(gf4):
    """s_l recomputed from intersection multiplicities."""
    quartic = exceptional_quartic(gf4)
    spec = analysis.line_spectrum(quartic)
    for line, _i, s in spec.per_line:
        pl = plane.get_plane(gf4)
        expected = 0
        for p_pt in pl.points_on_line(line):
            if quartic.evaluate(p_pt) != 0:
                continue
            m = analysis.intersection_multiplicity(quartic, line, p_pt)
            if m is INFINITE or m >= 2:
                expected += 1
        assert s == expected


def test_frobenius_nonclassical_verdicts(gf4):
    hermitian4 = PlaneCurve(gf4, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert analysis.is_frobenius_nonclassical(hermitian4)
    F9 = field_for(9)
    hermitian9 = PlaneCurve(F9, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    assert analysis.is_frobenius_nonclassical(hermitian9)
    conic9 = PlaneCurve(F9, 2, {(0, 1, 1): 1, (2, 0, 0): F9.neg(1)})
    assert not analysis.is_frobenius_nonclassical(conic9)
    assert not analysis.is_frobenius_nonclassical(exceptional_quartic(gf4))
    # zero frobenius form counts as nonclassical
    F2 = field_for(2)
    assert analysis.is_frobenius_nonclassical(PlaneCurve(F2, 2, {(2, 0, 0): 1}))


def test_nonclassical_count_equality():
    """Nonclassical nonsingular curves must count exactly d(q - d + 2)."""
    for q, d in ((4, 3), (9, 4)):
        ctx = field_for(q)
        hermitian = catalog_curve("hermitian", ctx)
        assert analysis.is_frobenius_nonclassical(hermitian)
        n = len(analysis.rational_points(hermitian))
        assert n == d * (q - d + 2)


def _first_line_with_zero_restriction(cur):
    pl = plane.get_plane(cur.ctx)
    for li, line in enumerate(pl.lines):
        pts = pl.points_on[li]
        if not any(cur.restrict(pl.points[pts[0]], pl.points[pts[1]])):
            return line
    return None


def test_one_scan_classification_matches_oracles():
    """count_points' singular points, linear component and N against the
    enumeration locus, restriction of every line and the line sweep."""
    rng = random.Random(505)
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_for(q)
        for d in range(1, 6):
            cases.append(random_curve(ctx, d, rng))
            if d >= 2:
                line = random_curve(ctx, 1, rng)
                cases.append(curve_mul(line, random_curve(ctx, d - 1, rng)))
                point = (1, rng.randrange(q), rng.randrange(q))
                cases += random_singular_instances(ctx, d, point, 1, seed=10 * q + d)
    singular = linear = 0
    for cur in cases:
        rep = analysis.count_points(cur)
        oracle, _ = singular_points_over_extension(cur, 1)
        assert rep.rational_singular == tuple(oracle)
        assert analysis.singular_rational_points(cur) == tuple(oracle)
        assert rep.linear_component == _first_line_with_zero_restriction(cur)
        assert rep.N == analysis.count_by_line_sweep(cur)
        singular += bool(oracle)
        linear += rep.linear_component is not None
    assert singular >= 28 and linear >= 28


def test_each_analysis_scans_the_plane_once(monkeypatch, gf5, tmp_path, capsys):
    """count_points, line_spectrum and cli singular evaluate F once per
    point of the plane; bound_verdicts and cli lemma-check stay below two
    scans; verify_catalog evaluates each entry and its partials as often as
    count_points alone does."""
    rng = random.Random(55)
    cur = random_curve(gf5, 4, rng)
    path = tmp_path / "quartic.curve"
    path.write_text(cur.to_text())
    calls, every = [], []
    original = PlaneCurve.evaluate

    def counted(self, point):
        every.append(point)
        if self == cur:  # lemma-check loads its own copy of the curve
            calls.append(point)
        return original(self, point)

    monkeypatch.setattr(PlaneCurve, "evaluate", counted)
    points = 5 * 5 + 5 + 1
    for run in (analysis.count_points, analysis.line_spectrum):
        calls.clear()
        run(cur)
        assert len(calls) == points, run.__name__
    calls.clear()
    bound_verdicts(cur)
    assert len(calls) < 2 * points
    calls.clear()
    assert cli.main(["lemma-check", "--curve", str(path), "--no-timestamp"]) == 0
    assert len(calls) < 2 * points
    assert json.loads(capsys.readouterr().out)["N"] == analysis.count_points(cur).N
    calls.clear()
    assert cli.main(["singular", "--curve", str(path), "--no-timestamp"]) == 0
    assert len(calls) == points
    assert json.loads(capsys.readouterr().out)["singular_rational"] == [
        plane.point_to_string(pt) for pt in analysis.singular_rational_points(cur)]
    gf4 = FiniteField(2, 2)
    every.clear()
    for entry in CATALOG.values():
        if entry.applicable(4) is None:
            analysis.count_points(entry.build(gf4))
    one_scan = len(every)
    every.clear()
    verify_catalog([4])
    assert len(every) == one_scan


def test_handed_over_points_give_the_same_results():
    """The points count_points already has, handed to line_spectrum and the
    locus decision, change nothing against recomputing them."""
    rng = random.Random(56)
    cases = [random_curve(field_for(q), d, rng) for q in (3, 4, 5, 7) for d in (2, 3, 4)]
    cases += random_singular_instances(field_for(5), 3, (0, 0, 1), 6, seed=3)
    singular = 0
    for cur in cases:
        counts = analysis.count_points(cur)
        spec = analysis.line_spectrum(cur, counts.points)
        assert spec == analysis.line_spectrum(cur)
        given = analysis.is_geometrically_nonsingular(cur, rational=counts.rational_singular)
        assert given == analysis.is_geometrically_nonsingular(cur)
        singular += bool(counts.rational_singular)
    assert singular >= 6


def test_line_restrictions_build_no_plane(monkeypatch):
    """Restrictions span their lines with plane.span: none of these builds
    or reads the projective plane."""
    def refuse(*args):
        raise AssertionError("the projective plane was used")

    monkeypatch.setattr(plane, "ProjectivePlane", refuse)
    monkeypatch.setattr(plane, "get_plane", refuse)
    ctx = field_for(7)
    cur = curve_mul(_line_form(ctx, (1, 2, 3)), random_curve(ctx, 2, random.Random(5)))
    assert analysis.intersection_multiplicity(cur, (1, 2, 3), (1, 0, 2)) is INFINITE
    assert len(restriction_map(ctx, 3, (1, 2, 3))) == 10
    assert analysis.line_spectrum_by_restriction(cur)[8] >= 1
    assert locus.decide_singular_locus(cur).status == "singular"


def _line_form(ctx, coeffs):
    """The degree-1 curve aX + bY + cZ of a line's coefficient triple."""
    return PlaneCurve(ctx, 1, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs)))


def _line_through_point(ctx, point, rng):
    while True:
        other = tuple(rng.randrange(ctx.q) for _ in range(3))
        if other != (0, 0, 0) and plane.normalize(ctx, other) != point:
            return plane.line_through(ctx, point, other)


@pytest.mark.parametrize("ctx", [FiniteField(257), FiniteField(2, 9)],
                         ids=["GF(257)", "GF(512)"])
def test_multiplicity_matches_another_second_point_over_large_fields(ctx):
    """intersection_multiplicity against the order read off a restriction
    through a second point of the line that plane.span does not give."""
    rng = random.Random(ctx.q)
    for k in range(4):
        point = plane.normalize(ctx, tuple(rng.randrange(1, ctx.q) for _ in range(3)))
        line = _line_through_point(ctx, point, rng)
        cur = random_curve(ctx, 2, rng)
        for _ in range(k):  # each line through the point raises the order by one
            cur = curve_mul(cur, _line_form(ctx, _line_through_point(ctx, point, rng)))
        if k == 3:  # the line itself is a component
            cur = curve_mul(cur, _line_form(ctx, line))
        spanned = plane.span(ctx, line)
        other = next(p for p in spanned if p != point)
        third = plane.normalize(ctx, tuple(ctx.add(a, ctx.mul(5, b))
                                           for a, b in zip(other, point)))
        assert third not in spanned and third != point
        form = cur.restrict(point, third)
        mult = analysis.intersection_multiplicity(cur, line, point)
        assert mult == next((i for i, c in enumerate(form) if c), INFINITE)
        assert (mult is INFINITE) == (k == 3)
        if k < 3:
            assert mult >= k
