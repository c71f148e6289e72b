import random

import pytest

from planecurves import locus
from planecurves.catalog import catalog_curve, exceptional_quartic
from planecurves.curve import PlaneCurve, curve_mul, monomials, rational_points
from planecurves.locus import (
    decide_singular_locus,
    singular_points_over_extension,
    tri_gcd,
)

from conftest import field_for, random_curve, squared_point_free_cubic


def test_quartic_locus_empty(gf4):
    res = decide_singular_locus(exceptional_quartic(gf4))
    assert res.status == "nonsingular"


def test_cuspidal_cubic_rational_witness(gf5):
    cusp = PlaneCurve(gf5, 3, {(0, 2, 1): 1, (3, 0, 0): gf5.neg(1)})
    res = decide_singular_locus(cusp)
    assert (res.status, res.witness_degree) == ("singular", 1)
    assert res.witness_point == (0, 0, 1)


def test_all_partials_zero_curve_is_everywhere_singular():
    F2 = field_for(2)
    res = decide_singular_locus(PlaneCurve(F2, 2, {(2, 0, 0): 1}))
    assert (res.status, res.witness_degree) == ("singular", 1)


def test_conjugate_intersection_gives_degree_two_witness():
    F3 = field_for(3)
    a = PlaneCurve(F3, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): F3.neg(1)})
    b = PlaneCurve(F3, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    res = decide_singular_locus(curve_mul(a, b))
    assert (res.status, res.witness_degree) == ("singular", 2)


@pytest.mark.parametrize("name,q", [
    ("deg_q_plus_1", 3), ("deg_q", 4), ("deg_q_minus_1", 5),
    ("hermitian", 9), ("smooth_conic", 7),
])
def test_catalog_curves_have_empty_locus(name, q):
    res = decide_singular_locus(catalog_curve(name, field_for(q)))
    assert res.status == "nonsingular"


def _sparse_curve(ctx, degree: int, rng: random.Random) -> PlaneCurve:
    """Three to five random monomials with random nonzero coefficients."""
    monos = rng.sample(monomials(degree), rng.randint(3, 5))
    return PlaneCurve(ctx, degree, {m: rng.randrange(1, ctx.q) for m in monos})


def _point_free_squares(seed: int, count: int) -> list[PlaneCurve]:
    """Squares of random cubics without rational points over GF(2) and
    GF(3): each is singular along a curve, the one-dimensional branch."""
    rng = random.Random(seed)
    out = []
    for q in (2, 3):
        found = 0
        while found < count:
            cubic = random_curve(field_for(q), 3, rng)
            if not rational_points(cubic):
                out.append(curve_mul(cubic, cubic))
                found += 1
    return out


FIBRE_BELOW_LINE_SQUARE = ("0 0 8 1; 0 6 2 1; 0 8 0 1; 2 0 6 1; 2 2 4 1; 2 4 2 1; "
                           "4 2 2 1; 4 4 0 1; 8 0 0 1")


def test_oracle_cross_check_small_random():
    """Exact decision vs plain enumeration over GF(q), GF(q^2), GF(q^3).

    Dense curves mostly meet coprime pairs; sparse ones also reach linear
    members and shared factors of F and its partials; squares of
    point-free curves reach the one-dimensional branch."""
    curves = []
    for make, seed, count in ((random_curve, 71, 80), (_sparse_curve, 74, 120)):
        rng = random.Random(seed)
        for _ in range(count):
            q = rng.choice([2, 3])
            curves.append(make(field_for(q), rng.choice([2, 3, 4]), rng))
    curves += _point_free_squares(76, 4)
    # a GF(2) square whose line X = 0 meets it only in points of degree 4,
    # while its fibres find the 2 singular points over GF(4)
    curves.append(PlaneCurve.parse_inline(field_for(2), FIBRE_BELOW_LINE_SQUARE))
    for cur in curves:
        res = decide_singular_locus(cur)
        found = {}
        for m in (1, 2, 3):
            pts, _ = singular_points_over_extension(cur, m)
            found[m] = bool(pts)
        if res.status == "nonsingular":
            assert not any(found.values()), (cur.terms, found)
        elif res.witness_degree in (1, 2, 3):
            assert found[res.witness_degree]
            assert not any(found[m] for m in range(1, res.witness_degree))
        else:
            assert not any(found.values())


def test_one_dimensional_branch_scans_no_rational_points(monkeypatch):
    """The decomposition runs only after the rational scan found nothing, so
    the branch along a point-free cubic evaluates nothing over GF(2) again:
    the q^2 + q + 1 base-field evaluations are the scan's own."""
    F2 = field_for(2)
    base_points = []
    evaluate = PlaneCurve.evaluate

    def counting(self, point):
        if self.ctx == F2:
            base_points.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(PlaneCurve, "evaluate", counting)
    res = decide_singular_locus(squared_point_free_cubic())
    assert (res.status, res.witness_degree) == ("singular", 3)
    assert len(base_points) == 2 * 2 + 2 + 1


def test_quotient_ring_inversion_splits_on_zero_divisor():
    F2 = field_for(2)
    ring = locus._QuotRing(F2, [0, 1, 1])  # GF(2)[y] / (y (y + 1))
    with pytest.raises(locus._Split) as caught:
        ring.inv(ring.reduce([0, 1]))
    assert caught.value.factor in ([0, 1], [1, 1])
    F3 = field_for(3)
    ring = locus._QuotRing(F3, [0, 1, 1])  # GF(3)[y] / (y (y + 1))
    unit = ring.reduce([2, 1])  # y + 2 is nonzero at both roots 0 and 2
    assert ring.mul(unit, ring.inv(unit)) == 1


@pytest.mark.parametrize("q,terms,splits,witness_degree,oracle", [
    (3, {(0, 1, 2): 2, (1, 2, 0): 2, (2, 1, 0): 2}, 1, 2, {1: 0, 2: 2, 3: 0}),
    (4, {(0, 1, 3): 2, (0, 4, 0): 2, (1, 0, 3): 1, (1, 2, 1): 1, (1, 3, 0): 1,
         (2, 2, 0): 2, (3, 0, 1): 2, (3, 1, 0): 1}, 2, 3, {1: 0, 2: 0, 3: 3}),
])
def test_decisions_that_split_a_modulus(monkeypatch, q, terms, splits, witness_degree, oracle):
    """Dynamic evaluation meets a zero divisor and still decides exactly."""
    raised = []
    init = locus._Split.__init__

    def counting(self, factor):
        raised.append(factor)
        init(self, factor)

    monkeypatch.setattr(locus._Split, "__init__", counting)
    cur = PlaneCurve.from_terms(field_for(q), terms)
    res = decide_singular_locus(cur)
    assert len(raised) == splits
    assert (res.status, res.witness_degree) == ("singular", witness_degree)
    found = {m: len(singular_points_over_extension(cur, m)[0]) for m in (1, 2, 3)}
    assert found == oracle


def test_tri_gcd_of_shared_factor():
    F2 = field_for(2)
    f = PlaneCurve(F2, 1, {(1, 0, 0): 1, (0, 0, 1): 1})   # X + Z
    g1 = PlaneCurve(F2, 2, {(0, 2, 0): 1, (1, 0, 1): 1})  # any cofactors
    g2 = PlaneCurve(F2, 1, {(0, 1, 0): 1})
    a = curve_mul(f, g1)
    b = curve_mul(f, g2)
    assert tri_gcd(a, b).scalar_equal(f)


def test_tri_gcd_z_power_handling():
    F3 = field_for(3)
    a = PlaneCurve(F3, 3, {(0, 0, 3): 2})                  # 2 Z^3
    b = PlaneCurve(F3, 2, {(0, 1, 1): 1, (2, 0, 0): 1})    # Z Y + X^2
    gcd = tri_gcd(a, b)
    assert (gcd.degree, gcd.terms) == (0, {(0, 0, 0): 1})
    c = curve_mul(PlaneCurve(F3, 1, {(0, 0, 1): 1}), b)
    assert tri_gcd(a, c).scalar_equal(PlaneCurve(F3, 1, {(0, 0, 1): 1}))
