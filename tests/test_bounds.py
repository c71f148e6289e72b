import ast
import inspect
import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from planecurves import analysis, bounds, linalg, plane
from planecurves.catalog import CATALOG, catalog_curve, exceptional_quartic
from planecurves.curve import PlaneCurve, curve_mul
from planecurves.field import ExtensionField

from conftest import field_for, random_curve

PRIME_POWERS_25 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]


def test_prime_power_detection():
    assert bounds.prime_power(8) == (2, 3)
    assert bounds.prime_power(25) == (5, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            bounds.prime_power(bad)


def test_bound_values_examples():
    v = bounds.bound_values(4, 4).values
    assert v == {
        "sziklai": 13, "previous": 14, "segre": 14, "stohr_voloch": 14,
        "hefez_voloch": 8, "weil": 17, "trivial": 21,
    }
    v = bounds.bound_values(9, 4).values
    assert v["hefez_voloch"] == 28 and v["sziklai"] == 28
    assert bounds.bound_values(2, 2).values["sziklai"] == 3


def test_previous_minus_sziklai():
    for q in PRIME_POWERS_25:
        for d in range(2, q + 2):
            v = bounds.bound_values(q, d).values
            assert v["previous"] - v["sziklai"] == q + 1 - d


def test_bound_identities_exact():
    """sziklai - stohr_voloch = (d-2)(q-d-1)/2 and, for square q,
    sziklai - hefez_voloch = (d - sqrt(q) - 1)(d + sqrt(q) - 1)."""
    for q in PRIME_POWERS_25:
        for d in range(2, q + 2):
            sz = Fraction((d - 1) * q + 1)
            sv = Fraction(d * (d + q - 1), 2)
            assert sz - sv == Fraction((d - 2) * (q - d - 1), 2)
            r = isqrt(q)
            if r * r == q:
                hv = Fraction(d * (q - d + 2))
                assert sz - hv == (d - r - 1) * (d + r - 1)


def test_weil_exact_comparison():
    assert bounds.weil_floor(4, 4) == 4 + 1 + isqrt(36 * 4)
    # boundary behavior around the floor
    assert bounds.weil_holds(17, 4, 4)
    assert not bounds.weil_holds(18, 4, 4)
    assert bounds.weil_holds(0, 9, 5)


def test_step3_solution_negative_for_large_q():
    for q in (5, 7, 8, 9):
        sol = bounds.step3_solution(q)
        assert sol["a_q_minus_1"] == Fraction((q - 2) * (4 - q))
        assert sol["a_q_minus_1"] < 0
    # and the system is consistent: plug back
    q = 7
    sol = bounds.step3_solution(q)
    a, b, c = sol["a_q_minus_2"], sol["a_q_minus_1"], sol["a_q"]
    n = q * q - q + 2
    assert a + b + c == q * q + q + 1
    assert (q - 2) * a + (q - 1) * b + q * c == (q + 1) * n


def test_step3_solution_in_closed_form():
    for q in range(2, 65):
        sol = bounds.step3_solution(q)
        assert sol == {
            "a_q_minus_2": q * q - 3 * q + 3,
            "a_q_minus_1": (q - 2) * (4 - q),
            "a_q": q * q - 2 * q + 6,
            "expected_a_q_minus_1": (q - 2) * (4 - q),
        }
        assert all(type(v) is Fraction for v in sol.values())


def test_verdicts_on_exceptional_quartic(gf4):
    rep = bounds.bound_verdicts(exceptional_quartic(gf4))
    assert rep.N == 14 and rep.exceptional
    assert rep.verdicts["sziklai"]["applicable"]
    assert not rep.verdicts["sziklai"]["holds"]        # 14 > 13
    assert rep.verdicts["previous"]["holds"]           # 14 <= 14
    assert rep.verdicts["stohr_voloch"]["applicable"]  # classical
    assert rep.verdicts["stohr_voloch"]["holds"] and rep.verdicts["stohr_voloch"]["value"] == 14
    assert rep.flags["frobenius_nonclassical"] is False


def test_exceptional_quartic_is_recognised_up_to_equivalence(gf4):
    quartic = exceptional_quartic(gf4)
    moved = quartic.transform(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert bounds.is_exceptional_quartic(moved, 14)
    assert not bounds.is_exceptional_quartic(moved, 13)  # not its point count
    # XYZ(X + Y + Z): four lines, no three concurrent, 4 * 5 - 6 = 14 points
    lines = PlaneCurve(gf4, 4, {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): 1})
    assert len(analysis.rational_points(lines)) == 14
    assert not bounds.is_exceptional_quartic(lines, 14)
    assert not bounds.is_exceptional_quartic(catalog_curve("deg_q", field_for(5)), 21)


def test_verdicts_on_deg_q_equality():
    F5 = field_for(5)
    rep = bounds.bound_verdicts(catalog_curve("deg_q", F5))
    assert rep.N == 21 == rep.values["sziklai"]
    assert rep.verdicts["sziklai"]["holds"]
    assert not rep.exceptional


def test_verdicts_on_reducible_conic():
    """XY over GF(3): linear components make the conjecture bounds
    inapplicable, and the flags say so."""
    F3 = field_for(3)
    degenerate = PlaneCurve(F3, 2, {(1, 1, 0): 1})
    rep = bounds.bound_verdicts(degenerate)
    assert rep.flags["has_linear_component"]
    assert not rep.verdicts["sziklai"]["applicable"]
    assert not rep.verdicts["segre"]["applicable"]


def test_hermitian_hefez_voloch_equality():
    F9 = field_for(9)
    rep = bounds.bound_verdicts(catalog_curve("hermitian", F9))
    assert rep.flags["frobenius_nonclassical"] is True
    assert rep.verdicts["hefez_voloch"]["applicable"]
    assert rep.verdicts["hefez_voloch"]["holds"] and rep.N == 28


def test_projective_equivalent_round_trip():
    rng = random.Random(19)
    F2 = field_for(2)
    cur = random_curve(F2, 2, rng)
    ident = bounds.projective_equivalent(cur, cur)
    assert ident is not None and cur.transform(ident).scalar_equal(cur)
    while True:
        mat = tuple(tuple(rng.randrange(2) for _ in range(3)) for _ in range(3))
        if linalg.mat_inv(F2, mat) is not None:
            break
    moved = cur.transform(mat)
    witness = bounds.projective_equivalent(cur, moved)
    assert witness is not None
    assert cur.transform(witness).scalar_equal(moved)


def test_projective_equivalent_finds_no_witness_for_inequivalent_curves():
    """A double line and a pair of lines share a degree but no class."""
    F2 = field_for(2)
    double_line = PlaneCurve(F2, 2, {(2, 0, 0): 1})
    line_pair = PlaneCurve(F2, 2, {(1, 1, 0): 1})
    assert bounds.projective_equivalent(double_line, line_pair) is None
    assert bounds.projective_equivalent(line_pair, double_line) is None


def test_projective_equivalent_budget():
    F9 = field_for(9)
    a = PlaneCurve(F9, 2, {(2, 0, 0): 1})
    with pytest.raises(ValueError, match="budget"):
        bounds.projective_equivalent(a, a, budget=100)


def test_point_frame_equivalence_on_quartic(gf4):
    rng = random.Random(43)
    target = exceptional_quartic(gf4)
    for _ in range(3):
        while True:
            mat = tuple(tuple(rng.randrange(4) for _ in range(3)) for _ in range(3))
            if linalg.mat_inv(gf4, mat) is not None:
                break
        moved = target.transform(mat)
        witness = bounds.equivalent_by_point_frames(target, moved)
        assert witness is not None
        assert target.transform(witness).scalar_equal(moved)
    other = catalog_curve("deg_q", gf4)  # 13 points, cannot match
    assert bounds.equivalent_by_point_frames(target, other) is None


def test_frame_matrix_sends_the_standard_frame_onto_every_frame():
    """Every frame among the rational points of each catalog curve over
    GF(4), GF(5) and GF(7) with at most 26 points (one GF(7) curve of 36
    points alone has 36 495 frames): the matrix's columns and their sum
    are the four points, up to scalars."""
    for q in (4, 5, 7):
        ctx = field_for(q)
        for name, entry in CATALOG.items():
            if entry.applicable(q) is not None:
                continue
            pts = analysis.rational_points(catalog_curve(name, ctx))
            if len(pts) > 26:
                continue
            for frame in itertools.combinations(pts, 4):
                if plane.collinear_triple(ctx, frame) is not None:
                    continue
                m = bounds._frame_matrix(ctx, frame)
                images = [linalg.mat_vec(ctx, m, e)
                          for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
                assert [plane.normalize(ctx, v) for v in images] == list(frame)


def test_brute_force_equivalence_is_independent_of_the_frame_method():
    """The oracle names no part of the point-frame search it checks."""
    frame_names = {"_find_frame", "_frame_matrix", "collinear_triple",
                   "equivalent_by_point_frames"}
    defs = {node.name: node for node in ast.parse(inspect.getsource(bounds)).body
            if isinstance(node, ast.FunctionDef)}
    nodes = list(ast.walk(defs["projective_equivalent"]))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert not names & frame_names


def test_no_sziklai_violation_for_nonsingular_curves_q_above_4():
    """Random geometrically nonsingular curves of degree 2..q+1 over q > 4
    never beat (d-1)q + 1; the one known violator lives over GF(4)."""
    rng = random.Random(83)
    for q in (5, 7):
        ctx = field_for(q)
        checked = 0
        while checked < 12:
            d = rng.choice(range(2, q + 2))
            cur = random_curve(ctx, d, rng)
            rep = bounds.bound_verdicts(cur)
            if rep.flags["geometrically_nonsingular"] != "nonsingular":
                continue
            checked += 1
            assert rep.verdicts["sziklai"]["holds"], (q, d, cur.terms, rep.N)


def test_norm_form_products_respect_component_bound():
    """Curves whose components live over GF(q^2) but not GF(q) satisfy
    N <= (d-1)q; the instances are conjugate products."""
    rng = random.Random(59)
    for q in (2, 3):
        ctx = field_for(q)
        ext = ExtensionField(ctx, 2)
        built = 0
        attempts = 0
        while built < 5 and attempts < 60:
            attempts += 1
            lifted_terms = {}
            for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                lifted_terms[mono] = rng.randrange(ext.q)
            lifted_terms = {m: c for m, c in lifted_terms.items() if c}
            if not lifted_terms:
                continue
            line_ext = PlaneCurve(ext, 1, lifted_terms)
            conj = PlaneCurve(
                ext, 1,
                {m: ext.frobenius(c, ctx.k) for m, c in lifted_terms.items()},
            )
            if conj.scalar_equal(line_ext):
                continue  # already defined over the base field
            product = curve_mul(line_ext, conj)
            base_terms = {}
            descends = True
            for m, c in product.terms.items():
                if c >= ctx.q:
                    descends = False
                    break
                base_terms[m] = c
            assert descends, "norm form must have base-field coefficients"
            cur = PlaneCurve(ctx, 2, base_terms)
            built += 1
            n = len(analysis.rational_points(cur))
            assert n <= (2 - 1) * q
        assert built == 5
