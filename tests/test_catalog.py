import pytest

from planecurves import analysis, plane
from planecurves.catalog import CATALOG, catalog_curve, verify_catalog
from planecurves.curve import has_linear_component

from conftest import field_for


def test_entry_counts_across_fields():
    rows = verify_catalog([2, 3, 4, 5, 7, 8, 9], check_nonsingular=False)
    generated = [r for r in rows if r["entry"] != "deg_q_plus_2"]
    assert all(r["count_ok"] for r in generated)
    assert all(r["no_linear_component"] for r in generated)
    assert all(r["no_rational_singularity"] for r in generated)


def test_expected_count_formulas():
    assert CATALOG["deg_q"].expected_count(4) == 13
    assert CATALOG["deg_q_plus_1"].expected_count(3) == 10
    assert CATALOG["deg_q_minus_1"].expected_count(4) == 9
    assert CATALOG["hermitian"].expected_count(9) == 28
    assert CATALOG["smooth_conic"].expected_count(2) == 3
    assert CATALOG["exceptional_quartic"].expected_count(4) == 14


def test_applicability_gates():
    with pytest.raises(ValueError, match="q = 4"):
        catalog_curve("exceptional_quartic", field_for(9))
    with pytest.raises(ValueError, match="square"):
        catalog_curve("hermitian", field_for(5))
    with pytest.raises(ValueError, match="q >= 3"):
        catalog_curve("deg_q_minus_1", field_for(2))
    with pytest.raises(ValueError, match="unknown"):
        catalog_curve("nope", field_for(2))


def test_deg_q_minus_1_parameter_validation():
    F5 = field_for(5)
    cur = catalog_curve("deg_q_minus_1", F5, alpha=1, beta=2)
    assert len(analysis.rational_points(cur)) == (5 - 2) * 5 + 1
    with pytest.raises(ValueError, match="alpha"):
        catalog_curve("deg_q_minus_1", F5, alpha=1, beta=4)  # alpha+beta = 0
    with pytest.raises(ValueError, match="alpha"):
        catalog_curve("deg_q_minus_1", F5, alpha=0, beta=1)


def test_deg_q_point_set_identity():
    """The rational points of the degree-q curve are exactly the plane
    minus the line Y = 0 minus the points (1 : beta : 0)."""
    for q in (3, 4, 5):
        ctx = field_for(q)
        cur = catalog_curve("deg_q", ctx)
        got = set(analysis.rational_points(cur))
        excluded = {plane.normalize(ctx, (x, 0, z))
                    for x in range(q) for z in range(q) if (x, z) != (0, 0)}
        excluded.add((1, 0, 0))
        excluded |= {plane.normalize(ctx, (1, beta, 0)) for beta in range(q)}
        expected = set(plane.enumerate_points(ctx)) - excluded
        assert got == expected


def test_hermitian_is_nonclassical_with_equality():
    for q in (4, 9):
        ctx = field_for(q)
        cur = catalog_curve("hermitian", ctx)
        assert analysis.is_frobenius_nonclassical(cur)
        d = cur.degree
        assert len(analysis.rational_points(cur)) == d * (q - d + 2)


def test_smooth_conic_everywhere():
    for q in (2, 3, 4, 5, 7, 8, 9):
        ctx = field_for(q)
        cur = catalog_curve("smooth_conic", ctx)
        assert len(analysis.rational_points(cur)) == q + 1
        assert has_linear_component(cur) is None


def test_verify_catalog_emits_deg_q_plus_2_row():
    rows = verify_catalog([3], check_nonsingular=False)
    synth = [r for r in rows if r["entry"] == "deg_q_plus_2"]
    assert len(synth) == 1
    assert synth[0]["expected_N"] == 13 and synth[0]["N"] is None


def test_verify_catalog_nonsingularity_column():
    rows = verify_catalog([4], check_nonsingular=True)
    for r in rows:
        if r["entry"] == "deg_q_plus_2":
            continue
        assert r["nonsingular"] == "nonsingular"
        assert r["sziklai_equality"] == (r["entry"] != "exceptional_quartic")
