import itertools
import random

import pytest

from planecurves import plane
from planecurves.field import FiniteField
from planecurves.catalog import exceptional_quartic
from planecurves.analysis import rational_points

from conftest import field_for


@pytest.mark.parametrize("q,expected", [(2, 7), (3, 13), (4, 21), (5, 31), (9, 91)])
def test_point_and_line_counts(q, expected):
    ctx = field_for(q)
    pts = plane.enumerate_points(ctx)
    lns = plane.enumerate_lines(ctx)
    assert len(pts) == expected == len(lns)
    assert len(set(pts)) == expected
    assert pts == sorted(pts)  # deterministic lexicographic order


def test_normalization():
    ctx = field_for(5)
    assert plane.normalize(ctx, (0, 2, 3)) == (0, 1, 4)  # scale by inv(2)=3
    assert plane.normalize(ctx, (2, 0, 0)) == (1, 0, 0)
    with pytest.raises(ValueError):
        plane.normalize(ctx, (0, 0, 0))


def test_incidence_basics():
    ctx = field_for(2)
    z_line = (0, 0, 1)
    assert not plane.incident(ctx, (0, 0, 1), z_line)
    assert plane.incident(ctx, (1, 0, 0), z_line)
    # (1,1,1) on X+Y+Z=0 over GF(2)? 1+1+1 = 1, so no
    assert not plane.incident(ctx, (1, 1, 1), (1, 1, 1))


def test_join_and_meet():
    ctx = field_for(3)
    assert plane.line_through(ctx, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert plane.meet(ctx, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    with pytest.raises(ValueError):
        plane.line_through(ctx, (1, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        plane.meet(ctx, (0, 0, 1), (0, 0, 1))


def test_line_through_matches_brute_force_over_gf3():
    """The unique line of the 13 containing both points."""
    ctx = field_for(3)
    p_pt, q_pt = (1, 0, 0), (1, 1, 1)
    witness = [
        l for l in plane.enumerate_lines(ctx)
        if plane.incident(ctx, p_pt, l) and plane.incident(ctx, q_pt, l)
    ]
    assert witness == [plane.line_through(ctx, p_pt, q_pt)] == [(0, 1, 2)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_incidence_regularity(q):
    """Every line carries q+1 points; every point lies on q+1 lines."""
    ctx = field_for(q)
    pl = plane.get_plane(ctx)
    assert all(len(v) == q + 1 for v in pl.points_on)
    assert all(len(v) == q + 1 for v in pl.lines_on)


def test_pencil_through_point():
    ctx = field_for(2)
    pencil = plane.lines_through_point(ctx, (0, 0, 1))
    assert sorted(pencil) == [(0, 1, 0), (1, 0, 0), (1, 1, 0)]
    for q in (4, 7):
        ctx = field_for(q)
        assert len(plane.lines_through_point(ctx, (1, 2, 3))) == q + 1


def test_join_meet_round_trip():
    ctx = field_for(4)
    p_pt = (1, 2, 3)
    through = plane.lines_through_point(ctx, p_pt)
    for l, m in itertools.combinations(through[:4], 2):
        assert plane.meet(ctx, l, m) == p_pt


def test_is_arc_frame_points():
    for q in (2, 3, 4, 5):
        ctx = field_for(q)
        ok, witness = plane.is_arc(ctx, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert ok and witness is None


def test_is_arc_rejects_collinear_and_small_sets():
    ctx = field_for(3)
    ok, witness = plane.is_arc(ctx, [(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    assert not ok and witness is not None
    with pytest.raises(ValueError):
        plane.is_arc(ctx, [(1, 0, 0), (0, 1, 0)])


def test_quartic_point_set_is_not_an_arc(gf4):
    pts = rational_points(exceptional_quartic(gf4))
    ok, witness = plane.is_arc(gf4, pts)
    assert not ok
    p, q, r = witness
    assert plane.collinear(gf4, p, q, r)


def test_collinear_triple_is_the_first_in_combination_order(gf4):
    pts = rational_points(exceptional_quartic(gf4))
    for k in range(3, 8):
        for combo in itertools.combinations(pts, k):
            first = next((t for t in itertools.combinations(combo, 3)
                          if plane.collinear(gf4, *t)), None)
            assert plane.collinear_triple(gf4, combo) == first


def test_max_arc_sizes():
    """Over GF(3) no 5-point arc exists; over GF(4) a 6-point arc does."""
    ctx = field_for(3)
    pts = plane.enumerate_points(ctx)
    assert not any(
        plane.is_arc(ctx, combo)[0] for combo in itertools.combinations(pts, 5)
    )
    # conic plus nucleus over GF(4): x^2 = yz parameterized, nucleus (1,0,0)
    gf4 = field_for(4)
    conic_pts = [(0, 1, 0)] + [
        plane.normalize(gf4, (t, gf4.mul(t, t), 1)) for t in range(4)
    ]
    oval = conic_pts + [(1, 0, 0)]
    assert len(oval) == 6
    ok, _ = plane.is_arc(gf4, oval)
    assert ok


def test_point_string_round_trip():
    ctx = field_for(4)
    for p in plane.enumerate_points(ctx)[:10]:
        assert plane.point_from_string(ctx, plane.point_to_string(p)) == p


SELF_DUAL_QS = [2, 3, 4, 5, 7, 8, 9, 16, 25]


def _on_line(ctx, point, line):
    """The dot product, summed here rather than through plane.incident."""
    x, y, z = (ctx.mul(a, b) for a, b in zip(point, line))
    return ctx.add(ctx.add(x, y), z) == 0


@pytest.mark.parametrize("q", SELF_DUAL_QS)
def test_plane_is_stored_once_by_self_duality(q):
    """Lines are the points, one index serves both, and one incidence
    tuple serves both; each line's points are its brute-force incidences."""
    ctx = field_for(q)
    pl = plane.get_plane(ctx)
    assert pl.lines is pl.points and pl.line_index is pl.point_index
    assert pl.lines_on is pl.points_on
    for line in pl.lines:
        brute = [p for p in pl.points if _on_line(ctx, p, line)]
        assert pl.points_on_line(line) == brute


def _check_span(ctx, line):
    first, second = plane.span(ctx, line)
    assert first != second
    for point in (first, second):
        assert plane.normalize(ctx, point) == point
        assert _on_line(ctx, point, line)


@pytest.mark.parametrize("q", SELF_DUAL_QS)
def test_span_gives_two_points_of_every_line(q):
    ctx = field_for(q)
    for line in plane.enumerate_lines(ctx):
        _check_span(ctx, line)
        # any nonzero multiple of the coefficients names the same line
        _check_span(ctx, tuple(ctx.mul(q - 1, c) for c in line))
    with pytest.raises(ValueError, match="zero triple"):
        plane.span(ctx, (0, 0, 0))


@pytest.mark.parametrize("ctx", [FiniteField(257), FiniteField(2, 9),
                                 FiniteField(3, 1).extension(3)],
                         ids=["GF(257)", "GF(512)", "GF(3^3)-tower"])
def test_span_on_sampled_lines_of_large_and_tower_fields(ctx):
    rng = random.Random(ctx.q)
    lines = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    lines += [tuple(rng.randrange(ctx.q) for _ in range(3)) for _ in range(60)]
    for line in lines:
        if line != (0, 0, 0):
            _check_span(ctx, line)
    with pytest.raises(ValueError, match="zero triple"):
        plane.span(ctx, (0, 0, 0))
