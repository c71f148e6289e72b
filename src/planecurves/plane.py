"""The projective plane over a finite field and its dual.

Points and lines are coordinate triples of element codes, normalized so
the first nonzero coordinate is exactly 1 (scanning X, Y, Z in that
order).  A line (a, b, c) is the zero set of aX + bY + cZ.  Enumeration
order is lexicographic on the normalized triple, which keeps spectra and
search logs reproducible.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

Triple = tuple[int, int, int]


def normalize(ctx, triple) -> Triple:
    """Scale a nonzero triple so its first nonzero coordinate is 1."""
    x, y, z = (ctx.check(c) for c in triple)
    for lead in (x, y, z):
        if lead:
            if lead == 1:
                return (x, y, z)
            s = ctx.inv(lead)
            return (ctx.mul(x, s), ctx.mul(y, s), ctx.mul(z, s))
    raise ValueError("the zero triple is not a projective point")


def enumerate_points(ctx) -> list[Triple]:
    """All q^2 + q + 1 points, sorted by normalized coordinate triple."""
    pts = [(0, 0, 1)]
    pts.extend((0, 1, z) for z in range(ctx.q))
    pts.extend((1, y, z) for y in range(ctx.q) for z in range(ctx.q))
    return pts


def incident(ctx, point: Triple, line: Triple) -> bool:
    """True iff the point lies on the line (the dot product vanishes)."""
    acc = 0
    for pc, lc in zip(point, line):
        acc = ctx.add(acc, ctx.mul(pc, lc))
    return acc == 0


def cross(ctx, a: Triple, b: Triple) -> Triple:
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (
        ctx.sub(ctx.mul(a2, b3), ctx.mul(a3, b2)),
        ctx.sub(ctx.mul(a3, b1), ctx.mul(a1, b3)),
        ctx.sub(ctx.mul(a1, b2), ctx.mul(a2, b1)),
    )


def line_through(ctx, p: Triple, q: Triple) -> Triple:
    """The unique line through two distinct points (as meet, the point
    where two distinct lines cross)."""
    if normalize(ctx, p) == normalize(ctx, q):
        raise ValueError("two distinct points (or lines) are needed")
    return normalize(ctx, cross(ctx, p, q))


# P^2 is self-dual: the lines are the points' triples, in the same order
enumerate_lines = enumerate_points
meet = line_through


def collinear(ctx, p: Triple, q: Triple, r: Triple) -> bool:
    """True iff the 3x3 coordinate determinant vanishes."""
    c = cross(ctx, p, q)
    if c == (0, 0, 0):
        return True  # p and q coincide projectively
    return incident(ctx, r, c)


def collinear_triple(ctx, points) -> tuple[Triple, Triple, Triple] | None:
    """The first collinear triple of the points in combination order, or
    None if no three of them are collinear."""
    return next((t for t in itertools.combinations(points, 3) if collinear(ctx, *t)), None)


def is_arc(ctx, points) -> tuple[bool, tuple[Triple, Triple, Triple] | None]:
    """No three collinear?  Returns (verdict, first violating triple)."""
    pts = sorted({normalize(ctx, p) for p in points})
    if len(pts) < 3:
        raise ValueError("an arc needs at least 3 points")
    triple = collinear_triple(ctx, pts)
    return triple is None, triple


def span(ctx, line: Triple) -> tuple[Triple, Triple]:
    """Two distinct normalized points of the line (a, b, c): the first two
    distinct classes among (0, c, -b), (c, 0, -a) and (b, -a, 0)."""
    a, b, c = line
    pts: list[Triple] = []
    for t in ((0, c, ctx.neg(b)), (c, 0, ctx.neg(a)), (b, ctx.neg(a), 0)):
        if t != (0, 0, 0):
            t = normalize(ctx, t)
            if t not in pts:
                pts.append(t)
        if len(pts) == 2:
            return pts[0], pts[1]
    raise ValueError("the zero triple is not a projective line")


class ProjectivePlane:
    """Cached incidence structure of P^2(F_q); all members are immutable.
    P^2 is self-dual, so lines, line_index and lines_on are the very
    objects points, point_index and points_on."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.points = self.lines = tuple(enumerate_points(ctx))
        self.point_index = self.line_index = {p: i for i, p in enumerate(self.points)}
        points_on: list[list[int]] = [[] for _ in self.lines]
        for li, line in enumerate(self.lines):
            for pi, point in enumerate(self.points):
                if incident(ctx, point, line):
                    points_on[li].append(pi)
        self.points_on = self.lines_on = tuple(tuple(v) for v in points_on)

    def points_on_line(self, l: Triple) -> list[Triple]:
        """The points of a line l, or by duality the pencil of lines through l."""
        li = self.line_index[normalize(self.ctx, l)]
        return [self.points[pi] for pi in self.points_on[li]]


@lru_cache(maxsize=None)
def get_plane(ctx) -> ProjectivePlane:
    return ProjectivePlane(ctx)


def lines_through_point(ctx, p: Triple) -> list[Triple]:
    """The pencil of q+1 lines through p."""
    return get_plane(ctx).points_on_line(p)


def point_to_string(p: Triple) -> str:
    return ":".join(str(c) for c in p)


def point_from_string(ctx, text: str) -> Triple:
    try:
        x, y, z = (int(c) for c in text.split(":"))
    except ValueError:
        raise ValueError(f"bad point/line string {text!r}") from None
    return normalize(ctx, (x, y, z))
