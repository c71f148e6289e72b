"""Everything measured about a curve: rational points, singular points,
tangent lines, intersection multiplicities, the line spectrum a_i, and the
Frobenius classicality verdict; also seeded random curves forced to be
singular at a rational point.

Counting is available through two independent strategies (full point
iteration and an affine line sweep whose per-line root counts come from
gcds with t^q - t); the test suite insists they agree.  The spectrum is
likewise computed both from the rational point list and from per-line
restrictions.

The one scan of the plane for a curve's points is curve.rational_points;
singular points, tangents and linear components are read off its points
with curve.gradient.  The independent oracles keep loops of their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from . import linalg, locus, plane, unipoly
from .curve import PlaneCurve, divides, frobenius_form, gradient, has_linear_component
from .curve import monomials, rational_points, singular_rational_points


class _Infinite:
    """Sentinel for the intersection multiplicity of a contained line."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _Infinite()


@dataclass(frozen=True)
class CountReport:
    """Exact rational-point data for one curve."""

    q: int
    d: int
    N: int
    points: tuple
    rational_singular: tuple
    linear_component: Optional[tuple]

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "N": self.N,
            "points": [plane.point_to_string(p) for p in self.points],
            "singular_rational": [plane.point_to_string(p) for p in self.rational_singular],
            "linear_component": (
                plane.point_to_string(self.linear_component)
                if self.linear_component
                else None
            ),
        }


def count_points(curve: PlaneCurve) -> CountReport:
    """Point count plus the classification data the bounds need, from one scan."""
    pts = rational_points(curve)
    return CountReport(
        q=curve.ctx.q,
        d=curve.degree,
        N=len(pts),
        points=pts,
        rational_singular=singular_rational_points(curve, pts),
        linear_component=has_linear_component(curve, pts),
    )


def count_by_line_sweep(curve: PlaneCurve) -> int:
    """Independent counter: sweep the affine lines x = const, then Z = 0.

    Root counts per line come from deg gcd(f, t^q - t), not from point
    evaluation, so the two counters share no code path.
    """
    ctx = curve.ctx
    q = ctx.q
    total = 0
    for alpha in range(q):
        # the affine line X = alpha (points (alpha : t : 1))
        f = _substituted_unipoly(curve, alpha)
        if not f:
            total += q
        else:
            total += unipoly.root_count_in_field(ctx, f)
    # the line Z = 0: points (1 : t : 0) and (0 : 1 : 0)
    g = [0] * (curve.degree + 1)
    for (i, j, k), c in curve.terms.items():
        if k == 0:
            g[j] = ctx.add(g[j], c)
    gl = unipoly.trim(list(g))
    if not gl:
        total += q + 1
    else:
        total += unipoly.root_count_in_field(ctx, gl)
        if unipoly.deg(gl) < curve.degree:
            total += 1  # (0 : 1 : 0) is a root of the binary form at infinity
    return total


def _substituted_unipoly(curve: PlaneCurve, alpha: int) -> list[int]:
    """F(alpha, t, 1) as a univariate polynomial in t."""
    ctx = curve.ctx
    apow = ctx.powers(alpha, curve.degree)
    out = [0] * (curve.degree + 1)
    for (i, j, _k), c in curve.terms.items():
        out[j] = ctx.add(out[j], ctx.mul(c, apow[i]))
    return unipoly.trim(out)


# the locus decision is the verdict itself, under the name the bounds use
is_geometrically_nonsingular = locus.decide_singular_locus


def tangent_line(curve: PlaneCurve, point) -> tuple:
    """The embedded tangent (F_X(P), F_Y(P), F_Z(P)) at a nonsingular point."""
    ctx = curve.ctx
    point = plane.normalize(ctx, point)
    if curve.evaluate(point) != 0:
        raise ValueError(f"{point} is not on the curve")
    coeffs = gradient(curve.partials(), point)
    if not any(coeffs):
        raise ValueError(f"{point} is a singular point; no tangent line")
    return plane.normalize(ctx, coeffs)


def intersection_multiplicity(curve: PlaneCurve, line, point):
    """Order of vanishing of the restriction at the point, or INFINITE.

    The line is parameterized as s*P + t*Q, Q a point of plane.span(line)
    other than P; the result does not depend on that choice.
    """
    ctx = curve.ctx
    point = plane.normalize(ctx, point)
    line = plane.normalize(ctx, line)
    if not plane.incident(ctx, point, line):
        raise ValueError("the point must lie on the line")
    other = next(p for p in plane.span(ctx, line) if p != point)
    form = curve.restrict(point, other)
    order = form.vanishing_order_at_origin()
    if order is None:
        return INFINITE
    return order


@dataclass(frozen=True)
class LineSpectrum:
    """The counts a_i = #{lines meeting C(F_q) in exactly i points}, with
    per-line intersection and tangency detail."""

    q: int
    d: int
    N: int
    a: dict
    per_line: tuple  # (line, i, s_l) triples in line-enumeration order

    def sum_a(self) -> int:
        return sum(self.a.values())

    def sum_ia(self) -> int:
        return sum(i * c for i, c in self.a.items())

    def sum_pairs(self) -> int:
        return sum(i * (i - 1) // 2 * c for i, c in self.a.items())

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "N": self.N,
            "a": {str(i): c for i, c in sorted(self.a.items())},
        }


def line_spectrum(curve: PlaneCurve, points=None) -> LineSpectrum:
    """Exact spectrum from the rational point list (``points``, when already
    known) and the incidence cache.

    s_l counts only nonsingular rational points whose unique tangent is l,
    matching the convention that singular points carry no tangency count.
    """
    ctx = curve.ctx
    pl = plane.get_plane(ctx)
    pts = rational_points(curve) if points is None else points
    parts = curve.partials()
    # index of each rational point -> index of its tangent, None if singular
    tangent: dict[int, Optional[int]] = {}
    for point in pts:
        coeffs = gradient(parts, point)
        tangent[pl.point_index[point]] = (
            pl.line_index[plane.normalize(ctx, coeffs)] if any(coeffs) else None
        )
    a: dict[int, int] = {}
    per_line = []
    for li, line in enumerate(pl.lines):
        on = [pi for pi in pl.points_on[li] if pi in tangent]
        a[len(on)] = a.get(len(on), 0) + 1
        per_line.append((line, len(on), sum(1 for pi in on if tangent[pi] == li)))
    return LineSpectrum(
        q=ctx.q,
        d=curve.degree,
        N=len(pts),
        a=a,
        per_line=tuple(per_line),
    )


def line_spectrum_by_restriction(curve: PlaneCurve) -> dict:
    """Independent spectrum: per-line counts from restriction root counting.

    Each line is restricted, through plane.span and not the incidence
    cache, to a binary form whose rational projective roots are counted;
    a vanishing restriction contributes a_(q+1).
    """
    ctx = curve.ctx
    a: dict[int, int] = {}
    for line in plane.enumerate_lines(ctx):
        form = curve.restrict(*plane.span(ctx, line))
        if form.is_zero():
            i_count = ctx.q + 1
        else:
            i_count = len(form.rational_roots())
        a[i_count] = a.get(i_count, 0) + 1
    return a


def is_frobenius_nonclassical(curve: PlaneCurve) -> bool:
    """True iff F divides X^q F_X + Y^q F_Y + Z^q F_Z.

    This is the generic-tangency condition: the q-power Frobenius image of
    a general curve point lies on the tangent line there.  The zero form
    counts as divisible.
    """
    form = frobenius_form(curve)
    if form is None:
        return True
    return divides(curve, form)


def singular_constraint_basis(ctx, degree: int, point) -> list:
    """Basis of coefficient vectors of curves with F and all partials
    vanishing at the given rational point (four linear conditions)."""
    point = plane.normalize(ctx, point)
    monos = monomials(degree)
    columns = []
    for mono in monos:
        single = PlaneCurve(ctx, degree, {mono: 1})
        columns.append((single.evaluate(point),) + gradient(single.partials(), point))
    return linalg.nullspace(ctx, list(zip(*columns)), len(monos))


def random_singular_instances(
    ctx, degree: int, point, n: int, seed: int
) -> list[PlaneCurve]:
    """n seeded random curves singular at the given rational point, with
    linear-component carriers discarded.

    Each candidate draws one random.Random(seed) code per basis vector of
    singular_constraint_basis, in basis order, and is the sum of the basis
    vectors scaled by those codes.
    """
    if degree < 2:
        raise ValueError("forced singular curves need degree >= 2")
    basis = singular_constraint_basis(ctx, degree, point)
    rng = random.Random(seed)
    monos = monomials(degree)
    add, mul = ctx._add, ctx._mul
    out: list[PlaneCurve] = []
    while len(out) < n:
        vec = [0] * len(monos)
        for row in basis:
            c = rng.randrange(ctx.q)
            if c:
                vec = [add(v, mul(c, b)) for v, b in zip(vec, row)]
        terms = {m: v for m, v in zip(monos, vec) if v}
        if not terms:
            continue
        cur = PlaneCurve(ctx, degree, terms)
        if has_linear_component(cur) is None:
            out.append(cur)
    return out
