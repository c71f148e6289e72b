"""Exact location of singular points over the algebraic closure.

The singular locus of a curve F is the common zero set of F and its three
partial derivatives.  decide_singular_locus answers, exactly:

  * is the locus empty over every extension field, and if not,
  * what is the smallest extension degree carrying a singular point?

The system is a list of PlaneCurves, F and its nonzero partials, and it
stays one: gcds (tri_gcd) and exact quotients (curve.exact_divide) are
PlaneCurves too, and a restriction to a rational line is spanned by
plane.span.  The decision works by recursive decomposition of the system
into (a) one-dimensional branches, where the locus contains a whole curve
and witnesses come from the line X = 0 and the roots of the fibres
F(1, y0, z) over GF(q^a), and (b) zero-dimensional branches, where a
coprime pair is eliminated down to a single variable by an interpolated
resultant and surviving candidates are confirmed with gcds over quotient
rings GF(q)[y]/(u).  Quotient moduli may be products of same-degree
irreducibles; any zero divisor met along the way splits the modulus and
the affected piece is redone (dynamic evaluation), so no equal-degree
factorization is ever needed.
A ring element is coded like a tower element of field.py: an integer
whose base-q digits are its coordinates in 1, y, ..., y^(deg u - 1).
The ring is a _FieldOps context with its own inversion, so unipoly's
gcd, division and powering serve polynomials over it unchanged, and
unipoly.least_root_degree gives the least degree of a point over it.

The decision starts from the rational scan and decomposes only when that
scan finds no rational singular point.  Every V(system) in the recursion
lies inside the singular locus (a gcd d of a and b has d | a and d | b),
so no branch contains a rational point: a one-dimensional branch scans
its fibres from GF(q^2) up, and a line restriction never needs its point
at s = 0.

Each branch returns the least extension degree of a point in it, or
None; every branch is exact, so the verdict's degree is the least.  A
branch stops at the first degree that nothing left in it can undercut.

Plain point enumeration over GF(q^m) is also provided; it is the oracle
the exact path is tested against at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import plane, unipoly
from .curve import PlaneCurve, exact_divide, lift_curve, singular_rational_points
from .field import _FieldOps


@dataclass(frozen=True)
class NonsingularityVerdict:
    """The singular-locus decision over the algebraic closure, as a verdict.

    status is "nonsingular" or "singular"; a singular verdict carries the
    least extension degree of a singular point, exactly, and a rational
    one when there is one.
    """

    status: str
    witness_degree: Optional[int] = None
    witness_point: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "witness_degree": self.witness_degree,
            "witness_point": (
                plane.point_to_string(self.witness_point) if self.witness_point else None
            ),
        }


class _Split(Exception):
    """A zero divisor was found; carries a proper monic factor of the modulus."""

    def __init__(self, factor):
        super().__init__("modulus split")
        self.factor = factor


class _QuotRing(_FieldOps):
    """GF(q)[y] / (u) for a monic u that may be reducible.

    Elements are coded like a tower's (base-q digits are the coordinates
    in 1, y, ..., y^(deg u - 1)) and multiply through _FieldOps'
    reduction by u.  Inversion reports zero divisors by raising _Split.
    """

    def __init__(self, base, modulus):
        self._init_quotient(base, modulus)

    def reduce(self, poly):
        """The code of a GF(q)[y] polynomial's residue mod u."""
        return self._undigits(unipoly.mod(self.base, poly, self.modulus))

    def inv(self, a):
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero in quotient ring")
        d, s, _ = unipoly.xgcd(self.base, unipoly.trim(self._digits(a)), self.modulus)
        if unipoly.deg(d) > 0:
            raise _Split(d)
        return self.reduce(s)


# gcds and coefficient layouts of PlaneCurves -----------------------------


def _tri_strip_z(terms):
    a = min(k for (_, _, k) in terms)
    if a == 0:
        return 0, terms
    return a, {(i, j, k - a): c for (i, j, k), c in terms.items()}


def _grouped(ctx, terms, outer, inner):
    """Terms as a list over the exponent of variable ``outer`` of unipolys
    in variable ``inner`` (0, 1, 2 for X, Y, Z); the third is set to 1."""
    top = max(exps[outer] for exps in terms)
    out: list[list[int]] = [[] for _ in range(top + 1)]
    for exps, c in terms.items():
        poly, i = out[exps[outer]], exps[inner]
        while len(poly) <= i:
            poly.append(0)
        poly[i] = ctx.add(poly[i], c)
    return [unipoly.trim(p) for p in out]


def _bivariate_to_tri(ctx, coeffs):
    """Homogenize a primitive bivariate gcd back to trivariate terms."""
    total = 0
    for j, poly in enumerate(coeffs):
        if poly:
            total = max(total, j + unipoly.deg(poly))
    terms = {}
    for j, poly in enumerate(coeffs):
        for i, c in enumerate(poly):
            if c:
                terms[(i, j, total - i - j)] = c
    return terms


def _bi_divide_content(ctx, coeffs, cont):
    out = []
    for poly in coeffs:
        if not poly:
            out.append([])
        else:
            quo, rem = unipoly.divmod_(ctx, poly, cont)
            if rem:
                raise RuntimeError("content division must be exact")
            out.append(quo)
    return out


def _bi_primitive(ctx, coeffs):
    cont = unipoly.gcd_all(ctx, coeffs)
    if unipoly.deg(cont) == 0:
        return [list(p) for p in coeffs]
    return _bi_divide_content(ctx, coeffs, cont)


def _bi_pseudo_rem(ctx, f, g):
    """Pseudo remainder of f by g in (GF[x])[y]."""
    dg = len(g) - 1
    lead = g[-1]
    while len(f) - 1 >= dg:
        top = f[-1]
        shift = len(f) - 1 - dg
        f = [unipoly.mul(ctx, p, lead) for p in f]
        for i, b in enumerate(g):
            f[shift + i] = unipoly.sub(ctx, f[shift + i], unipoly.mul(ctx, top, b))
        while f and not f[-1]:
            f.pop()
    return f


def _bi_gcd(ctx, f, g):
    """Primitive-part Euclidean gcd in (GF[x])[y]; last entries nonzero."""
    cf, cg = unipoly.gcd_all(ctx, f), unipoly.gcd_all(ctx, g)
    f, g = _bi_primitive(ctx, f), _bi_primitive(ctx, g)
    while True:
        if len(g) == 1:
            # gcd of primitive parts is a content-level question now
            pp = [[1]]
            break
        r = _bi_pseudo_rem(ctx, f, g)
        if not any(r):
            pp = g
            break
        f, g = g, _bi_primitive(ctx, r)
    cont = unipoly.gcd(ctx, cf, cg)
    if unipoly.deg(cont) >= 1:
        return [unipoly.mul(ctx, p, cont) for p in pp]
    return pp


def tri_gcd(a: PlaneCurve, b: PlaneCurve) -> PlaneCurve:
    """Gcd of two curves over one field, up to a scalar; degree 0 when
    they are coprime."""
    ctx = a.ctx
    za, sa = _tri_strip_z(a.terms)
    zb, sb = _tri_strip_z(b.terms)
    # Z-stripped, so the form is a polynomial in y over GF(q)[x]
    g = _bi_gcd(ctx, _grouped(ctx, sa, 1, 0), _grouped(ctx, sb, 1, 0))
    terms = _bivariate_to_tri(ctx, g)
    zshift = min(za, zb)
    if zshift:
        terms = {(i, j, k + zshift): c for (i, j, k), c in terms.items()}
    # homogeneous, so any one term gives the degree
    return PlaneCurve(ctx, sum(next(iter(terms))), terms)


# the decision procedure ----------------------------------------------------


def _least(*degrees):
    """The least of the degrees that are not None, or None."""
    found = [e for e in degrees if e is not None]
    return min(found) if found else None


def _restrict_line_case(ctx, system, line):
    """Least degree of a point of V(system) on one rational line, or None."""
    # dehomogenizing drops (s:t) = (0:1), the rational point q_pt, which
    # V(system) does not contain
    p_pt, q_pt = plane.span(ctx, line)
    forms = [member.restrict(p_pt, q_pt) for member in system]
    g = unipoly.gcd_all(ctx, [unipoly.trim(list(form)) for form in forms if any(form)])
    if unipoly.deg(g) == 0:
        return None
    return unipoly.least_root_degree(ctx, g, ctx.q)


def _interp_field(ctx, npoints: int):
    """ctx or the smallest tower extension with at least npoints elements."""
    if ctx.q >= npoints:
        return ctx
    m = 2
    while ctx.q ** m < npoints:
        m += 1
    return ctx.extension(m)


def _eliminate_pair(ctx, a, b):
    """Nonzero r(y) over ctx whose roots cover the y-coordinates of
    V(A, B) in the chart X = 1, for a coprime pair A, B."""
    # S(1, y, z) as a list over z-degree of y-unipolys
    za_polys = _grouped(ctx, a.terms, 2, 1)
    zb_polys = _grouped(ctx, b.terms, 2, 1)
    za, zb = len(za_polys) - 1, len(zb_polys) - 1
    if za == 0:
        return list(za_polys[0])
    if zb == 0:
        return list(zb_polys[0])
    nsamples = za * b.degree + zb * a.degree + 1
    lead_a, lead_b = za_polys[za], zb_polys[zb]
    bad_bound = unipoly.deg(lead_a) + unipoly.deg(lead_b)
    field = _interp_field(ctx, nsamples + bad_bound + 1)
    xs, ys = [], []
    for y0 in range(field.q):
        if unipoly.eval_at(field, lead_a, y0) == 0:
            continue
        if unipoly.eval_at(field, lead_b, y0) == 0:
            continue
        fa = unipoly.trim([unipoly.eval_at(field, p, y0) for p in za_polys])
        fb = unipoly.trim([unipoly.eval_at(field, p, y0) for p in zb_polys])
        xs.append(y0)
        ys.append(unipoly.resultant(field, fa, fb))
        if len(xs) == nsamples:
            break
    if len(xs) < nsamples:
        raise RuntimeError("not enough interpolation points (field too small)")
    r_ext = unipoly.interpolate(field, xs, ys)
    r = []
    for c in r_ext:
        if c >= ctx.q:
            raise RuntimeError("resultant did not descend to the base field")
        r.append(c)
    return unipoly.trim(r)


def _chart_candidates(ctx, system, a, b):
    """Least degree of a point of V(system) in the chart X = 1, or None."""
    r = _eliminate_pair(ctx, a, b)
    if not r:
        raise RuntimeError("coprime pair eliminated to the zero polynomial")
    if unipoly.deg(r) == 0:
        return None
    pieces = unipoly.distinct_degree_pieces(ctx, r)
    chart_all = [_grouped(ctx, member.terms, 2, 1) for member in system]
    best = None
    for e in sorted(pieces):
        if best is not None and best <= e:
            break  # every point over a degree-e piece has degree >= e
        worklist = [pieces[e]]
        while worklist:
            u = worklist.pop()
            try:
                best = _least(best, _ring_candidates(ctx, chart_all, u, e))
            except _Split as sp:
                quo, rem = unipoly.divmod_(ctx, u, sp.factor)
                if rem:
                    raise RuntimeError("split factor must divide the modulus")
                worklist.append(sp.factor)
                worklist.append(quo)
    return best


def _ring_candidates(ctx, chart_all, u, e):
    """Least degree e*f of a point of the chart system over the residue
    fields GF(q^e) of GF(q)[y]/(u), or None; raises _Split on a zero
    divisor."""
    ring = _QuotRing(ctx, u)
    g = unipoly.gcd_all(ring, (unipoly.trim([ring.reduce(p) for p in chart])
                               for chart in chart_all))
    if not g:
        raise RuntimeError("entire system vanished on a candidate modulus")
    if unipoly.deg(g) == 0:
        return None
    # a root of degree f over the residue fields GF(q^e) has degree e*f
    return e * unipoly.least_root_degree(ring, g, ctx.q ** e)


def _curve_min_degree(ctx, cur):
    """Least degree of a point of the curve V(cur), a one-dimensional branch.

    The line X = 0 gives a first bound.  A point off it of degree D is
    (1 : y0 : z) with y0 in GF(q^D) and z a root of the fibre F(1, y0, z)
    in GF(q^D), so a scan of the fibres over GF(q^a), a = 2, 3, ..., finds
    it at level D at the latest and can stop at the first level that the
    best degree found does not exceed.  No fibre is zero: each passes
    through the rational point (0:0:1), which V(cur) does not contain.
    """
    best = _restrict_line_case(ctx, [cur], (1, 0, 0))
    if best is None:
        raise RuntimeError("a positive-degree curve must meet the line X = 0")
    fibre = _grouped(ctx, cur.terms, 2, 1)
    a = 2
    while a < best:
        field = ctx.extension(a)
        for y0 in range(field.q):
            f = unipoly.trim([unipoly.eval_at(field, p, y0) for p in fibre])
            if unipoly.deg(f) >= 1:
                best = min(best, a * unipoly.least_root_degree(field, f, field.q))
            if best == a:
                return a
        a += 1
    return best


def _decompose(ctx, system):
    """Least degree of a point of V(system), or None."""
    if any(f.degree == 0 for f in system):
        return None
    if len(system) == 1:
        return _curve_min_degree(ctx, system[0])
    linear = next((f for f in system if f.degree == 1), None)
    if linear is not None:
        line = _linear_to_triple(ctx, linear.terms)
        rest = [f for f in system if f is not linear]
        return _restrict_line_case(ctx, rest, line)
    a, b = sorted(system, key=lambda f: f.degree)[:2]
    rest = [f for f in system if f is not a and f is not b]
    d = tri_gcd(a, b)
    if d.degree >= 1:
        return _least(_decompose(ctx, [d] + rest),
                      _decompose(ctx, [exact_divide(a, d), exact_divide(b, d)] + rest))
    # coprime pair: finitely many common zeros
    return _least(_restrict_line_case(ctx, system, (1, 0, 0)),
                  _chart_candidates(ctx, system, a, b))


def _linear_to_triple(ctx, terms):
    a = terms.get((1, 0, 0), 0)
    b = terms.get((0, 1, 0), 0)
    c = terms.get((0, 0, 1), 0)
    return plane.normalize(ctx, (a, b, c))


def decide_singular_locus(curve: PlaneCurve, rational=None) -> NonsingularityVerdict:
    """Nonsingularity over the algebraic closure: "nonsingular" when the
    singular locus is empty, otherwise "singular" at its least extension
    degree.  ``rational`` is singular_rational_points(curve), when already
    known.

    No extension-degree budget is needed: the least singular degree is at
    most max(1, d(d-1)/2).  A reduced curve of degree d has at most
    d(d-1)/2 singular points, so a Frobenius orbit of them has degree
    <= d(d-1)/2; a non-reduced curve is singular along a component of
    degree e <= d/2, which every rational line meets in points of degree
    <= e.
    """
    ctx = curve.ctx
    system = [curve] + [p for p in curve.partials() if p is not None]
    # cheap first: rational singular points double as degree-1 witnesses
    rational = singular_rational_points(curve) if rational is None else rational
    if rational:
        return NonsingularityVerdict("singular", 1, rational[0])
    best = _decompose(ctx, system)
    if best is None:
        return NonsingularityVerdict("nonsingular")
    if best == 1:
        # the decomposition claims a rational witness the scan should have seen
        raise RuntimeError("inconsistent rational-witness bookkeeping")
    return NonsingularityVerdict("singular", best)


def singular_points_over_extension(curve: PlaneCurve, m: int):
    """All singular points of the curve with coordinates in GF(q^m), found
    by plain enumeration; the test oracle for the exact path."""
    ctx = curve.ctx
    field = ctx if m == 1 else ctx.extension(m)
    cur = curve if m == 1 else lift_curve(curve, field)
    parts = [p for p in cur.partials() if p is not None]
    found = []
    for point in plane.enumerate_points(field):
        if cur.evaluate(point) == 0 and all(p.evaluate(point) == 0 for p in parts):
            found.append(point)
    return found, field
