"""Every point-count bound, per-curve verdicts, and projective equivalence.

Bound values for a pair (q, d):

  sziklai        (d-1)q + 1        conjectured bound, one exceptional curve
  previous       d(q-1) + 2        earlier proven bound
  segre          (d-1)q + floor(d/2)
  stohr_voloch   floor(d(d+q-1)/2) for Frobenius-classical curves
  hefez_voloch   d(q-d+2)          an exact equality for nonclassical curves
  weil           q + 1 + (d-1)(d-2) sqrt(q), floor recorded
  trivial        q^2 + q + 1       all of the plane

Verdicts never use floating point: the Weil comparison squares both sides.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace
from typing import Optional

from . import analysis, linalg, plane
from .curve import PlaneCurve

# the rationals as a linalg field context, for the step-3 system
_RATIONALS = SimpleNamespace(
    add=operator.add, sub=operator.sub, mul=operator.mul, neg=operator.neg,
    inv=lambda a: 1 / Fraction(a))


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next(f for f in range(2, q + 1) if q % f == 0)  # least divisor: prime
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def weil_floor(q: int, d: int) -> int:
    """floor(q + 1 + (d-1)(d-2) sqrt(q)) in exact integer arithmetic."""
    c = (d - 1) * (d - 2)
    return q + 1 + isqrt(c * c * q)


def weil_holds(n: int, q: int, d: int) -> bool:
    """N <= q + 1 + (d-1)(d-2) sqrt(q), compared without floating point."""
    lhs = n - q - 1
    if lhs <= 0:
        return True
    c = (d - 1) * (d - 2)
    return lhs * lhs <= c * c * q


@dataclass(frozen=True)
class BoundReport:
    """All bound values for (q, d), with per-curve verdicts when known."""

    q: int
    d: int
    values: dict
    N: Optional[int] = None
    flags: Optional[dict] = None
    verdicts: Optional[dict] = None
    exceptional: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "q": self.q,
            "d": self.d,
            "values": dict(self.values),
            "exceptional": self.exceptional,
        }
        if self.N is not None:
            out["N"] = self.N
        if self.flags is not None:
            out["flags"] = dict(self.flags)
        if self.verdicts is not None:
            out["verdicts"] = {k: dict(v) for k, v in self.verdicts.items()}
        return out


def bound_values(q: int, d: int) -> BoundReport:
    """The seven bound values for a prime power q and degree d >= 1."""
    prime_power(q)
    if d < 1:
        raise ValueError("degree must be >= 1")
    values = {
        "sziklai": (d - 1) * q + 1,
        "previous": d * (q - 1) + 2,
        "segre": (d - 1) * q + d // 2,
        "stohr_voloch": d * (d + q - 1) // 2,
        "hefez_voloch": d * (q - d + 2),
        "weil": weil_floor(q, d),
        "trivial": q * q + q + 1,
    }
    return BoundReport(q=q, d=d, values=values)


def bound_verdicts(curve: PlaneCurve) -> BoundReport:
    """Classify the curve and judge every bound against its point count.

    Each verdict carries the bound value, an "applicable" flag derived
    from the classification (linear components, rational singularities,
    geometric nonsingularity, Frobenius classicality), and whether the
    bound's statement holds for this curve.  hefez_voloch is an equality
    statement; all others are upper bounds.
    """
    q = curve.ctx.q
    d = curve.degree
    report = bound_values(q, d)
    counts = analysis.count_points(curve)
    n = counts.N
    nonsing = analysis.is_geometrically_nonsingular(curve, rational=counts.rational_singular)
    no_lin = counts.linear_component is None
    no_rat_sing = not counts.rational_singular
    nonclassical: Optional[bool] = None
    if no_lin and nonsing.status == "nonsingular":
        nonclassical = analysis.is_frobenius_nonclassical(curve)
    flags = {
        "has_linear_component": not no_lin,
        "has_rational_singularity": not no_rat_sing,
        "geometrically_nonsingular": nonsing.status,
        "frobenius_nonclassical": nonclassical,
    }
    conjecture_range = 2 <= d <= q + 1
    nonsingular = nonsing.status == "nonsingular"
    v = report.values
    rules = {  # bound: (applicable, holds)
        "trivial": (True, n <= v["trivial"]),
        "sziklai": (no_lin and conjecture_range, n <= v["sziklai"]),
        "previous": (no_lin and conjecture_range, n <= v["previous"]),
        "segre": (no_lin and conjecture_range, n <= v["segre"]),
        "stohr_voloch": (nonclassical is False, n <= v["stohr_voloch"]),
        "hefez_voloch": (nonclassical is True and nonsingular, n == v["hefez_voloch"]),
        "weil": (nonsingular, weil_holds(n, q, d)),
    }
    verdicts = {
        bound: {"value": v[bound], "applicable": applicable, "holds": holds}
        for bound, (applicable, holds) in rules.items()
    }
    return BoundReport(
        q=q,
        d=d,
        values=report.values,
        N=n,
        flags=flags,
        verdicts=verdicts,
        exceptional=no_lin and is_exceptional_quartic(curve, n),
    )


def is_exceptional_quartic(curve: PlaneCurve, n: int) -> bool:
    """True iff the curve, with n rational points, is projectively
    equivalent to catalog.exceptional_quartic: the one known curve without
    F_q-linear components above Sziklai's bound (q = 4, d = 4, N = 14).
    Ruling out linear components is the caller's part."""
    if (curve.ctx.q, curve.degree, n) != (4, 4, 14):
        return False
    from .catalog import exceptional_quartic

    return equivalent_by_point_frames(curve, exceptional_quartic(curve.ctx)) is not None


def step3_solution(q: int) -> dict:
    """Exact solution of the three-count linear system in a_{q-2}, a_{q-1},
    a_q that arises when every line meets the curve in at least q-2 points
    and the curve has (q-1)q + 2 rational points.

    Solved over the rationals; a_{q-1} comes out to (q-2)(4-q), negative
    for q > 4, which is the contradiction the step needs.
    """
    n = q * q - q + 2
    system = (
        (1, 1, 1),
        (q - 2, q - 1, q),
        (Fraction((q - 2) * (q - 3), 2), Fraction((q - 1) * (q - 2), 2), Fraction(q * (q - 1), 2)),
    )
    counts = (Fraction(q * q + q + 1), Fraction((q + 1) * n), Fraction(n * (n - 1), 2))
    a = linalg.mat_vec(_RATIONALS, linalg.mat_inv(_RATIONALS, system), counts)
    return {
        "a_q_minus_2": a[0],
        "a_q_minus_1": a[1],
        "a_q": a[2],
        "expected_a_q_minus_1": Fraction((q - 2) * (4 - q)),
    }


def pgl_class_count(q: int) -> int:
    return (q ** 3 - 1) * (q ** 3 - q) * (q ** 3 - q * q) // (q - 1)


def projective_equivalent(
    curve_f: PlaneCurve, curve_g: PlaneCurve, budget: int = 10 ** 7
) -> Optional[tuple]:
    """Brute-force witness search over GL(3, q) modulo scalars.

    Returns a matrix M with transform(F, M) equal to G up to scalar, or
    None.  Scalar multiples of earlier matrices are skipped by fixing the
    first nonzero entry of the matrix to 1.  Refuses (ValueError) when the
    number of classes exceeds the budget.
    """
    ctx = curve_f.ctx
    if ctx != curve_g.ctx or curve_f.degree != curve_g.degree:
        raise ValueError("equivalence needs matching field and degree")
    q = ctx.q
    classes = pgl_class_count(q)
    if classes > budget:
        raise ValueError(
            f"PGL(3, {q}) has {classes} classes, over the budget {budget}"
        )
    target = curve_g.canonical()
    all_rows = [
        (a, b, c) for a in range(q) for b in range(q) for c in range(q)
    ][1:]
    for row1 in plane.enumerate_points(ctx):
        for row2 in all_rows:
            if plane.cross(ctx, row1, row2) == (0, 0, 0):
                continue
            for row3 in all_rows:
                mat = (row1, row2, row3)
                if linalg.det3(ctx, mat) == 0:
                    continue
                if curve_f.transform(mat).canonical().terms == target.terms:
                    return mat
    return None


def _find_frame(ctx, points):
    """Four points, no three collinear, from the given point list."""
    return next(
        (combo for combo in itertools.combinations(points, 4)
         if plane.collinear_triple(ctx, combo) is None),
        None,
    )


def _frame_matrix(ctx, frame):
    """The matrix sending e1, e2, e3, (1,1,1) to the four frame points.
    In a frame p4 lies on no side of the triangle p1 p2 p3, so every
    coordinate of lam is nonzero."""
    p1, p2, p3, p4 = frame
    cols = (p1, p2, p3)
    rows = tuple(tuple(cols[c][r] for c in range(3)) for r in range(3))
    lam = linalg.mat_vec(ctx, linalg.mat_inv(ctx, rows), p4)
    return tuple(
        tuple(ctx.mul(lam[c], cols[c][r]) for c in range(3)) for r in range(3)
    )


def equivalent_by_point_frames(
    curve_f: PlaneCurve, curve_g: PlaneCurve
) -> Optional[tuple]:
    """Witness search driven by rational point sets.

    Any witness must map the rational points of G bijectively onto those
    of F, and is determined by the images of four points in general
    position; all such images are tried.  Complete whenever G's points
    contain a frame, which holds for every curve this project feeds it.
    """
    ctx = curve_f.ctx
    if ctx != curve_g.ctx or curve_f.degree != curve_g.degree:
        raise ValueError("equivalence needs matching field and degree")
    pts_f = analysis.rational_points(curve_f)
    pts_g = analysis.rational_points(curve_g)
    if len(pts_f) != len(pts_g):
        return None
    frame_g = _find_frame(ctx, pts_g)
    if frame_g is None:
        raise ValueError("point set of the target carries no frame")
    m_g_inv = linalg.mat_inv(ctx, _frame_matrix(ctx, frame_g))
    f_set = set(pts_f)
    others = [p for p in pts_g if p not in set(frame_g)]
    for combo in itertools.permutations(pts_f, 4):
        if plane.collinear_triple(ctx, combo) is not None:
            continue
        cand = linalg.mat_mul(ctx, _frame_matrix(ctx, combo), m_g_inv)
        ok = True
        for gp in others:
            image = linalg.mat_vec(ctx, cand, gp)
            if image == (0, 0, 0) or plane.normalize(ctx, image) not in f_set:
                ok = False
                break
        if ok and curve_f.transform(cand).scalar_equal(curve_g):
            return cand
    return None
