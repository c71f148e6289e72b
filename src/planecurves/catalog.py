"""Deterministic generators for the named extremal curves.

Each entry builds the exact curve from closed-form exponents (no parsing
involved), states where it applies, and knows its expected rational point
count as a function of q, so the claimed equalities are executable
fixtures.  Degree q+2 curves filling the whole plane have no generator
here; verify_catalog still emits their expected count q^2 + q + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Optional

from . import analysis
from .curve import PlaneCurve
from .field import FiniteField


def _is_square(q: int) -> bool:
    r = isqrt(q)
    return r * r == q


def exceptional_quartic(ctx) -> PlaneCurve:
    """The 14-point quartic over GF(4): X^4 + Y^4 + Z^4 + X^2Y^2 + Y^2Z^2
    + Z^2X^2 + X^2YZ + XY^2Z + XYZ^2."""
    if ctx.q != 4:
        raise ValueError("the exceptional quartic lives over GF(4)")
    exps = [
        (4, 0, 0), (0, 4, 0), (0, 0, 4),
        (2, 2, 0), (0, 2, 2), (2, 0, 2),
        (2, 1, 1), (1, 2, 1), (1, 1, 2),
    ]
    return PlaneCurve(ctx, 4, {e: 1 for e in exps})


def _deg_q_plus_1(ctx) -> PlaneCurve:
    q = ctx.q
    neg = ctx.neg(1)
    return PlaneCurve(
        ctx,
        q + 1,
        {
            (q + 1, 0, 0): 1,
            (2, 0, q - 1): neg,
            (0, q, 1): 1,
            (0, 1, q): neg,
        },
    )


def _deg_q(ctx) -> PlaneCurve:
    q = ctx.q
    neg = ctx.neg(1)
    return PlaneCurve(
        ctx,
        q,
        {
            (q, 0, 0): 1,
            (1, 0, q - 1): neg,
            (0, q - 1, 1): 1,
            (0, 0, q): neg,
        },
    )


def _deg_q_minus_1(ctx, alpha: int = None, beta: int = None) -> PlaneCurve:
    q = ctx.q
    if alpha is None:
        alpha = 1
    if beta is None:
        beta = 1 if ctx.char != 2 else 2
    for key, val in (("alpha", alpha), ("beta", beta)):
        if not (type(val) is int and 0 <= val < q):
            raise ValueError(f"deg_q_minus_1 parameter {key!r} must be an element "
                             f"code in [0, {q}), got {val!r}")
    s = ctx.add(alpha, beta)
    if alpha == 0 or beta == 0 or s == 0:
        raise ValueError("parameters need alpha * beta * (alpha + beta) != 0")
    return PlaneCurve(
        ctx,
        q - 1,
        {
            (q - 1, 0, 0): alpha,
            (0, q - 1, 0): beta,
            (0, 0, q - 1): ctx.neg(s),
        },
    )


def _hermitian(ctx) -> PlaneCurve:
    r = isqrt(ctx.q)
    return PlaneCurve(
        ctx, r + 1, {(r + 1, 0, 0): 1, (0, r + 1, 0): 1, (0, 0, r + 1): 1}
    )


def _smooth_conic(ctx) -> PlaneCurve:
    return PlaneCurve(ctx, 2, {(0, 1, 1): 1, (2, 0, 0): ctx.neg(1)})


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    degree: int | str  # a fixed degree, or its rule in q
    applicable: Callable[[int], Optional[str]]  # None, or the reason it is not
    expected_count: Callable[[int], int]
    build: Callable  # build(ctx, **params), params among ``params``
    params: tuple[str, ...] = ()


CATALOG: dict[str, CatalogEntry] = {
    "exceptional_quartic": CatalogEntry(
        name="exceptional_quartic",
        summary="the unique (up to equivalence) 14-point quartic over GF(4)",
        degree=4,
        applicable=lambda q: None if q == 4 else "requires q = 4",
        expected_count=lambda q: 14,
        build=exceptional_quartic,
    ),
    "deg_q_plus_1": CatalogEntry(
        name="deg_q_plus_1",
        summary="degree q+1 curve with q^2 + 1 rational points",
        degree="q+1",
        applicable=lambda q: None,
        expected_count=lambda q: q * q + 1,
        build=_deg_q_plus_1,
    ),
    "deg_q": CatalogEntry(
        name="deg_q",
        summary="degree q curve attaining (q-1)q + 1 rational points",
        degree="q",
        applicable=lambda q: None if q >= 2 else "requires q >= 2",
        expected_count=lambda q: (q - 1) * q + 1,
        build=_deg_q,
    ),
    "deg_q_minus_1": CatalogEntry(
        name="deg_q_minus_1",
        summary="degree q-1 curve attaining (q-2)q + 1 rational points",
        degree="q-1",
        applicable=lambda q: None if q >= 3 else "requires q >= 3",
        expected_count=lambda q: (q - 2) * q + 1,
        build=_deg_q_minus_1,
        params=("alpha", "beta"),
    ),
    "hermitian": CatalogEntry(
        name="hermitian",
        summary="Hermitian curve of degree sqrt(q)+1 with q*sqrt(q)+1 points",
        degree="sqrt(q)+1",
        applicable=lambda q: None if _is_square(q) else "requires square q",
        expected_count=lambda q: q * isqrt(q) + 1,
        build=_hermitian,
    ),
    "smooth_conic": CatalogEntry(
        name="smooth_conic",
        summary="smooth conic YZ - X^2 with q + 1 rational points",
        degree=2,
        applicable=lambda q: None,
        expected_count=lambda q: q + 1,
        build=_smooth_conic,
    ),
}


def catalog_curve(name: str, ctx, **params) -> PlaneCurve:
    """Build a catalog curve over the given field, or raise ValueError."""
    if name not in CATALOG:
        raise ValueError(f"unknown catalog entry {name!r}")
    entry = CATALOG[name]
    reason = entry.applicable(ctx.q)
    if reason is not None:
        raise ValueError(f"{name} is not applicable over GF({ctx.q}): {reason}")
    for key in params:
        if key not in entry.params:
            takes = ", ".join(entry.params) if entry.params else "none"
            raise ValueError(f"{name} has no parameter {key!r} (parameters: {takes})")
    return entry.build(ctx, **params)


def context_for(q: int) -> FiniteField:
    from .bounds import prime_power

    p, k = prime_power(q)
    return FiniteField(p, k)


def verify_catalog(q_list, check_nonsingular: bool = True) -> list[dict]:
    """Run every applicable entry over every q and report the checks.

    Each row records the exact count vs the closed form, the absence of
    linear components and rational singular points, the nonsingularity
    verdict, and whether the count sits exactly on (d-1)q + 1.  A row for
    degree q+2 is emitted with its expected count q^2 + q + 1 and no
    generator.
    """
    rows = []
    for q in q_list:
        ctx = context_for(q)
        for name, entry in CATALOG.items():
            if entry.applicable(q) is not None:
                continue
            cur = entry.build(ctx)
            counts = analysis.count_points(cur)
            n = counts.N
            expected = entry.expected_count(q)
            d = cur.degree
            row = {
                "entry": name,
                "q": q,
                "d": d,
                "N": n,
                "expected_N": expected,
                "count_ok": n == expected,
                "no_linear_component": counts.linear_component is None,
                "no_rational_singularity": not counts.rational_singular,
                "sziklai_equality": n == (d - 1) * q + 1,
            }
            if check_nonsingular:
                row["nonsingular"] = analysis.is_geometrically_nonsingular(
                    cur, rational=counts.rational_singular).status
            rows.append(row)
        rows.append(
            {
                "entry": "deg_q_plus_2",
                "q": q,
                "d": q + 2,
                "N": None,
                "expected_N": q * q + q + 1,
                "count_ok": None,
                "note": "generator unavailable; expected count recorded only",
            }
        )
    return rows
