"""Exhaustive and seeded-random exploration of curve coefficient space.

Coefficient vectors follow the canonical monomial order (ascending lex on
exponent triples); the scalar redundancy is killed by fixing the first
nonzero coefficient to 1 in exhaustive mode.

Batches are counted by one exact kernel for every q = p^k: a coefficient
becomes its k base-p digits and a GF(q) value v the k x k GF(p) matrix of
multiplication by v, so evaluating a batch at every point, restricting it
to a line, or combining basis vectors is one float64 matmul reduced
mod p.  The linear-component filter reads each line's points off the
counts' membership matrix.  An engine depends only on (field, degree), so a
small bounded cache reuses it across searches.  The witnesses a record
keeps (at most witness_cap) are re-verified before they enter it, all in
one call of count_exact: a numpy fold of GF(q) codes through the field's
own add and mul tables, in row slices, that shares no table with the engine.

A search is one pipeline over blocks of at most _CHUNK uint8 rows, drawn
lazily in seed order and processed as they arrive, by a thread pool at most
2 * workers blocks ahead when workers > 1.  The histogram and the best-N
rows are running state, so memory does not grow with the sample count.

Records carry the seed, the generator identifier and the full parameters,
so a run can be replayed bit for bit, whatever the worker count.

singular_constraint_basis and random_singular_instances live in analysis,
which needs no numpy; search imports them back for constrained_random and
for callers that name them from search.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import islice
from math import comb
from typing import Optional

import numpy as np

from . import plane
from .analysis import random_singular_instances, singular_constraint_basis
from .curve import PlaneCurve, monomials, restriction_map

GENERATOR_ID = "numpy-pcg64"
ENGINE_ID = "numpy-gfp-linear-float64"
_CHUNK = 1 << 14
# elements in one transient matmul product or fold; larger batches are
# processed in row slices of at most this size.
_SLICE = 1 << 14
_Q_MAX = 256  # coefficient rows are uint8 codes


@dataclass(frozen=True)
class SearchTask:
    """One search over curves of fixed degree above a fixed field."""

    ctx: object
    degree: int
    mode: str  # "exhaustive" | "random" | "constrained_random"
    seed: Optional[int] = None
    n_samples: Optional[int] = None
    require_no_linear_component: bool = False
    singular_at: Optional[tuple] = None  # constrained_random only
    budget: int = 10 ** 7
    witness_cap: int = 64

    def n_monomials(self) -> int:
        return (self.degree + 1) * (self.degree + 2) // 2

    def canonical_count(self) -> int:
        q = self.ctx.q
        return (q ** self.n_monomials() - 1) // (q - 1)


@dataclass
class SearchRecord:
    """Outcome of a search; reproducible from (parameters, seed)."""

    q: int
    degree: int
    mode: str
    seed: Optional[int]
    generator: str
    engine: str
    curves_examined: int = 0
    discarded_linear: int = 0
    discarded_zero: int = 0
    histogram: dict = field(default_factory=dict)
    best_N: Optional[int] = None
    witnesses: list = field(default_factory=list)
    witness_cap: int = 64
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["histogram"] = {str(k): v for k, v in sorted(self.histogram.items())}
        out["witnesses"] = [sorted(w.terms.items()) for w in self.witnesses]
        return out


def _gfp_tables(ctx):
    """(digits, mul), both float64: digits[v] holds the k base-p digits of
    code v, and mul[v, j, i] is digit i of v * p**j, the entry (i, j) of
    the GF(p) matrix of multiplication by v."""
    p, q = ctx.char, ctx.q
    k, rest = 0, q - 1  # p^k - 1 has k base-p digits
    while rest:
        k, rest = k + 1, rest // p
    powers = p ** np.arange(k)
    digits = (np.arange(q)[:, None] // powers) % p
    prods = np.array([[ctx.mul(v, int(b)) for b in powers] for v in range(q)])
    return digits.astype(np.float64), digits[prods].astype(np.float64)


def _lift(mul, table) -> np.ndarray:
    """The GF(p) matrix of the GF(q)-linear map with the given a x b code
    table: row a*k + j takes digit j of input a, column b*k + i gives
    digit i of output b."""
    t = mul[np.asarray(table)]
    a, b, k = t.shape[:3]
    return t.transpose(0, 2, 1, 3).reshape(a * k, b * k)


def _slices(n_rows: int, width: int):
    step = max(1, _SLICE // width)
    return (slice(s, s + step) for s in range(0, n_rows, step))


def _products(digits, p: int, codes: np.ndarray, lifted: np.ndarray):
    """(rows, digits(codes[rows]) @ lifted mod p) over row slices."""
    for rows in _slices(codes.shape[0], lifted.shape[1]):
        prod = digits[codes[rows]].reshape(-1, lifted.shape[0]) @ lifted
        yield rows, np.remainder(prod, p, out=prod)


class _Engine:
    """Vectorized exact point counting for batches of coefficient vectors.

    Every table is lifted to GF(p) (see _lift), so one float64 matmul mod
    p serves every q; a GF(q) value is zero when all k of its digits are.
    The matmul is exact: an entry sums n_monomials * k products of digits,
    at most n_monomials * k * (p-1)^2 < 2^53 for q <= 256 and d < 10^5.

    A line divides a curve only if all q+1 of its points lie on the curve.
    For d <= q the converse holds too: the restriction to the line is a
    binary form of degree d, and a nonzero one has at most d roots on
    P^1(F_q).  For d > q, write the restriction to the line s*a + t*b,
    (a, b) = plane.span, as g = sum g_i s^(d-i) t^i.  If g vanishes on
    P^1(F_q) then g = (s^q t - s t^q) G with deg G = d-q-1, and G's
    coefficients map onto g_1 .. g_(d-q) by a unitriangular matrix.  So
    the line divides the curve exactly when all its points lie on it and
    g_1 = ... = g_(d-q) = 0, and only those d-q coefficients are computed,
    for the rows that hold the whole line.
    """

    def __init__(self, ctx, degree: int):
        self.ctx = ctx
        self.degree = degree
        self.p = ctx.char
        self.digits, self.mul = _gfp_tables(ctx)
        self.k = self.digits.shape[1]
        singles = [PlaneCurve(ctx, degree, {m: 1}) for m in monomials(degree)]
        points = plane.enumerate_points(ctx)
        self.point_map = _lift(self.mul, [[f.evaluate(pt) for pt in points] for f in singles])

    @cached_property
    def line_tables(self):
        """(line_points, rest_maps), built on first use: column l of
        line_points holds line l's q+1 point indices; rest_maps, for d > q
        only, lifts columns 1 .. d-q of each line's restriction map."""
        pl = plane.get_plane(self.ctx)
        d, q = self.degree, self.ctx.q
        rest_maps = None
        if d > q:
            rest = (np.asarray(restriction_map(self.ctx, d, line)) for line in pl.lines)
            rest_maps = [_lift(self.mul, r[:, 1:d - q + 1]) for r in rest]
        return np.array(pl.points_on, dtype=np.intp).T, rest_maps

    def _vanishing(self, coeffs: np.ndarray, lifted: np.ndarray) -> np.ndarray:
        """Entry (r, c): the c-th GF(q) output of row r is zero."""
        out = np.empty((coeffs.shape[0], lifted.shape[1] // self.k), dtype=bool)
        for rows, prod in _products(self.digits, self.p, coeffs, lifted):
            out[rows] = ~prod.reshape(prod.shape[0], -1, self.k).any(axis=2)
        return out

    def counts(self, coeffs: np.ndarray):
        """Rational point count of each row, and the row-by-point
        membership matrix it is read from."""
        on = self._vanishing(coeffs, self.point_map)
        return on.sum(axis=1), on

    def linear_flags(self, coeffs: np.ndarray, on: np.ndarray) -> np.ndarray:
        """True where the curve has an F_q-linear component; on is the
        membership matrix from counts."""
        line_points, rest_maps = self.line_tables
        full = on[:, line_points[0]]  # entry (r, l): line l lies on curve r so far
        for col in line_points[1:]:
            full &= on[:, col]
        if rest_maps is None:  # d <= q: the point test is exact
            return full.any(axis=1)
        flags = np.zeros(coeffs.shape[0], dtype=bool)
        for li, rest in enumerate(rest_maps):
            rows = np.nonzero(full[:, li] & ~flags)[0]
            flags[rows] = self._vanishing(coeffs[rows], rest).all(axis=1)
        return flags


# one engine per (field, degree), reused across searches; equal contexts share it
_engine = lru_cache(maxsize=8)(_Engine)


def count_exact(ctx, degree: int, rows) -> list[int]:
    """Rational point count of each coefficient row: the re-verification
    of engine counts, which reads nothing of _Engine.

    Every monomial is evaluated at every point from the field's mul table;
    then, in row slices, each row's terms are summed through the add table
    and its zero sums counted.  Codes may be Python or numpy integers.
    """
    q = ctx.q
    if q > _Q_MAX:
        raise ValueError(f"count_exact needs q <= {_Q_MAX} (a tabled field), got q = {q}")
    monos = monomials(degree)
    codes = [[ctx.check(c.item() if isinstance(c, np.integer) else c)
              for c in np.asarray(row, dtype=object).tolist()] for row in rows]
    if any(len(row) != len(monos) or not any(row) for row in codes):
        raise ValueError(f"a row needs {len(monos)} codes, not all zero")
    if not codes:
        return []
    mul_t = np.array(ctx._mul_t, dtype=np.uint8).reshape(q, q)
    points = np.array(plane.enumerate_points(ctx), dtype=np.uint8).T
    pows = np.ones((degree + 1, 3, points.shape[1]), dtype=np.uint8)
    for e in range(degree):
        pows[e + 1] = mul_t[pows[e], points]
    i, j, k = np.array(monos).T
    values = mul_t[pows[i, 0], mul_t[pows[j, 1], pows[k, 2]]]
    add, mul = np.array(ctx._add_t, dtype=np.intp), mul_t.ravel().astype(np.intp)
    coeffs = np.array(codes, dtype=np.intp) * q
    counts = []
    for sl in _slices(len(codes), values.shape[1]):
        sums = 0
        for c, vec in zip(coeffs[sl].T, values):
            sums = add[sums * q + mul[c[:, None] + vec]]
        counts += (sums == 0).sum(axis=1).tolist()
    return counts


def _certify_exhaustive(task: SearchTask, record: SearchRecord) -> None:
    """Check an exhaustive record against closed forms; RuntimeError on a
    mismatch.  With P = q^2+q+1 points and [m] = (q^m - 1)/(q - 1) forms
    in m coefficients: any t <= d+1 distinct points impose independent
    conditions on degree-d forms, so sum_N C(N, t) hist[N] = C(P, t) [n - t]
    (the weight moments of the projective Reed-Muller code).  Distinct lines
    are coprime, so by inclusion-exclusion over s lines the filter discards
    sum_{s=1..d} (-1)^(s+1) C(P, s) [n(d - s)] forms, n(e) = (e+1)(e+2)/2."""
    q, d = task.ctx.q, task.degree
    points = q * q + q + 1

    def forms(m: int) -> int:
        return (q ** m - 1) // (q - 1)

    if task.require_no_linear_component:
        checks = [("discarded_linear", record.discarded_linear,
                   sum((-1) ** (s + 1) * comb(points, s) * forms((d - s + 1) * (d - s + 2) // 2)
                       for s in range(1, d + 1)))]
    else:
        checks = [(f"sum C(N, {t}) hist[N]",
                   sum(comb(n, t) * times for n, times in record.histogram.items()),
                   comb(points, t) * forms(task.n_monomials() - t)) for t in range(1, d + 2)]
    for name, seen, expected in checks:
        if seen != expected:
            raise RuntimeError(f"exhaustive certificate failed: {name} is {seen}, "
                               f"the closed form gives {expected}")


def _exhaustive_blocks(q: int, n_monos: int):
    """Canonical coefficient vectors in lexicographic blocks of at most
    _CHUNK rows.  The vectors of a block share the leading-one position
    and enumerate the free suffix digits in ascending mixed-radix order."""
    for lead in range(n_monos):
        total = q ** (n_monos - 1 - lead)
        for start in range(0, total, _CHUNK):
            yield _materialize_block(q, n_monos, lead, start, min(start + _CHUNK, total))


def _materialize_block(q: int, n_monos: int, lead: int, start: int, stop: int):
    free = n_monos - 1 - lead
    block = np.zeros((stop - start, n_monos), dtype=np.uint8)
    block[:, lead] = 1
    codes = np.arange(start, stop, dtype=np.int64)
    for pos in range(free):
        block[:, n_monos - 1 - pos] = codes % q
        codes //= q
    return block


def _random_blocks(ctx, n_monos: int, seed: int, n_samples: int, basis):
    """Seeded random coefficient vectors in blocks of at most _CHUNK rows,
    drawn from one generator in block order.  With a basis, each row is a
    random combination of the basis vectors instead."""
    rng = np.random.default_rng(seed)
    width = n_monos if basis is None else len(basis)
    for start in range(0, n_samples, _CHUNK):
        draw = rng.integers(0, ctx.q, size=(min(_CHUNK, n_samples - start), width), dtype=np.int64)
        yield draw.astype(np.uint8) if basis is None else _combine_basis(ctx, basis, draw)


def _in_order(process, blocks, workers: int):
    """process(block) for each block, in block order: in the calling thread
    for one worker, else in a pool, drawing at most 2 * workers blocks ahead."""
    if workers == 1:
        yield from map(process, blocks)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while window := list(islice(blocks, 2 * workers)):
            yield from pool.map(process, window)


def run_search(task: SearchTask, workers: int = 1) -> SearchRecord:
    """Execute a search task, drawing blocks lazily in seed order, at most
    2 * workers ahead; the record does not depend on the worker count."""
    ctx = task.ctx
    q = ctx.q
    if q > _Q_MAX:
        raise ValueError(f"searches need q <= {_Q_MAX} (rows are uint8 codes), got q = {q}")
    if task.degree < 1:
        raise ValueError(f"degree must be >= 1, got {task.degree}")
    if task.witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {task.witness_cap}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if task.singular_at is not None and task.mode != "constrained_random":
        raise ValueError("singular_at is for constrained_random searches only")
    n_monos = task.n_monomials()
    record = SearchRecord(
        q=q, degree=task.degree, mode=task.mode, seed=task.seed,
        generator=GENERATOR_ID if task.mode != "exhaustive" else "exhaustive-lex",
        engine=ENGINE_ID,
        witness_cap=task.witness_cap,
        params={
            "n_samples": task.n_samples,
            "require_no_linear_component": task.require_no_linear_component,
            "singular_at": (plane.point_to_string(plane.normalize(ctx, task.singular_at))
                            if task.singular_at else None),
            "budget": task.budget,
        },
    )

    if task.mode == "exhaustive":
        for name in ("seed", "n_samples"):
            if getattr(task, name) is not None:
                raise ValueError(f"exhaustive searches take no {name}")
        total = task.canonical_count()
        if total > task.budget:
            raise ValueError(f"exhaustive search needs {total} canonical forms, "
                             f"over the budget {task.budget}")
        blocks = _exhaustive_blocks(q, n_monos)

    elif task.mode in ("random", "constrained_random"):
        if task.seed is None or task.n_samples is None:
            raise ValueError("random modes need a seed and a sample count")
        if task.n_samples < 1:
            raise ValueError(f"random modes need at least one sample, got {task.n_samples}")
        if task.n_samples > task.budget:
            raise ValueError("sample count exceeds the budget")
        nullbasis = None
        if task.mode == "constrained_random":
            if task.singular_at is None:
                raise ValueError("constrained_random needs the singular point")
            if task.degree < 2:
                raise ValueError(f"constrained_random needs degree >= 2, got {task.degree}")
            nullbasis = singular_constraint_basis(ctx, task.degree, task.singular_at)
        blocks = _random_blocks(ctx, n_monos, task.seed, task.n_samples, nullbasis)

    else:
        raise ValueError(f"unknown search mode {task.mode!r}")

    engine = _engine(ctx, task.degree)
    if task.require_no_linear_component:
        engine.line_tables  # built once, here, before any block is dispatched

    def process(coeffs):
        nonzero = coeffs.any(axis=1)
        zero_dropped = int((~nonzero).sum())
        coeffs = coeffs[nonzero]
        counts, on = engine.counts(coeffs)
        lin_dropped = 0
        if task.require_no_linear_component:
            keep = ~engine.linear_flags(coeffs, on)
            lin_dropped = int(keep.size - keep.sum())
            coeffs, counts = coeffs[keep], counts[keep]
        if counts.size == 0:
            return zero_dropped, lin_dropped, {}, None, []
        hist = {int(v): int(t) for v, t in zip(*np.unique(counts, return_counts=True))}
        best = int(counts.max())
        rows = coeffs[np.nonzero(counts == best)[0][: task.witness_cap]]
        return zero_dropped, lin_dropped, hist, best, rows

    best_rows: list = []
    for zero_dropped, lin_dropped, hist, best, rows in _in_order(process, blocks, workers):
        record.discarded_zero += zero_dropped
        record.discarded_linear += lin_dropped
        for value, times in hist.items():
            record.histogram[value] = record.histogram.get(value, 0) + times
        record.curves_examined += sum(hist.values())
        if best is None:
            continue
        if record.best_N is None or best > record.best_N:
            record.best_N = best
            best_rows = list(rows)
        elif best == record.best_N and len(best_rows) < task.witness_cap:
            best_rows.extend(rows[: task.witness_cap - len(best_rows)])

    if task.mode == "exhaustive":
        _certify_exhaustive(task, record)
    verified = count_exact(ctx, task.degree, best_rows)
    if verified != [record.best_N] * len(best_rows):
        raise RuntimeError(
            f"witness re-verification failed: engine said {record.best_N} for "
            f"{len(best_rows)} witnesses, exact counts are {verified}"
        )
    monos = monomials(task.degree)
    record.witnesses = [PlaneCurve(ctx, task.degree, {m: int(c) for m, c in zip(monos, row) if c})
                        for row in best_rows]
    return record


def _combine_basis(ctx, basis, combo: np.ndarray) -> np.ndarray:
    """Row r is the sum over b of combo[r, b] * basis[b], as uint8 codes."""
    digits, mul = _gfp_tables(ctx)
    place = (ctx.char ** np.arange(digits.shape[1])).astype(np.float64)
    out = np.empty((combo.shape[0], len(basis[0])), dtype=np.uint8)
    for rows, prod in _products(digits, ctx.char, combo, _lift(mul, basis)):
        out[rows] = prod.reshape(prod.shape[0], -1, len(place)) @ place
    return out
