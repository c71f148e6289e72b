"""Homogeneous trivariate polynomials over a finite field.

A PlaneCurve holds a sparse term map {(i, j, k): coeff} with i+j+k equal
to the degree and all coefficients nonzero.  The restriction of a curve
to the line s*P + t*Q, a binary form g(s, t), is the tuple of its d+1
coefficients, entry i that of s^(d-i) t^i: g(1, t) low degree first, as
unipoly reads it.  The zero polynomial is represented by None wherever an
operation can collapse (partials, frobenius_form); PlaneCurve itself
always has a nonzero term.
Restriction to a line and composition with a matrix (restrict, transform)
are one linear substitution, _substitute.  Divisibility (divides,
exact_divide) is division by the leading term in lexicographic order,
over the curves' own field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from . import linalg, plane
from .field import ExtensionField, FiniteField

Exponents = tuple[int, int, int]


@lru_cache(maxsize=None)
def monomials(d: int) -> tuple[Exponents, ...]:
    """All exponent triples of total degree d, ascending lexicographic."""
    out = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            out.append((i, j, d - i - j))
    return tuple(sorted(out))


class PlaneCurve:
    """A plane projective curve F(X, Y, Z) = 0 of degree d >= 1.

    Instances have no __dict__, and a term key that already is a plain
    tuple is kept as given: curves built from the shared ``monomials(d)``
    triples (every search witness) store no exponent tuples of their own.
    """

    __slots__ = ("ctx", "degree", "terms")

    def __init__(self, ctx, degree: int, terms: dict):
        # degree 0 (a nonzero constant) is allowed so that partial
        # derivatives of lines stay representable; the parsers reject it
        if degree < 0:
            raise ValueError("curve degree must be >= 0")
        clean: dict[Exponents, int] = {}
        for exps, coeff in terms.items():
            i, j, k = exps
            if min(i, j, k) < 0:
                raise ValueError(f"negative exponent in term X^{i} Y^{j} Z^{k}")
            if i + j + k != degree:
                raise ValueError(
                    f"inhomogeneous term X^{i} Y^{j} Z^{k}: exponents sum to "
                    f"{i + j + k}, expected {degree}"
                )
            ctx.check(coeff)
            if coeff:
                clean[exps if type(exps) is tuple else (i, j, k)] = coeff
        if not clean:
            raise ValueError("a curve needs at least one nonzero term")
        self.ctx = ctx
        self.degree = degree
        self.terms = clean

    # construction helpers -------------------------------------------------

    @classmethod
    def from_terms(cls, ctx, terms: dict) -> "PlaneCurve":
        if not terms:
            raise ValueError("a curve needs at least one nonzero term")
        degree = sum(next(iter(terms)))
        if degree < 1:
            raise ValueError("curve degree must be >= 1")
        return cls(ctx, degree, terms)

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        return sorted(self.terms.items())

    def canonical(self) -> "PlaneCurve":
        """Scale so the lexicographically first term has coefficient 1."""
        _, lead = self.sorted_terms()[0]
        if lead == 1:
            return self
        s = self.ctx.inv(lead)
        return PlaneCurve(
            self.ctx, self.degree,
            {e: self.ctx.mul(s, c) for e, c in self.terms.items()},
        )

    def scalar_equal(self, other: "PlaneCurve") -> bool:
        return (
            self.ctx == other.ctx
            and self.degree == other.degree
            and self.canonical().terms == other.canonical().terms
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlaneCurve)
            and self.ctx == other.ctx
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.degree, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        body = " + ".join(
            f"{c}*X^{i}Y^{j}Z^{k}" for (i, j, k), c in self.sorted_terms()
        )
        return f"PlaneCurve({self.ctx!r}, {body})"

    # evaluation ------------------------------------------------------------

    def evaluate(self, point) -> int:
        """F at a coordinate triple; zero/nonzero is representative-free."""
        ctx = self.ctx
        x, y, z = (ctx.check(c) for c in point)
        d = self.degree
        xs = ctx.powers(x, d)
        ys = ctx.powers(y, d)
        zs = ctx.powers(z, d)
        acc = 0
        for (i, j, k), c in self.terms.items():
            acc = ctx.add(acc, ctx.mul(c, ctx.mul(xs[i], ctx.mul(ys[j], zs[k]))))
        return acc

    # calculus ----------------------------------------------------------------

    def partials(self) -> tuple[Optional["PlaneCurve"], ...]:
        """(F_X, F_Y, F_Z); identically-zero derivatives come back as None."""
        ctx = self.ctx
        p = ctx.char
        outs = []
        for axis in range(3):
            terms: dict[Exponents, int] = {}
            for exps, c in self.terms.items():
                e = exps[axis]
                mult = e % p
                if mult == 0:
                    continue
                new = list(exps)
                new[axis] = e - 1
                # lowering one exponent is one-to-one, so no two terms meet;
                # mult, a code below p, is a nonzero prime-field element in
                # every context, so the term stays nonzero
                terms[tuple(new)] = ctx.mul(mult, c)
            outs.append(
                PlaneCurve(ctx, self.degree - 1, terms) if terms else None
            )
        return tuple(outs)

    def restrict(self, p_point, q_point) -> tuple:
        """g(s, t) = F(s*P + t*Q) on the line through P, Q as its d+1 coefficients,
        entry i that of s^(d-i) t^i (g(1, t) low degree first); all zero on a component."""
        ctx = self.ctx
        if plane.normalize(ctx, p_point) == plane.normalize(ctx, q_point):
            raise ValueError("restriction needs two distinct points")
        d = self.degree
        # X, Y, Z become P_a*s + Q_a*t; s^(d-i) t^i lands on key (d-i, i, 0)
        terms = _substitute(self, [(a, b, 0) for a, b in zip(p_point, q_point)])
        return tuple(terms.get((d - i, i, 0), 0) for i in range(d + 1))

    def transform(self, matrix) -> "PlaneCurve":
        """F composed with an invertible matrix: result(P) = F(M . P)."""
        ctx = self.ctx
        if not linalg.det3(ctx, matrix):
            raise ValueError("transform needs an invertible matrix")
        return PlaneCurve(ctx, self.degree, _substitute(self, matrix))

    # serialization -----------------------------------------------------------

    def to_text(self) -> str:
        if isinstance(self.ctx, FiniteField):
            header = self.ctx.spec_string()
        else:
            raise ValueError("only curves over FiniteField contexts serialize")
        lines = [header, f"d={self.degree}"]
        lines += [f"{i} {j} {k} {c}" for (i, j, k), c in self.sorted_terms()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PlaneCurve":
        ctx = None
        degree = None
        terms: dict[Exponents, int] = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if ctx is None:
                try:
                    ctx = FiniteField.from_spec(line)
                except ValueError as exc:
                    raise ValueError(f"line {ln}: {exc}") from exc
                continue
            if degree is None:
                if not line.startswith("d="):
                    raise ValueError(f"line {ln}: expected 'd=<degree>', got {line!r}")
                try:
                    degree = int(line[2:])
                except ValueError as exc:
                    raise ValueError(f"line {ln}: bad degree {line[2:]!r}") from exc
                if degree < 1:
                    raise ValueError(f"line {ln}: curve degree must be >= 1")
                continue
            try:
                i, j, k = _add_term(terms, line)
                ctx.check(terms[(i, j, k)])
            except ValueError as exc:
                raise ValueError(f"line {ln}: {exc}") from None
            if i + j + k != degree:
                raise ValueError(f"line {ln}: exponents {i} {j} {k} sum to {i + j + k}, "
                                 f"declared degree is {degree}")
        if ctx is None or degree is None:
            raise ValueError("curve file needs a field line and a degree line")
        return cls(ctx, degree, terms)

    @classmethod
    def from_file(cls, path) -> "PlaneCurve":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def parse_inline(cls, ctx, text: str) -> "PlaneCurve":
        """Parse "<i> <j> <k> <coeff>;<i> <j> <k> <coeff>;..." over ctx."""
        terms: dict[Exponents, int] = {}
        for piece in filter(str.strip, text.split(";")):
            _add_term(terms, piece.strip())
        return cls.from_terms(ctx, terms)


def _add_term(terms: dict, text: str) -> Exponents:
    """Parse one "<i> <j> <k> <coeff>" term into terms, refusing a
    malformed, non-integer, negative or repeated one; returns (i, j, k)."""
    parts = text.split()
    if len(parts) != 4:
        raise ValueError(f"expected '<i> <j> <k> <coeff>', got {text!r}")
    try:
        i, j, k, c = (int(x) for x in parts)
    except ValueError:
        raise ValueError(f"non-integer field in {text!r}") from None
    if min(i, j, k) < 0:
        raise ValueError(f"negative exponent in {text!r}")
    if (i, j, k) in terms:
        raise ValueError(f"duplicate term ({i}, {j}, {k})")
    terms[(i, j, k)] = c
    return i, j, k


def _term_mul(ctx, a: dict, b: dict) -> dict:
    out: dict[Exponents, int] = {}
    for (i1, j1, k1), c1 in a.items():
        for (i2, j2, k2), c2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            cur = ctx.add(out.get(key, 0), ctx.mul(c1, c2))
            if cur:
                out[key] = cur
            else:
                out.pop(key, None)
    return out


def _substitute(f: PlaneCurve, rows) -> dict:
    """The terms of F(L_0, L_1, L_2), where L_a is the linear form with
    coefficient triple rows[a]; zero terms are dropped."""
    ctx = f.ctx
    pows = []
    for row in rows:
        lin = {
            (1 if a == 0 else 0, 1 if a == 1 else 0, 1 if a == 2 else 0): c
            for a, c in enumerate(row)
            if c
        }
        pows.append([{(0, 0, 0): 1}, lin])

    def row_power(axis: int, e: int) -> dict:
        cache = pows[axis]
        while len(cache) <= e:
            cache.append(_term_mul(ctx, cache[-1], cache[1]))
        return cache[e]

    acc: dict[Exponents, int] = {}
    for (i, j, k), c in f.terms.items():
        prod = {(0, 0, 0): c}
        for axis, e in enumerate((i, j, k)):
            if e:
                prod = _term_mul(ctx, prod, row_power(axis, e))
        for exps, val in prod.items():
            cur = ctx.add(acc.get(exps, 0), val)
            if cur:
                acc[exps] = cur
            else:
                acc.pop(exps, None)
    return acc


def curve_mul(f: PlaneCurve, g: PlaneCurve) -> PlaneCurve:
    if f.ctx != g.ctx:
        raise ValueError("context mismatch in curve product")
    return PlaneCurve(f.ctx, f.degree + g.degree, _term_mul(f.ctx, f.terms, g.terms))


def lift_curve(f: PlaneCurve, ext: ExtensionField) -> PlaneCurve:
    """Reinterpret a curve over a tower extension of its context."""
    if ext.base != f.ctx:
        raise ValueError("extension must be a tower over the curve's field")
    return PlaneCurve(ext, f.degree, dict(f.terms))


def _divide(f: PlaneCurve, g: PlaneCurve) -> Optional[dict]:
    """The quotient terms of g / f, or None when f does not divide g.

    Division by the leading term in lexicographic order: each step cancels
    the remainder's largest term with a multiple of f.  A remainder whose
    largest monomial is not a multiple of f's leading monomial is not a
    multiple of f, so neither is g.  Exact over f's own field.
    """
    ctx = f.ctx
    lead = max(f.terms)
    lead_inv = ctx.inv(f.terms[lead])
    rest = [(e, c) for e, c in f.terms.items() if e != lead]
    rem = dict(g.terms)
    quo: dict[Exponents, int] = {}
    while rem:
        top = max(rem)
        qexp = (top[0] - lead[0], top[1] - lead[1], top[2] - lead[2])
        if min(qexp) < 0:
            return None
        c = ctx._mul(rem.pop(top), lead_inv)
        quo[qexp] = c
        for (i, j, k), fc in rest:
            key = (qexp[0] + i, qexp[1] + j, qexp[2] + k)
            cur = ctx._sub(rem.get(key, 0), ctx._mul(c, fc))
            if cur:
                rem[key] = cur
            else:
                rem.pop(key, None)
    return quo


def divides(f: PlaneCurve, g: PlaneCurve) -> bool:
    """True iff f divides g in the trivariate polynomial ring."""
    if f.ctx != g.ctx:
        raise ValueError("context mismatch in divides")
    return _divide(f, g) is not None


def exact_divide(g: PlaneCurve, f: PlaneCurve) -> PlaneCurve:
    """The quotient g / f; raises ValueError if f does not divide g."""
    if f.ctx != g.ctx:
        raise ValueError("context mismatch in exact_divide")
    quo = _divide(f, g)
    if quo is None:
        raise ValueError("exact_divide: not divisible")
    return PlaneCurve(g.ctx, g.degree - f.degree, quo)


def rational_points(curve: PlaneCurve) -> tuple:
    """Normalized rational points of the curve, in enumeration order: the
    one scan of the plane that every per-curve classification reads.
    Membership only; no partials are evaluated."""
    return tuple(p for p in plane.enumerate_points(curve.ctx) if curve.evaluate(p) == 0)


def gradient(parts, point) -> tuple:
    """(F_X(P), F_Y(P), F_Z(P)) for parts = f.partials()."""
    return tuple(0 if part is None else part.evaluate(point) for part in parts)


def singular_rational_points(curve: PlaneCurve, points=None) -> tuple:
    """Rational points of the curve (``points``, when already known) where
    the gradient vanishes, in enumeration order.  F(P) = 0 is required too:
    when p divides the degree, a zero gradient does not imply it."""
    parts = curve.partials()
    pts = rational_points(curve) if points is None else points
    return tuple(p for p in pts if not any(gradient(parts, p)))


def has_linear_component(f: PlaneCurve, points=None):
    """The first F_q-line dividing f in enumeration order, or None.

    A line divides f exactly when f's restriction to it is the zero form,
    which needs all q+1 rational points of the line on f (``points``, when
    already known).  Only the lines passing that test are restricted; the
    restriction decides for every degree.
    """
    pl = plane.get_plane(f.ctx)
    on_f = {pl.point_index[p] for p in (rational_points(f) if points is None else points)}
    for li, line in enumerate(pl.lines):
        if all(pi in on_f for pi in pl.points_on[li]):
            if not any(f.restrict(*plane.span(f.ctx, line))):
                return line
    return None


def frobenius_form(f: PlaneCurve) -> Optional[PlaneCurve]:
    """X^q F_X + Y^q F_Y + Z^q F_Z, or None when identically zero.

    A curve divides this form exactly when the q-power Frobenius image of
    a generic curve point lies on the tangent line there.
    """
    ctx = f.ctx
    q = ctx.q
    parts = f.partials()
    acc: dict[Exponents, int] = {}
    for axis, part in enumerate(parts):
        if part is None:
            continue
        shift = [0, 0, 0]
        shift[axis] = q
        for (i, j, k), c in part.terms.items():
            key = (i + shift[0], j + shift[1], k + shift[2])
            cur = ctx.add(acc.get(key, 0), c)
            if cur:
                acc[key] = cur
            else:
                acc.pop(key, None)
    if not acc:
        return None
    return PlaneCurve(ctx, q + f.degree - 1, acc)


def restriction_map(f_ctx, d: int, line):
    """Rows mapping degree-d coefficient vectors to line-restriction coeffs.

    Returns a list of n_monomials rows, each of length d+1: restricting
    sum(c_m * monomial_m) to the line, spanned by plane.span, gives binary
    coefficients sum_m c_m * row_m.
    """
    p_pt, q_pt = plane.span(f_ctx, line)
    return [PlaneCurve(f_ctx, d, {mono: 1}).restrict(p_pt, q_pt) for mono in monomials(d)]
