"""Univariate polynomial helpers over an arbitrary field context.

Polynomials are lists of element codes, low degree first, normalized so
the last entry is nonzero; [] is the zero polynomial.  Every function
takes the field context as its first argument, so the same code serves
GF(p), GF(p^k) and tower extensions.  The arithmetic is unchecked
(F._add, _mul, _neg, _sub): coefficients come from curves, points and
moduli that PlaneCurve, the parsers, plane.normalize and the public context
operations validated.  Inverses go through F.inv, which raises on zero and,
in locus's quotient rings, on zero divisors.

Irreducibility (Ben-Or's test, so the default moduli), root counts,
distinct-degree pieces and least root degrees all read one scan,
frobenius_gcds: gcd(f, x^(Q^e) - x) for e = 1, 2, ...
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence


def trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def deg(f: Sequence[int]) -> int:
    return len(f) - 1


def add(F, f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = F._add(out[i], c)
    return trim(out)


def neg(F, f):
    return [F._neg(c) for c in f]


def sub(F, f, g):
    return add(F, f, neg(F, g))


def scale(F, c, f):
    if c == 0:
        return []
    return trim([F._mul(c, x) for x in f])


def mul(F, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = F._add(out[i + j], F._mul(a, b))
    return trim(out)


def divmod_(F, f, g):
    """Quotient and remainder of f by nonzero g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = deg(g)
    lead_inv = F.inv(g[-1])
    quo = [0] * max(0, len(f) - dg)
    while deg(f) >= dg and f:
        c = F._mul(f[-1], lead_inv)
        shift = deg(f) - dg
        quo[shift] = c
        for i, b in enumerate(g):
            if b:
                f[shift + i] = F._sub(f[shift + i], F._mul(c, b))
        if f[-1]:  # only a wrong F.inv leaves it, and f would never shrink
            raise RuntimeError("polynomial division did not cancel the leading term")
        trim(f)
    return trim(quo), f


def mod(F, f, g):
    return divmod_(F, f, g)[1]


def monic(F, f):
    if not f:
        return []
    if f[-1] == 1:
        return list(f)
    return scale(F, F.inv(f[-1]), f)


def gcd(F, f, g):
    """Monic greatest common divisor."""
    f, g = list(f), list(g)
    while g:
        f, g = g, mod(F, f, g)
    return monic(F, f)


def xgcd(F, f, g):
    """Extended gcd: returns (d, u, v) with u*f + v*g = d, d monic."""
    r0, r1 = list(f), list(g)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = divmod_(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(F, u0, mul(F, q, u1))
        v0, v1 = v1, sub(F, v0, mul(F, q, v1))
    if not r0:
        return [], u0, v0
    c = F.inv(r0[-1])
    return scale(F, c, r0), scale(F, c, u0), scale(F, c, v0)


def eval_at(F, f, x):
    acc = 0
    for c in reversed(f):
        acc = F._add(F._mul(acc, x), c)
    return acc


def pow_mod(F, f, e: int, m):
    """f**e modulo m, e >= 0."""
    result = [1]
    f = mod(F, f, m)
    while e:
        if e & 1:
            result = mod(F, mul(F, result, f), m)
        f = mod(F, mul(F, f, f), m)
        e >>= 1
    return result


def interpolate(F, xs, ys):
    """Lagrange interpolation through distinct xs (quadratic time)."""
    master = [1]
    for xi in xs:
        master = mul(F, master, [F._neg(xi), 1])
    result: list[int] = []
    for xi, yi in zip(xs, ys):
        num, rem = divmod_(F, master, [F._neg(xi), 1])
        if rem:
            raise RuntimeError("interpolation nodes must be roots of the master")
        denom = eval_at(F, num, xi)
        result = add(F, result, scale(F, F._mul(yi, F.inv(denom)), num))
    return result


def resultant(F, f, g):
    """Resultant of f and g via the Euclidean remainder sequence."""
    if not f or not g:
        return 0
    res = 1
    while True:
        if deg(g) == 0:
            return F._mul(res, F.pow(g[0], deg(f)))
        r = mod(F, f, g)
        if not r:
            return 0
        # res(f, g) = (-1)^(deg f * deg g) * lc(g)^(deg f - deg r) * res(g, r)
        sign_flips = deg(f) * deg(g)
        factor = F.pow(g[-1], deg(f) - deg(r))
        if sign_flips % 2 == 1:
            factor = F._neg(factor)
        res = F._mul(res, factor)
        f, g = g, r


def frobenius_gcds(F, f, Q: int):
    """gcd(f, x^(Q^e) - x) for e = 1, ..., deg f, lazily: the monic product of
    f's distinct irreducible factors of degree dividing e over GF(Q).  Q is
    F.q for a field and q^e for locus's GF(q)[y]/(u), u a product of
    degree-e irreducibles; nothing else raises x to Frobenius powers."""
    xpow = [0, 1]
    for _ in range(deg(f)):
        xpow = pow_mod(F, xpow, Q, f)
        yield gcd(F, f, sub(F, xpow, [0, 1]))


def least_root_degree(F, f, Q: int) -> int:
    """Least e such that f, of degree >= 1, has a root in GF(Q^e)."""
    for e, g in enumerate(frobenius_gcds(F, f, Q), 1):
        if deg(g) >= 1:
            return e
    raise RuntimeError("a polynomial of degree n must have a root of degree <= n")


def gcd_all(F, polys):
    """Monic gcd of the polynomials, [] if all are zero; stops at 1."""
    g: list[int] = []
    for f in polys:
        # gcd([], f) would invert f's leading coefficient twice
        g = gcd(F, g, f) if g else monic(F, f)
        if deg(g) == 0:
            break
    return g


def is_irreducible(F, f) -> bool:
    """Ben-Or's test: f of degree d >= 1 is irreducible iff it has no
    irreducible factor of degree <= d/2, i.e. the first d//2 Frobenius
    gcds are all 1."""
    d = deg(f)
    return d >= 1 and all(deg(g) == 0 for g in islice(frobenius_gcds(F, f, F.q), d // 2))


def find_irreducible(F, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F.

    Coefficients are compared low-degree first, matching the deterministic
    default-modulus rule.
    """
    if m == 1:
        return (0, 1)
    for code in range(F.q ** m):
        cand = [0] * m + [1]
        for i in range(m):
            code, cand[i] = divmod(code, F.q)
        if is_irreducible(F, cand):
            return tuple(cand)
    raise RuntimeError("no irreducible polynomial found (impossible)")


def root_count_in_field(F, f) -> int:
    """Number of distinct roots of f in F: the degree of gcd(f, x^q - x),
    or 0 for a nonzero constant, which has no Frobenius gcds."""
    if not f:
        raise ValueError("zero polynomial has every root")
    return deg(next(frobenius_gcds(F, f, F.q), [1]))


def distinct_degree_pieces(F, f):
    """Split the distinct irreducible factors of f by degree.

    Returns a dict mapping e to the monic product of the distinct
    irreducible factors of f of degree exactly e.  Repeated factors are
    deliberately collapsed: gcd(f, x^(q^e) - x) is squarefree.
    """
    pieces: dict[int, list[int]] = {}
    for e, g in enumerate(frobenius_gcds(F, f, F.q), 1):
        # remove factors of degree properly dividing e, already collected
        for ee, piece in pieces.items():
            if e % ee == 0:
                g = divmod_(F, g, gcd(F, g, piece))[0]
        if deg(g) >= 1:
            pieces[e] = g
    return pieces
