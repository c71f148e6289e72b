"""Dense linear algebra over a field context: matrices as tuples of rows."""

from __future__ import annotations


def mat_vec(ctx, m, v):
    return tuple(
        _dot(ctx, row, v)
        for row in m
    )


def _dot(ctx, row, v):
    acc = 0
    for a, b in zip(row, v):
        if a and b:
            acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def mat_mul(ctx, a, b):
    cols = list(zip(*b))
    return tuple(tuple(_dot(ctx, row, col) for col in cols) for row in a)


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det3(ctx, m):
    """Determinant of a 3 x 3 matrix, by cofactors along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m
    mul, sub = ctx.mul, ctx.sub
    return ctx.add(sub(mul(a, sub(mul(e, i), mul(f, h))), mul(b, sub(mul(d, i), mul(f, g)))),
                   mul(c, sub(mul(d, h), mul(e, g))))


def _reduce(ctx, rows, ncols: int):
    """Gauss-Jordan elimination on the first ncols columns: the reduced
    row echelon rows and their pivot columns."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv_p = ctx.inv(mat[r][col])
        mat[r] = [ctx.mul(inv_p, c) for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat, pivots


def mat_inv(ctx, m):
    """Inverse by reducing [M | I], or None if singular."""
    n = len(m)
    mat, pivots = _reduce(ctx, [tuple(row) + e for row, e in zip(m, identity(n))], n)
    if len(pivots) < n:
        return None
    return tuple(tuple(row[n:]) for row in mat)


def nullspace(ctx, rows, ncols: int):
    """Basis of the right kernel of the given row vectors, one vector per
    free column."""
    mat, pivots = _reduce(ctx, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(mat, pivots):
            vec[pc] = ctx.neg(row[fc])
        basis.append(tuple(vec))
    return basis
