"""Exact dense linear algebra over the rationals.

Matrices are lists of rows of exact rationals in the normal form of
linfty.poly: an int when integral, otherwise a Fraction with denominator
greater than 1.  Everything here is elementary Gaussian elimination through
one reduced row echelon routine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import _exact, _times

Matrix = list[list[int | Fraction]]


def zeros(n: int, m: int) -> Matrix:
    return [[0] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices.

    A pivot of 1 leaves its row as it is and a pivot of -1 negates it;
    only another pivot costs a division.
    """
    m = [[_exact(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if type(pv) is int and pv == -1:
            m[r] = [-x for x in m[r]]
        elif not (type(pv) is int and pv == 1):
            inv = Fraction(1, pv)
            m[r] = [_exact(inv * x) if x else 0 for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [_exact(x - _times(f, y)) if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Matrix, cols: int | None = None) -> list[list[int | Fraction]]:
    """Basis of the right kernel of a (as column vectors, one list per vector)."""
    if not a:
        return identity(cols or 0)
    red, pivots = rref(a)
    n = len(a[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_columns(a: Matrix, cols: Sequence[Sequence[int | Fraction]]
                  ) -> list[list[int | Fraction]] | None:
    """One solution x_j of a x_j = b_j for every column b_j, or None if any
    is inconsistent.  One elimination of [a | b_1 ... b_k] serves them all."""
    if not a:
        return [[] for _ in cols] if all(not x for b in cols for x in b) else None
    n = len(a[0])
    aug = [row[:] + [b[i] for b in cols] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= n:
        return None
    out = [[0] * n for _ in cols]
    for r, pc in enumerate(pivots):
        for j, x in enumerate(out):
            x[pc] = red[r][n + j]
    return out


def right_inverse(a: Matrix) -> Matrix | None:
    """W with a @ W = identity, if a has full row rank."""
    rows = len(a)
    if rows == 0:
        return []
    wt = solve_columns(a, identity(rows))
    if wt is None:
        return None
    # wt holds W's columns; transpose into rows
    return [list(row) for row in zip(*wt)]
