"""Exact dense linear algebra over the rationals.

Matrices are lists of rows of Fraction.  Everything here is elementary
Gaussian elimination through one reduced row echelon routine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(n: int, m: int) -> Matrix:
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in a]
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
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Matrix, cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel of a (as column vectors, one list per vector)."""
    if not a:
        n = cols or 0
        return [[Fraction(1) if i == j else Fraction(0) for i in range(n)] for j in range(n)]
    red, pivots = rref(a)
    n = len(a[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_columns(a: Matrix, cols: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    """One solution x_j of a x_j = b_j for every column b_j, or None if any
    is inconsistent.  One elimination of [a | b_1 ... b_k] serves them all."""
    if not a:
        return [[] for _ in cols] if all(not x for b in cols for x in b) else None
    n = len(a[0])
    aug = [row[:] + [Fraction(b[i]) for b in cols] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= n:
        return None
    out = [[Fraction(0)] * n for _ in cols]
    for r, pc in enumerate(pivots):
        for j, x in enumerate(out):
            x[pc] = red[r][n + j]
    return out


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    if n == 0:
        return []
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


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
