"""Exact linear solves against one elimination per right-hand side."""

import random
from collections import Counter
from fractions import Fraction

from oracles import solve_literal

from linfty.linalg import identity, rank, right_inverse, solve_columns


def rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def times(a, x):
    return [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in a]


def random_system(rng):
    """A matrix of up to 6 x 6 with a random rank bound: a product of two factors."""
    rows, cols = rng.randint(0, 6), rng.randint(0, 6)
    inner = rng.randint(0, min(rows, cols))
    left = [[rational(rng) for _ in range(inner)] for _ in range(rows)]
    right = [[rational(rng) for _ in range(cols)] for _ in range(inner)]
    return [[sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def test_solve_columns_matches_one_elimination_per_column():
    rng = random.Random(2307)
    seen = Counter()
    for _ in range(200):
        a = random_system(rng)
        rows, cols = len(a), len(a[0]) if a else 0
        bs = [times(a, [rational(rng) for _ in range(cols)])
              for _ in range(rng.randint(1, 4))]
        if rank(a) < rows and rng.random() < 0.5:
            bad = [rational(rng) for _ in range(rows)]
            while solve_literal(a, bad) is not None:
                bad = [rational(rng) for _ in range(rows)]
            bs[rng.randrange(len(bs))] = bad
            seen["one column inconsistent"] += 1
        expected = [solve_literal(a, b) for b in bs]
        got = solve_columns(a, bs)
        if any(x is None for x in expected):
            assert got is None
        else:
            assert got == expected
        seen["rank deficient"] += rank(a) < min(rows, cols)
        seen["empty"] += not rows or not cols
    assert min(seen.values()) >= 10, seen


def test_solve_columns_on_empty_matrices():
    assert solve_columns([], []) == []
    assert solve_columns([], [[], []]) == [[], []]
    assert solve_columns([[], []], [[0, 0]]) == [[]]
    assert solve_columns([[], []], [[0, 0], [0, 1]]) is None
    assert solve_columns(identity(2), []) == []


def test_right_inverse_matches_one_solve_per_identity_column():
    rng = random.Random(10242)
    full = 0
    for _ in range(200):
        a = random_system(rng)
        if not a:
            continue
        w = right_inverse(a)
        columns = [solve_literal(a, e) for e in identity(len(a))]
        if rank(a) < len(a):
            assert w is None
            continue
        full += 1
        assert w == [list(row) for row in zip(*columns)]
        assert [times(a, col) for col in zip(*w)] == identity(len(a))
    assert full >= 10
