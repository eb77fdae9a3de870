"""circ, bullet_op, treeterm and the algebra of single operations on
staged numerators.

Every operation is staged as numerators over one int denominator (a
Fraction becomes an int numerator, an int or a Poly is multiplied by the
denominator).  The products and compose_linear sum numerators over the
product of their factors' denominators, and scaled, plus and minus over
the lcm of their terms', dividing each output coefficient once.  On
seeded draws with fractional coefficients (small and large prime
denominators), integral-only coefficients, polynomial ones and
polynomial ones over different variable sets, each must equal the
literal sums of tests/oracles, which keep term-by-term arithmetic of
their own (evaluate_expanded, vec_add_into, poly._times), coefficient by
coefficient in the normal form.  The engine builds its results without
the constructor's checks, so each result must also come back unchanged
through the checked constructor.
"""

import random
from fractions import Fraction
from itertools import groupby
from math import factorial, prod

import pytest
from oracles import (bullet_literal, circ_literal, circ_unshuffle, combination_literal,
                     compose_linear_literal, treeterm_ordered)

import linfty.graded
from linfty.graded import (GradedSpace, MultiOp, OpFamily, bullet_op, canonical_tuples,
                           circ, treeterm)
from linfty.poly import Poly
from linfty.samples import random_mc_algebra

PRIMES = (999983, 1000003, 2147483647)


def integral(rng):
    return rng.randint(-3, 3)


def fractional(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))


def prime(rng):
    if rng.random() < 0.3:
        return rng.randint(-2, 2)
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(PRIMES))


def polynomial(rng):
    return Poly(("x",), {(1,): fractional(rng), (0,): integral(rng)})


def polynomial2(rng):
    """A Poly over x, y or both, in either order, so sums align variables."""
    vs = rng.choice((("x",), ("y",), ("x", "y"), ("y", "x")))
    return Poly(vs, {tuple(rng.randint(0, 1) for _ in vs): fractional(rng),
                     (0,) * len(vs): integral(rng)})


KINDS = {"integral": integral, "fractional": fractional, "prime": prime,
         "poly": polynomial, "poly2": polynomial2}
POLY_KINDS = ("poly", "poly2")


def draw_op(rng, source, target, arity, degree, coeff):
    coeffs = {}
    for tup in canonical_tuples(source, arity):
        out = sum(k[0] for k in tup) + degree
        vec = {key: coeff(rng) for key in target.keys()
               if key[0] == out and rng.random() < 0.6}
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            coeffs[tup] = vec
    return MultiOp(arity, degree, source, target, coeffs)


def draw_family(rng, space, degree, arities, kind):
    """A family whose last arity draws from kind and the others from
    fractional, so a family of a polynomial kind is rational but for one
    op."""
    ops = {n: draw_op(rng, space, space, n, degree,
                      KINDS[kind] if n == arities[-1] or kind not in POLY_KINDS
                      else fractional)
           for n in arities}
    return OpFamily(degree, space, space, ops)


def rechecked(op):
    """op rebuilt from its coeffs through the checked constructor.

    The kernels build their results unchecked (_from_clean); a result that
    the constructor would change, by dropping an entry or demoting a
    coefficient, or refuse, differs from this."""
    return MultiOp(op.arity, op.degree, op.source, op.target, op.coeffs)


def typed(fam_or_op):
    """Every stored coefficient with its type, so an int and an equal
    Fraction or Poly differ."""
    ops = fam_or_op.ops if isinstance(fam_or_op, OpFamily) else {fam_or_op.arity: fam_or_op}
    return {(n, tup, k): (type(c), c) for n, op in ops.items()
            for tup, vec in op.coeffs.items() for k, c in vec.items()}


def odd_clash(lam, mu):
    """Whether some entry of mu meets an entry of lam through a key o with an
    odd key in both its inputs and the rest of lam's tuple: a term that
    repeats an odd key and so vanishes."""
    for mu_k in mu.ops.values():
        for op in lam.ops.values():
            for front, vec in mu_k.coeffs.items():
                for tup in op.coeffs:
                    for o in set(vec) & set(tup):
                        rest = list(tup)
                        rest.remove(o)
                        if any(r[0] % 2 and r in front for r in rest):
                            return True
    return False


SPACE = {1: 3, 2: 2, 3: 1, 4: 1}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_circ_equals_the_literal_sum_and_the_generic_path(kind):
    rng = random.Random(f"circ-{kind}")
    sp = GradedSpace.build(SPACE)
    clashes = reached = 0
    for _ in range(4):
        lam = draw_family(rng, sp, 1, (0, 1, 2), kind)
        mu = draw_family(rng, sp, 1, (0, 1, 2), kind)
        got = circ(lam, mu)
        assert typed(got) == typed(circ_literal(lam, mu)) == typed(circ_unshuffle(lam, mu))
        assert all(typed(rechecked(op)) == typed(op) for op in got.ops.values())
        clashes += odd_clash(lam, mu)
        reached += not got.is_zero()
    assert clashes and reached == 4


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bullet_op_equals_the_literal_sum_and_the_generic_path(kind, monkeypatch):
    rng = random.Random(f"bullet-{kind}")
    sp = GradedSpace.build(SPACE)
    collapsed = []
    sort = linfty.graded.sort_keys_with_sign

    def counting(keys):
        srt, sign = sort(keys)
        collapsed.append(not sign)
        return srt, sign

    reached = set()
    for _ in range(5):
        lam = draw_family(rng, sp, 1, (0, 1, 2), kind)
        phi = draw_family(rng, sp, 0, (1, 2), kind)
        want = bullet_literal(lam, phi)
        for n in range(5):
            with monkeypatch.context() as m:
                m.setattr(linfty.graded, "sort_keys_with_sign", counting)
                got = bullet_op(lam, phi, n)
            assert typed(got) == typed(want.op(n))
            assert typed(rechecked(got)) == typed(got)
            if not got.is_zero():
                reached.add(n)
    # a product tuple that repeats an odd key was met, and collapsed
    assert any(collapsed)
    assert reached == {0, 1, 2, 3}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_treeterm_equals_the_ordered_sum_and_the_generic_path(kind):
    rng = random.Random(f"treeterm-{kind}")
    src = GradedSpace.build({1: 3, 2: 1})
    tgt = GradedSpace.build({1: 2, 2: 2, 3: 2, 4: 1, 5: 1})
    coeff = KINDS[kind]
    nonzero = 0
    for _ in range(5):
        pool = [draw_op(rng, src, tgt, arity, 0, coeff) for arity in (1, 1, 2)]
        for shape in ((0, 1), (0, 0), (0, 2), (0, 0, 1), (1, 1, 1)):
            parts = [pool[i] for i in shape]
            op_k = draw_op(rng, tgt, tgt, len(parts), 1, coeff)
            got = treeterm(op_k, parts)
            runs = prod(factorial(len(list(g))) for _, g in groupby(shape))
            assert typed(got.scaled(runs)) == typed(treeterm_ordered(op_k, parts))
            assert typed(rechecked(got)) == typed(got)
            nonzero += not got.is_zero()
    assert nonzero >= 15


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_single_operation_algebra_equals_the_term_by_term_sums(kind):
    """plus, minus, scaled (by an int, a Fraction and 0) and compose_linear
    with an inner operation of arity 0 to 3."""
    rng = random.Random(f"algebra-{kind}")
    sp = GradedSpace.build(SPACE)
    coeff = KINDS[kind]
    reached = set()
    for arity in range(4):
        degree = 1 if arity == 0 else 0
        for _ in range(4):
            p, q = (draw_op(rng, sp, sp, arity, degree, coeff) for _ in range(2))
            # r is q but for every other entry of p, negated: p + r drops it
            r = MultiOp(arity, degree, sp, sp, {
                **q.coeffs, **{t: {k: -x for k, x in v.items()}
                               for t, v in list(p.coeffs.items())[::2]}})
            c = Fraction(rng.choice((-5, 1, 7)), rng.choice((2, 6, 999983)))
            for got, terms in ((p.plus(q), ((p, 1), (q, 1))), (p.minus(q), ((p, 1), (q, -1))),
                               (p.plus(r), ((p, 1), (r, 1))), (q.minus(p), ((q, 1), (p, -1))),
                               (p.minus(p), ((p, 1), (p, -1))), (p.scaled(-3), ((p, -3),)),
                               (p.scaled(c), ((p, c),)), (p.scaled(0), ((p, 0),))):
                assert typed(got) == typed(combination_literal(terms))
                assert typed(rechecked(got)) == typed(got)
            if p.coeffs.keys() - p.plus(r).coeffs.keys():
                reached.add("cancelled")
            outer = draw_op(rng, sp, sp, 1, rng.choice((0, 0, 1)), coeff)
            got = outer.compose_linear(p)
            assert typed(got) == typed(compose_linear_literal(outer, p))
            assert typed(rechecked(got)) == typed(got)
            if not got.is_zero():
                reached.add(f"composed at arity {arity}")
    assert reached == {"cancelled", *(f"composed at arity {n}" for n in range(4))}


def test_staging_shares_coefficients_with_no_fraction():
    sp = GradedSpace.build({1: 2, 2: 1})
    whole = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): 3}, ((1, 1),): {(2, 0): -1}})
    nums, den = whole._staged()
    assert nums is whole.coeffs and den == 1
    part = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1, 6)},
                                  ((1, 1),): {(2, 0): Fraction(-3, 4)}})
    nums, den = part._staged()
    assert den == 12 and nums == {((1, 0),): {(2, 0): 2}, ((1, 1),): {(2, 0): -9}}
    assert part._staged() is part._staged()  # computed once
    x = Poly(("x",), {(1,): 1, (0,): Fraction(1, 2)})
    poly = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): x}})
    nums, den = poly._staged()
    assert nums is poly.coeffs and den == 1
    mixed = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): x},
                                   ((1, 1),): {(2, 0): Fraction(-3, 4)}})
    nums, den = mixed._staged()
    assert den == 4 and nums[((1, 1),)] == {(2, 0): -3}
    assert {tup: {k: c * Fraction(1, den) for k, c in vec.items()}
            for tup, vec in nums.items()} == mixed.coeffs


def test_circ_and_bullet_build_one_fraction_per_output_coefficient_at_most(monkeypatch):
    """On a rational draw the products build no Fraction per term: no more
    Fractions are constructed while they run than they store."""
    rng = random.Random(5)
    alg = random_mc_algebra(rng, amplitude=4, max_dim=3)
    ell = alg.total()
    sp = alg.fiber
    lam = draw_family(rng, sp, 1, (0, 1, 2), "prime")
    phi = draw_family(rng, sp, 0, (1, 2), "fractional")
    ops = [*ell.ops.values(), *lam.ops.values(), *phi.ops.values()]
    assert not any(isinstance(c, Poly) for op in ops
                   for vec in op.coeffs.values() for c in vec.values())
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    runs = [(circ, (ell, ell)), (circ, (lam, ell)), (bullet_op, (lam, phi, 2)),
            (bullet_op, (lam, phi, 3))]
    fractions = 0
    for fn, args in runs:
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counting)
            out = fn(*args)
        stored = sum(t is Fraction for t, _ in typed(out).values())
        assert len(built) <= stored
        fractions += stored
    assert fractions
