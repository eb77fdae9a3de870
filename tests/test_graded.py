"""Graded spaces, symmetric multilinear operations, insertion and composition."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from math import factorial, prod

import pytest
from oracles import (amp2_bundle, bullet_literal, canonical_tuples_literal, circ_literal,
                     circ_unshuffle, commutator, compose_linear_literal, evaluate_expanded,
                     ordered_block_assignments, sort_keys_general, square_bundle,
                     treeterm_ordered)

import linfty.graded
from linfty.graded import (GradedSpace, MultiOp, OpFamily, bullet, bullet_op,
                           canonical_tuples, circ, koszul_sign, multisets,
                           op_nilpotency_order, sort_keys_with_sign, treeterm,
                           unshuffle_sign)
from linfty.poly import Poly
from linfty.samples import (break_algebra, random_bundle, random_mc_algebra,
                            random_morphism_onto, random_transfer_instance)
from linfty.transfer import transfer, transfer_trees


# -- signs --------------------------------------------------------------------

def test_koszul_sign_odd_swap():
    assert koszul_sign([1, 1], (1, 0)) == -1


def test_koszul_sign_mixed_swap():
    assert koszul_sign([1, 2], (1, 0)) == 1


def test_koszul_sign_three_cycle():
    assert koszul_sign([1, 1, 1], (1, 2, 0)) == 1
    assert koszul_sign([1, 1, 1], (2, 0, 1)) == 1


def test_koszul_sign_rejects_non_permutation():
    with pytest.raises(ValueError):
        koszul_sign([1, 1], (0, 0))


def test_sort_keys_collapses_odd_repeats():
    _, sign = sort_keys_with_sign(((1, 0), (1, 0)))
    assert sign == 0
    _, sign = sort_keys_with_sign(((2, 0), (2, 0)))
    assert sign == 1
    # an odd repeat collapses even when another key sits between the copies
    keys, sign = sort_keys_with_sign(((1, 0), (2, 0), (1, 0)))
    assert keys == ((1, 0), (1, 0), (2, 0)) and sign == 0
    _, sign = sort_keys_with_sign(((3, 0), (1, 1), (2, 0), (3, 0)))
    assert sign == 0


def test_sort_keys_tracks_transpositions():
    keys, sign = sort_keys_with_sign(((1, 1), (1, 0)))
    assert keys == ((1, 0), (1, 1)) and sign == -1
    keys, sign = sort_keys_with_sign(((2, 1), (2, 0)))
    assert keys == ((2, 0), (2, 1)) and sign == 1


def test_sort_keys_agrees_with_the_general_sort():
    """The sorted-input shortcut returns what the pairwise sign count does."""
    rng = random.Random(31)
    pool = [(d, i) for d in (1, 2, 3) for i in range(3)]
    seen = {"sorted": 0, "unsorted": 0, "odd repeat": 0}
    for _ in range(600):
        keys = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.3 and keys:
            odd = rng.choice([k for k in pool if k[0] % 2])
            keys[rng.randrange(len(keys))] = odd
            keys.insert(rng.randrange(len(keys) + 1), odd)
        if rng.random() < 0.5:
            keys.sort()
        want = sort_keys_general(keys)
        assert sort_keys_with_sign(keys) == want
        assert sort_keys_with_sign(tuple(keys)) == want
        seen["sorted" if keys == sorted(keys) else "unsorted"] += 1
        seen["odd repeat"] += want[1] == 0
    assert min(seen.values()) >= 50


def test_unshuffle_sign_pulls_front_in_order():
    # pulling position 1 of (odd, odd) to the front is one odd transposition
    assert unshuffle_sign([1, 1], (1,)) == -1
    assert unshuffle_sign([1, 2], (1,)) == 1


# -- spaces and operations ------------------------------------------------------

def test_space_accessors():
    sp = GradedSpace.build({1: 2, 3: 1}, labels={1: ["a", "b"]})
    assert sp.degrees() == [1, 3]
    assert sp.dim(1) == 2 and sp.dim(2) == 0
    assert sp.total_dim == 3
    assert sp.labels[1][1] == "b"
    assert sp.labels[3][0] == "e3_0"
    assert sp.contains((1, 0)) and not sp.contains((2, 0))


def test_canonical_tuples_respect_odd_collapse():
    odd = GradedSpace.build({1: 2})
    assert list(canonical_tuples(odd, 2)) == [((1, 0), (1, 1))]
    even = GradedSpace.build({2: 2})
    assert len(list(canonical_tuples(even, 2))) == 3


def test_canonical_tuples_match_the_literal_filter_in_order():
    """The degree-budget walk yields the filtered combinations, same order."""
    rng = random.Random(6)
    for _ in range(400):
        degrees = rng.sample(range(1, 8), rng.randint(0, 4))
        space = GradedSpace.build({d: rng.randint(0, 3) for d in degrees})
        arity = rng.randint(0, 5)
        for cap in (None, rng.randint(0, 13)):
            got = list(canonical_tuples(space, arity, max_total_degree=cap))
            assert got == list(canonical_tuples_literal(space, arity, max_total_degree=cap)), \
                (dict(space.dims), arity, cap)


def test_multiop_requires_homogeneous_entries():
    sp = GradedSpace.build({1: 1, 2: 1})
    with pytest.raises(ValueError):
        MultiOp(1, 1, sp, sp, {((1, 0),): {(1, 0): Fraction(1)}})


def test_multiop_requires_sorted_input_tuples():
    sp = GradedSpace.build({1: 2, 3: 1})
    with pytest.raises(ValueError):
        MultiOp(2, 1, sp, sp, {((1, 1), (1, 0)): {(3, 0): Fraction(1)}})


def test_evaluate_basis_applies_koszul_sign():
    sp = GradedSpace.build({1: 2, 3: 1})
    op = MultiOp(2, 1, sp, sp, {((1, 0), (1, 1)): {(3, 0): Fraction(1)}})
    assert op.evaluate_basis(((1, 0), (1, 1))) == {(3, 0): Fraction(1)}
    assert op.evaluate_basis(((1, 1), (1, 0))) == {(3, 0): Fraction(-1)}
    assert op.evaluate_basis(((1, 0), (1, 0))) == {}


def test_evaluate_on_vectors_is_multilinear():
    sp = GradedSpace.build({1: 2, 2: 1})
    op = MultiOp(2, 0, sp, sp, {((1, 0), (1, 1)): {(2, 0): Fraction(1)}})
    v = {(1, 0): Fraction(2), (1, 1): Fraction(3)}
    w = {(1, 0): Fraction(1), (1, 1): Fraction(-1)}
    # bilinear with odd-odd antisymmetry: 2*(-1) - 3*1 = -5
    assert evaluate_expanded(op, [v, w]) == {(2, 0): Fraction(-5)}


def test_bullet_op_and_treeterm_read_parts_from_their_entries(monkeypatch):
    """Both look each part up on a canonical sub-tuple and never call
    evaluate_basis, not even for the curvature, read on the empty
    tuple."""
    rng = random.Random(43)
    sp = GradedSpace.build({1: 2, 2: 2, 3: 1})
    products = []
    for _ in range(4):
        lam = random_family(rng, sp, 1)
        phi = random_degree0_family(rng, sp)
        products.append((lam, phi, bullet_literal(lam, phi)))
    trng = random.Random(47)
    draws = [random_transfer_instance(trng, 4, 3) for _ in range(6)]
    recursive = [transfer(con, lam) for con, lam in draws]

    def forbidden(self, keys):
        raise AssertionError(f"evaluate_basis on {keys}")

    monkeypatch.setattr(MultiOp, "evaluate_basis", forbidden)
    curved = 0
    for lam, phi, want in products:
        for n in range(lam.max_arity * phi.max_arity + 1):
            assert bullet_op(lam, phi, n) == want.op(n)
        curved += not want.op(0).is_zero()
    assert curved
    top = 0
    for (con, lam), want in zip(draws, recursive):
        got = transfer_trees(con, lam)
        assert got.phi == want.phi and got.mu == want.mu
        top = max(top, got.mu.max_arity)
    assert top >= 3


def test_treeterm_feeds_a_run_of_identical_parts_once_per_choice():
    """treeterm times the factorials of its runs of identical parts is the
    ordered block sum; equal parts that are distinct objects form no run."""
    rng = random.Random(61)
    src = GradedSpace.build({1: 3, 2: 1})
    tgt = GradedSpace.build({1: 2, 2: 2, 3: 1, 4: 1, 5: 1})
    shapes = [(0, 0), (0, 1), (0, 0, 0), (0, 0, 2), (2, 0, 0), (1, 1, 1), (2, 2)]
    reached = set()
    for _ in range(4):
        pool = [random_op(rng, src, tgt, arity, 0) for arity in (1, 1, 2)]
        for shape in shapes:
            parts = [pool[i] for i in shape]
            op_k = random_op(rng, tgt, tgt, len(parts), 1)
            got = treeterm(op_k, parts)
            runs = [len(list(g)) for _, g in groupby(shape)]
            want = treeterm_ordered(op_k, parts)
            assert got.scaled(prod(factorial(r) for r in runs)) == want
            if not got.is_zero():
                reached |= {f"run of {r}" for r in runs if r > 1}
            n = sum(p.arity for p in parts)
            for tup in canonical_tuples(src, n):
                degs = [k[0] for k in tup]
                for blocks in ordered_block_assignments([p.arity for p in parts], range(n)):
                    vecs = [p.coeffs.get(tuple(tup[i] for i in b)) for p, b in zip(parts, blocks)]
                    if (koszul_sign(degs, [i for b in blocks for i in b]) < 0
                            and all(vecs) and evaluate_expanded(op_k, vecs)):
                        reached.add("sign -1")
        twin = MultiOp(1, 0, src, tgt, dict(pool[0].coeffs))
        assert twin == pool[0] and twin is not pool[0]
        op_k = random_op(rng, tgt, tgt, 2, 1)
        got = treeterm(op_k, [pool[0], twin])
        assert got == treeterm_ordered(op_k, [pool[0], twin])
        assert got == treeterm(op_k, [pool[0], pool[0]]).scaled(2)
        if not got.is_zero():
            reached.add("equal, not identical")
    assert reached == {"run of 2", "run of 3", "sign -1", "equal, not identical"}


def test_identity_and_compose_linear():
    sp = GradedSpace.build({1: 2, 2: 1})
    ident = MultiOp.identity(sp)
    op = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(2)}})
    assert op.compose_linear(ident) == op
    assert ident.compose_linear(op) == op


def random_op(rng, source, target, arity, degree, scale=1):
    coeffs = {}
    for tup in canonical_tuples(source, arity):
        deg_out = sum(k[0] for k in tup) + degree
        outs = {}
        for key in target.keys():
            if key[0] == deg_out and rng.random() < 0.5:
                outs[key] = Fraction(rng.randint(-scale, scale))
        outs = {k: c for k, c in outs.items() if c}
        if outs:
            coeffs[tup] = outs
    return MultiOp(arity, degree, source, target, coeffs)


def assert_clean(r):
    """What the checked constructor guarantees, checked on a result."""
    for tup, vec in r.coeffs.items():
        assert len(tup) == r.arity
        srt, sign = sort_keys_with_sign(tup)
        assert srt == tup and sign != 0
        assert vec and all(c != 0 for c in vec.values())
    checked = MultiOp(r.arity, r.degree, r.source, r.target, r.coeffs)
    assert checked == r and checked.coeffs == r.coeffs


def entries(op):
    return {(t, k) for t, vec in op.coeffs.items() for k in vec}


def test_arity_one_algebra_results_are_in_normal_form():
    """identity, scaled, plus, minus and compose_linear skip the constructor's
    checks; their results pass them, and compose_linear, with an arity-1
    outer and an inner of arity 0 to 4, agrees with the evaluate_basis
    oracle."""
    rng = random.Random(8)
    seen = {"cancelled": 0, "composed": 0, "composed above arity 1": 0}
    for _ in range(100):
        sp = GradedSpace.build({d: rng.randint(0, 2) for d in (1, 2, 3, 4)})
        mid = GradedSpace.build({d: rng.randint(1, 2) for d in (1, 2, 3)})
        arity, degree = rng.randint(0, 3), rng.randint(-1, 1)
        p = random_op(rng, sp, sp, arity, degree)
        q = random_op(rng, sp, sp, arity, degree)
        results = [MultiOp.identity(sp), p.scaled(Fraction(rng.randint(-3, 3), 2)), p.scaled(0),
                   p.plus(q), p.minus(q), q.minus(p), p.minus(p), p.plus(q.minus(p))]
        assert results[-1] == q
        assert p.scaled(0).is_zero() and p.minus(p).is_zero()
        union = len(entries(p) | entries(q))
        seen["cancelled"] += min(len(entries(p.plus(q))), len(entries(p.minus(q)))) < union
        inner = random_op(rng, mid, sp, rng.randint(0, 4), rng.randint(-1, 1))
        for outer in (random_op(rng, sp, mid, 1, rng.randint(-1, 1)),
                      random_op(rng, sp, sp, 1, 0).plus(MultiOp.identity(sp))):
            want = compose_linear_literal(outer, inner)
            got = outer.compose_linear(inner)
            assert ((got.arity, got.degree, got.source, got.target)
                    == (want.arity, want.degree, want.source, want.target))
            assert got.coeffs == want.coeffs
            seen["composed"] += not got.is_zero()
            seen["composed above arity 1"] += got.arity > 1 and not got.is_zero()
            results.append(got)
        for r in results:
            assert_clean(r)
    assert min(seen.values()) >= 15, seen


def test_plus_with_a_zero_side_returns_the_other_operand():
    """A zero summand costs no copy: the sum is the other operand itself,
    after the same arity, degree and space checks as any sum."""
    rng = random.Random(11)
    sp = GradedSpace.build({1: 2, 2: 2, 3: 1})
    p = random_op(rng, sp, sp, 2, 1)
    zero = MultiOp.zero(2, 1, sp, sp)
    assert not p.is_zero()
    assert p.plus(zero) is p and zero.plus(p) is p
    assert p.minus(zero) is p
    assert zero.plus(zero).is_zero()
    other = GradedSpace.build({1: 1, 2: 2})
    for bad in (MultiOp.zero(1, 1, sp, sp), MultiOp.zero(2, 0, sp, sp),
                MultiOp.zero(2, 1, other, other)):
        with pytest.raises(ValueError):
            p.plus(bad)
        with pytest.raises(ValueError):
            bad.plus(p)
    # a family sum keeps each arity that only one side holds as it is
    q = random_op(rng, sp, sp, 1, 1)
    fam = OpFamily(1, sp, sp, {1: q}).plus(OpFamily(1, sp, sp, {2: p}))
    assert fam.ops[1] is q and fam.ops[2] is p


def test_family_sums_check_degree_and_spaces_and_build_no_zero_op(monkeypatch):
    """A family sum refuses a summand of another degree or between other
    spaces even when neither side holds an operation; sums and equality
    never build a zero operation for an arity one side lacks."""
    rng = random.Random(13)
    s = GradedSpace.build({1: 2, 2: 2, 3: 1})
    t = GradedSpace.build({1: 1, 2: 1})
    for a, b in ((OpFamily.zero(1, s, s), OpFamily.zero(0, t, t)),
                 (OpFamily.zero(1, s, s), OpFamily.zero(0, s, s)),
                 (OpFamily.zero(1, s, s), OpFamily.zero(1, t, t)),
                 (OpFamily.zero(1, s, s), OpFamily(1, t, t, {1: random_op(rng, t, t, 1, 1)}))):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                x.plus(y)
            with pytest.raises(ValueError):
                x.minus(y)
    lo = OpFamily(1, s, s, {0: MultiOp(0, 1, s, s, {(): {(1, 0): 2}}),
                            1: MultiOp(1, 1, s, s, {((1, 0),): {(2, 0): 1},
                                                    ((2, 1),): {(3, 0): Fraction(1, 2)}})})
    hi = OpFamily(1, s, s, {1: MultiOp(1, 1, s, s, {((1, 0),): {(2, 0): -1, (2, 1): 3}}),
                            2: MultiOp(2, 1, s, s, {((1, 0), (1, 1)): {(3, 0): 5}})})

    def forbidden(cls, *args):
        raise AssertionError(f"a zero operation built for {args}")

    monkeypatch.setattr(MultiOp, "zero", classmethod(forbidden))
    total = lo.plus(hi)
    assert total.ops[0] is lo.ops[0] and total.ops[2] is hi.ops[2]
    assert total.ops[1].coeffs == {((1, 0),): {(2, 1): 3}, ((2, 1),): {(3, 0): Fraction(1, 2)}}
    assert total != lo and lo != hi and total.minus(hi) == lo
    assert total == OpFamily(1, s, s, dict(total.ops))


def test_arity_one_algebra_rejects_mismatched_spaces():
    a = GradedSpace.build({1: 2, 2: 1})
    b = GradedSpace.build({1: 1, 2: 2})
    on_a = MultiOp(1, 1, a, a, {((1, 0),): {(2, 0): Fraction(1)}})
    on_b = MultiOp(1, 1, b, b, {((1, 0),): {(2, 1): Fraction(1)}})
    a_to_b = MultiOp(1, 1, a, b, {((1, 0),): {(2, 1): Fraction(1)}})
    for bad in (lambda: on_a.plus(on_b), lambda: on_a.minus(a_to_b),
                lambda: on_a.compose_linear(on_b), lambda: on_a.compose_linear(a_to_b)):
        with pytest.raises(ValueError):
            bad()
    # an equal space built separately is the same space
    twin = GradedSpace.build({1: 2, 2: 1})
    assert on_a.plus(MultiOp(1, 1, twin, twin, dict(on_a.coeffs))) == on_a.scaled(2)
    assert on_b.compose_linear(a_to_b).is_zero()


@pytest.mark.parametrize("coeffs, error", [
    ({((1, 0), (1, 1)): {(2, 0): Fraction(1)}}, ValueError),   # arity 2 in an arity-1 op
    ({((1, 5),): {(2, 0): Fraction(1)}}, KeyError),            # input key out of range
    ({((1, 0),): {(2, 3): Fraction(1)}}, KeyError),            # output key out of range
], ids=["arity", "input-range", "output-range"])
def test_public_constructor_keeps_its_checks(coeffs, error):
    """Next to the homogeneity and sorting checks tested above."""
    sp = GradedSpace.build({1: 2, 2: 1})
    with pytest.raises(error):
        MultiOp(1, 1, sp, sp, coeffs)


def test_nilpotency_order():
    sp = GradedSpace.build({1: 3})
    step = MultiOp(1, 0, sp, sp, {((1, 1),): {(1, 0): Fraction(1)},
                                  ((1, 2),): {(1, 1): Fraction(1)}})
    assert op_nilpotency_order(step) == 3
    assert op_nilpotency_order(MultiOp.identity(sp)) is None


# -- circ ------------------------------------------------------------------------

def chain_space():
    return GradedSpace.build({1: 1, 2: 1, 3: 1}, labels={1: ["e"], 2: ["f"], 3: ["g"]})


def family(space, ops):
    return OpFamily(1, space, space, ops)


def test_circ_detects_squared_differential():
    sp = chain_space()
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)},
                                  ((2, 0),): {(3, 0): Fraction(1)}})
    lam = family(sp, {1: lam1})
    sq = circ(lam, lam)
    assert sq.op(1).evaluate_basis(((1, 0),)) == {(3, 0): Fraction(1)}


def test_circ_of_square_zero_differential_vanishes():
    sp = chain_space()
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})
    lam = family(sp, {1: lam1})
    assert circ(lam, lam).is_zero()


def test_circ_with_zero_family_is_zero():
    sp = chain_space()
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})
    lam = family(sp, {1: lam1})
    zero = OpFamily.zero(1, sp, sp)
    assert circ(lam, zero).is_zero()
    assert circ(zero, lam).is_zero()


def random_family(rng, space, degree, max_arity=2, scale=1):
    ops = {n: random_op(rng, space, space, n, degree, scale) for n in range(max_arity + 1)}
    return OpFamily(degree, space, space, ops)


def _insertion_kinds(lam, mu):
    """The kinds of term lam o mu meets, read off the entries of both factors.

    A term pairs an entry A -> v of mu_k with an entry S of lam holding a
    key o of v, R being S with that o removed, and no odd key in both A
    and R.  Its kinds: "curvature" when k = 0, "multiplicity" when an even
    key lies in both A and R, "eps" when an odd key of R precedes an odd key
    of A, "sigma" when o is odd with an odd number of odd keys before it in
    S, and "poly" when v[o] is a polynomial.
    """
    kinds = set()
    for k, mu_k in mu.ops.items():
        for op in lam.ops.values():
            for front, vec in mu_k.coeffs.items():
                for tup in op.coeffs:
                    for o in set(vec) & set(tup):
                        rest = list(tup)
                        rest.remove(o)
                        if any(r[0] % 2 and r in front for r in rest):
                            continue
                        if k == 0:
                            kinds.add("curvature")
                        if any(a[0] % 2 == 0 and a in rest for a in front):
                            kinds.add("multiplicity")
                        if any(r < a for r in rest if r[0] % 2 for a in front if a[0] % 2):
                            kinds.add("eps")
                        if o[0] % 2 and sum(r[0] % 2 for r in rest if r < o) % 2:
                            kinds.add("sigma")
                        if isinstance(vec[o], Poly):
                            kinds.add("poly")
    return kinds


def assert_same_in_order(got, want):
    """Equal families whose arities and input tuples come in the same order."""
    assert got == want
    assert list(got.ops) == list(want.ops)
    for n, op in got.ops.items():
        assert list(op.coeffs) == list(want.ops[n].coeffs)


def test_circ_literal_matches_unshuffle():
    """Production circ equals the permutation-sum and unshuffle definitions.

    The draws reach arities 0-5 and every kind of term the push forward
    weighs differently: repeated even keys, odd keys on both sides, an odd
    insertion slot behind an odd key, a curvature, a family whose target is
    not its source, and polynomial coefficients.
    """
    rng = random.Random(11)
    pairs = []
    for dims, max_arity, draws in (({1: 2, 2: 2, 3: 1, 4: 1}, 2, 6),
                                   ({1: 5, 2: 1, 4: 1, 7: 1}, 3, 3)):
        sp = GradedSpace.build(dims)
        pairs += [(random_family(rng, sp, 1, max_arity), random_family(rng, sp, 1, max_arity))
                  for _ in range(draws)]
    sp, wide = GradedSpace.build({1: 2, 2: 2, 3: 1, 4: 1}), GradedSpace.build({1: 1, 2: 2, 3: 2})
    for _ in range(3):
        phi = OpFamily(0, sp, wide, {n: random_op(rng, sp, wide, n, 0) for n in (1, 2)})
        pairs.append((phi, random_family(rng, sp, 1)))
    bundles = [random_bundle(rng, ("x", "y"), amplitude=3) for _ in range(3)]
    pairs += [(b.total(), b.total()) for b in bundles]
    maps = [random_morphism_onto(rng, b, "s") for b in bundles]
    pairs += [(m.phi, m.src.total()) for m in maps]
    reached, kinds, retargeted = set(), set(), 0
    for lam, mu in pairs:
        got = circ(lam, mu)
        assert_same_in_order(got, circ_unshuffle(lam, mu))
        assert_same_in_order(got, circ_literal(lam, mu))
        reached |= set(got.arities())
        kinds |= _insertion_kinds(lam, mu)
        retargeted += lam.target != lam.source and not got.is_zero()
    assert reached == {0, 1, 2, 3, 4, 5}
    assert kinds == {"curvature", "multiplicity", "eps", "sigma", "poly"}
    assert retargeted >= 3


def test_circ_tabulates_no_canonical_tuple(monkeypatch):
    """circ is pushed forward from entries: it walks no canonical tuple."""
    rng = random.Random(23)
    damaged = None
    while damaged is None:
        damaged = break_algebra(rng, random_mc_algebra(rng, amplitude=5, max_dim=3))
    cases = [b.total() for b in (square_bundle(), amp2_bundle())] + [damaged.total()]
    want = [circ_unshuffle(ell, ell) for ell in cases]
    assert not want[-1].is_zero()

    def forbidden(*args, **kwargs):
        raise AssertionError("circ walked the canonical tuples")

    monkeypatch.setattr(linfty.graded, "canonical_tuples", forbidden)
    monkeypatch.setattr(linfty.graded.MultiOp, "from_function", classmethod(forbidden))
    for ell, ref in zip(cases, want):
        assert_same_in_order(circ(ell, ell), ref)


def test_commutator_jacobi_identity():
    rng = random.Random(5)
    sp = GradedSpace.build({1: 2, 2: 1, 3: 1, 4: 1})
    for _ in range(4):
        a = random_family(rng, sp, 1)
        b = random_family(rng, sp, 1)
        c = random_family(rng, sp, 1)
        lhs = commutator(a, commutator(b, c))
        rhs = commutator(commutator(a, b), c).minus(commutator(b, commutator(a, c)))
        assert lhs == rhs


def test_commutator_of_odd_family_with_itself():
    rng = random.Random(9)
    sp = GradedSpace.build({1: 2, 2: 1, 3: 1})
    a = random_family(rng, sp, 1)
    assert commutator(a, a) == circ(a, a).scaled(2)


# -- bullet ------------------------------------------------------------------------

def test_bullet_unit_law():
    rng = random.Random(3)
    sp = GradedSpace.build({1: 2, 2: 1, 3: 1})
    lam = random_family(rng, sp, 1)
    ident = OpFamily.identity(sp)
    assert bullet(lam, ident) == lam


def test_bullet_fixes_arity_zero_part():
    sp = chain_space()
    lam0 = MultiOp(0, 1, sp, sp, {(): {(1, 0): Fraction(2)}})
    lam = OpFamily(1, sp, sp, {0: lam0})
    phi = OpFamily.identity(sp).plus(
        OpFamily(0, sp, sp, {2: MultiOp(2, 0, sp, sp,
                                        {((1, 0), (2, 0)): {(3, 0): Fraction(1)}})}))
    out = bullet(lam, phi)
    assert out.op(0) == lam0
    assert all(out.op(k).is_zero() for k in out.arities() if k != 0)


def random_degree0_family(rng, space, max_arity=2):
    fam = random_family(rng, space, 0, max_arity)
    ops = {k: op for k, op in fam.ops.items() if k >= 1}
    return OpFamily(0, space, space, ops)


def test_bullet_is_associative():
    rng = random.Random(17)
    sp = GradedSpace.build({1: 2, 2: 1, 3: 1})
    for _ in range(5):
        lam = random_family(rng, sp, 1)
        phi = random_degree0_family(rng, sp)
        psi = random_degree0_family(rng, sp)
        assert bullet(bullet(lam, phi), psi) == bullet(lam, bullet(phi, psi))


def test_bullet_literal_matches_partitions():
    """Production bullet equals the permutation-sum definition at arities
    0-5; the draws reach the multisets of phi's arities (), (1, 1, 2),
    (2, 2) and (1, 2, 2) with a nonzero contribution."""
    rng = random.Random(23)
    reached = set()
    shapes = set()
    for dims, max_arity, draws in (({1: 2, 2: 2, 3: 1}, 2, 5),
                                   ({1: 4, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}, 3, 3)):
        sp = GradedSpace.build(dims)
        for _ in range(draws):
            lam = random_family(rng, sp, 1, max_arity)
            phi = random_degree0_family(rng, sp, max_arity)
            got = bullet(lam, phi)
            assert got == bullet_literal(lam, phi)
            reached |= set(got.arities())
            pool = [(phi.ops[a], a) for a in phi.arities()]
            for n in range(got.max_arity + 1):
                for parts in multisets(pool, n):
                    if len(parts) not in lam.ops:
                        continue
                    lam_k = lam.ops[len(parts)]
                    if not (treeterm(lam_k, parts) if parts else lam_k).is_zero():
                        shapes.add(tuple(p.arity for p in parts))
    assert reached == {0, 1, 2, 3, 4, 5}
    assert {(), (1, 1, 2), (2, 2), (1, 2, 2)} <= shapes, shapes


def test_multisets_match_filtered_combinations_with_replacement():
    """Each multiset of the pool's items whose sizes sum to the total comes
    once, its items in pool order; an item larger than the total is never
    taken, and total 0 gives the empty multiset alone."""
    pools = [[("a", 1), ("b", 2), ("c", 2), ("d", 5)], [("x", 2), ("y", 1)], []]
    for pool in pools:
        size = dict(pool)
        for total in range(7):
            got = list(multisets(pool, total))
            want = [c for r in range(total + 1)
                    for c in combinations_with_replacement(list(size), r)
                    if sum(size[i] for i in c) == total]
            assert sorted(got) == sorted(want) and len(set(got)) == len(got)
    assert list(multisets(pools[0], 0)) == [()] == list(multisets([], 0))
    assert list(multisets([], 2)) == []
    assert not any("d" in m for m in multisets(pools[0], 4))
    assert list(multisets(pools[1], 3)) == [("x", "y"), ("y", "y", "y")]


def test_bullet_op_is_one_arity_of_bullet():
    """bullet_op(lam, phi, n) is bullet(lam, phi).op(n), past the top arity too."""
    rng = random.Random(37)
    curved = 0
    for dims, max_arity, draws in (({1: 2, 2: 2, 3: 1}, 2, 5),
                                   ({1: 4, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}, 3, 2)):
        sp = GradedSpace.build(dims)
        for _ in range(draws):
            lam = random_family(rng, sp, 1, max_arity)
            phi = random_degree0_family(rng, sp, max_arity)
            curved += 0 in lam.ops
            full = bullet(lam, phi)
            for n in range(lam.max_arity * phi.max_arity + 2):
                assert bullet_op(lam, phi, n) == full.op(n)
    assert curved
    # curvature alone, and an empty right factor
    sp = chain_space()
    lam0 = MultiOp(0, 1, sp, sp, {(): {(1, 0): Fraction(2)}})
    lam = OpFamily(1, sp, sp, {0: lam0})
    for phi in (OpFamily.identity(sp), OpFamily.zero(0, sp, sp)):
        assert bullet_op(lam, phi, 0) == lam0
        assert bullet_op(lam, phi, 1).is_zero() and bullet_op(lam, phi, 2).is_zero()


def test_bullet_rejects_nonzero_degree_right_factor():
    sp = chain_space()
    lam = family(sp, {1: MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})})
    with pytest.raises(ValueError):
        bullet(lam, lam)
    with pytest.raises(ValueError):
        bullet_op(lam, lam, 1)


def test_bullet_is_linear_in_the_left_factor():
    rng = random.Random(29)
    sp = GradedSpace.build({1: 2, 2: 1, 3: 1})
    a = random_family(rng, sp, 1)
    b = random_family(rng, sp, 1)
    phi = random_degree0_family(rng, sp)
    assert bullet(a.plus(b), phi) == bullet(a, phi).plus(bullet(b, phi))
