"""Curved structures, structure equation checks, bundle morphisms."""

import random
from fractions import Fraction

import pytest
from oracles import amp2_bundle, at_point, circle_bundle, identity_morphism, square_bundle

from linfty import algebra as algebra_module
from linfty import geometry
from linfty.algebra import (LinftyBundle, Morphism, _kernel_complement, check_mc,
                            check_morphism, compose, invert_family, invert_linear_op,
                            linear_morphism, linearize_fibration, op_matrix, plain_bundle,
                            product_bundle, product_projection, same_morphism,
                            transport_source)
from linfty.graded import GradedSpace, MultiOp, OpFamily, bullet, circ
from linfty.geometry import pullback_fibration, virtual_dimension
from linfty.linalg import kernel_basis, right_inverse, solve_columns
from linfty.pathspace import derived_path_space
from linfty.poly import Poly
from linfty.samples import (break_algebra, random_bundle, random_formal_iso,
                            random_invertible, random_mc_algebra,
                            random_morphism_onto)

x = Poly.variable("x")


def chain_space():
    return GradedSpace.build({1: 1, 2: 1, 3: 1}, labels={1: ["e"], 2: ["f"], 3: ["g"]})


def algebra(space, delta=None, ops=None):
    return LinftyBundle((), space,
                        delta if delta is not None
                        else MultiOp.zero(1, 1, space, space),
                        OpFamily(1, space, space, ops or {}))


# -- structure equation ---------------------------------------------------------

def test_check_mc_accepts_square_zero_structure():
    sp = chain_space()
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})
    rep = check_mc(algebra(sp, ops={1: lam1}))
    assert rep.ok
    assert rep.describe() == "structure equations hold"


def test_check_mc_rejects_nonsquare_zero_structure():
    sp = chain_space()
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)},
                                  ((2, 0),): {(3, 0): Fraction(1)}})
    rep = check_mc(algebra(sp, ops={1: lam1}))
    assert not rep.ok
    assert rep.structure_failures
    arity, tup, vec = rep.structure_failures[0]
    assert arity == 1 and tup == ((1, 0),) and vec == {(3, 0): Fraction(1)}
    assert "arity-1 defect" in rep.describe()


def test_check_mc_rejects_bad_differential():
    sp = chain_space()
    delta = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)},
                                   ((2, 0),): {(3, 0): Fraction(1)}})
    rep = check_mc(algebra(sp, delta=delta))
    assert not rep.ok and rep.delta_squared_failures
    tup, vec = rep.delta_squared_failures[0]
    assert tup == ((1, 0),) and vec == {(3, 0): Fraction(1)}


def test_witnesses_write_coefficients_as_num_over_den():
    sp = chain_space()
    delta = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(2)},
                                   ((2, 0),): {(3, 0): Fraction(3, 4)}})
    assert check_mc(algebra(sp, delta=delta)).describe() == (
        "delta^2 != 0 on ((1, 0),): {(3, 0): 3/2}\n"
        "arity-1 defect on ((1, 0),): {(3, 0): 3/2}")
    curved = algebra(sp, ops={0: MultiOp(0, 1, sp, sp, {(): {(1, 0): 1}})})
    half = MultiOp(1, 0, sp, sp, {((d, 0),): {(d, 0): Fraction(1, 2)} for d in (1, 2, 3)})
    rep = check_morphism(Morphism(curved, curved, (), OpFamily(0, sp, sp, {1: half})))
    assert rep.describe() == "arity-0 defect on (): {(1, 0): -1/2}"
    rng = random.Random(1407)
    damaged = [break_algebra(rng, random_mc_algebra(rng, amplitude=4, max_dim=3))
               for _ in range(6)]
    damaged = [alg for alg in damaged if alg is not None]
    assert damaged
    for alg in damaged:
        text = check_mc(alg).describe()
        assert "defect" in text and "Fraction(" not in text


def test_witnesses_list_keys_and_failures_in_order():
    # stored out of key order, lam_1(f) = g2 + g0 - g1 is the defect on e
    sp = GradedSpace.build({1: 1, 2: 1, 3: 3})
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): 1},
                                  ((2, 0),): {(3, 2): 1, (3, 0): 1, (3, 1): -1}})
    assert check_mc(algebra(sp, ops={1: lam1})).describe() == (
        "arity-1 defect on ((1, 0),): {(3, 0): 1, (3, 1): -1, (3, 2): 1}")
    # the identity from (f -> g) to (e -> f): phi o ell holds the later tuple,
    # ell' . phi the earlier one
    chain = chain_space()
    src, dst = (algebra(chain, ops={1: MultiOp(1, 1, chain, chain, ops)})
                for ops in ({((2, 0),): {(3, 0): 1}}, {((1, 0),): {(2, 0): 1}}))
    rep = check_morphism(Morphism(src, dst, (), OpFamily.identity(chain)))
    assert [tup for _, tup, _ in rep.failures] == [((1, 0),), ((2, 0),)]
    assert rep.describe() == ("arity-1 defect on ((1, 0),): {(2, 0): -1}\n"
                              "arity-1 defect on ((2, 0),): {(3, 0): 1}")


def test_check_mc_rejects_unannihilated_curvature():
    sp = chain_space()
    lam0 = MultiOp(0, 1, sp, sp, {(): {(1, 0): Fraction(1)}})
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})
    rep = check_mc(algebra(sp, ops={0: lam0, 1: lam1}))
    assert not rep.ok
    arity, tup, _ = rep.structure_failures[0]
    assert arity == 0 and tup == ()


def test_check_mc_cross_term_with_differential():
    # delta(e) = f and lam1(f) = g: the bracket [delta, lam1] does not vanish
    sp = chain_space()
    delta = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})
    lam1 = MultiOp(1, 1, sp, sp, {((2, 0),): {(3, 0): Fraction(1)}})
    rep = check_mc(algebra(sp, delta=delta, ops={1: lam1}))
    assert not rep.ok
    assert any(tup == ((1, 0),) for _, tup, _ in rep.structure_failures)


def test_random_algebras_pass_check_mc():
    rng = random.Random(41)
    for _ in range(10):
        alg = random_mc_algebra(rng, amplitude=rng.randint(1, 4))
        assert check_mc(alg).ok


# -- bundles ---------------------------------------------------------------------

def test_bundle_accessors():
    b = square_bundle()
    assert b.base_dim == 1 and b.amplitude == 1
    assert b.curvature_section() == {(1, 0): x ** 2}
    assert check_mc(b).ok


def test_bundle_rejects_unknown_coordinates():
    fiber = GradedSpace.build({1: 1})
    lam0 = MultiOp(0, 1, fiber, fiber, {(): {(1, 0): Poly.variable("z")}})
    with pytest.raises(ValueError):
        LinftyBundle(("x",), fiber, MultiOp.zero(1, 1, fiber, fiber),
                     OpFamily(1, fiber, fiber, {0: lam0}))


def test_coordinate_checks_read_the_terms_not_the_variable_tuple(monkeypatch):
    """A coefficient or base map may carry a name outside the coordinates
    that none of its terms uses; one that a term uses is refused by name.
    No polynomial is pruned when every variable tuple lies within the
    coordinates."""
    fiber = GradedSpace.build({1: 1})

    def bundle(coeff):
        lam0 = MultiOp(0, 1, fiber, fiber, {(): {(1, 0): coeff}})
        return LinftyBundle(("x",), fiber, MultiOp.zero(1, 1, fiber, fiber),
                            OpFamily(1, fiber, fiber, {0: lam0}))

    unused_w = Poly(("x", "w"), {(1, 0): 1})
    uses_w = Poly(("x", "w"), {(1, 0): 1, (0, 2): Fraction(1, 2)})
    assert bundle(unused_w).ops.ops[0].coeffs[()][(1, 0)] is unused_w
    with pytest.raises(ValueError, match=r"^coefficient uses unknown coordinates \['w'\]$"):
        bundle(uses_w)
    src, dst = plain_bundle(("x",)), plain_bundle(("y",))
    empty = OpFamily(0, src.fiber, dst.fiber, {})
    assert Morphism(src, dst, (unused_w,), empty).base_map == (unused_w,)
    with pytest.raises(ValueError, match=r"^base map uses unknown coordinates \['w'\]$"):
        Morphism(src, dst, (uses_w,), empty)

    pruned = []
    real = Poly.pruned
    monkeypatch.setattr(Poly, "pruned", lambda p: pruned.append(p) or real(p))
    inside = Poly(("x",), {(2,): 3, (0,): Fraction(1, 2)})
    b = bundle(inside)
    Morphism(src, dst, (inside,), empty)
    phi1 = MultiOp(1, 0, fiber, fiber, {((1, 0),): {(1, 0): inside}})
    Morphism(b, b, (x,), OpFamily(0, fiber, fiber, {1: phi1}))
    assert pruned == []
    bundle(unused_w)
    assert pruned == [unused_w]


def test_bundle_rejects_nonpositive_fiber():
    fiber = GradedSpace.build({0: 1})
    with pytest.raises(ValueError):
        LinftyBundle(("x",), fiber, MultiOp.zero(1, 1, fiber, fiber),
                     OpFamily(1, fiber, fiber, {}))


def test_at_point_specializes_coefficients():
    alg = at_point(square_bundle(), (3,))
    assert alg.ops.op(0).coeffs[()] == {(1, 0): Fraction(9)}
    with pytest.raises(ValueError):
        at_point(square_bundle(), (1, 2))
    # the same rule on one degree block of an arity-1 operation: a constant
    # Poly is its constant, any other Poly needs a point first
    fiber = square_bundle().fiber
    const = MultiOp(1, 0, fiber, fiber, {((1, 0),): {(1, 0): Poly.constant(3)}})
    assert op_matrix(const, 1) == [[Fraction(3)]]
    scaled = MultiOp(1, 0, fiber, fiber, {((1, 0),): {(1, 0): 2 * x}})
    with pytest.raises(ValueError):
        op_matrix(scaled, 1)


def test_structure_equation_survives_specialization():
    # substitution is a ring map, so MC on the bundle implies MC pointwise
    rng = random.Random(13)
    for _ in range(5):
        b = random_bundle(rng, ("x", "y"))
        assert check_mc(b).ok
        pt = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        assert check_mc(at_point(b, pt)).ok


def test_rename_coords_round_trip():
    b = square_bundle()
    r = b.rename_coords({"x": "u"})
    assert r.coords == ("u",)
    assert r.curvature_section() == {(1, 0): Poly.variable("u") ** 2}
    back = r.rename_coords({"u": "x"})
    assert back.curvature_section() == b.curvature_section()


def test_product_bundle_passes_check():
    rng = random.Random(19)
    a = random_bundle(rng, ("x",))
    b = random_bundle(rng, ("y",))
    prod, _, _ = product_bundle(a, b)
    assert prod.coords == ("x", "y")
    assert check_mc(prod).ok


# -- morphisms --------------------------------------------------------------------

def test_identity_is_a_morphism():
    b = square_bundle()
    assert check_morphism(identity_morphism(b)).ok


def test_curvature_mismatch_fails_at_arity_zero():
    src = plain_bundle(("u",))
    dst = square_bundle()
    m = Morphism(src, dst, (Poly.variable("u"),),
                 OpFamily(0, src.fiber, dst.fiber, {}))
    rep = check_morphism(m)
    assert not rep.ok
    n, tup, vec = rep.failures[0]
    assert n == 0 and tup == ()
    # witness is the defect phi(curv_src) - curv_dst(base map)
    assert vec == {(1, 0): -(Poly.variable("u") ** 2)}


def test_check_morphism_subtracts_the_sides_only_when_they_differ(monkeypatch):
    """A valid morphism's two sides are compared, never subtracted; a
    damaged one's witness is their difference, entry by entry."""
    good = random_morphism_onto(random.Random(4), square_bundle(), "t")
    bad = Morphism(good.src, good.dst, good.base_map,
                   good.phi.with_op(good.phi.op(1).scaled(2)))
    lhs = circ(bad.phi, bad.src.total())
    rhs = bullet(algebra_module.pullback_family(bad.dst.total(), bad.base_values()), bad.phi)
    want = sorted(((n, tup, vec) for n, op in lhs.minus(rhs).ops.items()
                   for tup, vec in op.coeffs.items()), key=lambda f: f[:2])
    assert want
    minus = OpFamily.minus
    calls = []

    def counting(self, other):
        calls.append(other)
        return minus(self, other)

    monkeypatch.setattr(OpFamily, "minus", counting)
    assert check_morphism(good).ok and check_morphism(identity_morphism(square_bundle())).ok
    assert not calls
    rep = check_morphism(bad)
    assert not rep.ok and rep.failures == want and len(calls) == 1


def test_subalgebra_inclusion_is_a_morphism():
    # the e-f chain sits inside the e-f-g chain
    big = chain_space()
    small = GradedSpace.build({1: 1, 2: 1})
    lam1_big = MultiOp(1, 1, big, big, {((1, 0),): {(2, 0): Fraction(1)}})
    lam1_small = MultiOp(1, 1, small, small, {((1, 0),): {(2, 0): Fraction(1)}})
    amb = algebra(big, ops={1: lam1_big})
    sub = algebra(small, ops={1: lam1_small})
    inc = MultiOp(1, 0, small, big, {((1, 0),): {(1, 0): Fraction(1)},
                                     ((2, 0),): {(2, 0): Fraction(1)}})
    m = Morphism(sub, amb, (), OpFamily(0, small, big, {1: inc}))
    assert check_morphism(m).ok


def test_linear_morphism_sends_each_key_to_its_column():
    big, small = chain_space(), GradedSpace.build({1: 1, 2: 1})
    m = linear_morphism(algebra(small), algebra(big), (),
                        {(1, 0): {(1, 0): Fraction(2)}, (2, 0): {(2, 0): Fraction(-1, 2)}})
    assert m.phi.arities() == [1]
    assert m.phi.op(1).coeffs == {((1, 0),): {(1, 0): 2}, ((2, 0),): {(2, 0): Fraction(-1, 2)}}
    assert check_morphism(m).ok
    # no column: the empty family of a map between plain bundles
    empty = linear_morphism(plain_bundle(("u",)), plain_bundle(("x",)), (Poly.variable("u"),), {})
    assert empty.phi.is_zero()
    # a key outside the source is refused by the checked MultiOp constructor
    with pytest.raises(KeyError):
        linear_morphism(algebra(small), algebra(big), (), {(3, 0): {(3, 0): 1}})


def test_broken_fiber_map_is_detected():
    b = square_bundle()
    bad = MultiOp(1, 0, b.fiber, b.fiber, {((1, 0),): {(1, 0): x}})
    m = Morphism(b, b, (Poly.variable("x"),),
                 OpFamily(0, b.fiber, b.fiber, {1: bad}))
    rep = check_morphism(m)
    assert not rep.ok
    assert any(n == 0 for n, _, _ in rep.failures)


def test_morphism_rejects_wrong_degree_family():
    b = square_bundle()
    fam = OpFamily(1, b.fiber, b.fiber, {})
    with pytest.raises(ValueError):
        Morphism(b, b, (Poly.variable("x"),), fam)
    with pytest.raises(ValueError):
        Morphism(b, b, (), OpFamily.identity(b.fiber))


def test_compose_with_identity():
    rng = random.Random(7)
    dst = random_bundle(rng, ("x",))
    f = random_morphism_onto(rng, dst, "a")
    left = compose(identity_morphism(dst), f)
    assert left.phi == f.phi and left.base_map == f.base_map
    right = compose(f, identity_morphism(f.src))
    assert right.phi == f.phi and right.base_map == f.base_map


def test_composite_of_morphisms_is_a_morphism():
    rng = random.Random(31)
    c = random_bundle(rng, ("z",), amplitude=2, max_dim=2, coeff_degree=1)
    g = random_morphism_onto(rng, c, "b")
    f = random_morphism_onto(rng, g.src, "a")
    assert check_morphism(g).ok and check_morphism(f).ok
    assert check_morphism(compose(g, f)).ok


# -- inversion of formal families ----------------------------------------------------

def test_invert_identity():
    ident = OpFamily.identity(square_bundle().fiber)
    assert invert_family(ident) == ident


def test_invert_scaling():
    b = square_bundle()
    phi1 = MultiOp.identity(b.fiber).scaled(2)
    # base map x -> x, fiber scaled by 2: target curvature must be 2 x^2
    fiber = b.fiber
    dst = LinftyBundle(("x",), fiber, b.delta,
                       OpFamily(1, fiber, fiber,
                                {0: b.ops.op(0).scaled(2)}))
    m = Morphism(b, dst, (Poly.variable("x"),),
                 OpFamily(0, fiber, fiber, {1: phi1}))
    assert check_morphism(m).ok
    psi = invert_family(m.phi)
    assert psi.op(1) == MultiOp.identity(fiber).scaled(Fraction(1, 2))
    assert check_morphism(Morphism(dst, b, (Poly.variable("x"),), psi)).ok


def test_invert_family_flips_quadratic_correction_sign():
    rng = random.Random(3)
    src = random_mc_algebra(rng, amplitude=2, max_dim=2)
    sp = src.fiber
    phi = random_formal_iso(rng, sp, max_arity=2)
    # keep the linear part the identity so phi_2 inverts by a plain sign flip
    phi = OpFamily(0, sp, sp, {1: MultiOp.identity(sp), 2: phi.op(2)})
    psi = invert_family(phi)
    assert psi.op(2) == phi.op(2).scaled(-1)
    moved = transport_source(psi, src.total())
    dst = LinftyBundle((), sp, MultiOp.zero(1, 1, sp, sp),
                       OpFamily(1, sp, sp, dict(moved.ops)))
    m = Morphism(src, dst, (), phi)
    inv = Morphism(dst, src, (), psi)
    assert check_morphism(m).ok and check_morphism(inv).ok
    assert compose(inv, m).phi == OpFamily.identity(sp)
    assert compose(m, inv).phi == OpFamily.identity(sp)


def test_invert_rejects_singular_linear_part():
    b = square_bundle()
    zero_phi = OpFamily(0, b.fiber, b.fiber,
                        {1: MultiOp.zero(1, 0, b.fiber, b.fiber)})
    with pytest.raises(ValueError, match="singular"):
        invert_family(zero_phi)
    with pytest.raises(ValueError):
        invert_linear_op(zero_phi.op(1))


def seeded_isos():
    """(structure, iso onto its space) at amplitude 2-5: the structure is a
    flat curved algebra, the iso a random invertible linear part followed
    by sparse terms up to arity 3, with constant coefficients and with
    polynomial ones in x, y above arity 1."""
    rng = random.Random(29)
    for amplitude in (2, 3, 4, 5):
        for poly_vars in ((), ("x", "y")):
            alg = random_mc_algebra(rng, amplitude=amplitude, max_dim=2)
            sp = alg.fiber
            lin = OpFamily(0, sp, sp, {1: random_invertible(rng, sp)})
            terms = random_formal_iso(rng, sp, max_arity=3, poly_vars=poly_vars,
                                      coeff_degree=1)
            yield alg.total(), bullet(terms, lin)


@pytest.mark.parametrize("n", range(8))
def test_invert_family_is_two_sided(n):
    _, phi = list(seeded_isos())[n]
    psi = invert_family(phi)
    ident = OpFamily.identity(phi.source)
    assert bullet(phi, psi) == ident and bullet(psi, phi) == ident
    assert invert_family(psi) == phi


def test_invert_family_draws_have_polynomial_higher_terms():
    draws = list(seeded_isos())
    assert {phi.source.max_degree for _, phi in draws} == {2, 3, 4, 5}
    assert any(isinstance(c, Poly) for _, phi in draws for n, op in phi.ops.items()
               if n >= 2 for vec in op.coeffs.values() for c in vec.values())


@pytest.mark.parametrize("n", range(8))
def test_transport_is_conjugation_and_round_trips(n):
    ell, psi = list(seeded_isos())[n]
    moved = transport_source(psi, ell)
    assert circ(psi, moved) == bullet(ell, psi)
    assert circ(moved, moved).is_zero()
    assert transport_source(invert_family(psi), moved) == ell


# -- structure transport -------------------------------------------------------------

def test_transport_round_trip():
    rng = random.Random(23)
    alg = random_mc_algebra(rng, amplitude=3, max_dim=3)
    psi = random_formal_iso(rng, alg.fiber, max_arity=3)
    moved = transport_source(psi, alg.total())
    assert transport_source(invert_family(psi), moved) == alg.total()


def test_transport_worked_example():
    # unary structure on e, a -> f plus a quadratic change of coordinates
    sp = GradedSpace.build({1: 2, 2: 1, 3: 1},
                           labels={1: ["e", "a"], 2: ["f"], 3: ["g"]})
    delta = MultiOp(1, 1, sp, sp, {((1, 1),): {(2, 0): Fraction(1)}})
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})
    alg = LinftyBundle((), sp, delta, OpFamily(1, sp, sp, {1: lam1}))
    assert check_mc(alg).ok
    ell = alg.total()
    psi2 = MultiOp(2, 0, sp, sp, {((1, 0), (1, 1)): {(2, 0): Fraction(3)},
                                  ((1, 0), (2, 0)): {(3, 0): Fraction(-2)}})
    psi = OpFamily(0, sp, sp, {1: MultiOp.identity(sp), 2: psi2})
    moved = transport_source(psi, ell)
    assert circ(psi, moved) == bullet(ell, psi)
    assert check_mc(LinftyBundle((), sp, MultiOp.zero(1, 1, sp, sp),
                                 OpFamily(1, sp, sp, dict(moved.ops)))).ok
    assert transport_source(invert_family(psi), moved) == ell


# -- fibration splitting ---------------------------------------------------------------

def test_linearize_projection_fibration():
    rng = random.Random(11)
    a = random_bundle(rng, ("x",), amplitude=2, max_dim=2, coeff_degree=1)
    b = random_bundle(rng, ("y",), amplitude=2, max_dim=2, coeff_degree=1)
    prod, _, _ = product_bundle(a, b)
    m = product_projection(prod, a, first=True)
    assert check_morphism(m).ok
    lf = linearize_fibration(m)
    assert check_mc(lf.iso.dst).ok
    assert check_morphism(lf.iso).ok
    assert check_morphism(lf.linear).ok
    # strictness: the linear leg is arity-1 only with constant coefficients
    assert set(lf.linear.phi.ops) <= {1}
    comp = compose(lf.linear, lf.iso)
    assert comp.phi == m.phi and comp.base_map == m.base_map
    # the projection keeps a copy of a's fiber and drops the kernel
    kept = {k for (k,) in lf.linear.phi.op(1).coeffs}
    for d in prod.fiber.degrees():
        assert lf.iso.dst.fiber.dim(d) == prod.fiber.dim(d)
        assert sum(k[0] == d for k in kept) == a.fiber.dim(d)


# -- coordinate projections pulled back in place -------------------------------------

def seeded_projection():
    """Projection of a seeded product onto its second factor, so that the
    dropped keys come first in every degree."""
    rng = random.Random(11)
    a = random_bundle(rng, ("x",), amplitude=2, max_dim=2, coeff_degree=1)
    b = random_bundle(rng, ("y",), amplitude=2, max_dim=2, coeff_degree=1)
    prod, _, _ = product_bundle(a, b)
    return product_projection(prod, b, first=False)


def path_evaluation(bundle):
    return derived_path_space(bundle).evaluation


PROJECTIONS = {
    "square": lambda: path_evaluation(square_bundle()),
    "circle": lambda: path_evaluation(circle_bundle()),
    "amp2": lambda: path_evaluation(amp2_bundle()),
    "plain": lambda: path_evaluation(plain_bundle(("u", "v"))),
    "seeded": seeded_projection,
}


def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} ran on the in-place path")
    return call


@pytest.mark.parametrize("name", sorted(PROJECTIONS))
def test_coordinate_projection_is_straightened_by_relabelling(name, monkeypatch):
    """A coordinate projection needs no straightening: its pullback sends
    each key to the source key it relabels, and neither linearize_fibration
    (as geometry binds it) nor invert_family runs.  The bundle and both
    projections equal those of the straightened route, which pulls back
    the projection of linearize_fibration and composes the inverse iso."""
    m = PROJECTIONS[name]()
    other = identity_morphism(m.dst)
    monkeypatch.setattr(geometry, "linearize_fibration", refuse("linearize_fibration"))
    monkeypatch.setattr(algebra_module, "invert_family", refuse("invert_family"))
    res = pullback_fibration(m, other)
    monkeypatch.undo()
    assert virtual_dimension(res.bundle) == virtual_dimension(m.src)
    lin = linearize_fibration(m)
    straight = pullback_fibration(lin.linear, other)
    assert res.bundle == straight.bundle
    assert same_morphism(res.to_fibration_source,
                         compose(lin.inverse, straight.to_fibration_source))
    assert same_morphism(res.to_other_source, straight.to_other_source)


def test_relabelling_reorders_odd_keys_under_their_sign():
    # amp2's path space has binary operations; relabelled by the
    # straightening iso, the kept end values move ahead of the dropped
    # keys and some tuple is re-sorted past an odd key, so the comparison
    # of the two routes above meets a Koszul sign on amp2
    m = PROJECTIONS["amp2"]()
    lin = linearize_fibration(m)
    sigma = {k: next(iter(vec)) for (k,), vec in lin.iso.phi.op(1).coeffs.items()}
    flips = 0
    for n, op in m.src.total().ops.items():
        for tup in op.coeffs:
            image = [sigma[k] for k in tup]
            odd = [k for k in image if k[0] % 2]
            flips += sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:]) % 2
    assert flips > 0


def through_source_iso(m, psi):
    """m precomposed with the iso psi onto m's source, whose own source
    carries the structure transported back through psi."""
    fiber = m.src.fiber
    ell = transport_source(psi, m.src.total())
    src = LinftyBundle(m.src.coords, fiber, MultiOp.zero(1, 1, fiber, fiber),
                       OpFamily(1, fiber, fiber, dict(ell.ops)))
    g = Morphism(src, m.src, tuple(Poly.variable(c) for c in m.src.coords), psi)
    assert check_morphism(g).ok
    return compose(m, g)


def near_projection(kind):
    m = seeded_projection()
    fiber = m.src.fiber
    ident = MultiOp.identity(fiber)
    kept = {k for (k,) in m.phi.op(1).coeffs}
    if kind == "coefficient 2":
        return through_source_iso(m, OpFamily(0, fiber, fiber, {1: ident.scaled(2)}))
    if kind == "target hit twice":
        # a dropped key d also picks up a kept key k of its degree
        d, k = next((d, k) for d in fiber.keys() if d not in kept
                    for k in sorted(kept) if k[0] == d[0])
        shear = MultiOp(1, 0, fiber, fiber, {(d,): {k: Fraction(1)}})
        return through_source_iso(m, OpFamily(0, fiber, fiber, {1: ident.plus(shear)}))
    # an arity-2 component landing on a kept key
    a, b, k = next((a, b, k) for a in fiber.keys() for b in fiber.keys()
                   for k in sorted(kept) if a < b and a[0] + b[0] == k[0])
    psi2 = MultiOp(2, 0, fiber, fiber, {(a, b): {k: Fraction(1)}})
    return through_source_iso(m, OpFamily(0, fiber, fiber, {1: ident, 2: psi2}))


@pytest.mark.parametrize("kind", ["coefficient 2", "target hit twice", "arity 2"])
def test_near_projection_takes_the_general_path(kind, monkeypatch):
    m = near_projection(kind)
    calls = []
    real = algebra_module.invert_family
    monkeypatch.setattr(algebra_module, "invert_family",
                        lambda phi: calls.append(1) or real(phi))
    lin = linearize_fibration(m)
    assert calls == [1]
    assert check_morphism(lin.iso).ok and check_morphism(lin.linear).ok
    assert check_morphism(lin.inverse).ok
    assert same_morphism(compose(lin.linear, lin.iso), m)
    assert same_morphism(compose(lin.inverse, lin.iso), identity_morphism(m.src))
    assert same_morphism(compose(lin.iso, lin.inverse), identity_morphism(lin.iso.dst))


def residual_kernel_coordinates(phi1, source, target):
    """Per degree, the kernel-basis coordinates of every source unit vector
    e_i, solved from its residual e_i - W phi1 e_i (W a right inverse of
    phi1) against the kernel basis."""
    out = {}
    for d in sorted(set(source.degrees()) | set(target.degrees())):
        mat = op_matrix(phi1, d)
        n = source.dim(d)
        kern = kernel_basis(mat, cols=n)
        if not kern:
            continue
        resid = [[int(r == i) for r in range(n)] for i in range(n)]
        if target.dim(d):
            w = right_inverse(mat)
            for i in range(n):
                for r in range(n):
                    resid[i][r] -= sum(w[r][s] * mat[s][i] for s in range(len(mat)))
        out[d] = solve_columns([[v[r] for v in kern] for r in range(n)], resid)
    return out


@pytest.mark.parametrize("kind", ["coefficient 2", "target hit twice", "arity 2", "seeded"])
def test_kernel_coordinates_equal_the_residual_solve(kind):
    m = seeded_projection() if kind == "seeded" else near_projection(kind)
    phi1 = m.phi.op(1)
    dims, coords = _kernel_complement(phi1, m.src.fiber, m.dst.fiber)
    assert coords == residual_kernel_coordinates(phi1, m.src.fiber, m.dst.fiber)
    assert set(coords) == {d for d, n in dims.items() if n}


@pytest.mark.parametrize("kind", ["coefficient 2", "target hit twice", "arity 2"])
def test_near_projection_is_straightened_inside_the_pullback(kind, monkeypatch):
    """The straightening runs once and solves the inverse of its iso once;
    the pullback composes that inverse rather than solving it again."""
    m = near_projection(kind)
    calls = []
    real = geometry.linearize_fibration
    monkeypatch.setattr(geometry, "linearize_fibration",
                        lambda f: calls.append("straighten") or real(f))
    real_inverse = algebra_module.invert_family
    monkeypatch.setattr(algebra_module, "invert_family",
                        lambda phi: calls.append("invert") or real_inverse(phi))
    other = identity_morphism(m.dst)
    res = pullback_fibration(m, other)
    assert calls == ["straighten", "invert"]
    assert check_mc(res.bundle).ok
    assert check_morphism(res.to_fibration_source).ok
    assert check_morphism(res.to_other_source).ok
    assert same_morphism(compose(m, res.to_fibration_source),
                         compose(other, res.to_other_source))
    assert virtual_dimension(res.bundle) == virtual_dimension(m.src)


@pytest.mark.parametrize("name", ["square", "circle", "amp2", "seeded"])
def test_a_corrupted_relabelling_is_caught(name, monkeypatch):
    """One flipped coefficient in the structure the in-place pullback
    builds is caught by the pullback's own checks."""
    m = PROJECTIONS[name]()
    flipped = []

    class Corrupting(MultiOp):
        # the operations geometry builds, its coordinate projection among
        # them: their first nonzero post-composition has one flipped entry
        def compose_linear(self, inner):
            out = super().compose_linear(inner)
            if out.coeffs and not flipped:
                tup, vec = next(iter(out.coeffs.items()))
                key, c = next(iter(vec.items()))
                flipped.append(tup)
                return MultiOp(out.arity, out.degree, out.source, out.target,
                               {**out.coeffs, tup: {**vec, key: -c}})
            return out

    monkeypatch.setattr(geometry, "MultiOp", Corrupting)
    with pytest.raises(AssertionError, match="pullback"):
        pullback_fibration(m, identity_morphism(m.dst))
    assert flipped


@pytest.mark.parametrize("name", ["square", "amp2", "seeded"])
def test_a_projection_that_is_not_a_morphism_is_refused(name):
    # flip one coefficient of the source structure that lands on a kept key
    m = PROJECTIONS[name]()
    kept = {k for (k,) in m.phi.op(1).coeffs}
    fiber, ell = m.src.fiber, m.src.total()
    n, tup, key = next((n, tup, key) for n, op in sorted(ell.ops.items())
                       for tup, vec in op.coeffs.items() for key in vec if key in kept)
    op = ell.op(n)
    bad = MultiOp(n, 1, fiber, fiber,
                  {**op.coeffs, tup: {**op.coeffs[tup], key: -op.coeffs[tup][key]}})
    src = LinftyBundle(m.src.coords, fiber, MultiOp.zero(1, 1, fiber, fiber),
                       ell.with_op(bad))
    broken = Morphism(src, m.dst, m.base_map, m.phi)
    # the pullback takes its fibration as certified; its own certificate of
    # the projection it builds is what refuses this one
    with pytest.raises(AssertionError, match="pullback projection is not a morphism"):
        pullback_fibration(broken, identity_morphism(m.dst))
