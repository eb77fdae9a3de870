"""Acceptance gate: one timed check per advertised guarantee.

Run with -v to get a single pass/fail line per numbered guarantee.  Every
check is exact rational arithmetic; the only floating point anywhere is
the seed search for classical points, and each hit is re-certified
exactly before use.
"""

import random
import time
from fractions import Fraction

from oracles import (PathSection, amp2_bundle, circle_bundle, identity_morphism,
                     inclusion_morphism, path_delta, path_eta, perturbation_check, pi_con,
                     pi_lin, projection_phi1, pullback, random_affine_images,
                     random_perturbation_instance, square_bundle, transferred_bundle,
                     transferred_mu0, transferred_mu1, transferred_phi1)

from linfty.algebra import LinftyBundle, Morphism, check_mc, check_morphism, plain_bundle
from linfty.geometry import is_weak_equivalence, shifted_tangent, virtual_dimension
from linfty.graded import GradedSpace, MultiOp, OpFamily, bullet
from linfty.modelio import (bundle_from_json, bundle_to_json,
                            contraction_from_json, contraction_to_json, dumps,
                            morphism_from_json, morphism_to_json)
from linfty.pathspace import (_plain_map, ambient_coord_names, axis_submanifold,
                              derived_intersection, derived_path_space,
                              factorize_diagonal, graph_submanifold,
                              homotopy_fibered_product, verify_factorization,
                              zero_locus_model)
from linfty.poly import Poly
from linfty.samples import (break_algebra, random_bundle, random_mc_algebra,
                            random_morphism_onto, random_transfer_instance)
from linfty.transfer import projection_morphism, transfer, transfer_trees

x = Poly.variable("x")


# shared between guarantees 2 and 3: the tree-sum engine must agree on the
# exact instances the recursive engine was certified on
_TRANSFER_CACHE: list | None = None


def transfer_instances():
    global _TRANSFER_CACHE
    if _TRANSFER_CACHE is None:
        rng = random.Random(20260202)
        out = []
        for _ in range(100):
            con, lam = random_transfer_instance(
                rng, amplitude=rng.choice([2, 3, 4]),
                max_dim=rng.choice([2, 3, 4, 5]))
            out.append((con, lam, transfer(con, lam)))
        _TRANSFER_CACHE = out
    return _TRANSFER_CACHE


def test_c01_mc_closure_suite():
    t0 = time.monotonic()
    rng = random.Random(20260101)
    algebras = [random_mc_algebra(rng, amplitude=rng.choice([2, 3, 4]),
                                  max_dim=rng.choice([2, 3]))
                for _ in range(200)]
    for alg in algebras:
        assert check_mc(alg).ok

    sp = GradedSpace.build({1: 1, 2: 1, 3: 1})
    step = {((1, 0),): {(2, 0): Fraction(1)}, ((2, 0),): {(3, 0): Fraction(1)}}

    bad_delta = LinftyBundle((), sp, MultiOp(1, 1, sp, sp, step),
                             OpFamily(1, sp, sp, {}))
    rep = check_mc(bad_delta)
    assert not rep.ok
    assert rep.delta_squared_failures[0][0] == ((1, 0),)
    assert rep.delta_squared_failures[0][1] == {(3, 0): Fraction(1)}

    bad_lam1 = LinftyBundle((), sp, MultiOp.zero(1, 1, sp, sp),
                            OpFamily(1, sp, sp, {1: MultiOp(1, 1, sp, sp, step)}))
    rep = check_mc(bad_lam1)
    assert not rep.ok
    assert rep.structure_failures[0][:2] == (1, ((1, 0),))
    assert rep.structure_failures[0][2] == {(3, 0): Fraction(1)}

    sp2 = GradedSpace.build({1: 1, 2: 1})
    loose_curvature = LinftyBundle(
        (), sp2, MultiOp.zero(1, 1, sp2, sp2),
        OpFamily(1, sp2, sp2,
                 {0: MultiOp(0, 1, sp2, sp2, {(): {(1, 0): Fraction(1)}}),
                  1: MultiOp(1, 1, sp2, sp2, {((1, 0),): {(2, 0): Fraction(1)}})}))
    rep = check_mc(loose_curvature)
    assert not rep.ok
    assert rep.structure_failures[0][1] == ()

    broken = 0
    for alg in algebras[:20]:
        bad = break_algebra(rng, alg)
        if bad is None:
            continue
        broken += 1
        assert not check_mc(bad).ok
    assert broken >= 10
    assert time.monotonic() - t0 < 30


def test_c02_transfer_theorem_suite():
    t0 = time.monotonic()
    for con, lam, res in transfer_instances():
        assert check_mc(transferred_bundle(res)).ok
        ambient = LinftyBundle((), con.space, con.delta, lam)
        assert check_morphism(inclusion_morphism(res, ambient)).ok

        proj = projection_morphism(con, lam)
        assert bullet(proj, res.phi) == OpFamily.identity(con.h_space)

        assert res.phi.op(1) == transferred_phi1(con, lam)
        assert res.mu.op(1) == transferred_mu1(con, lam)
        mu0 = res.mu.op(0)
        got0 = mu0.evaluate_basis(()) if not mu0.is_zero() else {}
        assert got0 == transferred_mu0(con, lam)
        assert proj.op(1) == projection_phi1(con, lam)
    assert time.monotonic() - t0 < 60


def test_c03_trees_match_recursion():
    for con, lam, res in transfer_instances():
        via_trees = transfer_trees(con, lam)
        assert via_trees.phi == res.phi
        assert via_trees.mu == res.mu


def test_c04_perturbation_identities():
    rng = random.Random(20260404)
    checked = 0
    while checked < 50:
        con, lam1 = random_perturbation_instance(
            rng, amplitude=rng.choice([2, 3, 4]),
            max_dim=rng.choice([2, 3, 4, 5]))
        rep = perturbation_check(con, lam1)
        assert rep.ok and not rep.failures
        # the two defining identities, spelled out rather than trusted
        assert rep.pi1.compose_linear(rep.phi1) == MultiOp.identity(con.h_space)
        dtot = con.delta.plus(lam1)
        bracket = dtot.compose_linear(rep.eta_new).plus(
            rep.eta_new.compose_linear(dtot))
        assert rep.phi1.compose_linear(rep.pi1) == \
            MultiOp.identity(con.space).minus(bracket)
        checked += 1


def random_section(rng, dt):
    ncomp = rng.randint(1, 3)
    comps = []
    for _ in range(ncomp):
        terms = {(k,): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for k in range(rng.randint(1, 7))}
        comps.append(Poly(("t",), terms))
    m = rng.randint(1, 2)
    start = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
    end = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
    return PathSection.make(start, end, rng.randint(1, 3), comps, dt=dt)


def test_c05_path_contraction_identities():
    rng = random.Random(20260505)
    for _ in range(100):
        s = random_section(rng, dt=False)
        ed = path_eta(path_delta(s))
        lin = pi_lin(s)
        assert all(a - b == c for a, b, c
                   in zip(s.components, ed.components, lin.components))
        assert pi_lin(lin).components == lin.components

    for _ in range(100):
        s = random_section(rng, dt=True)
        h = path_eta(s)
        assert h.dt is False                      # eta lands in plain sections,
        assert h.value_at(0) == h.value_at(1)     # where it acts as zero
        assert all(v == 0 for v in h.value_at(0))
        assert path_eta(path_delta(h)).components == h.components
        de = path_delta(h)
        con = pi_con(s)
        assert all(a - b == c for a, b, c
                   in zip(s.components, de.components, con.components))
        assert pi_con(con).components == con.components


def test_c06_factorization_instances():
    t0 = time.monotonic()
    half = Fraction(1, 2)
    cases = [
        (plain_bundle(("x",)), [(0,), (2,)]),
        (plain_bundle(("x", "y")), [(0, 0), (1, -1)]),
        (plain_bundle(("x", "y", "z")), [(0, 0, 0), (1, 2, 3)]),
        (square_bundle(), [(0,)]),
        (circle_bundle(), [(1, 0), (0, 1), (-1, 0), (Fraction(3, 5), Fraction(4, 5))]),
        (amp2_bundle(), [(0, 0), (0, half)]),
    ]
    for bundle, pts in cases:
        fz = factorize_diagonal(bundle)   # raises unless composite == diagonal
        rep = verify_factorization(fz, pts)
        assert rep.weak_equiv.ok, (bundle.coords, rep.weak_equiv)
        assert rep.fibration.ok, (bundle.coords, rep.fibration)
        assert rep.ok
    assert time.monotonic() - t0 < 60


def test_c07_path_space_formulas():
    # quasi-smooth model: every transferred coefficient in closed form
    dps = derived_path_space(square_bundle())
    pm, m = dps.bundle, dps.model
    p, q = (Poly.variable(c).with_vars(pm.coords) for c in pm.coords)

    nu0 = pm.ops.op(0).evaluate_basis(())
    assert nu0 == {m.h_base_dt[0]: q - p,
                   m.h_end[((1, 0), 0)]: p ** 2,
                   m.h_end[((1, 0), 1)]: q ** 2}

    nu1 = pm.ops.op(1)
    avg = m.h_avg[(1, 0)]
    assert nu1.evaluate_basis((m.h_base_dt[0],)) == {avg: p + q}
    assert nu1.evaluate_basis((m.h_end[((1, 0), 0)],)) == {}
    assert nu1.evaluate_basis((m.h_end[((1, 0), 1)],)) == {}
    assert pm.ops.arities() == [0, 1]

    # same numbers from the projection calculus directly
    rng = random.Random(7)
    for _ in range(3):
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        grad = pi_con(pullback([2 * x], ("x",), (a,), (b,), 1, dt=True))
        assert grad.components[0].eval({"t": 0}) == \
            (p + q).eval({"x_0": a, "x_1": b})
        lam0_pull = pi_lin(pullback([x ** 2], ("x",), (a,), (b,), 1))
        assert lam0_pull.value_at(0)[0] == a ** 2
        assert lam0_pull.value_at(1)[0] == b ** 2

    # amplitude-2 model: unary and binary closed forms
    dps2 = derived_path_space(amp2_bundle())
    pm2, m2 = dps2.bundle, dps2.model
    p1, p2, q1, q2 = (Poly.variable(c).with_vars(pm2.coords) for c in pm2.coords)
    half, third = Fraction(1, 2), Fraction(1, 3)

    nu0 = pm2.ops.op(0).evaluate_basis(())
    assert nu0 == {m2.h_base_dt[0]: q1 - p1,
                   m2.h_base_dt[1]: q2 - p2,
                   m2.h_end[((1, 0), 0)]: p1 ** 2,
                   m2.h_end[((1, 0), 1)]: q1 ** 2,
                   m2.h_end[((1, 1), 0)]: -(p1 ** 2) * p2,
                   m2.h_end[((1, 1), 1)]: -(q1 ** 2) * q2}

    nu1 = pm2.ops.op(1)
    assert nu1.evaluate_basis((m2.h_end[((1, 0), 0)],)) == {
        m2.h_end[((2, 0), 0)]: p2}
    assert nu1.evaluate_basis((m2.h_avg[(1, 0)],)) == {
        m2.h_avg[(2, 0)]: half * p2 + half * q2}
    assert nu1.evaluate_basis((m2.h_base_dt[0],)) == {
        m2.h_avg[(1, 0)]: p1 + q1,
        m2.h_avg[(1, 1)]: (-2 * third * p1 * p2 - third * p1 * q2
                           - third * q1 * p2 - 2 * third * q1 * q2)}
    assert nu1.evaluate_basis((m2.h_base_dt[1],)) == {
        m2.h_avg[(1, 1)]: -third * (p1 ** 2 + p1 * q1 + q1 ** 2)}

    nu2 = pm2.ops.op(2)
    tangents = tuple(sorted((m2.h_base_dt[0], m2.h_base_dt[1])))
    assert nu2.evaluate_basis(tangents) == {
        m2.h_avg[(2, 0)]: Fraction(1, 6) * (p1 - q1)}
    assert nu2.evaluate_basis(
        tuple(sorted((m2.h_base_dt[0], m2.h_end[((1, 0), 0)])))) == {}
    assert all(k <= 2 for k in pm2.ops.arities())


def test_c08_derived_intersections():
    inter = derived_intersection(axis_submanifold(0, 2), axis_submanifold(1, 2))
    assert len(inter.points) == 1
    pt = inter.points[0]
    assert (pt.h0, pt.h1) == (0, 0) and pt.transversal

    point_bundle = plain_bundle(())
    collapse = Morphism(inter.bundle, point_bundle, (),
                        OpFamily(0, inter.bundle.fiber, point_bundle.fiber, {}))
    assert check_morphism(collapse).ok
    weq = is_weak_equivalence(collapse, [pt.point], [()])
    assert weq.ok

    u = Poly.variable("u")
    inter = derived_intersection(axis_submanifold(0, 2), graph_submanifold(u * u))
    assert len(inter.points) == 1
    pt = inter.points[0]
    assert (pt.h0, pt.h1) == (1, 1) and not pt.transversal

    rng = random.Random(20260808)
    zero = Fraction(0)
    for trial in range(20):
        m = rng.randint(1, 3)
        kx, ky = rng.randint(1, m), rng.randint(1, m)
        xs = tuple(f"u{i}" for i in range(kx))
        ys = tuple(f"v{i}" for i in range(ky))
        amb = ambient_coord_names(m)
        if trial % 3 == 0 and m == 2:
            c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
            second = _plain_map(("v0",), amb, (Poly.variable("v0"),
                                               Poly.variable("v0") * c1
                                               + Poly.variable("v0") ** 2 * c2))
            ky = 1
        else:
            second = _plain_map(ys, amb, _through_origin(
                random_affine_images(rng, m, ky, ys), ys))
        first = _plain_map(xs, amb, _through_origin(
            random_affine_images(rng, m, kx, xs), xs))
        inter = derived_intersection(first, second,
                                     points=[(zero,) * (kx + ky)])
        assert inter.virtual_dim == kx + ky - m
        p = inter.points[0]
        assert p.h0 - p.h1 == kx + ky - m

    cmp = zero_locus_model(("x",), [x ** 2])
    assert cmp.weak_equiv.ok
    assert [p.coords for p in cmp.points] == [(Fraction(0),)]


def _through_origin(images, params):
    zeros = {u: Fraction(0) for u in params}
    return tuple(p - Poly.monomial(params, (0,) * len(params), p.eval(zeros)) for p in images)


def test_c09_fibered_product_dimensions():
    rng = random.Random(20260909)
    for trial in range(20):
        coords = ("z",) if trial % 2 else ("z1", "z2")
        dst = random_bundle(rng, coords, amplitude=2, max_dim=2, coeff_degree=1)
        f = random_morphism_onto(rng, dst, "a")
        g = random_morphism_onto(rng, dst, "b")
        fp = homotopy_fibered_product(f, g)
        assert check_mc(fp.bundle).ok
        assert virtual_dimension(fp.bundle) == (
            virtual_dimension(f.src) + virtual_dimension(g.src)
            - virtual_dimension(dst))


def test_c10_round_trip_fixtures():
    con, lam, res = transfer_instances()[0]
    fz = factorize_diagonal(square_bundle())
    inter = derived_intersection(axis_submanifold(0, 2),
                                 graph_submanifold(Poly.variable("u") ** 2))
    bundles = [square_bundle(), circle_bundle(), amp2_bundle(),
               fz.path_space.bundle, shifted_tangent(square_bundle()), inter.bundle]
    for b in bundles:
        doc = bundle_to_json(b)
        text = dumps(doc)
        back, meta = bundle_from_json(doc)
        assert dumps(bundle_to_json(back, meta or None)) == text
        assert check_mc(back).ok

    doc = bundle_to_json(transferred_bundle(res))
    text = dumps(doc)
    back, _ = bundle_from_json(doc)
    assert dumps(bundle_to_json(back)) == text
    assert check_mc(back).ok

    for mor in [identity_morphism(square_bundle()), fz.weak_equivalence]:
        doc = morphism_to_json(mor)
        text = dumps(doc)
        back = morphism_from_json(doc)
        assert dumps(morphism_to_json(back)) == text
        assert check_morphism(back).ok

    doc = contraction_to_json(con)
    text = dumps(doc)
    back = contraction_from_json(doc)
    assert dumps(contraction_to_json(back)) == text
    back.validate()
