"""Derived path spaces, diagonal factorization, intersections, zero loci."""

import dataclasses
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from oracles import (PathSection, amp2_bundle, at_point, bareiss_betti, circle_bundle,
                     compose_linear_literal, identity_morphism, path_curved_structure, path_eta,
                     path_perturbation_tabulated, path_space_manifold, pi_con, pi_lin,
                     pullback, section_bundle, square_bundle)

from linfty.algebra import (LinftyBundle, Morphism, check_mc, check_morphism,
                            compose, op_matrix, plain_bundle)
from linfty.cli import main
from linfty.geometry import (CochainComplex, classical_point, find_classical_points,
                             is_weak_equivalence, shifted_tangent_data, tangent_complex,
                             virtual_dimension)
from linfty.graded import GradedSpace, MultiOp, OpFamily, bullet
from linfty.modelio import bundle_to_json, dumps
from linfty.poly import Poly
from linfty import algebra, geometry, linalg, pathspace, transfer
from linfty.linalg import solve_columns
from linfty.pathspace import (_doubled_names, _plain_map,
                              axis_submanifold, build_path_model, derived_intersection,
                              derived_path_space,
                              factorize_diagonal, graph_submanifold,
                              homotopy_fibered_product, path_perturbation,
                              required_t_degree, verify_factorization, zero_locus_model)
from linfty.samples import random_bundle
from linfty.transfer import Contraction

x = Poly.variable("x")


@pytest.fixture(scope="module")
def square_dps():
    return derived_path_space(square_bundle())


@pytest.fixture(scope="module")
def amp2_dps():
    return derived_path_space(amp2_bundle())


# -- point search and tangent complexes on the fixtures ---------------------------

# `report --json` on the circle: the Newton search's floats are the exact
# values at each float iterate, rounded once, so these strings change only
# if the search itself changes
CIRCLE_CANDIDATES = [
    ["-0.9488002266123646", "-0.31587676391327923"], ["-0.9488002266123646", "0.31587676391327923"],
    ["-0.8942282756548667", "-0.4476112051987665"], ["-0.8942282756548667", "0.4476112051987665"],
    ["-0.8329712385007126", "-0.5533162891426471"], ["-0.8329712385007126", "0.5533162891426471"],
    ["-0.7085295752500547", "-0.7056811184920242"], ["-0.7085295752500547", "0.7056811184920242"],
    ["-0.7074508164094079", "-0.70676257864745"], ["-0.7074508164094079", "0.70676257864745"],
    ["-0.7071161745776187", "-0.7070973876722854"], ["-0.7071161745776187", "0.7070973876722854"],
    ["-0.5536232103789734", "-0.8327672789739518"], ["-0.5536232103789734", "0.8327672789739518"],
    ["-0.4475845896392877", "-0.8942415977338557"], ["-0.4475845896392877", "0.8942415977338557"],
    ["-0.3159828618180441", "-0.9487648976628925"], ["-0.3159828618180441", "0.9487648976628925"],
    ["0.3159828618180441", "-0.9487648976628925"], ["0.3159828618180441", "0.9487648976628925"],
    ["0.4475845896392877", "-0.8942415977338557"], ["0.4475845896392877", "0.8942415977338557"],
    ["0.5536232103789734", "-0.8327672789739518"], ["0.5536232103789734", "0.8327672789739518"],
    ["0.7071161745776187", "-0.7070973876722854"], ["0.7071161745776187", "0.7070973876722854"],
    ["0.7074508164094079", "-0.70676257864745"], ["0.7074508164094079", "0.70676257864745"],
    ["0.7085295752500547", "-0.7056811184920242"], ["0.7085295752500547", "0.7056811184920242"],
    ["0.8329712385007126", "-0.5533162891426471"], ["0.8329712385007126", "0.5533162891426471"],
    ["0.8942282756548667", "-0.4476112051987665"], ["0.8942282756548667", "0.4476112051987665"],
    ["0.9488002266123646", "-0.31587676391327923"], ["0.9488002266123646", "0.31587676391327923"],
]


def test_circle_report_keeps_its_points_and_floats(tmp_path, capsys):
    model = tmp_path / "circle.json"
    model.write_text(dumps(bundle_to_json(circle_bundle())))
    assert main(["report", str(model), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["classical_points"] == [{"point": p, "betti": {"0": 1}}
                                       for p in (["-1", "0"], ["0", "-1"], ["0", "1"], ["1", "0"])]
    assert doc["non_rational_candidates"] == CIRCLE_CANDIDATES


def tangent_complex_through_total(bundle, point):
    """The tangent complex with its arity-one part read off the whole merged family."""
    values = dict(zip(bundle.coords, point.coords))
    dims = {0: len(bundle.coords), **{d: bundle.fiber.dims[d] for d in bundle.fiber.degrees()}}
    diffs = {}
    jac = [[Fraction(0)] * len(bundle.coords) for _ in range(bundle.fiber.dim(1))]
    for (_, r), c in bundle.curvature_section().items():
        if isinstance(c, Poly):
            for j, name in enumerate(bundle.coords):
                jac[r][j] = c.diff(name).eval(values)
    if any(any(row) for row in jac):
        diffs[0] = jac
    ell1 = at_point(bundle, point.coords).total().op(1)
    for d in bundle.fiber.degrees():
        m = op_matrix(ell1, d)
        if any(any(row) for row in m):
            diffs[d] = m
    return CochainComplex(dims, diffs)


def test_tangent_complex_matches_the_merged_family(square_dps):
    bundles = [square_bundle(), circle_bundle(), amp2_bundle(), square_dps.bundle]
    assert square_dps.bundle.delta.coeffs and square_dps.bundle.ops.op(1).coeffs
    for b in bundles:
        exact, _ = find_classical_points(b)
        assert exact
        for cp in exact:
            assert tangent_complex(b, cp) == tangent_complex_through_total(b, cp)


# -- curved structure along a fixed path ---------------------------------------

def test_path_structure_with_rational_endpoints():
    b = square_bundle()
    alg = path_curved_structure(b, (Fraction(1, 2),), (Fraction(1, 3),))
    assert check_mc(alg).ok
    model = build_path_model(b)
    lam0 = alg.ops.op(0).coeffs[()]
    # displacement rides on the tangent dt generator
    assert lam0[model.base_dt[0]] == Fraction(-1, 6)
    # a(t)^2 = 1/4 - t/6 + t^2/36 spread over the t-power basis
    assert lam0[model.plain[((1, 0), 0)]] == Fraction(1, 4)
    assert lam0[model.plain[((1, 0), 1)]] == Fraction(-1, 6)
    assert lam0[model.plain[((1, 0), 2)]] == Fraction(1, 36)


def test_path_structure_unit_interval():
    b = square_bundle()
    alg = path_curved_structure(b, (0,), (1,))
    model = build_path_model(b)
    lam0 = alg.ops.op(0).coeffs[()]
    assert lam0[model.base_dt[0]] == 1
    assert lam0[model.plain[((1, 0), 2)]] == 1
    assert model.plain[((1, 0), 0)] not in lam0
    assert model.plain[((1, 0), 1)] not in lam0


def test_path_structure_of_a_plain_manifold_is_displacement_only():
    b = plain_bundle(("x", "y"))
    alg = path_curved_structure(b, (0, 0), (2, 5))
    model = build_path_model(b)
    assert alg.ops.op(0).coeffs[()] == {model.base_dt[0]: Fraction(2),
                                        model.base_dt[1]: Fraction(5)}
    assert check_mc(alg).ok


# -- degree cap management -------------------------------------------------------

def test_required_t_degree_is_coefficient_degree_times_amplitude():
    assert required_t_degree(square_bundle()) == 2
    assert required_t_degree(amp2_bundle()) == 6
    assert required_t_degree(plain_bundle(("x",))) == 0


def test_path_model_cap_is_the_required_t_degree_with_no_ceiling():
    assert build_path_model(square_bundle()).cap == 2
    assert build_path_model(amp2_bundle()).cap == 6
    assert build_path_model(plain_bundle(("x",))).cap == 2
    assert build_path_model(section_bundle(("x",), (x ** 16,))).cap == 16
    assert build_path_model(section_bundle(("x",), (x ** 17,))).cap == 17


def zero_ops_bundle(dims):
    """A bundle over one coordinate with no operations, fiber ranks `dims`."""
    fiber = GradedSpace.build(dims)
    return LinftyBundle(("x",), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {}))


PATH_MODEL_BUNDLES = {"square": square_bundle, "amp2": amp2_bundle,
                      "plain": lambda: plain_bundle(("x", "y")),
                      "fiber-1-4": lambda: zero_ops_bundle({1: 1, 2: 2, 3: 1, 4: 1})}


@pytest.mark.parametrize("name", sorted(PATH_MODEL_BUNDLES))
def test_closed_form_projection_is_the_solved_one(name, monkeypatch):
    bundle = PATH_MODEL_BUNDLES[name]()
    caps = range(max(2, required_t_degree(bundle)), 7)
    assert caps
    for cap in caps:
        # every sufficient truncation, not only the derived one
        monkeypatch.setattr(pathspace, "required_t_degree", lambda b, cap=cap: cap)
        model = build_path_model(bundle)
        assert model.cap == cap
        con = model.contraction
        # pi solved from iota pi = 1 - [delta, eta], one elimination per degree
        ed = con.eta.compose_linear(con.delta).plus(con.delta.compose_linear(con.eta))
        projector = MultiOp.identity(con.space).minus(ed)
        for d in model.space.degrees():
            solved = solve_columns(op_matrix(con.iota, d),
                                   list(zip(*op_matrix(projector, d))))
            assert [list(row) for row in zip(*solved)] == op_matrix(con.pi, d)
        # and read off the t-calculus oracles on every basis section
        start, end = (0,) * len(bundle.coords), (1,) * len(bundle.coords)
        for j, key in model.base_dt.items():
            assert con.pi.evaluate_basis((key,)) == {model.h_base_dt[j]: 1}
        for (fk, s), key in model.one_form.items():
            form = pi_con(PathSection.make(start, end, fk[0], [Poly(("t",), {(s,): 1})],
                                           dt=True))
            assert con.pi.evaluate_basis((key,)) == {model.h_avg[fk]: form.value_at(0)[0]}
        for (fk, s), key in model.plain.items():
            line = pi_lin(PathSection.make(start, end, fk[0], [Poly(("t",), {(s,): 1})]))
            want = {model.h_end[(fk, e)]: line.value_at(e)[0] for e in (0, 1)}
            assert con.pi.evaluate_basis((key,)) == {k: c for k, c in want.items() if c}


def test_path_model_solves_nothing(monkeypatch):
    calls = []
    for mod, name in ((linalg, "rref"), (transfer, "rref"), (transfer, "solve_columns")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    for make in PATH_MODEL_BUNDLES.values():
        build_path_model(make())
    assert calls == []
    # the counter does see the solve that the closed form replaced
    model = build_path_model(square_bundle())
    Contraction.from_basis(model.space, model.contraction.delta, model.contraction.eta,
                           model.contraction.h_space, model.contraction.iota)
    assert "solve_columns" in calls


def test_the_supplied_projection_is_checked_against_each_identity():
    """Each contraction identity rejects a wrong map on a path model.

    pi iota = id, pi eta = 0 and iota pi = 1 - [delta, eta] each fail for a
    wrong pi; eta iota = 0 does not involve pi, so a wrong iota trips it.
    The other four identities and delta^2 = 0 imply (pi delta iota)^2 = 0,
    so the last check is reached only by a record whose induced
    differential was altered after construction."""
    model = build_path_model(zero_ops_bundle({1: 1, 2: 1}))
    con = model.contraction
    args = (model.space, model.contraction.delta, model.contraction.eta, con.h_space)
    e, f = (1, 0), (2, 0)
    assert Contraction.from_maps(*args, con.iota, con.pi).pi == con.pi

    def plus(op, coeffs):
        return op.plus(MultiOp(1, 0, op.source, op.target, coeffs))

    with pytest.raises(ValueError, match="pi iota != id"):
        Contraction.from_maps(*args, con.iota, con.pi.scaled(2))
    # t e dt - (1/2) e dt has average zero but a nonzero homotopy image
    off_average = {(model.h_avg[e],): {model.one_form[(e, 1)]: Fraction(1),
                                       model.one_form[(e, 0)]: Fraction(-1, 2)}}
    with pytest.raises(ValueError, match="eta iota != 0"):
        Contraction.from_maps(*args, plus(con.iota, off_average), con.pi)
    # t^2 e lies in the image of eta, and iota never reaches it
    with pytest.raises(ValueError, match="pi eta != 0"):
        Contraction.from_maps(*args, con.iota,
                              plus(con.pi, {(model.plain[(e, 2)],): {model.h_end[(e, 0)]: 1}}))
    # t e dt lies in the image of delta eta, which iota and eta both miss
    with pytest.raises(ValueError, match=re.escape("iota pi != 1 - [delta, eta]")):
        Contraction.from_maps(*args, con.iota,
                              plus(con.pi, {(model.one_form[(e, 1)],): {model.h_avg[e]: 1}}))
    # e(1) -> f(1) -> f dt squares to a nonzero map
    bad = MultiOp(1, 1, con.h_space, con.h_space,
                  {(model.h_end[(e, 1)],): {model.h_end[(f, 1)]: 1},
                   (model.h_end[(f, 1)],): {model.h_avg[f]: 1}})
    with pytest.raises(ValueError, match="induced differential does not square to zero"):
        dataclasses.replace(con, delta_h=bad).validate()


@pytest.mark.parametrize("make", [square_bundle, circle_bundle, amp2_bundle],
                         ids=["square", "circle", "amp2"])
def test_path_space_does_not_depend_on_the_cap(make, monkeypatch):
    bundle = make()
    need = max(2, required_t_degree(bundle))
    docs = {}
    for cap in (need, need + 1, 16):
        monkeypatch.setattr(pathspace, "required_t_degree", lambda b, cap=cap: cap)
        dps = derived_path_space(bundle)
        assert dps.model.cap == cap
        docs[cap] = dumps(bundle_to_json(dps.bundle))
    assert docs[need] == docs[need + 1] == docs[16]


def test_the_derived_t_degree_suffices(monkeypatch):
    """The path space at max(2, required_t_degree) is the one at t-degree 16."""
    rng = random.Random(2026)
    bundles = [derived_path_space(square_bundle()).bundle]   # the iterated square
    while len(bundles) < 21:
        b = random_bundle(rng, ("x", "y")[:rng.randint(1, 2)], amplitude=rng.randint(1, 3),
                          coeff_degree=rng.randint(1, 3))
        if required_t_degree(b) <= 16:
            bundles.append(b)
    derived = [dumps(bundle_to_json(derived_path_space(b).bundle)) for b in bundles]
    monkeypatch.setattr(pathspace, "required_t_degree", lambda b: 16)
    assert [dumps(bundle_to_json(derived_path_space(b).bundle)) for b in bundles] == derived


# -- symbolic derived path space ---------------------------------------------------

def test_square_path_space_shape(square_dps):
    pm = square_dps.bundle
    assert pm.coords == ("x_0", "x_1")
    assert pm.fiber.dims == {1: 3, 2: 1}
    assert pm.amplitude == 2
    assert check_mc(pm).ok


def test_square_transferred_curvature(square_dps):
    m = square_dps.model
    pm = square_dps.bundle
    p, q = Poly.variable("x_0"), Poly.variable("x_1")
    nu0 = pm.ops.op(0).coeffs[()]
    assert nu0[m.h_base_dt[0]] == q - p
    assert nu0[m.h_end[((1, 0), 0)]] == p ** 2
    assert nu0[m.h_end[((1, 0), 1)]] == q ** 2
    assert m.h_avg[(1, 0)] not in nu0


def test_square_transferred_unary_part(square_dps):
    m = square_dps.model
    pm = square_dps.bundle
    p, q = Poly.variable("x_0"), Poly.variable("x_1")
    nu1 = pm.ops.op(1)
    avg = m.h_avg[(1, 0)]
    assert nu1.evaluate_basis((m.h_base_dt[0],)) == {avg: p + q}
    assert nu1.evaluate_basis((m.h_end[((1, 0), 0)],)) == {}
    assert nu1.evaluate_basis((m.h_end[((1, 0), 1)],)) == {}
    # twisted differential pairs end values against the averaged dt line
    assert pm.delta.evaluate_basis((m.h_end[((1, 0), 0)],)) == {avg: Fraction(1)}
    assert pm.delta.evaluate_basis((m.h_end[((1, 0), 1)],)) == {avg: Fraction(-1)}


def test_square_path_space_is_quasi_smoothly_truncated(square_dps):
    pm = square_dps.bundle
    for k in pm.ops.arities():
        if k >= 2:
            assert pm.ops.op(k).is_zero()


def test_square_unary_composite_from_first_principles(square_dps):
    # pi_con(a* dlam0) on the tangent dt line, at a few rational endpoints
    m = square_dps.model
    nu1 = square_dps.bundle.ops.op(1)
    avg = m.h_avg[(1, 0)]
    rng = random.Random(6)
    for _ in range(4):
        P = (Fraction(rng.randint(-4, 4)),)
        Q = (Fraction(rng.randint(-4, 4)),)
        s = pullback([2 * x], ("x",), P, Q, 1, dt=True)
        want = pi_con(s).components[0].eval({"t": 0})
        got = nu1.evaluate_basis((m.h_base_dt[0],))[avg].eval(
            {"x_0": P[0], "x_1": Q[0]})
        assert got == want


def test_constant_path_reduces_to_the_doubled_curvature(square_dps):
    m = square_dps.model
    at = at_point(square_dps.bundle, (Fraction(1, 2), Fraction(1, 2)))
    cur = at.ops.op(0).coeffs[()]
    assert cur == {m.h_end[((1, 0), 0)]: Fraction(1, 4),
                   m.h_end[((1, 0), 1)]: Fraction(1, 4)}


def test_inclusion_and_evaluation_are_morphisms(square_dps):
    assert check_morphism(factorize_diagonal(square_bundle()).weak_equivalence).ok
    assert check_morphism(square_dps.evaluation).ok


# -- amplitude-2 closed forms --------------------------------------------------------

def test_amp2_shape_and_truncation(amp2_dps):
    pm = amp2_dps.bundle
    src = amp2_bundle()
    assert check_mc(pm).ok
    # transferred amplitude grows by exactly one dt shift
    assert pm.amplitude == src.amplitude + 1
    for k in pm.ops.arities():
        if k >= src.amplitude + 1:
            assert pm.ops.op(k).is_zero()


def test_amp2_unary_closed_forms(amp2_dps):
    m = amp2_dps.model
    pm = amp2_dps.bundle
    p1, q1 = Poly.variable("x1_0"), Poly.variable("x1_1")
    p2, q2 = Poly.variable("x2_0"), Poly.variable("x2_1")
    nu1 = pm.ops.op(1)
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    # end values of the fiber feed through lam1 by linear interpolation
    assert nu1.evaluate_basis((m.h_end[((1, 0), 0)],)) == {
        m.h_end[((2, 0), 0)]: p2.with_vars(pm.coords)}
    # averaged dt lines feed through lam1 by dt-averaging
    assert nu1.evaluate_basis((m.h_avg[(1, 0)],)) == {
        m.h_avg[(2, 0)]: (half * p2 + half * q2).with_vars(pm.coords)}
    # tangent dt lines feed through the derivative of the curvature
    assert nu1.evaluate_basis((m.h_base_dt[0],)) == {
        m.h_avg[(1, 0)]: (p1 + q1).with_vars(pm.coords),
        m.h_avg[(1, 1)]: (-2 * third * p1 * p2 - third * p1 * q2
                          - third * q1 * p2 - 2 * third * q1 * q2
                          ).with_vars(pm.coords)}
    assert nu1.evaluate_basis((m.h_base_dt[1],)) == {
        m.h_avg[(1, 1)]: (-third * (p1 ** 2 + p1 * q1 + q1 ** 2)
                          ).with_vars(pm.coords)}


def test_amp2_binary_bracket_closed_form(amp2_dps):
    m = amp2_dps.model
    pm = amp2_dps.bundle
    p1, q1 = Poly.variable("x1_0"), Poly.variable("x1_1")
    nu2 = pm.ops.op(2)
    tup = tuple(sorted((m.h_base_dt[0], m.h_base_dt[1])))
    got = nu2.evaluate_basis(tup)
    assert got == {m.h_avg[(2, 0)]:
                   (Fraction(1, 6) * (p1 - q1)).with_vars(pm.coords)}
    # mixed tangent/end inputs vanish for this model
    assert nu2.evaluate_basis(tuple(sorted((m.h_base_dt[0],
                                            m.h_end[((1, 0), 0)])))) == {}


def test_amp2_binary_bracket_from_first_principles(amp2_dps):
    # -pi_con dlam1(eta dlam0(u), v) - pi_con dlam1(u, eta dlam0(v))
    # for tangent dt inputs u, v, evaluated at rational endpoint pairs
    m = amp2_dps.model
    pm = amp2_dps.bundle
    x1, x2 = Poly.variable("x1"), Poly.variable("x2")
    nu2 = pm.ops.op(2)
    tup = tuple(sorted((m.h_base_dt[0], m.h_base_dt[1])))
    coeff = nu2.evaluate_basis(tup)[m.h_avg[(2, 0)]]
    rng = random.Random(8)
    for _ in range(4):
        P = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        Q = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        # u-leg: eta applied to the x1-derivative of the curvature
        s = pullback([2 * x1, -(2 * x1) * x2], ("x1", "x2"), P, Q, 1, dt=True)
        e = path_eta(s)
        # x2-derivative of lam1 acts on the a-component only
        inner = PathSection.make(P, Q, 2, [e.components[0]], dt=True)
        term1 = pi_con(inner).components[0].eval({"t": 0})
        # v-leg: lam1's coefficients do not involve x1, so it drops out
        hand = -term1
        got = coeff.eval(dict(zip(pm.coords, (*P, *Q))))
        assert got == hand


# -- structural lemmas ------------------------------------------------------------------

def plain_part(space, fam):
    """Restrict an ambient family to all-plain inputs and plain outputs.

    What survives is the fiberwise part of the structure: the pulled-back
    operations acting on plain sections, with no dt legs anywhere."""
    ops = {}
    for k in fam.arities():
        op = fam.op(k)
        kept = {}
        for tup, vec in op.coeffs.items():
            if any(space.dt[d][i] for d, i in tup):
                continue
            out = {(d, i): c for (d, i), c in vec.items() if not space.dt[d][i]}
            if out:
                kept[tup] = out
        ops[k] = MultiOp(k, 1, space, space, kept)
    return OpFamily(1, space, space, ops)


@pytest.mark.parametrize("make", [square_bundle, amp2_bundle],
                         ids=["quasi-smooth", "amplitude-2"])
def test_plain_family_cannot_see_the_homotopy_corrections(make):
    # composing the fiberwise family with phi or with the bare inclusion
    # gives the same answer, because eta-corrections vanish at both ends
    from linfty.pathspace import path_perturbation
    bundle = make()
    dps = derived_path_space(bundle)
    con = dps.transfer_result.contraction
    model = dps.model
    pvals = {c: Poly.variable(f"{c}_0") for c in bundle.coords}
    qvals = {c: Poly.variable(f"{c}_1") for c in bundle.coords}
    amb = path_perturbation(model, pvals, qvals)
    pl = plain_part(con.space, amb)
    projected = OpFamily(1, con.space, con.h_space,
                         {k: compose_linear_literal(con.pi, pl.op(k)) for k in pl.arities()})
    iota_fam = OpFamily(0, con.h_space, con.space, {1: con.iota})
    assert bullet(projected, dps.transfer_result.phi) == bullet(projected, iota_fam)


def test_linear_end_inputs_see_only_the_interpolated_family(amp2_dps):
    # on end-value inputs the transferred operation is the linear
    # interpolation of the fiberwise operation; here arity 2 has no
    # fiberwise part at all, so every end-value pair must vanish
    m = amp2_dps.model
    nu2 = amp2_dps.bundle.ops.op(2)
    ends = sorted(m.h_end.values())
    for i, a in enumerate(ends):
        for b in ends[i:]:
            tup, = {tuple(sorted((a, b)))}
            if a == b and a[0] % 2:
                continue
            assert nu2.evaluate_basis(tup) == {}


def test_phi_is_strict_on_quasi_smooth_models(square_dps):
    phi = square_dps.transfer_result.phi
    assert phi.arities() == [1]
    con = square_dps.transfer_result.contraction
    m = square_dps.model
    for key in m.h_end.values():
        assert phi.op(1).evaluate_basis((key,)) == \
            con.iota.evaluate_basis((key,))


# -- factorization of the diagonal ----------------------------------------------------

def test_factorization_of_the_squared_function():
    fz = factorize_diagonal(square_bundle())
    rep = verify_factorization(fz, [(Fraction(0),)])
    assert rep.ok
    assert rep.weak_equiv.ok and rep.fibration.ok


def test_factorization_of_the_plane():
    fz = factorize_diagonal(plain_bundle(("x", "y")))
    rep = verify_factorization(fz, [(0, 0), (1, 2)])
    assert rep.ok


def test_factorization_legs_compose_to_the_diagonal():
    fz = factorize_diagonal(square_bundle())
    comp = compose(fz.fibration, fz.weak_equivalence)
    assert comp.base_map == fz.diagonal.base_map
    assert comp.phi == fz.diagonal.phi


# -- path spaces of plain manifolds -----------------------------------------------------

def test_path_space_of_the_line():
    dps = path_space_manifold(1)
    assert virtual_dimension(dps.bundle) == 1
    pt = classical_point(dps.bundle, (2, 2))
    cx = tangent_complex(dps.bundle, pt)
    betti = cx.cohomology()
    assert betti.get(0, 0) == 1 and betti.get(1, 0) == 0
    assert betti == bareiss_betti(cx)


def test_path_space_curvature_vanishes_only_on_the_diagonal():
    dps = path_space_manifold(1)
    with pytest.raises(ValueError):
        classical_point(dps.bundle, (0, 1))


# -- fibered products and intersections ---------------------------------------------------

def test_path_space_at_amplitude_three():
    """Needs the Koszul sign of the shifted tangent beyond amplitude 2."""
    b = random_bundle(random.Random(17), ("x", "y"), amplitude=3)
    dps = derived_path_space(b)   # re-checks its defining equation
    assert check_mc(dps.bundle).ok
    assert check_morphism(dps.evaluation).ok


def test_path_space_at_amplitude_four():
    b = random_bundle(random.Random(11), ("x", "y"), amplitude=4)
    dps = derived_path_space(b)
    assert dict(dps.bundle.fiber.dims) == {1: 6, 2: 6, 3: 6, 4: 4, 5: 1}
    assert check_mc(dps.bundle).ok
    assert check_morphism(dps.evaluation).ok


def test_path_space_of_a_path_space():
    """Path objects iterate: the dt flags of the input fiber are only labels."""
    inner = derived_path_space(circle_bundle()).bundle
    assert any(any(flags) for flags in inner.fiber.dt.values())
    outer = derived_path_space(inner)
    assert dict(outer.bundle.fiber.dims) == {1: 12, 2: 6, 3: 1}
    assert len(outer.bundle.coords) == 2 * len(inner.coords) == 8
    assert check_mc(outer.bundle).ok


@pytest.fixture(scope="module")
def amp2_path_space():
    return derived_path_space(amp2_bundle()).bundle


def test_path_space_of_amp2s_path_space(amp2_path_space):
    outer = derived_path_space(amp2_path_space)
    assert dict(outer.bundle.fiber.dims) == {1: 16, 2: 14, 3: 6, 4: 1}
    assert check_mc(outer.bundle).ok


def symbolic_ends(bundle):
    """Endpoint values p, q as the doubled coordinates derived_path_space uses."""
    pnames, qnames = _doubled_names(bundle.coords)
    return ({c: Poly.variable(n) for c, n in zip(bundle.coords, pnames)},
            {c: Poly.variable(n) for c, n in zip(bundle.coords, qnames)})


def test_path_perturbation_pulls_each_coefficient_back_once(amp2_path_space, monkeypatch):
    model = build_path_model(amp2_path_space)
    pvals, qvals = symbolic_ends(amp2_path_space)
    entries = [c for op in shifted_tangent_data(amp2_path_space).ops.ops.values()
               for vec in op.coeffs.values() for c in vec.values() if isinstance(c, Poly)]
    pulled = []
    substitute = Poly.substitute
    monkeypatch.setattr(Poly, "substitute",
                        lambda self, values: pulled.append(self) or substitute(self, values))
    path_perturbation(model, pvals, qvals)
    assert entries and Counter(pulled) == Counter(entries)


PERTURBATION_BUNDLES = {
    "square": square_bundle, "circle": circle_bundle, "amp2": amp2_bundle,
    "x^17": lambda: section_bundle(("x",), (x ** 17,)),
    "x^24": lambda: section_bundle(("x",), (x ** 24,)),
    **{f"random-{s}-amp{a}": (lambda s=s, a=a: random_bundle(random.Random(s), ("x", "y"),
                                                            amplitude=a))
       for s in range(9) for a in (2, 3)}}


@pytest.mark.parametrize("name", list(PERTURBATION_BUNDLES))
def test_path_perturbation_is_the_tabulation(name):
    bundle = PERTURBATION_BUNDLES[name]()
    model = build_path_model(bundle)
    for pvals, qvals in (symbolic_ends(bundle),
                         ({c: Fraction(j - 1) for j, c in enumerate(bundle.coords)},
                          {c: Fraction(2, j + 1) for j, c in enumerate(bundle.coords)})):
        assert (path_perturbation(model, pvals, qvals)
                == path_perturbation_tabulated(model, pvals, qvals))


def test_path_perturbation_of_amp2s_path_space_is_the_tabulation(amp2_path_space):
    model = build_path_model(amp2_path_space)
    pvals, qvals = symbolic_ends(amp2_path_space)
    assert (path_perturbation(model, pvals, qvals)
            == path_perturbation_tabulated(model, pvals, qvals))


@pytest.mark.parametrize("make", [
    lambda: section_bundle(("x",), (x ** 24,)),
    *(lambda s=s: random_bundle(random.Random(s), ("x", "y"), amplitude=3)
      for s in (6, 12, 30))], ids=["x^24", "seed-6", "seed-12", "seed-30"])
def test_path_spaces_beyond_t_degree_16_build(make):
    bundle = make()
    assert required_t_degree(bundle) > 16
    dps = derived_path_space(bundle)   # certifies its structure, evaluation and vdim
    assert dps.model.cap == required_t_degree(bundle)
    assert virtual_dimension(dps.bundle) == virtual_dimension(bundle)


def test_weak_equivalence_stages_once_and_certifies_each_point_once(monkeypatch):
    bundle = plain_bundle(("x", "y", "z"))
    fz = factorize_diagonal(bundle)
    pts = find_classical_points(bundle)[0]
    assert len(pts) == 343
    staged, diffs, residuals = [], [], []
    stage, diff, residual = geometry.stage, Poly.diff, geometry._residual
    monkeypatch.setattr(geometry, "stage", lambda polys, coords: staged.append(polys)
                        or stage(polys, coords))
    monkeypatch.setattr(Poly, "diff", lambda self, name: diffs.append(name) or diff(self, name))
    monkeypatch.setattr(geometry, "_residual", lambda curvature, at: residuals.append(
        (id(curvature), tuple(at))) or residual(curvature, at))

    def run(points):
        staged.clear(), diffs.clear(), residuals.clear()
        rep = is_weak_equivalence(fz.weak_equivalence, points,
                                  [tuple(p.coords) * 2 for p in points])
        assert rep.ok and len(rep.etale) == len(points)
        return len(staged), len(diffs), list(residuals)

    one, every = run(pts[:1]), run(pts)
    # curvature, Jacobian, base map and phi_1 entries: staged (one call
    # per staged matrix) and differentiated once for the morphism, however
    # many points follow
    assert every[0] > 0 and every[1] > 0
    assert one[:2] == every[:2]
    # the source points come certified from the search; each target point
    # is certified once, although it is also the image of a source point
    assert len(every[2]) == len(set(every[2])) == len(pts)
    assert len({c for c, _ in every[2]}) == 1


def test_verify_factorization_stages_the_source_once(monkeypatch):
    fz = factorize_diagonal(plain_bundle(("x",)))
    staged = []
    stage = geometry.stage
    monkeypatch.setattr(geometry, "stage", lambda polys, coords: staged.append(polys)
                        or stage(polys, coords))

    def count(points):
        staged.clear()
        rep = verify_factorization(fz, points)
        assert rep.ok and len(rep.weak_equiv.pairs) == len(points)
        return len(staged)

    # raw points are certified on one staging of the source, however many
    assert count([(0,)]) == count([(0,), (1,), (2,), (3,)]) == 8


def test_fibered_product_over_a_point_is_the_product():
    b = square_bundle()
    pt = plain_bundle(())
    f = Morphism(b, pt, (), OpFamily(0, b.fiber, pt.fiber, {}))
    fp = homotopy_fibered_product(f, f)
    assert virtual_dimension(fp.bundle) == 2 * virtual_dimension(b)
    assert check_mc(fp.bundle).ok
    assert check_morphism(fp.to_left).ok and check_morphism(fp.to_right).ok


@pytest.mark.parametrize("make", [square_bundle, circle_bundle, amp2_bundle,
                                  lambda: plain_bundle(("u", "v"))],
                         ids=["square", "circle", "amp2", "plain"])
def test_fibered_products_straighten_by_relabelling(make, monkeypatch):
    """The path-space evaluation is a coordinate projection, so it is pulled
    back in place: it is neither straightened nor inverted, and nothing is
    solved.  The names below are the straightening as geometry binds it,
    and the inverse of a formal family and the solvers as algebra binds
    them."""
    b = make()
    f = identity_morphism(b)
    for mod, name in ((geometry, "linearize_fibration"), (algebra, "invert_family"),
                      (algebra, "kernel_basis"), (algebra, "right_inverse")):
        def refuse(*args, name=name):
            raise AssertionError(f"{name} ran inside a fibered product")
        monkeypatch.setattr(mod, name, refuse)
    fp = homotopy_fibered_product(f, f)
    assert virtual_dimension(fp.bundle) == virtual_dimension(b)


def test_fibered_product_dimension_formula():
    r2 = plain_bundle(("u1", "u2"))
    r1 = plain_bundle(("z",))
    f = Morphism(r2, r1, (Poly.variable("u1"),), OpFamily(0, r2.fiber, r1.fiber, {}))
    fp = homotopy_fibered_product(f, f)
    assert virtual_dimension(fp.bundle) == 2 + 2 - 1
    assert check_mc(fp.bundle).ok
    # the second copy of f.src is renamed inside the product; both legs
    # still land on f.src and compose with f
    assert fp.to_left.dst is f.src and fp.to_right.dst is f.src
    for leg in (fp.to_left, fp.to_right):
        assert check_morphism(compose(f, leg)).ok


def test_derived_intersection_refuses_maps_into_different_targets():
    u = Poly.variable("u")
    with pytest.raises(ValueError, match="share their target"):
        derived_intersection(_plain_map(("u",), ("x",), (u,)),
                             _plain_map(("u",), ("y",), (u,)))
    with pytest.raises(ValueError, match="share their target"):
        derived_intersection(axis_submanifold(0, 2), axis_submanifold(0, 3))


def test_derived_intersection_refuses_a_target_with_a_fiber():
    b = square_bundle()
    f = identity_morphism(b)
    with pytest.raises(ValueError, match="affine space"):
        derived_intersection(f, f)


def test_a_map_whose_image_uses_an_unknown_name_is_refused():
    with pytest.raises(ValueError, match="outside its parameters"):
        _plain_map(("u",), ("x", "y"), (Poly.variable("u"), Poly.variable("w")))


def test_transversal_axes_meet_in_a_smooth_point():
    inter = derived_intersection(axis_submanifold(0, 2), axis_submanifold(1, 2))
    assert inter.virtual_dim == 0
    assert len(inter.points) == 1
    pt = inter.points[0]
    assert pt.ambient == (0, 0)
    assert pt.transversal and pt.h0 == 0 and pt.h1 == 0


def test_axis_meets_parabola_non_transversally():
    u = Poly.variable("u")
    inter = derived_intersection(axis_submanifold(0, 2), graph_submanifold(u * u))
    assert inter.virtual_dim == 0
    assert len(inter.points) == 1
    pt = inter.points[0]
    assert pt.ambient == (0, 0)
    assert not pt.transversal
    assert pt.h0 == 1 and pt.h1 == 1


def test_disjoint_points_have_empty_locus_and_negative_dimension():
    p0 = _plain_map((), ("x",), (Poly.constant(0),))
    p1 = _plain_map((), ("x",), (Poly.constant(1),))
    inter = derived_intersection(p0, p1)
    assert inter.virtual_dim == -1
    assert inter.points == []
    exact, loose = find_classical_points(inter.bundle)
    assert exact == [] and loose == []


def test_self_intersection_of_the_plane_is_smooth():
    a = _plain_map(("u0", "u1"), ("x", "y"), (Poly.variable("u0"), Poly.variable("u1")))
    b = _plain_map(("v0", "v1"), ("x", "y"), (Poly.variable("v0"), Poly.variable("v1")))
    inter = derived_intersection(a, b, points=[(1, 2, 1, 2)])
    assert inter.virtual_dim == 2
    pt = inter.points[0]
    assert pt.transversal and pt.h0 == 2 and pt.h1 == 0


def test_intersection_euler_characteristic_is_the_virtual_dimension():
    u = Poly.variable("u")
    inter = derived_intersection(axis_submanifold(0, 2), graph_submanifold(u * u))
    for pt in inter.points:
        assert pt.h0 - pt.h1 == inter.virtual_dim


# -- zero locus comparison -------------------------------------------------------------

def test_zero_locus_of_the_squared_section():
    zl = zero_locus_model(("x",), (x * x,))
    assert zl.weak_equiv.ok
    assert [tuple(p.coords) for p in zl.points] == [(0,)]


def test_zero_locus_of_a_regular_section_is_a_point():
    zl = zero_locus_model(("x",), (x,))
    assert zl.weak_equiv.ok
    assert [tuple(p.coords) for p in zl.points] == [(0,)]


def test_zero_locus_of_a_nowhere_zero_section_is_empty():
    # an empty point list certifies nothing, so it is not a weak equivalence
    zl = zero_locus_model(("x",), (x * x + 1,))
    assert not zl.weak_equiv.ok and zl.weak_equiv.etale == []
    assert zl.weak_equiv.note.startswith("no point was checked")
    assert zl.points == []
