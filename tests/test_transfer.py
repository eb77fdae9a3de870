"""Contractions and homotopy transfer of curved operations."""

import random
from fractions import Fraction

import pytest
from oracles import (build_contraction, inclusion_morphism, perturbation_check,
                     projection_phi1, random_perturbation_instance, sym_homotopy_defect,
                     transfer_rebuild, transferred_bundle, transferred_mu0,
                     transferred_mu1, transferred_phi1)

import linfty.graded
import linfty.transfer
from linfty.algebra import LinftyBundle, Morphism, check_mc, check_morphism
from linfty.graded import (GradedSpace, MultiOp, OpFamily, arity_bound, bullet,
                           canonical_tuples, op_nilpotency_order)
from linfty.samples import random_contraction, random_transfer_instance
from linfty.transfer import (AdaptedBasis, Contraction, neumann_inverse,
                             projection_morphism, transfer, transfer_trees)


def worked_space():
    return GradedSpace.build({1: 2, 2: 1, 3: 1},
                             labels={1: ["e", "a"], 2: ["f"], 3: ["g"]})


def worked_contraction():
    sp = worked_space()
    delta = MultiOp(1, 1, sp, sp, {((1, 1),): {(2, 0): Fraction(1)}})
    eta = MultiOp(1, -1, sp, sp, {((2, 0),): {(1, 1): Fraction(1)}})
    return build_contraction(sp, delta, eta)


# -- contraction construction ----------------------------------------------------

def test_build_collapses_the_acyclic_pair():
    con = worked_contraction()
    assert con.h_space.dims == {1: 1, 3: 1}
    assert con.iota.evaluate_basis(((1, 0),)) == {(1, 0): Fraction(1)}
    assert con.pi.evaluate_basis(((1, 0),)) == {(1, 0): Fraction(1)}
    assert con.pi.evaluate_basis(((1, 1),)) == {}
    assert con.pi.evaluate_basis(((3, 0),)) == {(3, 0): Fraction(1)}
    assert con.delta_h.is_zero()


def test_build_with_zero_data_is_the_identity_retract():
    sp = GradedSpace.build({1: 1, 2: 1})
    z1 = MultiOp.zero(1, 1, sp, sp)
    zm1 = MultiOp.zero(1, -1, sp, sp)
    con = build_contraction(sp, z1, zm1)
    assert con.h_space.dims == sp.dims
    assert con.iota.compose_linear(con.pi) == MultiOp.identity(sp)


def from_worked_basis(sp, delta, eta):
    con = worked_contraction()
    return Contraction.from_basis(sp, delta, eta, con.h_space, con.iota)


@pytest.mark.parametrize("make", [build_contraction, from_worked_basis],
                         ids=["build", "from_basis"])
def test_build_rejects_broken_side_conditions(make):
    sp = worked_space()
    delta = MultiOp(1, 1, sp, sp, {((1, 1),): {(2, 0): Fraction(1)}})
    bad_eta = MultiOp(1, -1, sp, sp, {((2, 0),): {(1, 1): Fraction(2)}})
    with pytest.raises(ValueError, match="eta delta eta"):
        make(sp, delta, bad_eta)
    bad_delta = MultiOp(1, 1, sp, sp, {((1, 1),): {(2, 0): Fraction(1)},
                                       ((2, 0),): {(3, 0): Fraction(1)}})
    eta = MultiOp(1, -1, sp, sp, {((2, 0),): {(1, 1): Fraction(1)}})
    with pytest.raises(ValueError, match="differential does not square"):
        make(sp, bad_delta, eta)
    eta_sq = MultiOp(1, -1, sp, sp, {((2, 0),): {(1, 1): Fraction(1)},
                                     ((3, 0),): {(2, 0): Fraction(1)}})
    with pytest.raises(ValueError, match="homotopy does not square"):
        make(sp, delta, eta_sq)


def test_from_basis_accepts_the_canonical_basis():
    con = worked_contraction()
    rebuilt = Contraction.from_basis(con.space, con.delta, con.eta,
                                     con.h_space, con.iota)
    assert rebuilt.pi == con.pi
    assert rebuilt.delta_h == con.delta_h


def test_from_basis_rejects_a_short_basis():
    con = worked_contraction()
    small = GradedSpace.build({1: 1})
    iota = MultiOp(1, 0, small, con.space, {((1, 0),): {(1, 0): Fraction(1)}})
    with pytest.raises(ValueError):
        Contraction.from_basis(con.space, con.delta, con.eta, small, iota)


def test_projector_identity():
    con = worked_contraction()
    ed = con.eta.compose_linear(con.delta).plus(con.delta.compose_linear(con.eta))
    assert con.iota.compose_linear(con.pi) == MultiOp.identity(con.space).minus(ed)
    con.validate()


def test_random_contractions_validate():
    rng = random.Random(55)
    for _ in range(10):
        random_contraction(rng).validate()


# -- transfer ----------------------------------------------------------------------

def unary(con, table):
    sp = con.space
    coeffs = {}
    for key, out in table.items():
        coeffs[(key,)] = out
    return OpFamily(1, sp, sp, {1: MultiOp(1, 1, sp, sp, coeffs)})


def test_worked_unary_transfer():
    con = worked_contraction()
    lam = unary(con, {(1, 0): {(2, 0): Fraction(1)}})
    res = transfer(con, lam)
    # phi_1(e) = e - a, transferred operation vanishes on e
    assert res.phi.op(1).evaluate_basis(((1, 0),)) == {(1, 0): Fraction(1),
                                                       (1, 1): Fraction(-1)}
    assert res.mu.op(1).is_zero()
    assert check_mc(transferred_bundle(res)).ok


def test_transfer_with_curvature_only():
    con = worked_contraction()
    sp = con.space
    lam0 = MultiOp(0, 1, sp, sp, {(): {(1, 0): Fraction(3)}})
    lam = OpFamily(1, sp, sp, {0: lam0})
    res = transfer(con, lam)
    assert res.phi.op(1) == con.iota
    assert all(res.phi.op(k).is_zero() for k in res.phi.arities() if k != 1)
    assert res.mu.op(0).evaluate_basis(()) == {(1, 0): Fraction(3)}
    assert transferred_mu0(con, lam) == {(1, 0): Fraction(3)}


def test_transfer_with_zero_homotopy_keeps_iota():
    sp = GradedSpace.build({1: 1, 2: 1})
    z = MultiOp.zero(1, 1, sp, sp)
    con = build_contraction(sp, z, MultiOp.zero(1, -1, sp, sp))
    lam = OpFamily(1, sp, sp, {1: MultiOp(1, 1, sp, sp,
                                          {((1, 0),): {(2, 0): Fraction(1)}})})
    res = transfer(con, lam)
    assert res.phi.op(1) == con.iota
    # nothing is contracted away, so the structure comes back unchanged
    assert res.mu.op(1).evaluate_basis(((1, 0),)) == {(2, 0): Fraction(1)}


def test_transfer_rejects_wrong_family():
    con = worked_contraction()
    lam = OpFamily(0, con.space, con.space, {})
    with pytest.raises(ValueError):
        transfer(con, lam)


def test_closed_forms_match_engine():
    rng = random.Random(77)
    for _ in range(10):
        con, lam = random_transfer_instance(rng)
        res = transfer(con, lam)
        assert res.phi.op(1) == transferred_phi1(con, lam)
        assert res.mu.op(1) == transferred_mu1(con, lam)
        assert res.mu.op(0).evaluate_basis(()) == transferred_mu0(con, lam)


def wide_transfer_draws():
    """30 seeded instances at amplitude/dim 3/4, 4/3 and 5/3.

    Together they reach phi arities {1, 2, 3} and mu arities {0, 1, 2, 3},
    which the default size (3/4) alone mostly does not.
    """
    rng = random.Random(404)
    for amplitude, max_dim, draws in ((3, 4, 10), (4, 3, 10), (5, 3, 10)):
        for _ in range(draws):
            yield random_transfer_instance(rng, amplitude, max_dim)


class ArityReach:
    """Records which arities the transferred phi and mu reached."""

    def __init__(self):
        self.phi: set[int] = set()
        self.mu: set[int] = set()

    def add(self, res):
        self.phi |= set(res.phi.arities())
        self.mu |= set(res.mu.arities())

    def check(self):
        assert self.phi == {1, 2, 3}
        assert self.mu == {0, 1, 2, 3}


def default_then_wide_draws(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_transfer_instance(rng)
    yield from wide_transfer_draws()


def test_transferred_structure_is_mc_and_phi_is_a_morphism():
    reach = ArityReach()
    for con, lam in default_then_wide_draws(101, 10):
        res = transfer(con, lam)
        reach.add(res)
        assert check_mc(transferred_bundle(res)).ok
        ambient = LinftyBundle((), con.space, con.delta, lam)
        assert check_mc(ambient).ok
        assert check_morphism(inclusion_morphism(res, ambient)).ok
    reach.check()


def test_transfer_matches_the_full_rebuild():
    """Reading mu off (lam . phi)_n = resid_n + lam_1 phi_n changes no value."""
    curved = 0
    reach = ArityReach()
    for con, lam in wide_transfer_draws():
        got = transfer(con, lam)
        want = transfer_rebuild(con, lam)
        assert got.phi == want.phi
        assert got.mu == want.mu
        curved += not lam.op(0).is_zero()
        reach.add(got)
    assert curved >= 5
    reach.check()


def test_transfer_tabulates_each_arity_once(monkeypatch):
    """One bullet_op call per arity 2..top, and no whole product."""
    calls = []
    real = linfty.graded.bullet_op

    def counting(lam, phi, n):
        calls.append(n)
        return real(lam, phi, n)

    def forbidden(*args):
        raise AssertionError("transfer built a whole bullet product")

    monkeypatch.setattr(linfty.transfer, "bullet_op", counting)
    monkeypatch.setattr(linfty.graded, "bullet", forbidden)
    assert not hasattr(linfty.transfer, "bullet")
    rng = random.Random(404)
    tops = set()
    for _ in range(6):
        con, lam = random_transfer_instance(rng, 4, 3)
        calls.clear()
        transfer(con, lam)
        top = arity_bound(0, con.space, con.h_space)
        assert calls == list(range(2, top + 1))
        tops.add(top)
    assert max(tops) >= 4


# -- tree expansion -----------------------------------------------------------------

def test_trees_match_recursion():
    reach = ArityReach()
    for con, lam in default_then_wide_draws(202, 8):
        a = transfer(con, lam)
        b = transfer_trees(con, lam)
        reach.add(a)
        assert a.phi == b.phi
        assert a.mu == b.mu
    reach.check()


def test_tree_engine_tabulates_each_tree_once(monkeypatch):
    """One treeterm call per grown tree: its term is capped for phi and
    read for mu from the one tabulation.  A tree is its root arity and its
    children's capped values, which are the very objects fed to treeterm;
    a leaf's is phi_1, the only part of arity 1."""
    calls = []
    real_term = linfty.transfer.treeterm

    def counting(op_k, parts):
        calls.append((op_k.arity, tuple(parts)))
        return real_term(op_k, parts)

    monkeypatch.setattr(linfty.transfer, "treeterm", counting)
    reached = set()
    for con, lam in default_then_wide_draws(202, 8):
        calls.clear()
        transfer_trees(con, lam)
        trees = {(k, tuple(map(id, parts))) for k, parts in calls}
        assert len(calls) == len(trees)
        for _, parts in calls:
            for i, c in enumerate(parts):
                if c.arity > 1:
                    reached.add("non-leaf child")
                if i and c is parts[i - 1]:
                    reached.add("equal children" if c.arity == 1
                                else "equal non-leaf children")
    assert reached == {"non-leaf child", "equal children", "equal non-leaf children"}


def test_trees_reproduce_neumann_series_for_unary_input():
    con = worked_contraction()
    lam = unary(con, {(1, 0): {(2, 0): Fraction(2)}})
    res = transfer_trees(con, lam)
    assert res.phi.op(1) == transferred_phi1(con, lam)


# -- extended projection ---------------------------------------------------------------

def test_projection_morphism_is_left_inverse_to_phi():
    reach = ArityReach()
    for con, lam in default_then_wide_draws(303, 8):
        res = transfer(con, lam)
        reach.add(res)
        pi_ext = projection_morphism(con, lam)
        comp = bullet(pi_ext, res.phi)
        assert comp == OpFamily.identity(con.h_space)
        ambient = LinftyBundle((), con.space, con.delta, lam)
        assert check_morphism(Morphism(ambient, transferred_bundle(res), (), pi_ext)).ok
    reach.check()


def test_monomial_homotopy_side_conditions():
    """D K + K D + I P = 1 on every adapted monomial of length at most 3."""
    rng = random.Random(505)
    checked = 0
    for _ in range(6):
        ab = AdaptedBasis.build(random_contraction(rng, 3, 3))
        for n in range(4):
            for mono in canonical_tuples(ab.space, n):
                assert sym_homotopy_defect(ab, mono) == {}, mono
                checked += 1
    assert checked > 100


def test_projection_arity_one_closed_form():
    rng = random.Random(404)
    con, lam = random_transfer_instance(rng)
    pi_ext = projection_morphism(con, lam)
    assert pi_ext.op(1) == projection_phi1(con, lam)


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="1 + Delta K is singular on this draw although an "
                          "extended projection exists")
def test_projection_of_a_nilpotent_unary_perturbation_is_the_strict_map():
    """Flat draw with arities 1-3 whose eta lam_1 squares to zero, cut to
    its arity-1 part.  pi (1 + lam_1 eta)^{-1}, with no higher arities, is
    an extended projection there; projection_morphism should return it but
    finds 1 + Delta K singular."""
    con, lam = random_transfer_instance(random.Random(406), 5, 3)
    assert lam.op(0).is_zero() and lam.arities() == [1, 2, 3]
    assert op_nilpotency_order(con.eta.compose_linear(lam.op(1))) == 2
    assert check_mc(transferred_bundle(transfer(con, lam))).ok
    lam1 = OpFamily(1, con.space, con.space, {1: lam.op(1)})
    res = transfer(con, lam1)
    strict = OpFamily(0, con.space, con.h_space, {1: projection_phi1(con, lam1)})
    assert bullet(strict, res.phi) == OpFamily.identity(con.h_space)
    ambient = LinftyBundle((), con.space, con.delta, lam1)
    assert check_morphism(Morphism(ambient, transferred_bundle(res), (), strict)).ok
    assert projection_morphism(con, lam1) == strict


# -- perturbation identities --------------------------------------------------------------

def test_perturbation_check_trivial_case():
    con = worked_contraction()
    rep = perturbation_check(con, MultiOp.zero(1, 1, con.space, con.space))
    assert rep.ok
    assert rep.eta_new == con.eta
    assert rep.phi1 == con.iota


def test_perturbation_worked_example():
    con = worked_contraction()
    lam1 = MultiOp(1, 1, con.space, con.space,
                   {((1, 0),): {(2, 0): Fraction(1)}})
    assert op_nilpotency_order(con.eta.compose_linear(lam1)) == 2
    rep = perturbation_check(con, lam1)
    assert rep.ok
    assert rep.phi1.evaluate_basis(((1, 0),)) == {(1, 0): Fraction(1),
                                                  (1, 1): Fraction(-1)}
    assert rep.mu1.is_zero()


def test_perturbation_random_instances():
    rng = random.Random(505)
    for _ in range(10):
        con, lam1 = random_perturbation_instance(rng)
        rep = perturbation_check(con, lam1)
        assert rep.ok, rep.failures


def test_neumann_inverse_requires_nilpotency():
    sp = GradedSpace.build({1: 1})
    with pytest.raises(ValueError):
        neumann_inverse(MultiOp.identity(sp))


def test_neumann_inverse_inverts():
    sp = GradedSpace.build({1: 2})
    n = MultiOp(1, 0, sp, sp, {((1, 1),): {(1, 0): Fraction(3)}})
    op = MultiOp.identity(sp).plus(n)
    inv = neumann_inverse(n)
    assert inv.compose_linear(op) == MultiOp.identity(sp)
    assert op.compose_linear(inv) == MultiOp.identity(sp)
