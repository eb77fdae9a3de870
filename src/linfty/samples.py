"""Randomized instance generators for the test suites.

Structures satisfying the defining equation are produced constructively:
a staircase differential with its obvious homotopy is dressed by
invertible changes of basis, curvature is drawn from the kernel of the
twisted differential, and the rest of the structure comes from
transporting along an invertible formal family.  The same pattern yields
bundles with polynomial coefficients.  Every structure is a LinftyBundle;
random_mc_algebra and break_algebra draw and damage structures on a
single graded space, that is bundles with no coordinates.

Several generators do search, drawing again until a condition holds:
random_transfer_instance (up to 40 draws per instance until eta lam_1 is
nilpotent; at amplitude 3 / dim 4, seed 2024, 40 instances took 209
draws) and break_algebra (until check_mc notices the damage).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .algebra import (LinftyBundle, Morphism, check_mc, compose, invert_linear_op,
                      op_matrix, product_bundle, product_projection, transport_source)
from .graded import (GradedSpace, MultiOp, OpFamily, canonical_tuples,
                     op_nilpotency_order)
from .linalg import kernel_basis
from .poly import Poly
from .transfer import Contraction

Rng = random.Random


def small_fraction(rng: Rng, scale: int = 2) -> Fraction:
    num = rng.randint(-scale, scale)
    den = rng.choice((1, 1, 2))
    return Fraction(num, den)


def nonzero_fraction(rng: Rng, scale: int = 2) -> Fraction:
    while True:
        c = small_fraction(rng, scale)
        if c:
            return c


def random_graded_space(rng: Rng, amplitude: int = 3, max_dim: int = 4) -> GradedSpace:
    dims = {d: rng.randint(1, max_dim) for d in range(1, amplitude + 1)}
    return GradedSpace.build(dims)


# ---------------------------------------------------------------------------
# differentials, homotopies, conjugation
# ---------------------------------------------------------------------------


def staircase(rng: Rng, space: GradedSpace):
    """A differential with matched homotopy in the standard basis.

    Basis slots per degree split as (images, mapped, retract); the
    differential shifts the mapped block up by one degree onto the image
    block there, and the homotopy inverts exactly that shift.
    """
    degrees = space.degrees()
    ranks: dict[int, int] = {}
    for d in degrees:
        room = space.dim(d) - ranks.get(d - 1, 0)
        up = space.dim(d + 1)
        r = rng.randint(0, min(room, up)) if min(room, up) > 0 else 0
        ranks[d] = r
    d_coeffs = {}
    e_coeffs = {}
    h_keys = []
    for d in degrees:
        r, prev = ranks[d], ranks.get(d - 1, 0)
        for i in range(r):
            d_coeffs[((d, prev + i),)] = {(d + 1, i): Fraction(1)}
            e_coeffs[((d + 1, i),)] = {(d, prev + i): Fraction(1)}
        for j in range(prev + r, space.dim(d)):
            h_keys.append((d, j))
    delta = MultiOp(1, 1, space, space, d_coeffs)
    eta = MultiOp(1, -1, space, space, e_coeffs)
    return delta, eta, h_keys


def random_invertible(rng: Rng, space: GradedSpace, scale: int = 1) -> MultiOp:
    """Random degree-0 automorphism, unit-triangular times unit-triangular."""
    coeffs = {}
    for d in space.degrees():
        n = space.dim(d)
        lo = [[Fraction(1) if i == j else
               (small_fraction(rng, scale) if i > j else Fraction(0))
               for j in range(n)] for i in range(n)]
        up = [[Fraction(1) if i == j else
               (small_fraction(rng, scale) if i < j else Fraction(0))
               for j in range(n)] for i in range(n)]
        for j in range(n):
            col = {}
            for i in range(n):
                v = sum(lo[i][k] * up[k][j] for k in range(n))
                if v:
                    col[(d, i)] = v
            coeffs[((d, j),)] = col
    return MultiOp(1, 0, space, space, coeffs)


def conjugate(op: MultiOp, g: MultiOp, g_inv: MultiOp | None = None) -> MultiOp:
    gi = g_inv if g_inv is not None else invert_linear_op(g)
    return g.compose_linear(op).compose_linear(gi)


def random_contraction(rng: Rng, amplitude: int = 3, max_dim: int = 4) -> Contraction:
    """Contraction in a scrambled basis with explicitly known retract."""
    space = random_graded_space(rng, amplitude, max_dim)
    delta0, eta0, h_keys = staircase(rng, space)
    g = random_invertible(rng, space)
    gi = invert_linear_op(g)
    delta = conjugate(delta0, g, gi)
    eta = conjugate(eta0, g, gi)
    h_dims: dict[int, int] = {}
    iota_coeffs = {}
    for (d, j) in h_keys:
        i = h_dims.get(d, 0)
        h_dims[d] = i + 1
        iota_coeffs[((d, i),)] = dict(g.evaluate_basis(((d, j),)))
    h_space = GradedSpace.build(h_dims)
    iota = MultiOp(1, 0, h_space, space, iota_coeffs)
    return Contraction.from_basis(space, delta, eta, h_space, iota)


# ---------------------------------------------------------------------------
# structures satisfying the defining equation
# ---------------------------------------------------------------------------


def _kernel_curvature(rng: Rng, ell1: MultiOp, density: float = 0.8):
    """Random element of ker(ell1) in degree 1, as a sparse vector."""
    space = ell1.source
    n = space.dim(1)
    if not n:
        return {}
    vec = [Fraction(0)] * n
    for v in kernel_basis(op_matrix(ell1, 1), cols=n):
        if rng.random() < density:
            c = small_fraction(rng)
            if c:
                vec = [a + c * b for a, b in zip(vec, v)]
    return {(1, i): c for i, c in enumerate(vec) if c}


def random_formal_iso(rng: Rng, space: GradedSpace, max_arity: int = 3,
                      density: float = 0.25, poly_vars: Sequence[str] = (),
                      coeff_degree: int = 2) -> OpFamily:
    """Identity plus sparse random higher terms, degree 0."""
    ops = {1: MultiOp.identity(space)}
    for k in range(2, max_arity + 1):
        coeffs = {}
        for tup in canonical_tuples(space, k, max_total_degree=space.max_degree):
            if sum(t[0] for t in tup) not in space.dims:
                continue
            out = {}
            for key in space.keys():
                if key[0] != sum(t[0] for t in tup):
                    continue
                if rng.random() < density:
                    c = small_fraction(rng)
                    if c and poly_vars:
                        exps = tuple(rng.randint(0, coeff_degree)
                                     for _ in poly_vars)
                        out[key] = Poly.monomial(poly_vars, exps, c)
                    elif c:
                        out[key] = c
            if out:
                coeffs[tup] = out
        if coeffs:
            ops[k] = MultiOp(k, 0, space, space, coeffs)
    return OpFamily(0, space, space, ops)


def random_perturbation(rng: Rng, space: GradedSpace, delta: MultiOp,
                        curvature: bool = True, twist: bool = True,
                        max_arity: int = 3) -> OpFamily:
    """Random family lam with (delta + lam) squaring to zero.

    Starts from a conjugated differential (arity-1 twist) plus curvature
    drawn from its kernel, then transports along a random formal
    isomorphism with identity linear part.
    """
    ell1 = delta
    if twist:
        h = random_invertible(rng, space)
        ell1 = conjugate(delta, h)
    ops: dict[int, MultiOp] = {}
    if not ell1.minus(delta).is_zero():
        ops[1] = ell1.minus(delta)
    if curvature:
        cur = _kernel_curvature(rng, ell1)
        if cur:
            ops[0] = MultiOp(0, 1, space, space, {(): cur})
    seed = OpFamily(1, space, space, dict(ops))
    total = seed.with_op(seed.op(1).plus(delta))
    psi = random_formal_iso(rng, space, max_arity=max_arity)
    return _without_differential(transport_source(psi, total), delta)


def _without_differential(ell: OpFamily, delta: MultiOp) -> OpFamily:
    """The operations of a transported structure ell, delta split off arity 1."""
    return ell.with_op(ell.op(1).minus(delta))


def transfer_ready(con: Contraction, lam: OpFamily) -> bool:
    """True when the arity-1 recursion terminates for this input."""
    probe = con.eta.compose_linear(lam.op(1))
    return op_nilpotency_order(probe) is not None


def random_transfer_instance(rng: Rng, amplitude: int = 3, max_dim: int = 4,
                             curvature: bool = True, attempts: int = 40):
    """(contraction, perturbation) pair on which transfer terminates."""
    for _ in range(attempts):
        con = random_contraction(rng, amplitude, max_dim)
        lam = random_perturbation(rng, con.space, con.delta,
                                  curvature=curvature)
        if transfer_ready(con, lam):
            return con, lam
    raise RuntimeError("could not sample a transfer-ready instance")


def random_mc_algebra(rng: Rng, amplitude: int = 3, max_dim: int = 3,
                      curvature: bool = True) -> LinftyBundle:
    """Random structure on one graded space (a bundle with no coordinates)
    passing check_mc."""
    space = random_graded_space(rng, amplitude, max_dim)
    delta0, _, _ = staircase(rng, space)
    delta = conjugate(delta0, random_invertible(rng, space))
    lam = random_perturbation(rng, space, delta, curvature=curvature)
    return LinftyBundle((), space, delta, lam)


def break_algebra(rng: Rng, alg: LinftyBundle,
                  attempts: int = 40) -> LinftyBundle | None:
    """Copy of alg with one coefficient damaged so check_mc fails.

    Returns None when no single-coefficient tweak is detectable, which is
    genuinely the case for very degenerate structures (for instance
    amplitude 1, where the structure equation is vacuous).
    """
    for _ in range(attempts):
        arity = rng.choice([0, 1, 2])
        op = alg.ops.op(arity)
        tups = list(canonical_tuples(alg.fiber, arity,
                                     max_total_degree=alg.fiber.max_degree - 1))
        tups = [t for t in tups if (sum(k[0] for k in t) + 1) in alg.fiber.dims]
        if not tups:
            continue
        tup = rng.choice(tups)
        outs = [k for k in alg.fiber.keys()
                if k[0] == sum(t[0] for t in tup) + 1]
        key = rng.choice(outs)
        coeffs = {t: dict(v) for t, v in op.coeffs.items()}
        vec = coeffs.setdefault(tup, {})
        vec[key] = vec.get(key, Fraction(0)) + nonzero_fraction(rng)
        bad_op = MultiOp(arity, 1, alg.fiber, alg.fiber, coeffs)
        bad = LinftyBundle(alg.coords, alg.fiber, alg.delta, alg.ops.with_op(bad_op))
        if not check_mc(bad).ok:
            return bad
    return None


# ---------------------------------------------------------------------------
# bundles and morphisms over affine bases
# ---------------------------------------------------------------------------


def random_poly(rng: Rng, vars: Sequence[str], degree: int = 2,
                terms: int = 2) -> Poly:
    out = Poly.zero(tuple(vars))
    for _ in range(terms):
        exps = [0] * len(vars)
        budget = rng.randint(0, degree)
        for _ in range(budget):
            if vars:
                exps[rng.randrange(len(vars))] += 1
        out = out + Poly.monomial(tuple(vars), tuple(exps), small_fraction(rng))
    return out


def random_bundle(rng: Rng, coords: Sequence[str], amplitude: int = 2,
                  max_dim: int = 2, coeff_degree: int = 2) -> LinftyBundle:
    """Random bundle passing check_mc, with polynomial coefficients."""
    coords = tuple(coords)
    fiber = random_graded_space(rng, amplitude, max_dim)
    delta0, _, _ = staircase(rng, fiber)
    ops: dict[int, MultiOp] = {}
    cur = {}
    for v in kernel_basis(op_matrix(delta0, 1), cols=fiber.dim(1)):
        p = random_poly(rng, coords, coeff_degree)
        if p:
            for i, c in enumerate(v):
                if c:
                    key = (1, i)
                    cur[key] = cur.get(key, Poly.zero(coords)) + p * c
    cur = {k: c for k, c in cur.items() if c}
    if cur:
        ops[0] = MultiOp(0, 1, fiber, fiber, {(): cur})
    seed = OpFamily(1, fiber, fiber, ops)
    total = seed.with_op(seed.op(1).plus(delta0))
    psi = random_formal_iso(rng, fiber, max_arity=3, poly_vars=coords,
                            coeff_degree=coeff_degree)
    lam = _without_differential(transport_source(psi, total), delta0)
    return LinftyBundle(coords, fiber, delta0, lam)


def random_morphism_onto(rng: Rng, dst: LinftyBundle, tag: str,
                         amplitude: int = 2) -> Morphism:
    """Random morphism with target dst: a product projection precomposed
    with a transported isomorphism of the source."""
    extra = random_bundle(rng, tuple(f"{tag}{i}" for i in range(rng.randint(1, 2))),
                          amplitude=amplitude, max_dim=2, coeff_degree=1)
    renamed = dst.rename_coords({c: f"{c}_{tag}" for c in dst.coords})
    prod, _, _ = product_bundle(renamed, extra)
    proj = product_projection(prod, renamed, first=True)
    fix_names = Morphism(prod, dst, tuple(
        Poly.variable(f"{c}_{tag}") for c in dst.coords), proj.phi)

    psi = random_formal_iso(rng, prod.fiber, max_arity=2,
                            poly_vars=prod.coords, coeff_degree=1)
    ellp = transport_source(psi, prod.total())
    src = LinftyBundle(prod.coords, prod.fiber, prod.delta,
                       _without_differential(ellp, prod.delta))
    iso = Morphism(src, prod, tuple(Poly.variable(c) for c in prod.coords), psi)
    return compose(fix_names, iso)
