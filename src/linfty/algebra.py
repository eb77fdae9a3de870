"""Curved homotopy Lie structures: bundles of them over polynomial bases.

A structure here is a trivial bundle over named affine coordinates whose
fiber is a positively graded space, together with degree +1
graded-symmetric operations with polynomial coefficients: a distinguished
square-zero differential in arity one, and a family of operations in all
arities including arity zero (the curvature, sitting in degree one).  The
defining condition is

    [delta, lam] + lam o lam = 0,

equivalently, with ell = delta + lam merged at arity one, ell o ell = 0
once delta squares to zero.  check_mc verifies exactly that, returning
witnesses on failure rather than a bare boolean.

LinftyBundle is the one type for this.  A structure on a single graded
space is a bundle with no coordinates, and evaluating the coefficients at
a rational point specializes a bundle to one.  Morphisms of bundles pair a
polynomial base map with a degree-0 family of fiber operations; the
defining equation

    phi o (delta + lam) = (delta' + lam')^pulled . phi

is checked by check_morphism with the target operations pulled back along
the base map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graded import (GradedSpace, MultiOp, OpFamily, Vector, arity_bound,
                     bullet, bullet_op, circ)
from .linalg import kernel_basis, right_inverse
from .poly import Poly, as_rational, format_fraction

Rat = Fraction | int


def _unknown_vars(p: Poly, known: set[str]) -> list[str]:
    """The names outside known that a term of p uses, sorted.  p is pruned
    only when its variable tuple is not already within known: a name that
    no term uses is allowed."""
    if known.issuperset(p.vars):
        return []
    return sorted(set(p.pruned().vars) - known)


def _check_coeff_vars(ops, coords: tuple[str, ...]) -> None:
    """Reject a coefficient of ops that uses a name outside coords; only a
    Poly coefficient can."""
    known = set(coords)
    for op in ops:
        for vec in op.coeffs.values():
            for c in vec.values():
                if isinstance(c, Poly) and (extra := _unknown_vars(c, known)):
                    raise ValueError(f"coefficient uses unknown coordinates {extra}")


def _substitute_coeff(c, values: Mapping[str, Poly]):
    if isinstance(c, Poly) and values:
        return c.substitute(values)
    return c


def _eval_coeff(c) -> Rat:
    """A constant coefficient as a rational."""
    if not isinstance(c, Poly):
        return as_rational(c)
    if not c.is_constant():
        raise ValueError(f"coefficient {c} is not constant")
    return c.constant_value()


def op_matrix(op: MultiOp, degree: int) -> list[list[Rat]]:
    """Degree-`degree` block of an arity-1 operation as a rational matrix.

    Columns index the source basis in `degree`, rows the target basis in
    `degree + op.degree`.  Coefficients must be constant; the tangent
    constructions in `geometry` evaluate polynomial blocks at points.
    """
    rows = op.target.dim(degree + op.degree)
    cols = op.source.dim(degree)
    m = [[0] * cols for _ in range(rows)]
    for i in range(cols):
        for (_, j), c in op.evaluate_basis(((degree, i),)).items():
            m[j][i] = _eval_coeff(c)
    return m


def map_op_coeffs(op: MultiOp, fn) -> MultiOp:
    coeffs = {}
    for tup, vec in op.coeffs.items():
        out = {k: fn(c) for k, c in vec.items()}
        coeffs[tup] = {k: c for k, c in out.items() if c}
    return MultiOp(op.arity, op.degree, op.source, op.target, coeffs)


def map_family_coeffs(fam: OpFamily, fn) -> OpFamily:
    return OpFamily(fam.degree, fam.source, fam.target,
                    {k: map_op_coeffs(op, fn) for k, op in fam.ops.items()})


def reindex_op(op: MultiOp, source: GradedSpace, target: GradedSpace,
               inputs: Mapping, outputs: Mapping) -> MultiOp:
    """op carried onto new spaces through basis-key maps.

    Each input key goes through inputs and each output key through
    outputs.  inputs must be injective, degree preserving and keep the
    order of keys within every tuple, as the embeddings of a direct sum
    do; the checked MultiOp constructor rejects a tuple it would reorder.
    """
    coeffs = {tuple(inputs[k] for k in tup): {outputs[r]: c for r, c in vec.items()}
              for tup, vec in op.coeffs.items()}
    return MultiOp(op.arity, op.degree, source, target, coeffs)


# ---------------------------------------------------------------------------
# structure equations
# ---------------------------------------------------------------------------


def _format_vector(vec: Vector) -> str:
    """A witness vector as {key: coefficient} in key order, a rational
    written num/den and a polynomial as it prints."""
    return "{" + ", ".join(f"{k}: {c if isinstance(c, Poly) else format_fraction(c)}"
                           for k, c in sorted(vec.items())) + "}"


def _failures(fam: OpFamily) -> list:
    """The nonzero entries of fam as (arity, tuple, vector), sorted by
    (arity, tuple), so a witness does not depend on how fam was summed."""
    return sorted(((n, tup, vec) for n, op in fam.ops.items()
                   for tup, vec in op.coeffs.items()), key=lambda f: f[:2])


@dataclass
class MCReport:
    ok: bool
    delta_squared_failures: list
    structure_failures: list

    def describe(self) -> str:
        if self.ok:
            return "structure equations hold"
        lines = []
        for tup, vec in self.delta_squared_failures:
            lines.append(f"delta^2 != 0 on {tup}: {_format_vector(vec)}")
        for arity, tup, vec in self.structure_failures:
            lines.append(f"arity-{arity} defect on {tup}: {_format_vector(vec)}")
        return "\n".join(lines)


def check_mc(bundle: "LinftyBundle") -> MCReport:
    """Verify delta^2 = 0 and [delta, lam] + lam o lam = 0 with witnesses.

    Both conditions together are equivalent to ell o ell = 0 for the merged
    family ell = delta + lam, which is what gets computed.
    """
    d2 = bundle.delta.compose_linear(bundle.delta)
    dfails = sorted(d2.coeffs.items(), key=lambda f: f[0])
    ell = bundle.total()
    sfails = _failures(circ(ell, ell))
    return MCReport(not dfails and not sfails, dfails, sfails)


# ---------------------------------------------------------------------------
# bundles over polynomial bases
# ---------------------------------------------------------------------------


@dataclass
class LinftyBundle:
    """Curved structure on a trivial graded bundle over affine coordinates.

    coords names the base chart; operation coefficients are polynomials in
    those names (plain rationals are allowed and mean constants).  A bundle
    with no coordinates is the same thing as a single curved structure.
    """

    coords: tuple[str, ...]
    fiber: GradedSpace
    delta: MultiOp
    ops: OpFamily

    def __post_init__(self):
        self.coords = tuple(self.coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate base coordinates")
        if self.delta.arity != 1 or self.delta.degree != 1:
            raise ValueError("differential must be arity 1, degree 1")
        if self.ops.degree != 1:
            raise ValueError("operations must have degree 1")
        ops = [self.delta, *self.ops.ops.values()]
        if any(op.source != self.fiber or op.target != self.fiber for op in ops):
            raise ValueError("operations must be endomorphisms of the fiber")
        _check_coeff_vars(ops, self.coords)
        if self.fiber.dims and self.fiber.min_degree < 1:
            raise ValueError("the fiber must sit in positive degrees")

    @property
    def base_dim(self) -> int:
        return len(self.coords)

    @property
    def amplitude(self) -> int:
        """Top fiber degree; 1 means a quasi-smooth model."""
        return self.fiber.max_degree

    def total(self) -> OpFamily:
        """All operations with the differential merged into arity one."""
        return OpFamily(1, self.fiber, self.fiber, {1: self.delta}).plus(self.ops)

    def curvature_section(self) -> Vector:
        return self.ops.op(0).evaluate_basis(())

    def rename_coords(self, mapping: Mapping[str, str]) -> "LinftyBundle":
        new = tuple(mapping.get(c, c) for c in self.coords)
        values = {c: Poly.variable(mapping[c]) for c in self.coords if mapping.get(c, c) != c}

        def fn(c):
            return _substitute_coeff(c, values)
        return LinftyBundle(new, self.fiber, map_op_coeffs(self.delta, fn),
                            map_family_coeffs(self.ops, fn))


def product_bundle(a: LinftyBundle, b: LinftyBundle) -> tuple["LinftyBundle", dict, dict]:
    """Product of two bundles with disjoint coordinates.

    Fiber is the direct sum; operations act on pure tuples from either
    summand and vanish on mixed ones; curvatures add.  Returns the bundle
    and the two basis-key embeddings.
    """
    clash = set(a.coords) & set(b.coords)
    if clash:
        raise ValueError(f"coordinate clash {sorted(clash)}; rename one factor first")
    fiber, m1, m2 = a.fiber.direct_sum(b.fiber)
    coords = a.coords + b.coords

    def lifted(op_a: MultiOp, op_b: MultiOp) -> MultiOp:
        return reindex_op(op_a, fiber, fiber, m1, m1).plus(
            reindex_op(op_b, fiber, fiber, m2, m2))

    delta = lifted(a.delta, b.delta)
    ks = set(a.ops.ops) | set(b.ops.ops)
    ops = OpFamily(1, fiber, fiber, {k: lifted(a.ops.op(k), b.ops.op(k)) for k in ks})
    return LinftyBundle(coords, fiber, delta, ops), m1, m2


def product_projection(prod: LinftyBundle, factor: LinftyBundle,
                       first: bool) -> "Morphism":
    """Strict projection of a product bundle onto its first or second factor."""
    n = len(factor.coords)
    if first:
        base = tuple(Poly.variable(c) for c in prod.coords[:n])
        shift = dict.fromkeys(factor.fiber.dims, 0)
    else:
        base = tuple(Poly.variable(c) for c in prod.coords[len(prod.coords) - n:])
        shift = {d: prod.fiber.dims[d] - k for d, k in factor.fiber.dims.items()}
    return linear_morphism(prod, factor, base,
                           {(d, i + shift[d]): {(d, i): 1} for d, i in factor.fiber.keys()})


def plain_bundle(coords: Sequence[str]) -> LinftyBundle:
    """Affine space on the given coordinates: zero fiber, no operations."""
    empty = GradedSpace.build({})
    return LinftyBundle(tuple(coords), empty, MultiOp.zero(1, 1, empty, empty),
                        OpFamily(1, empty, empty, {}))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


@dataclass
class Morphism:
    """Bundle morphism: polynomial base map + degree-0 fiber family.

    base_map lists the target coordinates as polynomials in source
    coordinates.  phi has no arity-0 part and its coefficients are
    polynomials over the source base.
    """

    src: LinftyBundle
    dst: LinftyBundle
    base_map: tuple[Poly, ...]
    phi: OpFamily

    def __post_init__(self):
        self.base_map = tuple(p if isinstance(p, Poly) else Poly.constant(p)
                              for p in self.base_map)
        if len(self.base_map) != self.dst.base_dim:
            raise ValueError(f"base map needs {self.dst.base_dim} components")
        known = set(self.src.coords)
        for p in self.base_map:
            if extra := _unknown_vars(p, known):
                raise ValueError(f"base map uses unknown coordinates {extra}")
        if self.phi.degree != 0:
            raise ValueError("fiber family must have degree 0")
        if 0 in self.phi.ops:
            raise ValueError("fiber family cannot have an arity-0 part")
        if self.phi.source != self.src.fiber or self.phi.target != self.dst.fiber:
            raise ValueError("fiber family must map source fiber to target fiber")
        _check_coeff_vars(self.phi.ops.values(), self.src.coords)

    def base_values(self) -> Mapping[str, Poly]:
        """The base map as a substitution, less the coordinates it fixes:
        an empty substitution along an identity base map."""
        return {name: p for name, p in zip(self.dst.coords, self.base_map)
                if p.variable_name() != name}


def linear_morphism(src: LinftyBundle, dst: LinftyBundle, base_map,
                    columns: Mapping) -> Morphism:
    """The morphism over base_map whose fiber family is one arity-1
    operation sending each source key in columns to its column, a
    {target key: coefficient} vector, and every other key to zero; with
    no column the family is empty."""
    op = MultiOp(1, 0, src.fiber, dst.fiber, {(key,): col for key, col in columns.items()})
    return Morphism(src, dst, base_map, OpFamily(0, src.fiber, dst.fiber, {1: op}))


def pullback_family(fam: OpFamily, values: Mapping[str, Poly]) -> OpFamily:
    """Substitute base coordinates in every coefficient of a family; with
    no values, the family itself."""
    if not values:
        return fam
    return map_family_coeffs(fam, lambda c: _substitute_coeff(c, values))


@dataclass
class MorphismReport:
    ok: bool
    failures: list

    def describe(self) -> str:
        if self.ok:
            return "morphism equation holds"
        return "\n".join(f"arity-{n} defect on {tup}: {_format_vector(vec)}"
                         for n, tup, vec in self.failures)


def check_morphism(m: Morphism) -> MorphismReport:
    """Verify phi o ell_src = ell_dst^pulled . phi, arity by arity.

    The arity-0 component is the curvature compatibility
    phi_1(curv_src) = curv_dst o base_map; it is part of the same equation.
    The two sides are compared first and subtracted only when they differ.
    """
    values = m.base_values()
    lhs = circ(m.phi, m.src.total())
    rhs = bullet(pullback_family(m.dst.total(), values), m.phi)
    failures = [] if lhs == rhs else _failures(lhs.minus(rhs))
    return MorphismReport(not failures, failures)


def same_morphism(a: Morphism, b: Morphism) -> bool:
    """Equal base maps and equal fiber families; the bundles are not compared."""
    return a.phi == b.phi and all(p == q for p, q in zip(a.base_map, b.base_map))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.dst.coords != g.src.coords or f.dst.fiber != g.src.fiber:
        raise ValueError("morphisms are not composable")
    fvals = f.base_values()
    base = tuple(p.substitute(fvals) for p in g.base_map) if fvals else g.base_map
    phi = bullet(pullback_family(g.phi, fvals), f.phi)
    return Morphism(f.src, g.dst, base, phi)


# ---------------------------------------------------------------------------
# inverses of formal families, and structure transport
# ---------------------------------------------------------------------------


def invert_linear_op(op: MultiOp) -> MultiOp:
    """Invert a degree-0 arity-1 operation with constant rational coefficients."""
    src, dst = op.source, op.target
    if src.dims != dst.dims:
        raise ValueError("linear part is not square")
    if op.degree != 0:
        raise ValueError("linear part is not degree preserving")
    coeffs: dict = {}
    for d in src.degrees():
        n = src.dims[d]
        minv = right_inverse(op_matrix(op, d))
        if minv is None:
            raise ValueError(f"linear part is singular in degree {d}")
        for i in range(n):
            col = {(d, j): minv[j][i] for j in range(n) if minv[j][i]}
            if col:
                coeffs[((d, i),)] = col
    return MultiOp(1, 0, dst, src, coeffs)


def invert_family(phi: OpFamily) -> OpFamily:
    """The bullet inverse psi of a degree-0 family phi with no arity-0 part
    and an invertible linear part with constant coefficients.

    psi_1 inverts phi_1; at arity n >= 2, psi_n enters (phi . psi)_n only
    as phi_1 psi_n, so psi_n = -psi_1 (phi . psi_{<n})_n makes phi . psi
    the identity by construction.  psi . phi = id is verified.
    """
    psi1 = invert_linear_op(phi.op(1))
    psi = OpFamily(0, phi.target, phi.source, {1: psi1})
    for n in range(2, arity_bound(0, phi.source, phi.target) + 1):
        resid = bullet_op(phi, psi, n)
        if not resid.is_zero():
            psi = psi.with_op(psi1.compose_linear(resid).scaled(-1))
    if bullet(psi, phi) != OpFamily.identity(phi.source):
        raise ValueError("inversion failed to verify; the family is not invertible")
    return psi


def rename_source_clear_of(m: Morphism, taken: Sequence[str], letter: str) -> Morphism:
    """Rename the source coordinates of m that also occur in taken.

    Each such name gets "_" + letter appended, then further copies of
    letter until it is free; the base map and the fiber family
    coefficients are rewritten accordingly.
    """
    used = set(taken) | set(m.src.coords)
    mapping = {}
    for name in m.src.coords:
        if name in taken:
            cand = f"{name}_{letter}"
            while cand in used:
                cand += letter
            used.add(cand)
            mapping[name] = cand
    if not mapping:
        return m
    src = m.src.rename_coords(mapping)
    values = {old: Poly.variable(new) for old, new in mapping.items()}
    base = tuple(p.substitute(values) for p in m.base_map)
    return Morphism(src, m.dst, base, pullback_family(m.phi, values))


def transport_source(psi: OpFamily, ell: OpFamily) -> OpFamily:
    """The structure ell' on psi's source with psi o ell' = ell . psi.

    psi is a degree-0 family without arity zero whose linear part is
    invertible with constant coefficients, and ell' is ell conjugated by
    it: ell' = (psi^{-1} o ell) . psi, with psi^{-1} = invert_family(psi).
    """
    ellp = bullet(circ(invert_family(psi), ell), psi)
    if circ(psi, ellp) != bullet(ell, psi):
        raise ValueError("transport_source failed to verify")
    return ellp


@dataclass
class LinearizedFibration:
    """Fibration rewritten as an isomorphism followed by a strict projection.

    iso maps the fibration's source, over the identity of its base, onto a
    bundle whose fiber is target (+) complement, the target first in each
    degree; linear is the coordinate projection of iso.dst onto the target,
    so the complement is what it drops, and inverse is iso's inverse.
    """

    iso: Morphism
    linear: Morphism
    inverse: Morphism


def linearize_fibration(m: Morphism) -> LinearizedFibration:
    """Split a fibration into an isomorphism followed by a strict projection.

    Requires the linear part of m.phi to be constant and surjective in each
    degree.  Chooses a splitting of the source fiber into a copy of the
    pulled-back target fiber plus its complement, transports the structure
    through the resulting isomorphism, and returns the pieces with
    compose(linear, iso) equal to m.  The iso and the projection are
    checked to be morphisms and to recompose to m.
    """
    src, dst = m.src, m.dst
    phi1 = m.phi.op(1)
    comp_dims, kcoords = _kernel_complement(phi1, src.fiber, dst.fiber)
    comp = GradedSpace.build(
        {d: n for d, n in comp_dims.items() if n},
        labels={d: [f"k{d}_{i}" for i in range(n)] for d, n in comp_dims.items() if n})
    mid_fiber, into_e, into_k = dst.fiber.direct_sum(comp)
    same_keys = {key: key for key in src.fiber.keys()}
    to_kernel = MultiOp(1, 0, src.fiber, mid_fiber,
                        {((d, i),): {into_k[(d, j)]: c for j, c in enumerate(row)}
                         for d, rows in kcoords.items() for i, row in enumerate(rows)})
    phi_prime = OpFamily(0, src.fiber, mid_fiber, {
        k: reindex_op(op, src.fiber, mid_fiber, same_keys, into_e)
        for k, op in m.phi.ops.items()}).plus(
            OpFamily(0, src.fiber, mid_fiber, {1: to_kernel}))
    psi = invert_family(phi_prime)
    ell_mid = bullet(circ(phi_prime, src.total()), psi).ops

    mid = LinftyBundle(src.coords, mid_fiber,
                       MultiOp.zero(1, 1, mid_fiber, mid_fiber),
                       OpFamily(1, mid_fiber, mid_fiber, ell_mid))
    ident_base = tuple(Poly.variable(x) for x in src.coords)
    iso = Morphism(src, mid, ident_base, phi_prime)

    linear = linear_morphism(mid, dst, m.base_map, {e: {k: 1} for k, e in into_e.items()})

    for cand in (iso, linear):
        rep = check_morphism(cand)
        if not rep.ok:
            raise ValueError("linearization failed to verify the morphism equation")
    if not same_morphism(compose(linear, iso), m):
        raise ValueError("linearization does not recompose to the original morphism")
    return LinearizedFibration(iso, linear, Morphism(mid, src, ident_base, psi))


def _kernel_complement(phi1: MultiOp, source: GradedSpace, target: GradedSpace):
    """Complement of the kernel of a constant surjective phi1, degree by degree.

    Returns the complement dimensions and, per degree with a nonzero
    complement, the kernel-basis coordinates of every source unit vector
    after its W phi1 part is removed (W a right inverse of phi1): the
    columns of W followed by the kernel basis K form a basis, and the rows
    of its inverse below W's are the K-coordinates, so one inversion per
    degree gives them all.
    """
    comp_dims: dict[int, int] = {}
    kcoords: dict[int, list[list[Rat]]] = {}
    for d in sorted(set(source.degrees()) | set(target.degrees())):
        mat = op_matrix(phi1, d)
        n = source.dim(d)
        w = right_inverse(mat) if target.dim(d) else [[] for _ in range(n)]
        if w is None:
            raise ValueError(f"linear part is not surjective in degree {d}")
        kern = kernel_basis(mat, cols=n)
        comp_dims[d] = len(kern)
        if not kern:
            continue
        inv = right_inverse([row + [v[r] for v in kern] for r, row in enumerate(w)])
        below = inv[n - len(kern):]
        kcoords[d] = [list(col) for col in zip(*below)]
    return comp_dims, kcoords
