"""Reference implementations the production engines are checked against.

These are the definitions written out literally, with no attention to
cost: `canonical_tuples_literal` filters every
`combinations_with_replacement` of the basis, `circ_literal` and
`bullet_literal` sum over all n! orderings of the inputs with the
1/(k!(n-k)!) and 1/(k! n_1! ... n_k!) weights of the graded-symmetric
products, `circ_unshuffle` tabulates circ on every canonical tuple by
the sum over its 2^n unshuffles, `sort_keys_general` sorts basis keys
by the general pairwise sign count with no shortcut for sorted input,
`transfer_rebuild` solves the transfer fixed point by rebuilding the
whole product lam . phi at every arity and once more for mu,
`treeterm_ordered` feeds an operation its parts on every ordered split
of the inputs into blocks, with no regard for equal parts, and
`bareiss_rank` computes a rank by fraction-free elimination (Bareiss
1968) on an integer-scaled copy, a pipeline independent of the rational
row reduction in `linfty.linalg`.
`solve_literal` solves one right-hand side per elimination,
`substitute_literal` substitutes into a polynomial term by term through
the public `Poly` operators, `eval_literal` evaluates one term by term in
`Fraction` arithmetic, `compose_linear_literal` post-composes an
operation of any arity with an arity-1 one through `evaluate_basis` and
the checked `MultiOp` constructor, and `combination_literal` sums
multiples of operations coefficient by coefficient.  These references
keep term-by-term arithmetic of their own: `vec_add_into` adds one
coefficient into a sparse vector in normal form, and `evaluate_expanded`
evaluates an operation on sparse vectors slot by slot.
`scalar_product_literal`, `poly_eq_literal` and `pruned_literal` are
`Poly`'s product by a rational, equality and pruning as they were before
the normal form was read directly: the scalar wrapped as a constant `Poly`
and multiplied through `_aligned` and `_mul_terms`, both sides of an
equality always pruned and aligned, and a pruned copy always built.
`find_classical_points_per_polynomial` is the Newton point search with
one kernel per polynomial (each over its own denominator),
the normal equations solved with `sum` and a `max` pivot, and every seed
run to convergence, divergence or the step cap.
`entries_from_json_literal` reads an operation entry list as the model
reader did before it checked each entry once: every key tested against
its space as it is read, every table checked again by the `MultiOp`
constructor's checks written out (`checked_table_literal`), and every
coefficient string parsed by `Fraction` (`parse_frac_literal`).

Next to them sit closed forms the engines must reproduce: the graded
commutator of circ, the arity-1 transferred maps and the identities of a
pure arity-1 perturbation, the side conditions of the monomial homotopy
of `projection_morphism`, and the path-section calculus on explicit
t-polynomials (pullback along a(t) = p + t(q - p), delta = (-1)^d d/dt,
eta = (-1)^d (int_0^t - t int_0^1), and the projections pi_lin onto the
linear interpolation and pi_con onto the average, so that
1 - (delta eta + eta delta) acts as pi_con on dt-sections and as pi_lin
on plain sections).  `shifted_tangent_tabulated` builds the shifted
tangent operations by evaluating ell on every canonical tuple of the
shifted space, differentiating the whole operation for each tuple that
holds a base direction.  `path_perturbation_tabulated` builds the path
model's perturbation by evaluating the shifted tangent operations on
every canonical tuple of the ambient space, pulling each coefficient
back anew.  `build_contraction` derives a contraction from
(delta, eta) alone, with the reduced echelon basis of the projector's
image as H.  The instance generators that only the tests draw from close
the file: arity-1 perturbations of a contraction (drawn until eta lam_1
is nilpotent) and affine embeddings (drawn until the linear part has full
rank).  Three small constructions that only the tests take sit with the
fixture bundles: the identity morphism, a bundle specialized at a point,
and the inclusion morphism of a transfer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, gcd
from typing import Iterable, Iterator, Mapping, Sequence

from linfty.algebra import (LinftyBundle, Morphism, map_family_coeffs,
                            map_op_coeffs, plain_bundle)
from linfty import geometry
from linfty.geometry import ClassicalPoint, ShiftedTangentData, shifted_tangent_data
from linfty.graded import (BasisBuilder, BasisKey, GradedSpace, MultiOp, OpFamily, Vector,
                           arity_bound, bullet, circ, koszul_sign, op_nilpotency_order,
                           unshuffle_sign)
from linfty.linalg import rank, rref
from linfty.modelio import ModelFormatError, _fail, _within, coeff_from_json
from linfty.pathspace import (DerivedPathSpace, PathModel, _split_t, ambient_coord_names,
                              build_path_model, derived_path_space, path_perturbation)
from linfty.poly import Poly, Rat, _exact, _mul_terms, _times, as_rational, stage
from linfty.samples import conjugate, nonzero_fraction, random_contraction
from linfty.transfer import (AdaptedBasis, Contraction, TransferResult, _apply_coderivation,
                             _apply_k, _checked_projector, _image_basis, neumann_inverse)


def canonical_tuples_literal(space: GradedSpace, arity: int,
                             max_total_degree: int | None = None) -> Iterator[tuple[BasisKey, ...]]:
    """All sorted basis tuples of the given arity with nonvanishing symmetric class."""
    if arity == 0:
        yield ()
        return
    keys = space.keys()
    for tup in combinations_with_replacement(keys, arity):
        ok = True
        for a in range(arity - 1):
            if tup[a] == tup[a + 1] and tup[a][0] % 2:
                ok = False
                break
        if not ok:
            continue
        if max_total_degree is not None and sum(k[0] for k in tup) > max_total_degree:
            continue
        yield tup


def sort_keys_general(keys) -> tuple[tuple[BasisKey, ...], int]:
    """Stable sort of basis keys with the Koszul sign, 0 on an odd repeat."""
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    sign = 1
    for a in range(len(keys)):
        ka = keys[order[a]]
        if ka[0] % 2 == 0:
            continue
        for b in range(a + 1, len(keys)):
            kb = keys[order[b]]
            if ka == kb:
                return tuple(keys[i] for i in order), 0
            if order[a] > order[b] and kb[0] % 2:
                sign = -sign
    return tuple(keys[i] for i in order), sign


def vec_add_into(dst: Vector, key: BasisKey, coeff) -> None:
    """dst[key] += coeff in normal form, a sum that vanishes removed."""
    if not coeff:
        return
    cur = dst.get(key)
    if cur is None:
        dst[key] = _exact(coeff)
        return
    new = _exact(cur + coeff)
    if new:
        dst[key] = new
    else:
        del dst[key]


def evaluate_expanded(op: MultiOp, vectors: Sequence[Vector]) -> Vector:
    """op on sparse vectors, expanded recursively slot by slot through
    `evaluate_basis`, each prefix product carried down the recursion."""
    if len(vectors) != op.arity:
        raise ValueError("wrong number of arguments")
    out: Vector = {}

    def expand(idx, keys, coeff):
        if idx == len(vectors):
            for okey, c in op.evaluate_basis(keys).items():
                vec_add_into(out, okey, _times(coeff, c))
            return
        for key, c in vectors[idx].items():
            if c:
                expand(idx + 1, keys + (key,), _times(coeff, c))

    expand(0, (), 1)
    return out


def evaluate_with_keys(op: MultiOp, first: Vector, rest: Sequence[BasisKey]) -> Vector:
    """op with the vector first in slot one and the basis keys rest after it."""
    return evaluate_expanded(op, [first] + [{k: 1} for k in rest])


def _circ_value_literal(lam: OpFamily, mu: OpFamily, tup) -> Vector:
    n = len(tup)
    degs = [k[0] for k in tup]
    out: Vector = {}
    for perm in permutations(range(n)):
        sign = koszul_sign(degs, perm)
        ptup = tuple(tup[i] for i in perm)
        for k in range(n + 1):
            mu_k = mu.ops.get(k)
            lam_op = lam.ops.get(n + 1 - k)
            if mu_k is None or lam_op is None:
                continue
            inner = mu_k.evaluate_basis(ptup[:k])
            if not inner:
                continue
            weight = Fraction(sign, factorial(k) * factorial(n - k))
            res = evaluate_with_keys(lam_op, inner, ptup[k:])
            for okey, c in res.items():
                vec_add_into(out, okey, weight * c)
    return out


def _circ_value_unshuffle(lam: OpFamily, mu: OpFamily, tup) -> Vector:
    n = len(tup)
    degs = [k[0] for k in tup]
    out: Vector = {}
    for k in range(n + 1):
        mu_k = mu.ops.get(k)
        lam_op = lam.ops.get(n + 1 - k)
        if mu_k is None or lam_op is None:
            continue
        for front in combinations(range(n), k):
            sign = unshuffle_sign(degs, front)
            if sign == 0:
                continue
            inner = mu_k.evaluate_basis(tuple(tup[i] for i in front))
            if not inner:
                continue
            rest = tuple(tup[i] for i in range(n) if i not in front)
            res = evaluate_with_keys(lam_op, inner, rest)
            for okey, c in res.items():
                vec_add_into(out, okey, c if sign > 0 else -c)
    return out


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of k positive integers summing to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for head in range(1, n - k + 2):
        for tail in _compositions(n - head, k - 1):
            yield (head,) + tail


def _bullet_value_literal(lam: OpFamily, phi: OpFamily, tup) -> Vector:
    n = len(tup)
    degs = [k[0] for k in tup]
    out: Vector = {}
    if n == 0:
        lam0 = lam.ops.get(0)
        return dict(lam0.evaluate_basis(())) if lam0 else {}
    for perm in permutations(range(n)):
        sign = koszul_sign(degs, perm)
        ptup = tuple(tup[i] for i in perm)
        for k in range(1, n + 1):
            lam_k = lam.ops.get(k)
            if lam_k is None:
                continue
            for comp in _compositions(n, k):
                weight = Fraction(sign, factorial(k))
                vecs = []
                pos = 0
                dead = False
                for nj in comp:
                    weight /= factorial(nj)
                    block = ptup[pos:pos + nj]
                    pos += nj
                    v = phi.op(nj).evaluate_basis(block)
                    if not v:
                        dead = True
                        break
                    vecs.append(v)
                if dead:
                    continue
                res = evaluate_expanded(lam_k, vecs)
                for okey, c in res.items():
                    vec_add_into(out, okey, weight * c)
    return out


def _tabulate(arities, degree, source, target, fn) -> OpFamily:
    ops = {n: MultiOp.from_function(n, degree, source, target, fn) for n in arities}
    return OpFamily(degree, source, target, ops)


def circ_literal(lam: OpFamily, mu: OpFamily) -> OpFamily:
    """lam o mu by the permutation sum, at every arity one insertion reaches."""
    top = lam.max_arity + mu.max_arity - 1 if lam.ops and mu.ops else -1
    return _tabulate(range(top + 1), lam.degree + mu.degree, lam.source, lam.target,
                     lambda tup: _circ_value_literal(lam, mu, tup))


def circ_unshuffle(lam: OpFamily, mu: OpFamily) -> OpFamily:
    """lam o mu tabulated on every canonical tuple by the unshuffle sum."""
    degree = lam.degree + mu.degree
    n_max = min(arity_bound(degree, lam.target, lam.source),
                lam.max_arity + mu.max_arity - 1 if (lam.ops and mu.ops) else -1)
    fn = lambda tup: _circ_value_unshuffle(lam, mu, tup)
    ops = {}
    for n in range(n_max + 1):
        op = MultiOp.from_function(n, degree, lam.source, lam.target, fn)
        if not op.is_zero():
            ops[n] = op
    return OpFamily(degree, lam.source, lam.target, ops)


def bullet_literal(lam: OpFamily, phi: OpFamily) -> OpFamily:
    """lam . phi by the permutation sum, at every arity the packets reach."""
    top = lam.max_arity * phi.max_arity if lam.ops and phi.ops else 0
    return _tabulate(range(top + 1), lam.degree, phi.source, lam.target,
                     lambda tup: _bullet_value_literal(lam, phi, tup))


def ordered_block_assignments(sizes: Sequence[int],
                              positions: Sequence[int]) -> Iterator[list[tuple[int, ...]]]:
    """Ordered decompositions of positions into blocks of the given sizes."""
    if not sizes:
        yield []
        return
    head, rest = sizes[0], sizes[1:]
    for block in combinations(positions, head):
        remaining = [p for p in positions if p not in block]
        for tail in ordered_block_assignments(rest, remaining):
            yield [block] + tail


def treeterm_ordered(op_k: MultiOp, parts: Sequence[MultiOp]) -> MultiOp:
    """op_k fed with the parts on every ordered split of the inputs: a run
    of m equal parts meets each choice of its blocks m! times."""
    n = sum(p.arity for p in parts)

    def value(tup):
        degs = [k[0] for k in tup]
        out: Vector = {}
        for blocks in ordered_block_assignments([p.arity for p in parts], range(n)):
            sign = koszul_sign(degs, [i for b in blocks for i in b])
            vecs = [part.evaluate_basis(tuple(tup[i] for i in block))
                    for part, block in zip(parts, blocks)]
            if sign == 0 or not all(vecs):
                continue
            for okey, c in evaluate_expanded(op_k, vecs).items():
                vec_add_into(out, okey, sign * c)
        return out

    return MultiOp.from_function(n, op_k.degree, parts[0].source, op_k.target, value)


def commutator(a: OpFamily, b: OpFamily) -> OpFamily:
    """Graded commutator [a, b] = a o b - (-1)^{|a||b|} b o a."""
    ab = circ(a, b)
    ba = circ(b, a)
    sign = -1 if (a.degree % 2) and (b.degree % 2) else 1
    return ab.minus(ba.scaled(sign))


def build_contraction(space: GradedSpace, delta: MultiOp, eta: MultiOp) -> Contraction:
    """The retract derived from (delta, eta) alone.

    Requires delta^2 = 0, eta^2 = 0 and eta delta eta = eta; everything
    else (the projector, H, the side conditions) follows.  H gets the
    reduced echelon basis of the projector's image, labelled h{d}_{i}.
    """
    proj = _checked_projector(space, delta, eta)
    columns = {d: basis for d in space.degrees() if (basis := _image_basis(proj, d))}
    h_space = GradedSpace.build(
        {d: len(basis) for d, basis in columns.items()},
        labels={d: tuple(f"h{d}_{i}" for i in range(len(basis)))
                for d, basis in columns.items()})
    iota = MultiOp(1, 0, h_space, space,
                   {((d, i),): {(d, j): c for j, c in enumerate(vec) if c}
                    for d, basis in columns.items()
                    for i, vec in enumerate(basis)})
    return Contraction.from_basis(space, delta, eta, h_space, iota)


def transfer_rebuild(con: Contraction, lam: OpFamily) -> TransferResult:
    """The fixed-point transfer with the whole lam . phi rebuilt at each arity."""
    if lam.degree != 1 or lam.source != con.space or lam.target != con.space:
        raise ValueError("operations must be a degree-1 endofamily of the ambient space")
    eta_lam1 = con.eta.compose_linear(lam.op(1))
    inv1 = neumann_inverse(eta_lam1, label="eta lam_1")

    phi = OpFamily(0, con.h_space, con.space,
                   {1: inv1.compose_linear(con.iota)})
    top = arity_bound(0, con.space, con.h_space)
    for n in range(2, top + 1):
        resid = bullet(lam, phi).op(n)
        if resid.is_zero():
            continue
        corr = compose_linear_literal(inv1, compose_linear_literal(con.eta, resid)).scaled(-1)
        phi = phi.with_op(corr)

    lam_phi = bullet(lam, phi)
    mu_ops = {}
    for k in lam_phi.arities():
        op = compose_linear_literal(con.pi, lam_phi.op(k))
        if not op.is_zero():
            mu_ops[k] = op
    mu = OpFamily(1, con.h_space, con.h_space, mu_ops)
    return TransferResult(con, phi, mu)


def transferred_phi1(con: Contraction, lam: OpFamily) -> MultiOp:
    """Arity-1 inclusion (1 + eta lam_1)^{-1} iota in closed form."""
    inv1 = neumann_inverse(con.eta.compose_linear(lam.op(1)))
    return inv1.compose_linear(con.iota)


def transferred_mu1(con: Contraction, lam: OpFamily) -> MultiOp:
    """Transferred differential correction pi lam_1 phi_1."""
    return con.pi.compose_linear(lam.op(1).compose_linear(transferred_phi1(con, lam)))


def transferred_mu0(con: Contraction, lam: OpFamily) -> Vector:
    """Transferred curvature pi lam_0."""
    return evaluate_expanded(con.pi, [lam.op(0).evaluate_basis(())])


def projection_phi1(con: Contraction, lam: OpFamily) -> MultiOp:
    """Arity-1 part pi (1 + lam_1 eta)^{-1} of the extended projection."""
    inv = neumann_inverse(lam.op(1).compose_linear(con.eta))
    return con.pi.compose_linear(inv)


def sym_homotopy_defect(ab: AdaptedBasis, mono: tuple) -> dict:
    """(D K + K D + I P - 1)(mono) in the adapted monomial basis; zero iff ok.

    It pins the side conditions of the monomial homotopy independently of
    any transfer computation.
    """
    delta = {1: ab.delta}
    state = {mono: 1}
    out = _apply_coderivation(delta, _apply_k(ab, state))
    for m, c in _apply_k(ab, _apply_coderivation(delta, state)).items():
        vec_add_into(out, m, c)
    if all(k not in ab.pair_of for k in mono):
        vec_add_into(out, mono, 1)
    vec_add_into(out, mono, -1)
    return out


@dataclass
class PerturbationReport:
    ok: bool
    eta_new: MultiOp
    phi1: MultiOp
    pi1: MultiOp
    mu1: MultiOp
    failures: list


def perturbation_check(con: Contraction, lam1: MultiOp) -> PerturbationReport:
    """Check the matrix identities of a pure arity-1 perturbation.

    With eta' = eta (1 + lam_1 eta)^{-1}: the perturbed projection and
    inclusion compose to the identity on H, and to 1 - [delta + lam_1, eta']
    on the ambient space; eta' is again a contraction homotopy for
    delta + lam_1.
    """
    if lam1.arity != 1 or lam1.degree != 1:
        raise ValueError("expected an arity-1 degree-1 perturbation")
    inv_le = neumann_inverse(lam1.compose_linear(con.eta), label="lam_1 eta")
    inv_el = neumann_inverse(con.eta.compose_linear(lam1), label="eta lam_1")
    eta_new = con.eta.compose_linear(inv_le)
    phi1 = inv_el.compose_linear(con.iota)
    pi1 = con.pi.compose_linear(inv_le)
    dtot = con.delta.plus(lam1)
    mu1 = con.pi.compose_linear(lam1.compose_linear(phi1))

    failures = []
    if pi1.compose_linear(phi1) != MultiOp.identity(con.h_space):
        failures.append("pi' phi' != id on H")
    lhs = phi1.compose_linear(pi1)
    comm = dtot.compose_linear(eta_new).plus(eta_new.compose_linear(dtot))
    if lhs != MultiOp.identity(con.space).minus(comm):
        failures.append("phi' pi' != 1 - [delta + lam_1, eta']")
    if not eta_new.compose_linear(eta_new).is_zero():
        failures.append("eta'^2 != 0")
    if eta_new.compose_linear(dtot.compose_linear(eta_new)) != eta_new:
        failures.append("eta' (delta + lam_1) eta' != eta'")
    dh = con.delta_h.plus(mu1)
    if not dh.compose_linear(dh).is_zero():
        failures.append("(delta_H + mu_1)^2 != 0")
    return PerturbationReport(not failures, eta_new, phi1, pi1, mu1, failures)


def bareiss_rank(a) -> int:
    """Rank via fraction-free elimination on an integer-scaled copy."""
    if not a or not a[0]:
        return 0
    m: list[list[int]] = []
    for row in a:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        m.append([int(x * den) for x in row])
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def bareiss_betti(cx) -> dict[int, int]:
    """Betti numbers of a CochainComplex from Bareiss ranks."""
    ranks = {k: bareiss_rank(d) for k, d in cx.diffs.items()}
    betti = {}
    for k in cx.degrees():
        b = cx.dims[k] - ranks.get(k, 0) - ranks.get(k - 1, 0)
        if b:
            betti[k] = b
    return betti


def solve_literal(a, b):
    """One solution of a x = b, or None if inconsistent: one elimination of
    [a | b] per right-hand side."""
    if not a:
        return [] if all(not x for x in b) else None
    aug = [row[:] + [Fraction(b[i])] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    n = len(a[0])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


def compose_linear_literal(outer: MultiOp, inner: MultiOp) -> MultiOp:
    """outer o inner for an arity-1 outer and an inner of any arity: each
    middle key evaluated through evaluate_basis, the result through the
    checked constructor."""
    if outer.arity != 1:
        raise ValueError("compose_linear expects an arity-1 outer operation")
    coeffs: dict[tuple[BasisKey, ...], Vector] = {}
    for tup, vec in inner.coeffs.items():
        out: Vector = {}
        for mid, c in vec.items():
            res = outer.evaluate_basis((mid,))
            for okey, c2 in res.items():
                vec_add_into(out, okey, c * c2)
        if out:
            coeffs[tup] = out
    return MultiOp(inner.arity, outer.degree + inner.degree, inner.source, outer.target,
                   coeffs)


def combination_literal(terms: Sequence[tuple[MultiOp, int | Fraction]]) -> MultiOp:
    """The sum of c * op over the (op, c) of terms, all ops of one arity,
    degree and pair of spaces: each coefficient multiplied and added on its
    own, the result through the checked constructor."""
    first = terms[0][0]
    coeffs: dict[tuple[BasisKey, ...], Vector] = {}
    for op, c in terms:
        for tup, vec in op.coeffs.items():
            out = coeffs.setdefault(tup, {})
            for okey, x in vec.items():
                vec_add_into(out, okey, _times(c, x))
    return MultiOp(first.arity, first.degree, first.source, first.target, coeffs)


def substitute_literal(p: Poly, values: Mapping[str, "Poly | Rat"]) -> Poly:
    """p with polynomials (or rationals) substituted for some variables, term
    by term through the public Poly operators."""
    keep = [v for v in p.vars if v not in values]
    out_vars: list[str] = list(keep)
    subs: dict[str, Poly] = {}
    for name, val in values.items():
        q = val if isinstance(val, Poly) else Poly.constant(as_rational(val))
        subs[name] = q
        for v in q.vars:
            if v not in out_vars:
                out_vars.append(v)
    out = Poly.zero(tuple(out_vars))
    for e, c in p.terms.items():
        term = Poly.monomial(out_vars, (0,) * len(out_vars), c)
        for v, k in zip(p.vars, e):
            if k == 0:
                continue
            if v in subs:
                term = term * subs[v] ** k
            else:
                term = term * Poly.variable(v, tuple(out_vars)) ** k
        out = out + term
    return out


def scalar_product_literal(p: Poly, c) -> Poly:
    """p * c through the general product: c wrapped as a constant Poly over
    p.vars, aligned with p and multiplied term by term.  p * 1 is p itself
    and p * -1 is -p."""
    if type(c) is int and c in (1, -1):
        return p if c == 1 else -p
    a, b = Poly._aligned(p, p._coerce(c))
    return Poly._trusted(a.vars, _mul_terms(a.terms, b.terms))


def pruned_literal(p: Poly) -> Poly:
    """A copy of p over the variables some term uses, always built."""
    used = [i for i in range(len(p.vars)) if any(e[i] for e in p.terms)]
    return Poly._trusted(tuple(p.vars[i] for i in used),
                         {tuple(e[i] for i in used): c for e, c in p.terms.items()})


def poly_eq_literal(p: Poly, other) -> bool:
    """p == other with both sides pruned and aligned, whatever their variables."""
    a, b = Poly._aligned(pruned_literal(p), pruned_literal(p._coerce(other)))
    return a.terms == b.terms


def eval_literal(p: Poly, values: Mapping[str, Rat]) -> Fraction:
    """p at a rational point, term by term in Fraction arithmetic."""
    out = Fraction(0)
    for e, c in p.terms.items():
        val = c
        for v, k in zip(p.vars, e):
            if k == 0:
                continue
            if v not in values:
                raise ValueError(f"no value supplied for variable {v!r}")
            val = val * as_rational(values[v]) ** k
        out += val
    return out


def least_squares_step_sums(jm, fv, m):
    """The normal equations J^T J s = J^T f, ridged by 1e-12, solved in
    floats with `sum` over the rows and the first maximal pivot by `max`."""
    ata = [[sum(jm[r][i] * jm[r][j] for r in range(len(jm))) for j in range(m)]
           for i in range(m)]
    atb = [sum(jm[r][i] * fv[r] for r in range(len(jm))) for i in range(m)]
    for i in range(m):
        ata[i][i] += 1e-12
    aug = [row[:] + [atb[i]] for i, row in enumerate(ata)]
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) < 1e-14:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(m):
            if r != col and aug[r][col]:
                fac = aug[r][col] / aug[col][col]
                for cc in range(col, m + 1):
                    aug[r][cc] -= fac * aug[col][cc]
    return [aug[i][m] / aug[i][i] for i in range(m)]


def find_classical_points_per_polynomial(bundle: LinftyBundle):
    """`geometry.find_classical_points` with one kernel per curvature
    component and per Jacobian entry, `least_squares_step_sums` as the
    solve, and no early stop for a seed whose iterate stalls."""
    m = len(bundle.coords)
    if m == 0:
        return ([] if bundle.curvature_section() else [ClassicalPoint(())]), []
    comps = [c if isinstance(c, Poly) else Poly.constant(c)
             for _, c in sorted(bundle.curvature_section().items())]
    f_kernels = [stage([c], bundle.coords) for c in comps]
    jac_kernels = [[stage([c.diff(name)], bundle.coords) for name in bundle.coords]
                   for c in comps]

    def floats(kernels, at):
        return [nums[0] / den for nums, den in (kernel(at) for kernel in kernels)]

    seeds = product(*[[-3.0 + 6.0 * i / 6 for i in range(7)]] * m)
    converged = []
    for seed in seeds:
        pt = list(seed)
        ok = False
        for _ in range(60):
            at = [v.as_integer_ratio() for v in pt]
            fv = floats(f_kernels, at)
            if max((abs(v) for v in fv), default=0.0) < geometry._POINT_TOL:
                ok = True
                break
            step = least_squares_step_sums([floats(row, at) for row in jac_kernels], fv, m)
            if step is None:
                break
            pt = [a - b for a, b in zip(pt, step)]
            if max(abs(v) for v in pt) > 1e6:
                break
        if ok:
            converged.append(tuple(pt))
    exact, seen, loose = [], set(), []
    for pt in sorted(geometry._drop_near_repeats(converged)):
        for cap in (1, 2, 8, 64, 1000):
            cand = tuple(Fraction(v).limit_denominator(cap) for v in pt)
            if max(abs(float(c) - v) for c, v in zip(cand, pt)) > geometry._SNAP_RADIUS:
                continue
            at = [c.as_integer_ratio() for c in cand]
            if not any(kernel(at)[0][0] for kernel in f_kernels):
                if cand not in seen:
                    seen.add(cand)
                    exact.append(ClassicalPoint(cand))
                break
        else:
            loose.append(pt)
    return exact, loose


# ---------------------------------------------------------------------------
# fixture bundles shared by the test modules
# ---------------------------------------------------------------------------


def square_bundle() -> LinftyBundle:
    """The double point: rank-1 fiber over one coordinate, section x^2."""
    x = Poly.variable("x")
    fiber = GradedSpace.build({1: 1}, labels={1: ["e"]})
    lam0 = MultiOp(0, 1, fiber, fiber, {(): {(1, 0): x ** 2}})
    return LinftyBundle(("x",), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {0: lam0}))


def section_bundle(coords, sections) -> LinftyBundle:
    """Quasi-smooth model: curvature given by a tuple of base functions."""
    fiber = GradedSpace.build({1: len(sections)})
    lam0 = MultiOp(0, 1, fiber, fiber,
                   {(): {(1, i): s for i, s in enumerate(sections)}})
    return LinftyBundle(tuple(coords), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {0: lam0}))


def circle_bundle() -> LinftyBundle:
    """The unit circle: rank-1 fiber over (x, y), section x^2 + y^2 - 1."""
    x, y = Poly.variable("x"), Poly.variable("y")
    return section_bundle(("x", "y"), (x ** 2 + y ** 2 - 1,))


def amp2_bundle() -> LinftyBundle:
    """Two-step fiber with x-dependent unary operation compatible with MC."""
    x1, x2 = Poly.variable("x1"), Poly.variable("x2")
    fiber = GradedSpace.build({1: 2, 2: 1}, labels={1: ["a", "b"], 2: ["c"]})
    lam0 = MultiOp(0, 1, fiber, fiber,
                   {(): {(1, 0): x1 ** 2, (1, 1): -(x1 ** 2) * x2}})
    lam1 = MultiOp(1, 1, fiber, fiber, {((1, 0),): {(2, 0): x2},
                                        ((1, 1),): {(2, 0): Poly.constant(1)}})
    return LinftyBundle(("x1", "x2"), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {0: lam0, 1: lam1}))


def identity_morphism(bundle: LinftyBundle) -> Morphism:
    base = tuple(Poly.variable(c) for c in bundle.coords)
    return Morphism(bundle, bundle, base, OpFamily.identity(bundle.fiber))


def at_point(bundle: LinftyBundle, point: Sequence[Rat]) -> LinftyBundle:
    """The bundle with every coefficient evaluated at a rational base point."""
    if len(point) != bundle.base_dim:
        raise ValueError(f"expected {bundle.base_dim} coordinates, got {len(point)}")
    values = {name: as_rational(v) for name, v in zip(bundle.coords, point)}

    def fn(c):
        return c.eval(values) if isinstance(c, Poly) else as_rational(c)

    return LinftyBundle((), bundle.fiber, map_op_coeffs(bundle.delta, fn),
                        map_family_coeffs(bundle.ops, fn))


def transferred_bundle(res: TransferResult) -> LinftyBundle:
    """The transferred structure on H: the operations mu with the induced
    differential, over no coordinates."""
    con = res.contraction
    return LinftyBundle((), con.h_space, con.delta_h, res.mu)


def inclusion_morphism(res: TransferResult, ambient: LinftyBundle) -> Morphism:
    """The transfer's phi as a morphism from the transferred structure."""
    return Morphism(transferred_bundle(res), ambient, (), res.phi)


# ---------------------------------------------------------------------------
# path sections along the straight path a(t) = p + t(q - p)
# ---------------------------------------------------------------------------


def poly_t(expr_terms: Mapping[int, Rat]) -> Poly:
    """Univariate polynomial in t from {power: coefficient}."""
    return Poly(("t",), {(k,): v for k, v in expr_terms.items()})


@dataclass(frozen=True)
class PathSection:
    """Polynomial section along the affine path a(t) = p + t(q - p).

    components are polynomials in the single variable t; degree is the
    degree of the underlying graded piece, dt marks a one-form section.
    """

    start: tuple[Fraction, ...]
    end: tuple[Fraction, ...]
    degree: int
    dt: bool
    components: tuple[Poly, ...]

    @staticmethod
    def make(start: Sequence[Rat], end: Sequence[Rat], degree: int,
             components: Iterable[Poly], dt: bool = False) -> "PathSection":
        p = tuple(as_rational(x) for x in start)
        q = tuple(as_rational(x) for x in end)
        comps = tuple(c.with_vars(("t",)) if c.vars != ("t",) else c for c in components)
        return PathSection(p, q, degree, dt, comps)

    def value_at(self, t0: Rat) -> tuple[Fraction, ...]:
        t = as_rational(t0)
        return tuple(c.eval({"t": t}) for c in self.components)


def _int_0_to_t(c: Poly) -> Poly:
    """Antiderivative in t vanishing at t = 0."""
    terms: dict[tuple, Fraction] = {}
    for e, coeff in c.with_vars(("t",)).terms.items():
        terms[(e[0] + 1,)] = Fraction(coeff, e[0] + 1)
    return Poly(("t",), terms)


def _int_0_to_1(c: Poly) -> Fraction:
    return _int_0_to_t(c).eval({"t": 1})


def pullback(coeffs: Sequence[Poly], coords: Sequence[str],
             start: Sequence[Rat], end: Sequence[Rat],
             degree: int, dt: bool = False) -> PathSection:
    """Restrict polynomial coefficient functions along a(t) = p + t(q-p)."""
    p = [as_rational(x) for x in start]
    q = [as_rational(x) for x in end]
    if len(p) != len(coords) or len(q) != len(coords):
        raise ValueError("endpoint dimension does not match coordinates")
    t = Poly.variable("t")
    subs = {name: Poly.constant(pi) + t * (qi - pi)
            for name, pi, qi in zip(coords, p, q)}
    comps = []
    for c in coeffs:
        r = c.substitute(subs)
        extra = [v for v in r.pruned().vars if v != "t"]
        if extra:
            raise ValueError(f"coefficients involve unknown variables {extra}")
        comps.append(r.with_vars(("t",)) if r.vars != ("t",) else r)
    return PathSection.make(p, q, degree, comps, dt=dt)


def path_delta(s: PathSection) -> PathSection:
    """Covariant t-derivative: (-1)^d d/dt, raising the dt flag."""
    if s.dt:
        raise ValueError("delta of a dt-section is zero (and typed out)")
    sign = -1 if s.degree % 2 else 1
    comps = [sign * c.diff("t") for c in s.components]
    return PathSection.make(s.start, s.end, s.degree, comps, dt=True)


def path_eta(s: PathSection) -> PathSection:
    """Homotopy (-1)^k (int_0^t - t int_0^1) from dt-sections back to sections."""
    if not s.dt:
        raise ValueError("eta only acts on dt-sections")
    sign = -1 if s.degree % 2 else 1
    t = Poly.variable("t")
    comps = [sign * (_int_0_to_t(c) - t * _int_0_to_1(c)) for c in s.components]
    return PathSection.make(s.start, s.end, s.degree, comps, dt=False)


def pi_lin(s: PathSection) -> PathSection:
    """Linear interpolation (1-t) s(0) + t s(1) of a plain section."""
    if s.dt:
        raise ValueError("pi_lin only acts on plain sections")
    t = Poly.variable("t")
    comps = []
    for c in s.components:
        v0 = c.eval({"t": 0})
        v1 = c.eval({"t": 1})
        comps.append(Poly.constant(v0) + t * (v1 - v0))
    return PathSection.make(s.start, s.end, s.degree, comps, dt=False)


def pi_con(s: PathSection) -> PathSection:
    """Average value int_0^1 s, as a constant dt-section."""
    if not s.dt:
        raise ValueError("pi_con only acts on dt-sections")
    comps = [Poly.monomial(("t",), (0,), _int_0_to_1(c)) for c in s.components]
    return PathSection.make(s.start, s.end, s.degree, comps, dt=True)


# ---------------------------------------------------------------------------
# path spaces
# ---------------------------------------------------------------------------


def path_curved_structure(bundle: LinftyBundle, start, end) -> LinftyBundle:
    """Curved structure on the truncated path sections for one rational path."""
    pvals = {name: Fraction(v) for name, v in zip(bundle.coords, start)}
    qvals = {name: Fraction(v) for name, v in zip(bundle.coords, end)}
    if len(pvals) != len(bundle.coords) or len(qvals) != len(bundle.coords):
        raise ValueError("endpoint dimension mismatch")
    model = build_path_model(bundle)
    lam = path_perturbation(model, pvals, qvals)
    return LinftyBundle((), model.space, model.contraction.delta, lam)


def shifted_tangent_tabulated(bundle: LinftyBundle) -> ShiftedTangentData:
    """shifted_tangent_data by tabulation over every canonical tuple.

    Each tuple of the shifted space is mapped back to the original keys:
    with no dt key ell is evaluated there, with one shifted fiber key ell
    is evaluated with its underlying vector in front, and with one shifted
    base key the whole operation is differentiated afresh and evaluated on
    the rest; the sign rule of shifted_tangent applies to both dt cases.
    """
    m = len(bundle.coords)
    fib = bundle.fiber

    basis = BasisBuilder()
    tm_key: dict[int, tuple] = {}
    for j in range(m):
        tm_key[j] = basis.push(1, f"d{bundle.coords[j]} dt", True)
    ldt_key: dict[tuple, tuple] = {}
    lpl_key: dict[tuple, tuple] = {}
    for d in fib.degrees():
        for i in range(fib.dims[d]):
            ldt_key[(d, i)] = basis.push(d + 1, fib.labels[d][i] + " dt", True)
    for d in fib.degrees():
        for i in range(fib.dims[d]):
            lpl_key[(d, i)] = basis.push(d, fib.labels[d][i], False)

    space = basis.build()
    tm_inv = {v: j for j, v in tm_key.items()}
    ldt_inv = {v: k for k, v in ldt_key.items()}
    lpl_inv = {v: k for k, v in lpl_key.items()}

    ell = bundle.total()
    arities = sorted(k for k, op in ell.ops.items() if not op.is_zero())
    top = (max(arities) + 1) if arities else 0

    def value(tup):
        dt_pos = [p for p, (d, i) in enumerate(tup) if space.dt[d][i]]
        if len(dt_pos) > 1:
            return {}
        if not dt_pos:
            inner = tuple(lpl_inv[key] for key in tup)
            vec = ell.op(len(tup)).evaluate_basis(inner) if len(tup) in ell.ops else {}
            return {lpl_key[k]: c for k, c in vec.items()}
        p = dt_pos[0]
        key = tup[p]
        before = sum(k[0] for k in tup[:p])
        after = sum(k[0] for k in tup[p + 1:])
        sign = -1 if (after + (key[0] - 1) * before) % 2 else 1
        rest = tuple(lpl_inv[tup[i]] for i in range(len(tup)) if i != p)
        if key in ldt_inv:
            k = len(tup)
            if k not in ell.ops:
                return {}
            vec = evaluate_expanded(ell.op(k),
                                    [{ldt_inv[key]: 1}] + [{r: 1} for r in rest])
            return {ldt_key[q]: (c if sign > 0 else -c) for q, c in vec.items()}
        j = tm_inv[key]
        k = len(tup) - 1
        if k not in ell.ops:
            return {}
        name = bundle.coords[j]
        diffed = map_op_coeffs(
            ell.op(k),
            lambda c: c.diff(name) if isinstance(c, Poly) else 0)
        vec = diffed.evaluate_basis(rest)
        return {ldt_key[q]: (c if sign > 0 else -c) for q, c in vec.items()}

    ops: dict[int, MultiOp] = {}
    for k in range(top + 1):
        op = MultiOp.from_function(k, 1, space, space, value)
        if not op.is_zero():
            ops[k] = op
    return ShiftedTangentData(space, OpFamily(1, space, space, ops),
                              tm_key, ldt_key, lpl_key)


def path_perturbation_tabulated(model: PathModel, pvals, qvals) -> OpFamily:
    """path_perturbation by tabulation over the ambient space.

    Every canonical tuple of the truncated model is mapped back to the
    shifted tangent tuple it stands for, with the sum of its t-powers; the
    shifted tangent operation is evaluated there and each output
    coefficient is pulled back along a(t) = p + t(q - p) afresh, its
    t-powers shifted by that sum and dropped beyond the cap.
    """
    bundle = model.bundle
    data = shifted_tangent_data(bundle)
    t = Poly.variable("t")
    avals, prime = {}, {}
    for j, name in enumerate(bundle.coords):
        p, q = Poly.constant(0) + pvals[name], Poly.constant(0) + qvals[name]
        avals[name] = p + t * (q - p)
        if q - p:
            prime[model.base_dt[j]] = q - p

    dt_kind = {v: k for k, v in data.fiber_dt.items()}
    plain_kind = {v: k for k, v in data.fiber_plain.items()}
    amb_to_t = {model.base_dt[j]: (v, 0) for j, v in data.base_dt.items()}
    for (fk, s), key in model.one_form.items():
        amb_to_t[key] = (data.fiber_dt[fk], s)
    for (fk, s), key in model.plain.items():
        amb_to_t[key] = (data.fiber_plain[fk], s)

    def out_key(t_key, power):
        if t_key in dt_kind:
            return model.one_form[(dt_kind[t_key], power)] if power < model.cap else None
        return model.plain[(plain_kind[t_key], power)] if power <= model.cap else None

    def value(tup):
        if len(tup) not in data.ops.ops:
            return {}
        pairs = [amb_to_t[key] for key in tup]
        shift = sum(s for _, s in pairs)
        vec = data.ops.op(len(tup)).evaluate_basis(tuple(t_key for t_key, _ in pairs))
        out: dict = {}
        for t_key, c in vec.items():
            pulled = c.substitute(avals) if isinstance(c, Poly) else c
            for r, cr in _split_t(pulled).items():
                key = out_key(t_key, shift + r)
                if key is not None:
                    vec_add_into(out, key, cr)
        return out

    top = max(data.ops.ops, default=0)
    ops = {k: MultiOp.from_function(k, 1, model.space, model.space, value)
           for k in range(top + 1)}
    if prime:
        ops[0] = ops[0].plus(MultiOp(0, 1, model.space, model.space, {(): prime}))
    return OpFamily(1, model.space, model.space,
                    {k: op for k, op in ops.items() if not op.is_zero()})


def path_space_manifold(m: int) -> DerivedPathSpace:
    """Derived path space of a plain affine space of dimension m."""
    if m <= 0:
        raise ValueError("dimension must be positive")
    return derived_path_space(plain_bundle(ambient_coord_names(m)))


# ---------------------------------------------------------------------------
# the literal document reader
# ---------------------------------------------------------------------------


def parse_frac_literal(s, where: str) -> int | Fraction:
    """modelio.parse_frac by Fraction's own string parser alone."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise _fail(where, f"expected a rational string, got {s!r}")
    try:
        return _exact(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(where, f"bad rational {s!r}") from exc


def _read_key_literal(obj, space: GradedSpace, where: str) -> BasisKey:
    if (not isinstance(obj, list) or len(obj) != 2
            or type(obj[0]) is not int or type(obj[1]) is not int):
        raise _fail(where, f"expected a [degree, index] pair, got {obj!r}")
    key = (obj[0], obj[1])
    if not space.contains(key):
        raise _fail(where, f"basis key {key} outside bundle ranks")
    return key


def checked_table_literal(arity: int, degree: int, source: GradedSpace, target: GradedSpace,
                          coeffs) -> dict:
    """The checks of the MultiOp constructor written out, tuple by tuple:
    arity, canonical order by sorting, a tuple that repeats an odd key
    dropped, then every key tested against its space and every output
    degree compared; zero coefficients dropped."""
    clean = {}
    for tup, vec in coeffs.items():
        if len(tup) != arity:
            raise ValueError(f"tuple {tup} has wrong arity (expected {arity})")
        srt, sign = sort_keys_general(tup)
        if srt != tup:
            raise ValueError(f"input tuple {tup} is not canonically sorted")
        if sign == 0:
            continue
        for k in tup:
            if not source.contains(k):
                raise KeyError(f"basis key {k} not in space with dims {dict(source.dims)}")
        total = sum(k[0] for k in tup) + degree
        out = {}
        for okey, c in vec.items():
            if not target.contains(okey):
                raise KeyError(f"basis key {okey} not in space with dims {dict(target.dims)}")
            if okey[0] != total:
                raise ValueError(
                    f"inhomogeneous entry {tup} -> {okey}: expected output degree {total}")
            if c:
                out[okey] = _exact(c)
        if out:
            clean[tup] = out
    return clean


def entries_from_json_literal(entries, src: GradedSpace, dst: GradedSpace, coords,
                              degree: int, parts, where: str) -> dict[str | None, OpFamily]:
    """modelio._entries_from_json written out: each key read and tested
    against its space, each coefficient string parsed by Fraction, the
    entries gathered into tables with repeats refused, and every table
    checked again, order and degrees included, by the constructor's checks
    (checked_table_literal).  A table's fault names the entry list, not
    the entry."""
    if not isinstance(entries, list):
        raise _fail(where, "expected a list of operation entries")
    tables: dict[str | None, dict] = {part: {} for part in parts}
    for n, e in enumerate(entries):
        try:
            if not isinstance(e, dict):
                raise _fail("", "expected an object")
            part = e.get("part")
            if not (part is None or isinstance(part, str)) or part not in parts:
                raise _fail("", f"unknown part {part!r}")
            lo, hi = parts[part]
            arity = e.get("arity")
            if type(arity) is not int or arity < lo or hi is not None and arity > hi:
                raise _fail("", f"arity must be {lo}" if lo == hi
                            else f"arity must be an integer >= {lo}")
            inputs = e.get("inputs")
            if not isinstance(inputs, list) or len(inputs) != arity:
                raise _fail("", f"inputs must list exactly {arity} keys")
            tup = tuple(_read_key_literal(k, src, ".inputs") for k in inputs)
            okey = _read_key_literal(e.get("output"), dst, ".output")
            raw = e.get("coeff")
            c = (parse_frac_literal(raw, ".coeff") if type(raw) is str
                 else coeff_from_json(raw, coords, ".coeff"))
            vec = tables[part].setdefault(arity, {}).setdefault(tup, {})
            if okey in vec:
                raise _fail("", f"duplicate entry for {tup} -> {okey}")
            vec[okey] = c
        except ModelFormatError as exc:
            raise _within(f"{where}[{n}]", exc) from None
    try:
        return {part: OpFamily(degree, src, dst,
                               {k: MultiOp(k, degree, src, dst,
                                           checked_table_literal(k, degree, src, dst, coeffs))
                                for k, coeffs in table.items()})
                for part, table in tables.items()}
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _elementary_invertible(rng: random.Random, space: GradedSpace) -> MultiOp | None:
    """Identity plus a single same-degree off-diagonal entry."""
    degs = [d for d in space.degrees() if space.dim(d) >= 2]
    if not degs:
        return None
    d = rng.choice(degs)
    i, j = rng.sample(range(space.dim(d)), 2)
    coeffs = {((dd, k),): {(dd, k): Fraction(1)}
              for dd in space.degrees() for k in range(space.dim(dd))}
    coeffs[((d, j),)][(d, i)] = nonzero_fraction(rng)
    return MultiOp(1, 0, space, space, coeffs)


def random_lambda1(rng: random.Random, con: Contraction, attempts: int = 30) -> MultiOp | None:
    """Arity-1 perturbation with (delta+lam1)^2 = 0 and terminating series.

    Conjugating by a sparse unipotent keeps eta lam_1 low rank, which is
    what makes the nilpotency rejection loop converge quickly.  Returns
    None when the contraction resists; callers should resample it.
    """
    for _ in range(attempts):
        h = _elementary_invertible(rng, con.space)
        if h is None:
            return None
        lam1 = conjugate(con.delta, h).minus(con.delta)
        if lam1.is_zero():
            continue
        if op_nilpotency_order(con.eta.compose_linear(lam1)) is not None:
            return lam1
    return None


def random_perturbation_instance(rng: random.Random, amplitude: int = 3,
                                 max_dim: int = 4, attempts: int = 60) -> tuple[Contraction, MultiOp]:
    """(contraction, lam_1) pair ready for the perturbation identities."""
    for _ in range(attempts):
        con = random_contraction(rng, amplitude, max_dim)
        lam1 = random_lambda1(rng, con)
        if lam1 is not None:
            return con, lam1
    raise RuntimeError("could not sample a perturbation instance")


def random_affine_images(rng: random.Random, m: int, k: int, params: Sequence[str]):
    """Images of an affine embedding of rank k into m-space."""
    while True:
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(m)]
        if k == 0 or rank([row[:] for row in a]) == k:
            break
    consts = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
    out = []
    for i in range(m):
        p = Poly.monomial(params, (0,) * len(params), consts[i])
        for j, u in enumerate(params):
            if a[i][j]:
                p = p + Poly.variable(u, tuple(params)) * a[i][j]
        out.append(p)
    return tuple(out)
