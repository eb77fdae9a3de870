"""Homotopy transfer along a contraction, three ways.

A contraction packages a square-zero differential delta and a degree -1
map eta with eta^2 = 0 and eta delta eta = eta.  The associated projector
1 - [delta, eta] is idempotent; its image H carries the induced
differential, and the inclusion/projection pair automatically satisfies
the side conditions eta iota = 0 and pi eta = 0.

Given curved degree-1 operations lam on the ambient space, `transfer`
solves the fixed point

    phi = iota - eta (lam . phi)

arity by arity (the arity-1 obstruction (1 + eta lam_1) is inverted as a
Neumann series, so eta lam_1 must be nilpotent) and produces transferred
operations mu = pi (lam . phi) on H, curvature included.  With the
induced differential con.delta_h they are the transferred structure; the
caller that knows its base coordinates builds the bundle
LinftyBundle(coords, con.h_space, con.delta_h, mu).  Step n tabulates
only resid_n = (lam . phi_{<n})_n; since phi_n enters arity n of the
product only through the single-block partition,

    (lam . phi)_n = resid_n + lam_1 phi_n

and mu is read off these values with no second pass over the product.

`transfer_trees` recomputes phi and mu as an explicit sum over rooted
trees whose nodes are the operations of arity >= 2, each weighted
(-1)^(number of nodes); agreement with the fixed-point route is a strong
end-to-end check and the test suite asserts it.  It shares the
hypothesis and the inverse (1 + eta lam_1)^{-1} of `transfer`, which
resums the chains of lam_1 a tree expansion would otherwise carry: a
leaf is that inverse applied to iota, and a tree's term (its root
operation fed with its capped subtrees, `graded.treeterm`) is tabulated
once and capped twice, by the inverse after eta for phi and by pi for
mu.  The trees with n leaves are grown from the multisets of smaller
trees whose leaf counts sum to n (`graded.multisets`, the walk bullet
makes over phi's arities).  Equal subtrees are fed once per unordered
choice of their inputs, so no symmetry factor remains.

`projection_morphism` extends pi to a full morphism from the ambient
structure to the transferred one.  The adapted basis is a graded space of
its own: H's keys, then matched pairs a_j, b_j = delta a_j with
eta b_j = a_j, with change-of-basis maps to and from the ambient space.
The curved operations are conjugated into it, eta extends to a monomial
homotopy K with K^2 = 0 on its canonical tuples (the symmetric
coalgebra, with graded's Koszul signs), and P (1 + Delta K)^{-1} is
corestricted, where Delta is the coderivation of the operations.  A
change of basis acts on every input slot of an operation through
`bullet_op` with a family whose only operation is that linear map.  The
composite with phi is the identity on H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Mapping

from .algebra import invert_linear_op, op_matrix
from .graded import (BasisBuilder, BasisKey, GradedSpace, MultiOp, OpFamily, Vector,
                     arity_bound, bullet_op, multisets, op_nilpotency_order,
                     sort_keys_with_sign, treeterm, unshuffle_sign)
from .linalg import rref, solve_columns


def _image_basis(op: MultiOp, degree: int) -> list[list[Fraction]]:
    """Basis (as coordinate vectors) of the image of the degree-d block."""
    m = op_matrix(op, degree)
    if not m or not m[0]:
        return []
    red, pivots = rref([list(col) for col in zip(*m)])
    return [row for row in red[:len(pivots)]]


def neumann_inverse(op: MultiOp, label: str = "operator") -> MultiOp:
    """(1 + op)^{-1} as a terminating series; op must be nilpotent."""
    order = op_nilpotency_order(op)
    if order is None:
        raise ValueError(f"{label} is not nilpotent; the expansion does not terminate")
    out = MultiOp.identity(op.source)
    power = op
    sign = -1
    for _ in range(order - 1):
        out = out.plus(power.scaled(sign))
        power = op.compose_linear(power)
        sign = -sign
    return out


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------


def _checked_projector(space: GradedSpace, delta: MultiOp, eta: MultiOp) -> MultiOp:
    """1 - [delta, eta], once delta^2 = 0, eta^2 = 0 and eta delta eta = eta hold."""
    if delta.arity != 1 or delta.degree != 1:
        raise ValueError("differential must be arity 1, degree 1")
    if eta.arity != 1 or eta.degree != -1:
        raise ValueError("homotopy must be arity 1, degree -1")
    if not delta.compose_linear(delta).is_zero():
        raise ValueError("differential does not square to zero")
    if not eta.compose_linear(eta).is_zero():
        raise ValueError("homotopy does not square to zero")
    de = delta.compose_linear(eta)
    if eta.compose_linear(de) != eta:
        raise ValueError("eta delta eta = eta fails")
    ed = eta.compose_linear(delta)
    return MultiOp.identity(space).minus(de.plus(ed))


@dataclass
class Contraction:
    """Ambient space with differential, homotopy, and induced retract data."""

    space: GradedSpace
    delta: MultiOp
    eta: MultiOp
    h_space: GradedSpace
    iota: MultiOp
    pi: MultiOp
    delta_h: MultiOp

    @staticmethod
    def from_basis(space: GradedSpace, delta: MultiOp, eta: MultiOp,
                   h_space: GradedSpace, iota: MultiOp) -> "Contraction":
        """Build the retract with a caller-chosen basis.

        iota's columns must span the image of 1 - [delta, eta] exactly; pi
        is solved from iota pi = 1 - [delta, eta] degree by degree and
        everything is validated.
        """
        proj = _checked_projector(space, delta, eta)
        if iota.arity != 1 or iota.degree != 0:
            raise ValueError("inclusion must be arity 1, degree 0")
        pi_coeffs = {}
        for d in space.degrees():
            pmat = op_matrix(proj, d)
            if not h_space.dim(d):
                if any(any(row) for row in pmat):
                    raise ValueError("projector image escaped the given basis")
                continue
            sols = solve_columns(op_matrix(iota, d), list(zip(*pmat)))
            if sols is None:
                raise ValueError("projector image escaped the given basis")
            for idx, sol in enumerate(sols):
                out = {(d, i): c for i, c in enumerate(sol) if c}
                if out:
                    pi_coeffs[((d, idx),)] = out
        pi = MultiOp(1, 0, space, h_space, pi_coeffs)
        return Contraction._assembled(space, delta, eta, h_space, iota, pi)

    @staticmethod
    def from_maps(space: GradedSpace, delta: MultiOp, eta: MultiOp,
                  h_space: GradedSpace, iota: MultiOp, pi: MultiOp) -> "Contraction":
        """Build the retract from a known inclusion and projection.

        Nothing is solved: the projector is checked and built from
        (delta, eta) as for the other constructor, `validate` proves the
        supplied pair right, and, pi being given rather than solved,
        iota pi = 1 - [delta, eta] is checked here.
        """
        proj = _checked_projector(space, delta, eta)
        con = Contraction._assembled(space, delta, eta, h_space, iota, pi)
        if iota.compose_linear(pi) != proj:
            raise ValueError("iota pi != 1 - [delta, eta]")
        return con

    @staticmethod
    def _assembled(space: GradedSpace, delta: MultiOp, eta: MultiOp,
                   h_space: GradedSpace, iota: MultiOp, pi: MultiOp) -> "Contraction":
        """The one place a contraction is put together: the induced
        differential is pi delta iota, and `validate` checks it."""
        if iota.arity != 1 or iota.degree != 0:
            raise ValueError("inclusion must be arity 1, degree 0")
        if pi.arity != 1 or pi.degree != 0:
            raise ValueError("projection must be arity 1, degree 0")
        delta_h = pi.compose_linear(delta.compose_linear(iota))
        con = Contraction(space, delta, eta, h_space, iota, pi, delta_h)
        con.validate()
        return con

    def validate(self) -> None:
        """pi iota = 1, eta iota = 0, pi eta = 0 and delta_h^2 = 0.

        iota pi = 1 - [delta, eta] holds by construction when pi is solved
        from it, so only `from_maps` checks it.
        """
        ident_h = MultiOp.identity(self.h_space)
        if self.pi.compose_linear(self.iota) != ident_h:
            raise ValueError("pi iota != id")
        if not self.eta.compose_linear(self.iota).is_zero():
            raise ValueError("eta iota != 0")
        if not self.pi.compose_linear(self.eta).is_zero():
            raise ValueError("pi eta != 0")
        if not self.delta_h.compose_linear(self.delta_h).is_zero():
            raise ValueError("induced differential does not square to zero")


# ---------------------------------------------------------------------------
# fixed-point transfer
# ---------------------------------------------------------------------------


@dataclass
class TransferResult:
    contraction: Contraction
    phi: OpFamily   # H -> ambient, degree 0
    mu: OpFamily    # transferred operations on H; the differential is con.delta_h


def _check_endofamily(con: Contraction, lam: OpFamily) -> None:
    if lam.degree != 1 or lam.source != con.space or lam.target != con.space:
        raise ValueError("operations must be a degree-1 endofamily of the ambient space")


def _transfer_setup(con: Contraction, lam: OpFamily) -> tuple[MultiOp, MultiOp, MultiOp]:
    """lam_1, inv1 = (1 + eta lam_1)^{-1} and mu_0 = pi lam_0 re-homed on H,
    the start of both transfer engines."""
    _check_endofamily(con, lam)
    lam1 = lam.op(1)
    inv1 = neumann_inverse(con.eta.compose_linear(lam1), label="eta lam_1")
    mu0 = con.pi.compose_linear(lam.op(0))
    # arity-0 ops never read their source; re-home it on H
    return lam1, inv1, MultiOp(0, 1, con.h_space, con.h_space, dict(mu0.coeffs))


def transfer(con: Contraction, lam: OpFamily) -> TransferResult:
    """Transfer curved operations through a contraction.

    phi_n = (1 + eta lam_1)^{-1} (iota_n - [eta (lam . phi_{<n})]_n),
    mu = pi (lam . phi); both are exact and finite in positive degrees.

    Each arity of lam . phi is tabulated once.  The only set partition of
    n inputs that reaches phi_n is the single block, so with
    resid_n = (lam . phi_{<n})_n the arity-n part of the whole product is
    (lam . phi)_n = resid_n + lam_1 phi_n, and mu_n is pi of it; mu_0 is
    pi lam_0.
    """
    lam1, inv1, mu0 = _transfer_setup(con, lam)
    phi1 = inv1.compose_linear(con.iota)
    phi = OpFamily(0, con.h_space, con.space, {1: phi1})
    lam_phi = {1: lam1.compose_linear(phi1)}
    top = arity_bound(0, con.space, con.h_space)
    for n in range(2, top + 1):
        resid = bullet_op(lam, phi, n)
        if resid.is_zero():
            continue
        phi_n = inv1.compose_linear(con.eta.compose_linear(resid)).scaled(-1)
        phi = phi.with_op(phi_n)
        lam_phi[n] = resid.plus(lam1.compose_linear(phi_n))

    mu_ops = {n: con.pi.compose_linear(op) for n, op in lam_phi.items()}
    mu_ops[0] = mu0
    mu = OpFamily(1, con.h_space, con.h_space, mu_ops)
    return TransferResult(con, phi, mu)


# ---------------------------------------------------------------------------
# tree-sum transfer
# ---------------------------------------------------------------------------


def transfer_trees(con: Contraction, lam: OpFamily) -> TransferResult:
    """Transfer via the explicit tree expansion; agrees with `transfer`.

    Every node has arity >= 2: lam_1 is resummed by the inverse
    inv1 = (1 + eta lam_1)^{-1} that `transfer` uses, so a leaf is
    inv1 iota and a tree's capped value is inv1 eta of its term (its root
    operation fed with its children's capped values).  phi_n sums
    w(T) = (-1)^(nodes of T) times the capped values of the n-leaf trees
    T, and
    mu_n = -sum w(T) pi(term of T) + pi lam_1 phi_n.  Each child of an
    n-leaf tree has fewer leaves, so one pass in increasing n finds every
    tree, tabulating its term once.  A tree whose capped value vanishes
    is never made a child: every tree above it would vanish with it.
    """
    lam1, inv1, mu0 = _transfer_setup(con, lam)
    arities = {k for k in lam.arities() if k >= 2}

    # a tree is its (capped value, weight); a run of identical children is
    # one pool entry repeated, so treeterm feeds it once per choice
    leaf = inv1.compose_linear(con.iota)
    pool = [] if leaf.is_zero() else [((leaf, 1), 1)]
    phi_ops = {1: leaf}
    mu_ops = {0: mu0}
    for n in range(1, arity_bound(0, con.space, con.h_space) + 1):
        phi_n = phi_ops.get(n, MultiOp.zero(n, 0, con.h_space, con.space))
        lam_phi = MultiOp.zero(n, 1, con.h_space, con.space)
        grown = []
        for kids in multisets(pool, n):
            if len(kids) not in arities:
                continue
            term = treeterm(lam.op(len(kids)), [val for val, _ in kids])
            w = -prod(wc for _, wc in kids)
            # lam . phi lacks the -1 that phi = iota - eta (lam . phi) puts
            # at the root
            lam_phi = lam_phi.plus(term.scaled(-w))
            val = inv1.compose_linear(con.eta.compose_linear(term))
            if not val.is_zero():
                grown.append(((val, w), n))
                phi_n = phi_n.plus(val.scaled(w))
        pool += grown
        phi_ops[n] = phi_n
        mu_ops[n] = con.pi.compose_linear(lam_phi.plus(lam1.compose_linear(phi_n)))
    phi = OpFamily(0, con.h_space, con.space, phi_ops)
    mu = OpFamily(1, con.h_space, con.h_space, mu_ops)
    return TransferResult(con, phi, mu)


# ---------------------------------------------------------------------------
# extended projection via the symmetric coalgebra
# ---------------------------------------------------------------------------

@dataclass
class AdaptedBasis:
    """Ambient space rewritten in a basis of H plus matched pairs (a_j, b_j).

    space is a graded space whose first keys in each degree are H's, at the
    same (d, i) as in the retract; each pair a_j, b_j = delta a_j follows,
    with eta b_j = a_j and eta killing H and every a_j.  from_adapted sends
    each adapted key to its ambient vector, to_adapted is its inverse and
    delta is the differential conjugated into this basis, where it
    preserves H.  That is what makes the monomial homotopy explicit.
    """

    space: GradedSpace
    from_adapted: MultiOp
    to_adapted: MultiOp
    delta: MultiOp
    pairs: list[tuple[BasisKey, BasisKey]]     # (a_j, b_j) keys by j
    pair_of: dict[BasisKey, int]                # a_j, b_j -> j

    @staticmethod
    def build(con: Contraction) -> "AdaptedBasis":
        """H's keys take iota's columns and each a_j a row of the image
        basis of eta delta; the b_j = delta a_j are one compose_linear."""
        basis = BasisBuilder()
        columns: dict[BasisKey, Vector] = {}
        for d, i in con.h_space.keys():
            key = basis.push(d, con.h_space.labels[d][i], False)
            columns[key] = con.iota.evaluate_basis((key,))
        eta_delta = con.eta.compose_linear(con.delta)
        pairs: list[tuple[BasisKey, BasisKey]] = []
        for d in con.space.degrees():
            for vec in _image_basis(eta_delta, d):
                a = basis.push(d, f"a{len(pairs)}", False)
                b = basis.push(d + 1, f"b{len(pairs)}", False)
                columns[a] = {(d, r): c for r, c in enumerate(vec) if c}
                columns[b] = {}  # delta a, filled in below
                pairs.append((a, b))
        space = basis.build()
        b_cols = con.delta.compose_linear(
            MultiOp(1, 0, space, con.space, {(a,): columns[a] for a, _ in pairs})).coeffs
        for a, b in pairs:
            columns[b] = b_cols.get((a,), {})
        from_adapted = MultiOp(1, 0, space, con.space,
                               {(k,): v for k, v in columns.items() if v})
        try:
            to_adapted = invert_linear_op(from_adapted)
        except ValueError:
            raise ValueError("adapted basis does not span; contraction data is inconsistent")
        delta = to_adapted.compose_linear(con.delta.compose_linear(from_adapted))
        pair_of = {k: j for j, pair in enumerate(pairs) for k in pair}
        if any(o in pair_of for (k,), v in delta.coeffs.items() if k not in pair_of
               for o in v):
            raise ValueError("differential does not preserve H in the adapted basis")
        return AdaptedBasis(space, from_adapted, to_adapted, delta, pairs, pair_of)


def _sym_k(ab: AdaptedBasis, mono: tuple) -> tuple[tuple, int | Fraction] | None:
    """Monomial homotopy: act on the block of the lowest pair index j present.

    The block a^m b^s is pulled to the front, replaced by a^{m+1}/(m+1)
    (even a, s = 1) or by a b^{s-1} (odd a, m = 0), and the result sorted
    back; every other block is sent to zero.
    """
    js = [ab.pair_of[k] for k in mono if k in ab.pair_of]
    if not js:
        return None
    a, b = ab.pairs[min(js)]
    front = [p for p, k in enumerate(mono) if k == a or k == b]
    m = mono.count(a)
    s = len(front) - m
    if a[0] % 2 == 0:
        if s == 0:
            return None
        # s == 1 is forced: b is odd, so it cannot repeat
        block = (a,) * (m + 1)
        coeff = Fraction(1, m + 1) if m else 1
    else:
        if m > 0 or s == 0:
            return None
        block = (a,) + (b,) * (s - 1)
        coeff = 1
    sign = unshuffle_sign([k[0] for k in mono], front)
    # the new block repeats no odd key and the rest holds no key of pair j,
    # so the sort never collapses
    srt, s2 = sort_keys_with_sign(block + tuple(k for k in mono if k != a and k != b))
    return srt, coeff if sign * s2 > 0 else -coeff


def _apply_k(ab: AdaptedBasis, state: dict) -> dict:
    out: dict = {}
    for mono, c in state.items():
        res = _sym_k(ab, mono)
        if res is not None:
            srt, x = res
            out[srt] = out.get(srt, 0) + c * x
    return {k: c for k, c in out.items() if c}


def _apply_coderivation(fam: Mapping[int, MultiOp], state: dict) -> dict:
    """Coderivation of the operations fam (arity -> op) on adapted monomials.

    An arity-k op eats each k-subset of a monomial, unshuffled to the front,
    and its output takes their place at the front.
    """
    out: dict = {}
    for mono, c in state.items():
        n = len(mono)
        degs = [k[0] for k in mono]
        for k, op in fam.items():
            for front in combinations(range(n), k):
                val = op.evaluate_basis(tuple(mono[i] for i in front))
                if not val:
                    continue
                sign = unshuffle_sign(degs, front)
                rest = tuple(mono[i] for i in range(n) if i not in front)
                for key, cv in val.items():
                    srt, s2 = sort_keys_with_sign((key,) + rest)
                    if s2:
                        cc = c * cv
                        out[srt] = out.get(srt, 0) + (cc if sign * s2 > 0 else -cc)
    return {k: c for k, c in out.items() if c}


def projection_morphism(con: Contraction, lam: OpFamily) -> OpFamily:
    """Extend pi to a morphism onto the transferred structure.

    Corestriction of P (1 + Delta K)^{-1} on the symmetric coalgebra in the
    adapted basis, with lam conjugated into that basis.  Delta K preserves
    total degree and every key has positive degree, so each monomial only
    ever meets finitely many others; the inverse is an exact linear solve on
    that reachable set, which stays defined even when the geometric series
    for it diverges.  A singular 1 + Delta K means no extended projection
    exists and is a RuntimeError.  Each arity is solved on adapted tuples
    and carried back to the ambient basis through to_adapted.
    """
    _check_endofamily(con, lam)
    ab = AdaptedBasis.build(con)
    from_adapted = OpFamily(0, ab.space, con.space, {1: ab.from_adapted})
    fam = {k: ab.to_adapted.compose_linear(bullet_op(lam, from_adapted, k)) for k in lam.ops}
    top = arity_bound(0, con.h_space, con.space)
    rows: dict[tuple, dict] = {}

    def row(mono):
        got = rows.get(mono)
        if got is None:
            got = _apply_coderivation(fam, _apply_k(ab, {mono: 1}))
            rows[mono] = got
        return got

    def value(tup):
        reach: list[tuple] = []
        index: dict[tuple, int] = {}
        todo = [tup]
        while todo:
            mono = todo.pop()
            if mono in index:
                continue
            index[mono] = len(reach)
            reach.append(mono)
            todo.extend(row(mono))
        n = len(reach)
        aug = [[0] * (n + 1) for _ in range(n)]
        for j, mono in enumerate(reach):
            aug[j][j] = 1
            for m2, c in row(mono).items():
                aug[index[m2]][j] += c
        aug[index[tup]][n] = 1
        red, pivots = rref(aug)
        if pivots != list(range(n)):
            raise RuntimeError("no extended projection: 1 + Delta K is "
                               "singular on the reachable monomials")
        return {mono[0]: red[r][n] for r, mono in enumerate(reach)
                if red[r][n] and len(mono) == 1 and mono[0][1] < con.h_space.dim(mono[0][0])}

    # value is a linear solve, not a kernel: its tables meet the checks
    adapted = OpFamily(0, ab.space, con.h_space, {
        n: MultiOp(n, 0, ab.space, con.h_space,
                   MultiOp.from_function(n, 0, ab.space, con.h_space, value).coeffs)
        for n in range(1, top + 1)})
    to_adapted = OpFamily(0, con.space, ab.space, {1: ab.to_adapted})
    ops = {n: bullet_op(adapted, to_adapted, n) for n in adapted.ops}
    return OpFamily(0, con.space, con.h_space, ops)
