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
operations mu = pi (lam . phi) on H, curvature included.  Step n tabulates
only resid_n = (lam . phi_{<n})_n; since phi_n enters arity n of the
product only through the single-block partition,

    (lam . phi)_n = resid_n + lam_1 phi_n

and mu is read off these values with no second pass over the product.

`transfer_trees` recomputes phi and mu as an explicit sum over rooted
trees with symmetry-factor weights; agreement with the fixed-point route
is a strong end-to-end check and the test suite asserts it.

`projection_morphism` extends pi to a full morphism from the ambient
structure to the transferred one.  It works on the symmetric coalgebra in
an adapted basis (H plus matched pairs a_j, b_j = delta a_j with
eta b_j = a_j), extends eta to a monomial homotopy K with K^2 = 0, and
corestricts P (1 + Delta K)^{-1} where Delta is the coderivation of the
curved operations.  The composite with phi is the identity on H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .algebra import (CurvedAlgebra, Morphism, algebra_as_bundle, linear_apply,
                      op_matrix, op_then)
from .graded import (GradedSpace, MultiOp, OpFamily, Vector, arity_bound,
                     bullet_op, koszul_sign, op_nilpotency_order, vec_add_into)
from .linalg import inverse as mat_inverse
from .linalg import rref, solve_columns
from .poly import _exact, _times


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
    projector: MultiOp       # 1 - [delta, eta], equal to iota pi

    @staticmethod
    def from_basis(space: GradedSpace, delta: MultiOp, eta: MultiOp,
                   h_space: GradedSpace, iota: MultiOp) -> "Contraction":
        """Build the retract with a caller-chosen basis.

        iota's columns must span the image of 1 - [delta, eta] exactly; the
        projection is solved from that basis and everything is validated.
        """
        return Contraction._from_projector(space, delta, eta,
                                           _checked_projector(space, delta, eta),
                                           h_space, iota)

    @staticmethod
    def from_maps(space: GradedSpace, delta: MultiOp, eta: MultiOp,
                  h_space: GradedSpace, iota: MultiOp, pi: MultiOp) -> "Contraction":
        """Build the retract from a known inclusion and projection.

        Nothing is solved: the projector is checked and built from
        (delta, eta) as for the other constructors, and `validate` then
        proves the supplied pair right, iota pi = 1 - [delta, eta] included.
        """
        return Contraction._assembled(space, delta, eta,
                                      _checked_projector(space, delta, eta),
                                      h_space, iota, pi)

    @staticmethod
    def _from_projector(space: GradedSpace, delta: MultiOp, eta: MultiOp,
                        proj: MultiOp, h_space: GradedSpace,
                        iota: MultiOp) -> "Contraction":
        """Solve pi from iota pi = proj degree by degree, then assemble."""
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
        return Contraction._assembled(space, delta, eta, proj, h_space, iota, pi)

    @staticmethod
    def _assembled(space: GradedSpace, delta: MultiOp, eta: MultiOp,
                   proj: MultiOp, h_space: GradedSpace, iota: MultiOp,
                   pi: MultiOp) -> "Contraction":
        """The one place a contraction is put together: the induced
        differential is pi delta iota, and all five identities are checked."""
        if iota.arity != 1 or iota.degree != 0:
            raise ValueError("inclusion must be arity 1, degree 0")
        if pi.arity != 1 or pi.degree != 0:
            raise ValueError("projection must be arity 1, degree 0")
        delta_h = pi.compose_linear(delta.compose_linear(iota))
        con = Contraction(space, delta, eta, h_space, iota, pi, delta_h, proj)
        con.validate()
        return con

    def validate(self) -> None:
        ident_h = MultiOp.identity(self.h_space)
        if self.pi.compose_linear(self.iota) != ident_h:
            raise ValueError("pi iota != id")
        if not self.eta.compose_linear(self.iota).is_zero():
            raise ValueError("eta iota != 0")
        if not self.pi.compose_linear(self.eta).is_zero():
            raise ValueError("pi eta != 0")
        if self.iota.compose_linear(self.pi) != self.projector:
            raise ValueError("iota pi != 1 - [delta, eta]")
        if not self.delta_h.compose_linear(self.delta_h).is_zero():
            raise ValueError("induced differential does not square to zero")


# ---------------------------------------------------------------------------
# fixed-point transfer
# ---------------------------------------------------------------------------


@dataclass
class TransferResult:
    contraction: Contraction
    phi: OpFamily            # H -> ambient, degree 0
    algebra: CurvedAlgebra   # transferred structure on H

    def inclusion_morphism(self, ambient: CurvedAlgebra) -> Morphism:
        return Morphism(algebra_as_bundle(self.algebra), algebra_as_bundle(ambient),
                        (), self.phi)


def _curvature_on_h(con: Contraction, lam: OpFamily) -> MultiOp:
    """pi lam_0 as an arity-0 operation on H."""
    mu0 = op_then(lam.op(0), con.pi)
    # arity-0 ops never read their source; re-home it on H
    return MultiOp(0, 1, con.h_space, con.h_space, dict(mu0.coeffs))


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
    if lam.degree != 1 or lam.source != con.space or lam.target != con.space:
        raise ValueError("operations must be a degree-1 endofamily of the ambient space")
    lam1 = lam.op(1)
    inv1 = neumann_inverse(con.eta.compose_linear(lam1), label="eta lam_1")

    phi1 = inv1.compose_linear(con.iota)
    phi = OpFamily(0, con.h_space, con.space, {1: phi1})
    lam_phi = {1: op_then(phi1, lam1)}
    top = arity_bound(0, con.space, con.h_space)
    for n in range(2, top + 1):
        resid = bullet_op(lam, phi, n)
        if resid.is_zero():
            continue
        phi_n = op_then(op_then(resid, con.eta), inv1).scaled(-1)
        phi = phi.with_op(phi_n)
        lam_phi[n] = resid.plus(op_then(phi_n, lam1))

    mu_ops = {n: op_then(op, con.pi) for n, op in lam_phi.items()}
    mu_ops[0] = _curvature_on_h(con, lam)
    mu = OpFamily(1, con.h_space, con.h_space, mu_ops)
    return TransferResult(con, phi, CurvedAlgebra(con.h_space, con.delta_h, mu))


# ---------------------------------------------------------------------------
# tree-sum transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """Rooted tree with unordered children; None children marks a leaf."""

    children: tuple["Tree", ...] | None = None

    def sort_key(self):
        if self.children is None:
            return (0,)
        return (1, tuple(c.sort_key() for c in self.children))

    @staticmethod
    def leaf() -> "Tree":
        return Tree(None)

    @staticmethod
    def node(children: Sequence["Tree"]) -> "Tree":
        return Tree(tuple(sorted(children, key=Tree.sort_key)))

    def n_leaves(self) -> int:
        if self.children is None:
            return 1
        return sum(c.n_leaves() for c in self.children)

    def weight(self) -> int | Fraction:
        """Symmetry-weighted coefficient in the fixed-point expansion."""
        if self.children is None:
            return 1
        w = -1
        run = 1
        for i, c in enumerate(self.children):
            w = _times(w, c.weight())
            if i > 0 and c == self.children[i - 1]:
                run += 1
                w = _exact(Fraction(w, run))
            else:
                run = 1
        return w

    def describe(self) -> str:
        if self.children is None:
            return "*"
        return "(" + " ".join(c.describe() for c in self.children) + ")"


def _block_assignments(sizes: Sequence[int], positions: Sequence[int]) -> Iterator[list[tuple[int, ...]]]:
    """Ordered decompositions of positions into blocks of the given sizes."""
    if not sizes:
        yield []
        return
    head, rest = sizes[0], sizes[1:]
    for block in combinations(positions, head):
        remaining = [p for p in positions if p not in block]
        for tail in _block_assignments(rest, remaining):
            yield [block] + tail


def treeterm(op_k: MultiOp, parts: Sequence[MultiOp]) -> MultiOp:
    """op_k fed with the parts on an unshuffled split of the inputs, no weights."""
    if op_k.arity != len(parts):
        raise ValueError("arity of the node must match the number of subtrees")
    n = sum(p.arity for p in parts)
    source = parts[0].source if parts else op_k.source

    def value(tup):
        degs = [k[0] for k in tup]
        out: Vector = {}
        for blocks in _block_assignments([p.arity for p in parts], range(n)):
            flat = [i for b in blocks for i in b]
            sign = koszul_sign(degs, flat)
            if sign == 0:
                continue
            vecs = []
            dead = False
            for part, block in zip(parts, blocks):
                v = part.evaluate_basis(tuple(tup[i] for i in block))
                if not v:
                    dead = True
                    break
                vecs.append(v)
            if dead:
                continue
            for okey, c in op_k.evaluate(vecs).items():
                vec_add_into(out, okey, c if sign > 0 else -c)
        return out

    return MultiOp.from_function(n, op_k.degree, source, op_k.target, value)


def _tree_multisets(pool: Sequence[Tree], total: int,
                    counts: Sequence[int]) -> Iterator[tuple[Tree, ...]]:
    """Multisets from pool (with repetition) whose leaf counts sum to total."""

    def rec(idx: int, remaining: int) -> Iterator[tuple[Tree, ...]]:
        if remaining == 0:
            yield ()
            return
        for i in range(idx, len(pool)):
            c = counts[i]
            if c > remaining:
                continue
            for tail in rec(i, remaining - c):
                yield (pool[i],) + tail

    yield from rec(0, total)


def transfer_trees(con: Contraction, lam: OpFamily) -> TransferResult:
    """Transfer via the explicit tree expansion; agrees with `transfer`.

    Trees are discovered by leaf count; a candidate whose eta-capped value
    vanishes is dropped, which prunes every extension of it that would
    vanish for the same reason only at the root.
    """
    if lam.degree != 1 or lam.source != con.space or lam.target != con.space:
        raise ValueError("operations must be a degree-1 endofamily of the ambient space")
    top_phi = arity_bound(0, con.space, con.h_space)
    top_mu = arity_bound(1, con.h_space, con.h_space)
    top = max(top_phi, top_mu)
    arities = [k for k in lam.arities() if k >= 1]

    capped: dict[Tree, MultiOp] = {Tree.leaf(): con.iota}
    alive: dict[int, list[Tree]] = {1: [] if con.iota.is_zero() else [Tree.leaf()]}

    def capped_eval(t: Tree) -> MultiOp:
        got = capped.get(t)
        if got is not None:
            return got
        parts = [capped_eval(c) for c in t.children]
        val = op_then(treeterm(lam.op(len(t.children)), parts), con.eta)
        capped[t] = val
        return val

    arity_set = set(arities)
    for n in range(1, top + 1):
        alive.setdefault(n, [])
        guard = 0
        while True:
            pool = [t for m in range(1, n + 1) for t in alive.get(m, [])]
            counts = [t.n_leaves() for t in pool]
            added = False
            for ms in _tree_multisets(pool, n, counts):
                if len(ms) not in arity_set:
                    continue
                t = Tree.node(ms)
                if t in capped:
                    continue
                if not capped_eval(t).is_zero():
                    alive[n].append(t)
                    added = True
            if not added:
                break
            guard += 1
            if guard > con.space.total_dim + 2:
                raise RuntimeError("tree discovery did not stabilize; eta lam_1 is not nilpotent")

    phi_ops: dict[int, MultiOp] = {}
    for n in range(1, top_phi + 1):
        acc = MultiOp.zero(n, 0, con.h_space, con.space)
        for t in alive.get(n, []):
            acc = acc.plus(capped[t].scaled(t.weight()))
        if not acc.is_zero():
            phi_ops[n] = acc
    phi = OpFamily(0, con.h_space, con.space, phi_ops)

    mu_ops: dict[int, MultiOp] = {0: _curvature_on_h(con, lam)}
    for n in range(1, top_mu + 1):
        acc = MultiOp.zero(n, 1, con.h_space, con.h_space)
        pool = [t for m in range(1, n + 1) for t in alive.get(m, [])]
        counts = [t.n_leaves() for t in pool]
        for ms in _tree_multisets(pool, n, counts):
            k = len(ms)
            if lam.ops.get(k) is None:
                continue
            # Tree.node(ms) weighs -w: its root carries the -1 of
            # phi = iota - eta (lam . phi), which mu = pi (lam . phi) lacks
            w = -Tree.node(ms).weight()
            term = op_then(treeterm(lam.op(k), [capped[t] for t in ms]), con.pi)
            acc = acc.plus(term.scaled(w))
        if not acc.is_zero():
            mu_ops[n] = acc
    mu = OpFamily(1, con.h_space, con.h_space, mu_ops)

    return TransferResult(con, phi, CurvedAlgebra(con.h_space, con.delta_h, mu))


# ---------------------------------------------------------------------------
# extended projection via the symmetric coalgebra
# ---------------------------------------------------------------------------

# letters of the adapted basis: ("h", deg, i) | ("a", j) | ("b", j)
Letter = tuple


@dataclass
class AdaptedBasis:
    """Ambient basis reshaped into H plus matched (a_j, b_j = delta a_j) pairs.

    In this basis eta kills H and every a_j, sends b_j to a_j, and delta
    restricts to H; that is what makes the monomial homotopy explicit.
    """

    con: Contraction
    pair_degrees: list[int] = field(default_factory=list)       # degree of a_j
    letter_to_vec: dict = field(default_factory=dict)           # Letter -> ambient Vector
    key_to_letters: dict = field(default_factory=dict)          # ambient key -> {Letter: Fraction}
    delta_letters: dict = field(default_factory=dict)           # Letter -> {Letter: Fraction}

    @staticmethod
    def build(con: Contraction) -> "AdaptedBasis":
        ab = AdaptedBasis(con)
        eta_delta = con.eta.compose_linear(con.delta)
        a_vectors: dict[int, list[list[Fraction]]] = {}
        for d in con.space.degrees():
            basis = _image_basis(eta_delta, d)
            if basis:
                a_vectors[d] = basis

        j = 0
        pairs_by_adeg: dict[int, list[int]] = {}
        for d in sorted(a_vectors):
            for vec in a_vectors[d]:
                ab.pair_degrees.append(d)
                avec = {(d, r): c for r, c in enumerate(vec) if c}
                bvec = linear_apply(con.delta, avec)
                ab.letter_to_vec[("a", j)] = avec
                ab.letter_to_vec[("b", j)] = bvec
                pairs_by_adeg.setdefault(d, []).append(j)
                j += 1
        for d in con.h_space.degrees():
            for i in range(con.h_space.dim(d)):
                ab.letter_to_vec[("h", d, i)] = con.iota.evaluate_basis(((d, i),))

        # invert the change of basis degree by degree
        for d in con.space.degrees():
            cols: list[tuple[Letter, Vector]] = []
            for i in range(con.h_space.dim(d)):
                cols.append((("h", d, i), ab.letter_to_vec[("h", d, i)]))
            for jj in pairs_by_adeg.get(d, []):
                cols.append((("a", jj), ab.letter_to_vec[("a", jj)]))
            for jj in pairs_by_adeg.get(d - 1, []):
                cols.append((("b", jj), ab.letter_to_vec[("b", jj)]))
            nd = con.space.dim(d)
            if len(cols) != nd:
                raise ValueError("adapted basis does not span; contraction data is inconsistent")
            if nd == 0:
                continue
            m = [[cols[c][1].get((d, r), 0) for c in range(nd)] for r in range(nd)]
            minv = mat_inverse(m)
            for i in range(nd):
                combo = {cols[r][0]: minv[r][i] for r in range(nd) if minv[r][i]}
                ab.key_to_letters[(d, i)] = combo

        for letter in ab.letter_to_vec:
            img = linear_apply(con.delta, ab.letter_to_vec[letter])
            out: dict = {}
            for key, c in img.items():
                for let2, c2 in ab.key_to_letters[key].items():
                    cur = _exact(out.get(let2, 0) + _times(c, c2))
                    if cur:
                        out[let2] = cur
                    elif let2 in out:
                        del out[let2]
            if letter[0] == "h" and any(l[0] != "h" for l in out):
                raise ValueError("differential does not preserve H in the adapted basis")
            ab.delta_letters[letter] = out
        return ab

    def degree(self, letter: Letter) -> int:
        if letter[0] == "h":
            return letter[1]
        if letter[0] == "a":
            return self.pair_degrees[letter[1]]
        return self.pair_degrees[letter[1]] + 1

    def rank(self, letter: Letter):
        if letter[0] == "h":
            return (0, letter[1], letter[2])
        return (1, letter[1], 0 if letter[0] == "a" else 1)

    def sort_letters(self, letters: Sequence[Letter]) -> tuple[tuple[Letter, ...], int]:
        order = sorted(range(len(letters)), key=lambda i: (self.rank(letters[i]), i))
        sign = 1
        for x in range(len(letters)):
            lx = letters[order[x]]
            dx = self.degree(lx)
            for y in range(x + 1, len(letters)):
                ly = letters[order[y]]
                if lx == ly and dx % 2:
                    return tuple(letters[i] for i in order), 0
                if order[x] > order[y] and dx % 2 and self.degree(ly) % 2:
                    sign = -sign
        return tuple(letters[i] for i in order), sign

    def keys_to_state(self, keys: Sequence) -> dict:
        """Expand an ambient basis tuple into adapted monomials."""
        state = {(): 1}
        for key in keys:
            nxt: dict = {}
            for mono, c in state.items():
                for letter, c2 in self.key_to_letters[key].items():
                    srt, sign = self.sort_letters(mono + (letter,))
                    if sign == 0:
                        continue
                    cur = nxt.get(srt)
                    add = _times(c, c2)
                    if sign < 0:
                        add = -add
                    nxt[srt] = add if cur is None else _exact(cur + add)
            state = {m: c for m, c in nxt.items() if c}
        return state


def _sym_k(ab: AdaptedBasis, mono: tuple) -> tuple[tuple, Fraction] | None:
    """Monomial homotopy: act on the lowest pair index present."""
    pair_js = sorted({l[1] for l in mono if l[0] != "h"})
    if not pair_js:
        return None
    j0 = pair_js[0]
    h_part = [l for l in mono if l[0] == "h"]
    block = [l for l in mono if l[0] != "h" and l[1] == j0]
    rest = [l for l in mono if l[0] != "h" and l[1] != j0]
    m = sum(1 for l in block if l[0] == "a")
    s = len(block) - m
    d = ab.pair_degrees[j0]
    if d % 2 == 0:
        if s == 0:
            return None
        # s == 1 is forced: b is odd, so it cannot repeat
        new_block = [("a", j0)] * (m + 1)
        coeff = Fraction(1, m + 1) if m else 1
    else:
        if m > 0 or s == 0:
            return None
        new_block = [("a", j0)] + [("b", j0)] * (s - 1)
        coeff = 1
    sign = -1 if sum(ab.degree(l) for l in h_part) % 2 else 1
    letters = tuple(h_part) + tuple(new_block) + tuple(rest)
    srt, s2 = ab.sort_letters(letters)
    if s2 == 0:
        return None
    return srt, coeff if sign * s2 > 0 else -coeff


def _apply_k(ab: AdaptedBasis, state: dict) -> dict:
    out: dict = {}
    for mono, c in state.items():
        res = _sym_k(ab, mono)
        if res is None:
            continue
        srt, k = res
        cur = out.get(srt)
        add = _times(c, k)
        out[srt] = add if cur is None else _exact(cur + add)
    return {m: c for m, c in out.items() if c}


def _apply_coderivation(ab: AdaptedBasis, lam: OpFamily, state: dict,
                        include_delta: bool) -> dict:
    """Coderivation of the operations (optionally plus the differential)."""
    out: dict = {}

    def emit(letters, coeff):
        srt, sign = ab.sort_letters(letters)
        if sign == 0 or not coeff:
            return
        cur = out.get(srt)
        add = coeff if sign > 0 else -coeff
        out[srt] = add if cur is None else _exact(cur + add)

    max_k = lam.max_arity
    for mono, c in state.items():
        n = len(mono)
        degs = [ab.degree(l) for l in mono]
        if include_delta:
            for pos in range(n):
                # degree-1 map applied in place: sign from passing the prefix
                sign = -1 if sum(degs[:pos]) % 2 else 1
                for let2, c2 in ab.delta_letters[mono[pos]].items():
                    cc = _times(c, c2)
                    emit(mono[:pos] + (let2,) + mono[pos + 1:], cc if sign > 0 else -cc)
        for k in range(0, min(n, max_k) + 1):
            op = lam.ops.get(k)
            if op is None:
                continue
            for subset in combinations(range(n), k):
                sign = koszul_sign(degs, subset + tuple(i for i in range(n) if i not in subset))
                if sign == 0:
                    continue
                vecs = [ab.letter_to_vec[mono[i]] for i in subset]
                val = op.evaluate(vecs)
                if not val:
                    continue
                rest = tuple(mono[i] for i in range(n) if i not in subset)
                for key, cv in val.items():
                    ccv = _times(c, cv)
                    if sign < 0:
                        ccv = -ccv
                    for let2, c2 in ab.key_to_letters[key].items():
                        emit((let2,) + rest, _times(ccv, c2))
    return {m: c for m, c in out.items() if c}


def projection_morphism(con: Contraction, lam: OpFamily) -> OpFamily:
    """Extend pi to a morphism onto the transferred structure.

    Corestriction of P (1 + Delta K)^{-1} on the symmetric coalgebra in the
    adapted basis.  Delta K preserves total degree and every letter has
    positive degree, so each monomial only ever meets finitely many others;
    the inverse is an exact linear solve on that reachable set, which stays
    defined even when the geometric series for it diverges.  A singular
    1 + Delta K means no extended projection exists and is a RuntimeError.
    """
    if lam.degree != 1 or lam.source != con.space or lam.target != con.space:
        raise ValueError("operations must be a degree-1 endofamily of the ambient space")
    ab = AdaptedBasis.build(con)
    top = arity_bound(0, con.h_space, con.space)
    rows: dict[tuple, dict] = {}

    def row(mono):
        got = rows.get(mono)
        if got is None:
            got = _apply_coderivation(ab, lam, _apply_k(ab, {mono: 1}),
                                      include_delta=False)
            rows[mono] = got
        return got

    def value(tup):
        state0 = ab.keys_to_state(tup)
        reach: list[tuple] = []
        index: dict[tuple, int] = {}
        todo = list(state0)
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
        for mono, c in state0.items():
            aug[index[mono]][n] = c
        red, pivots = rref(aug)
        if pivots != list(range(n)):
            raise RuntimeError("no extended projection: 1 + Delta K is "
                               "singular on the reachable monomials")
        out: Vector = {}
        for r, mono in enumerate(reach):
            if red[r][n] and len(mono) == 1 and mono[0][0] == "h":
                vec_add_into(out, (mono[0][1], mono[0][2]), red[r][n])
        return out

    ops = {}
    for n in range(1, top + 1):
        op = MultiOp.from_function(n, 0, con.space, con.h_space, value)
        if not op.is_zero():
            ops[n] = op
    return OpFamily(0, con.space, con.h_space, ops)
