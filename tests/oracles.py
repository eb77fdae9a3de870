"""Reference implementations the production engines are checked against.

These are the definitions written out literally, with no attention to
cost: `circ_literal` and `bullet_literal` sum over all n! orderings of the
inputs with the 1/(k!(n-k)!) and 1/(k! n_1! ... n_k!) weights of the
graded-symmetric products, `sort_keys_general` sorts basis keys by the
general pairwise sign count with no shortcut for sorted input,
`transfer_rebuild` solves the transfer fixed point by rebuilding the whole
product lam . phi at every arity and once more for mu, and `bareiss_rank`
computes a rank by fraction-free elimination (Bareiss 1968) on an
integer-scaled copy, a pipeline independent of the rational row reduction
in `linfty.linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, gcd
from typing import Iterator

from linfty.algebra import CurvedAlgebra, op_then
from linfty.graded import (BasisKey, MultiOp, OpFamily, Vector, arity_bound, bullet,
                           koszul_sign, vec_add_into)
from linfty.transfer import Contraction, TransferResult, neumann_inverse


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
            res = lam_op.evaluate_mixed(inner, ptup[k:])
            for okey, c in res.items():
                vec_add_into(out, okey, weight * c)
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
                res = lam_k.evaluate(vecs)
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


def bullet_literal(lam: OpFamily, phi: OpFamily) -> OpFamily:
    """lam . phi by the permutation sum, at every arity the packets reach."""
    top = lam.max_arity * phi.max_arity if lam.ops and phi.ops else 0
    return _tabulate(range(top + 1), lam.degree, phi.source, lam.target,
                     lambda tup: _bullet_value_literal(lam, phi, tup))


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
        corr = op_then(op_then(resid, con.eta), inv1).scaled(-1)
        phi = phi.with_op(corr)

    lam_phi = bullet(lam, phi)
    mu_ops = {}
    for k in lam_phi.arities():
        op = op_then(lam_phi.op(k), con.pi)
        if not op.is_zero():
            mu_ops[k] = op
    mu = OpFamily(1, con.h_space, con.h_space, mu_ops)
    return TransferResult(con, phi, CurvedAlgebra(con.h_space, con.delta_h, mu))


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
