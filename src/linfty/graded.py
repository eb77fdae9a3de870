"""Graded-symmetric multilinear algebra over exact scalars.

The objects here are finite-dimensional positively graded vector spaces
with a distinguished basis, and graded-symmetric multilinear operations
between them, stored as sparse coefficient tensors on canonically sorted
basis tuples.  Scalars are exact rationals in the normal form of
linfty.poly (an int when integral, otherwise a Fraction with denominator
greater than 1) or linfty.poly.Poly; the code only relies on +, *, unary -,
and truthiness, so both work uniformly.  Every stored scalar is demoted to
that normal form.

Sign conventions: transposing two adjacent inputs of odd degree costs -1,
all other transpositions are free (the usual Koszul rule).  An operation of
arity n and internal degree i sends inputs of total degree d to outputs of
degree d + i, and vanishes for degree reasons whenever d + i exceeds the
top degree of the target.

Two composition products are provided:

* circ(lam, mu): insert one output of mu into one slot of lam, summed over
  all unshuffles.  The graded commutator of circ satisfies the Jacobi
  identity, and [delta, lam] + lam o lam = 0 is the Maurer-Cartan equation
  checked elsewhere.
* bullet(lam, phi): feed disjoint phi-packets into all slots of lam, summed
  over set partitions of the inputs.  It is associative in the sense
  (lam . phi) . psi = lam . (phi . psi) and linear in lam only.
  bullet_op(lam, phi, n) is its arity-n part alone, for recursions that
  fix phi one arity at a time; bullet is the loop over it.

Each product has one engine at every arity.  circ is pushed forward from
the nonzero entries of its factors: an entry of mu meets each entry of lam
that holds one of its outputs in a single sorted tuple, with a Koszul sign
and a multiplicity, so no tuple that no pair of entries reaches is ever
visited.  bullet sums, over the multisets of phi's arities, one block
feeder: lam_k fed with degree-0 parts on blocks of a canonical tuple, with
the Koszul sign of each choice of blocks and a run of identical parts fed
each unordered choice once.  The feeder lists its choices once per
operation and parts; treeterm, the term of a tree in the tree formula for
homotopy transfer, is the same feeder tabulated.  The literal
n!-permutation sums that define both products, and circ as a sum over the
2^n unshuffles of each canonical tuple, live in the test suite as
references the engines are checked against.

All arithmetic on operations, the two products and the algebra of
single operations alike, sums numerators and divides once.  An
operation's coefficients never change after construction, so each
operation stages them once, on first use, as numerators over the lcm of
its Fraction coefficients' denominators (MultiOp._staged): a Fraction
becomes an int numerator and an int or a Poly is multiplied by the
denominator; an operation with no Fraction coefficient, every integral
one and the usual Poly one, is its own numerators, uncopied.  scaled,
plus and minus sum numerators over the lcm of their terms'
denominators, compose_linear and circ over the product of their two
factors' denominators, and the block feeder over the node's denominator
times its parts'; each nonzero output coefficient is divided by that
denominator once, in normal form (_rationals), so rational operands
build no Fraction per term.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm
from typing import Callable, Iterator, Mapping, Sequence

from .poly import _exact

BasisKey = tuple[int, int]  # (degree, index within degree)
Vector = dict  # BasisKey -> scalar
_UNSTAGED = object()


# ---------------------------------------------------------------------------
# graded spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional graded space with labelled basis.

    dims maps degree -> dimension (only nonzero entries are stored).
    dt marks basis vectors that are formal dt-multiples of a piece one
    degree lower; they behave like ordinary basis vectors of their stated
    degree, the flag only feeds bookkeeping in the path-space layer.
    """

    dims: Mapping[int, int]
    labels: Mapping[int, tuple[str, ...]]
    dt: Mapping[int, tuple[bool, ...]]

    @staticmethod
    def build(dims: Mapping[int, int],
              labels: Mapping[int, Sequence[str]] | None = None,
              dt: Mapping[int, Sequence[bool]] | None = None) -> "GradedSpace":
        dims_clean = {int(d): int(n) for d, n in dims.items() if n}
        if any(n < 0 for n in dims_clean.values()):
            raise ValueError("negative dimension")
        labs: dict[int, tuple[str, ...]] = {}
        dts: dict[int, tuple[bool, ...]] = {}
        for d, n in dims_clean.items():
            if labels and d in labels:
                row = tuple(labels[d])
                if len(row) != n:
                    raise ValueError(f"{len(row)} labels for dimension {n} in degree {d}")
            else:
                row = tuple(f"e{d}_{i}" for i in range(n))
            labs[d] = row
            if dt and d in dt:
                flags = tuple(bool(b) for b in dt[d])
                if len(flags) != n:
                    raise ValueError(f"dt flags mismatch in degree {d}")
            else:
                flags = tuple(False for _ in range(n))
            dts[d] = flags
        return GradedSpace(dims_clean, labs, dts)

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def dim(self, degree: int) -> int:
        return self.dims.get(degree, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def max_degree(self) -> int:
        return max(self.dims) if self.dims else 0

    @property
    def min_degree(self) -> int:
        return min(self.dims) if self.dims else 0

    def keys(self) -> list[BasisKey]:
        return [(d, i) for d in self.degrees() for i in range(self.dims[d])]

    def contains(self, key: BasisKey) -> bool:
        return key[0] in self.dims and 0 <= key[1] < self.dims[key[0]]

    def direct_sum(self, other: "GradedSpace") -> tuple["GradedSpace", dict, dict]:
        """Concatenate bases; returns (sum, keymap_self, keymap_other)."""
        basis = BasisBuilder()
        m1: dict[BasisKey, BasisKey] = {}
        m2: dict[BasisKey, BasisKey] = {}
        for src, mp in ((self, m1), (other, m2)):
            for d, i in src.keys():
                mp[(d, i)] = basis.push(d, src.labels[d][i], src.dt[d][i])
        return basis.build(), m1, m2


class BasisBuilder:
    """Collects labelled basis vectors one at a time, then builds the space."""

    def __init__(self):
        self.labels: dict[int, list[str]] = {}
        self.dt: dict[int, list[bool]] = {}

    def push(self, degree: int, label: str, is_dt: bool) -> BasisKey:
        """Append a basis vector of the given degree and return its key."""
        self.labels.setdefault(degree, []).append(label)
        self.dt.setdefault(degree, []).append(is_dt)
        return (degree, len(self.labels[degree]) - 1)

    def build(self) -> GradedSpace:
        return GradedSpace.build({d: len(v) for d, v in self.labels.items()},
                                 labels=self.labels, dt=self.dt)


# ---------------------------------------------------------------------------
# Koszul signs
# ---------------------------------------------------------------------------


def koszul_sign(degrees: Sequence[int], perm: Sequence[int]) -> int:
    """Sign of reordering (x_1..x_n) into (x_perm[0], .., x_perm[n-1]).

    Each transposed pair of odd-degree entries contributes -1.
    """
    n = len(degrees)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    sign = 1
    for a in range(n):
        if degrees[perm[a]] % 2 == 0:
            continue
        for b in range(a + 1, n):
            if perm[a] > perm[b] and degrees[perm[b]] % 2:
                sign = -sign
    return sign


def sort_keys_with_sign(keys: Sequence[BasisKey]) -> tuple[tuple[BasisKey, ...], int]:
    """Canonically sort basis keys, tracking the Koszul sign.

    Returns sign 0 when an odd-degree key repeats (the symmetric power
    collapses there in characteristic zero).  Input that is already sorted,
    the common case, is recognised in one pass: its sign is 1 unless two
    adjacent keys are the same odd key.
    """
    sign = 1
    for a in range(len(keys) - 1):
        ka, kb = keys[a], keys[a + 1]
        if ka > kb:
            break
        if ka == kb and ka[0] % 2:
            sign = 0
    else:
        return tuple(keys), sign
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


def unshuffle_sign(degrees: Sequence[int], front: Sequence[int]) -> int:
    """Koszul sign of pulling the positions in `front` to the start, in order."""
    rest = [i for i in range(len(degrees)) if i not in front]
    return koszul_sign(degrees, tuple(front) + tuple(rest))


def canonical_tuples(space: GradedSpace, arity: int,
                     max_total_degree: int | None = None) -> Iterator[tuple[BasisKey, ...]]:
    """All sorted basis tuples of the given arity with nonvanishing symmetric class.

    The tuples are non-decreasing in the key order of space.keys(), with no
    odd-degree key repeated, and of degree sum at most max_total_degree;
    they come in lexicographic order, the order of
    combinations_with_replacement(space.keys(), arity) filtered by those
    two conditions.  The walk fills slots left to right and never builds a
    tuple it would discard: keys are sorted by degree, so once the degree
    of a key times the number of slots left exceeds the remaining degree
    budget, no later key fits either; an odd key is followed by strictly
    later keys only, an even key may repeat.  With no cap the budget is
    arity times the top degree, which every tuple meets.
    """
    keys = space.keys()
    budget = arity * space.max_degree if max_total_degree is None else max_total_degree

    def walk(start: int, slots: int, budget: int, prefix: tuple):
        if not slots:
            yield prefix
            return
        for j in range(start, len(keys)):
            key = keys[j]
            if key[0] * slots > budget:
                return
            yield from walk(j + key[0] % 2, slots - 1, budget - key[0], prefix + (key,))

    yield from walk(0, arity, budget, ())


def _same_space(a: GradedSpace, b: GradedSpace) -> bool:
    """Whether a and b are the same space: the same object, or equal."""
    return a is b or a == b


# ---------------------------------------------------------------------------
# multilinear operations
# ---------------------------------------------------------------------------


class EntryError(ValueError):
    """A refused entry of an operation's table: index is its position in
    the entries checked; slot is "inputs" or "output" when key, a key of
    that slot, lies outside the ranks of its space, and "" for any other
    fault."""

    def __init__(self, index: int, message: str, slot: str = "", key: BasisKey | None = None):
        super().__init__(message)
        self.index, self.slot, self.key = index, slot, key


def _outside(index: int, slot: str, key: BasisKey, space: GradedSpace) -> EntryError:
    return EntryError(index, f"basis key {key} not in space with dims {dict(space.dims)}",
                      slot, key)


def _checked_coeffs(arity: int, degree: int, source: GradedSpace, target: GradedSpace,
                    entries: Sequence[tuple[tuple[BasisKey, ...], BasisKey, object]]
                    ) -> dict[tuple[BasisKey, ...], Vector]:
    """The coefficient table of entries, (input tuple, output key,
    coefficient) triples, each checked once.  An input tuple, at its
    first entry: of the given arity, each key within the ranks of source,
    canonically sorted; a tuple that repeats an odd key is zero, and its
    entries are dropped.  Every entry: its output key within the ranks of
    target, not repeating an earlier entry's keys and, unless its tuple is
    zero, of degree sum(tuple) + degree.  Zero coefficients are dropped.
    Raises EntryError at the first entry refused."""
    src_dims, dst_dims = source.dims, target.dims
    # tuple -> (every output read for it, its output degree or None when it is zero)
    rows: dict[tuple[BasisKey, ...], tuple[Vector, int | None]] = {}
    coeffs: dict[tuple[BasisKey, ...], Vector] = {}
    zero = False
    for n, (tup, okey, c) in enumerate(entries):
        row = rows.get(tup)
        if row is None:
            if len(tup) != arity:
                raise EntryError(n, f"tuple {tup} has wrong arity (expected {arity})")
            # canonical: each key at least the one before it (() is below
            # every key); zero: an odd key repeats
            total, last, odd_repeat = degree, (), False
            for k in tup:
                if not 0 <= k[1] < src_dims.get(k[0], 0):
                    raise _outside(n, "inputs", k, source)
                if k < last:
                    raise EntryError(n, f"input tuple {tup} is not canonically sorted")
                if k == last and k[0] % 2:
                    odd_repeat = True
                total += k[0]
                last = k
            row = rows[tup] = {}, None if odd_repeat else total
            if not odd_repeat:
                coeffs[tup] = row[0]
        vec, total = row
        if not 0 <= okey[1] < dst_dims.get(okey[0], 0):
            raise _outside(n, "output", okey, target)
        if okey in vec:
            raise EntryError(n, f"duplicate entry for {tup} -> {okey}")
        if total is not None and okey[0] != total:
            raise EntryError(
                n, f"inhomogeneous entry {tup} -> {okey}: expected output degree {total}")
        vec[okey] = c
        if not c:
            zero = True
    if zero:
        coeffs = {tup: vec for tup, read in coeffs.items()
                  if (vec := {k: c for k, c in read.items() if c})}
    return coeffs


@dataclass
class MultiOp:
    """Graded-symmetric multilinear map stored on canonical basis tuples.

    coeffs maps a sorted input tuple to a sparse output vector.  Degree
    homogeneity (output degree = input degree sum + degree) is enforced at
    construction.  evaluate_basis sorts its input key tuple with
    sort_keys_with_sign: the entry of the sorted tuple is read with the
    Koszul sign of the sort, and a tuple that repeats an odd key is zero.
    A caller that holds a canonical tuple reads coeffs directly, as no
    sort can change it.  The constructor and from_entries, which builds an
    operation from a list of (input tuple, output key, coefficient)
    entries and refuses a repeated one, check each entry once, in
    _checked_coeffs: keys against the ranks, canonical order, the zero of
    a repeated odd key, and homogeneity.  The algebra below (zero, identity, scaled, plus,
    minus, compose_linear, which post-composes an operation of any arity
    with an arity-1 one, from_function, and with it bullet_op and
    treeterm, and circ) builds its results through _from_clean, which
    skips those checks: each result is formed from operations that
    already passed them, so each operation is checked once, where it
    enters.  coeffs is never changed after construction, so an operation
    may share it with another, and what is derived from it, the
    numerators of _staged, is computed once and cached on the operation.
    """

    arity: int
    degree: int
    source: GradedSpace
    target: GradedSpace
    coeffs: dict[tuple[BasisKey, ...], Vector] = field(default_factory=dict)

    def __post_init__(self):
        try:
            self.coeffs = _checked_coeffs(
                self.arity, self.degree, self.source, self.target,
                [(tup, okey, _exact(c)) for tup, vec in self.coeffs.items()
                 for okey, c in vec.items()])
        except EntryError as exc:
            if exc.slot:
                raise KeyError(str(exc)) from None
            raise

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, arity: int, degree: int, source: GradedSpace,
                    target: GradedSpace,
                    coeffs: dict[tuple[BasisKey, ...], Vector]) -> "MultiOp":
        """Wrap coefficients already in normal form, skipping __post_init__.

        Only for results this module builds itself from checked operations:
        every input tuple has the given arity, is canonically sorted with a
        nonzero sign and lies in source; every output vector is nonempty,
        homogeneous of the right degree, lies in target and holds no zero
        coefficient.
        """
        op = object.__new__(cls)
        op.arity, op.degree, op.source, op.target, op.coeffs = (
            arity, degree, source, target, coeffs)
        return op

    @classmethod
    def from_entries(cls, arity: int, degree: int, source: GradedSpace, target: GradedSpace,
                     entries: Sequence[tuple[tuple[BasisKey, ...], BasisKey, object]]
                     ) -> "MultiOp":
        """The operation holding each (input tuple, output key,
        coefficient) of entries, every entry checked as the constructor
        checks a table, and refused when it repeats the keys of an earlier
        one.  Coefficients must be in normal form (linfty.poly._exact), as
        a parsed rational or a Poly is.  Raises EntryError at the first
        entry refused."""
        return cls._from_clean(arity, degree, source, target,
                               _checked_coeffs(arity, degree, source, target, entries))

    @classmethod
    def zero(cls, arity: int, degree: int, source: GradedSpace,
             target: GradedSpace) -> "MultiOp":
        return cls._from_clean(arity, degree, source, target, {})

    @classmethod
    def identity(cls, space: GradedSpace) -> "MultiOp":
        coeffs = {(k,): {k: 1} for k in space.keys()}
        return cls._from_clean(1, 0, space, space, coeffs)

    @classmethod
    def from_function(cls, arity: int, degree: int, source: GradedSpace,
                      target: GradedSpace,
                      fn: Callable[[tuple[BasisKey, ...]], Vector]) -> "MultiOp":
        """Tabulate fn on canonical tuples, pruned by target degree support.

        The table is trusted (_from_clean): fn must return, at each tuple,
        a vector homogeneous of degree sum(tuple) + degree in target with
        every coefficient nonzero and in normal form, as the kernels of
        this module do.  A table that is not known to be so, such as a
        linear solve, goes through MultiOp(...) afterwards.
        """
        coeffs: dict[tuple[BasisKey, ...], Vector] = {}
        cap = target.max_degree - degree
        for tup in canonical_tuples(source, arity, max_total_degree=cap):
            if (sum(k[0] for k in tup) + degree) not in target.dims:
                continue
            vec = fn(tup)
            if vec:
                coeffs[tup] = vec
        return cls._from_clean(arity, degree, source, target, coeffs)

    # what _staged returns, once computed: a plain attribute, since most
    # operations are staged once and read a few times, and the first read
    # of a functools.cached_property costs more than staging a small one
    _stage = _UNSTAGED

    def _staged(self) -> tuple[dict, int]:
        """coeffs as numerators over one int denominator.

        The denominator is the lcm of the denominators of the Fraction
        coefficients; a Fraction becomes its int numerator over it, and an
        int or a Poly is multiplied by it, so coeffs is the numerators
        divided by it, entry by entry.  An operation with no Fraction
        coefficient is its own numerators: coeffs itself with denominator
        1, not a copy.  Computed on the first call and kept in _stage.
        """
        if self._stage is not _UNSTAGED:
            return self._stage
        dens = {c.denominator for vec in self.coeffs.values() for c in vec.values()
                if type(c) is Fraction}
        if not dens:
            self._stage = self.coeffs, 1
        else:
            den = lcm(*dens)
            self._stage = {tup: {k: c.numerator * (den // c.denominator) if type(c) is Fraction
                                 else c * den for k, c in vec.items()}
                           for tup, vec in self.coeffs.items()}, den
        return self._stage

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, MultiOp):
            return NotImplemented
        # no op holds an empty vector or a zero coefficient
        return ((self.arity, self.degree) == (other.arity, other.degree)
                and self.coeffs == other.coeffs)

    def scaled(self, c) -> "MultiOp":
        """c * self for a rational c (an int or a Fraction)."""
        return self._combined(((self, c),))

    def plus(self, other: "MultiOp") -> "MultiOp":
        """self + other.  When one side is zero the sum is the other
        operand itself, with no copy: coeffs never changes."""
        return self._sum(other, 1)

    def minus(self, other: "MultiOp") -> "MultiOp":
        return self._sum(other, -1)

    def _sum(self, other: "MultiOp", sign: int) -> "MultiOp":
        """self + sign * other, other negated inside the one sum."""
        if (self.arity, self.degree) != (other.arity, other.degree):
            raise ValueError("cannot add operations of different arity or degree")
        if not (_same_space(self.source, other.source)
                and _same_space(self.target, other.target)):
            raise ValueError("cannot add operations between different spaces")
        if not other.coeffs:
            return self
        if not self.coeffs and sign == 1:
            return other
        return self._combined(((self, 1), (other, sign)))

    def _combined(self, terms: Sequence[tuple["MultiOp", int | Fraction]]) -> "MultiOp":
        """The sum of c * op over the (op, c) of terms, ops like self and
        each c = p / q rational: p times op's staged numerators, over
        den(op) * q, each rescaled to the lcm of those denominators."""
        parts = [(op._staged(), c.numerator, c.denominator) for op, c in terms]
        den = lcm(*(d * q for (_, d), _, q in parts))
        sums: dict[tuple[BasisKey, ...], Vector] = {}
        for (nums, d), p, q in parts:
            f = p * (den // (d * q))
            for tup, vec in nums.items():
                dst = sums.get(tup)
                if dst is None:
                    # a vector taken as it is is never written to: a later
                    # term that meets it sums into a copy
                    sums[tup] = vec if f == 1 else {k: x * f for k, x in vec.items()}
                    continue
                dst = sums[tup] = dict(dst)
                for k, x in vec.items():
                    if f != 1:
                        x *= f
                    dst[k] = dst[k] + x if k in dst else x
        return MultiOp._from_clean(self.arity, self.degree, self.source, self.target,
                                   _quotient(sums, den))

    # -- evaluation ----------------------------------------------------------

    def evaluate_basis(self, keys: Sequence[BasisKey]) -> Vector:
        if len(keys) != self.arity:
            raise ValueError(f"arity {self.arity} operation applied to {len(keys)} inputs")
        srt, sign = sort_keys_with_sign(keys)
        if sign == 0:
            return {}
        vec = self.coeffs.get(srt)
        if not vec:
            return {}
        if sign == 1:
            return dict(vec)
        return {k: -c for k, c in vec.items()}

    # -- post-composition with a linear map -----------------------------------

    def compose_linear(self, inner: "MultiOp") -> "MultiOp":
        """self o inner for an arity-1 self and an inner operation of any
        arity; the result lives on inner's input tuples.  Their staged
        numerators are multiplied and summed over den(self) * den(inner)."""
        if self.arity != 1:
            raise ValueError("compose_linear expects an arity-1 outer operation")
        if not _same_space(self.source, inner.target):
            raise ValueError("compose_linear: inner target is not the outer source")
        (outer, d_outer), (nums, d_inner) = self._staged(), inner._staged()
        # a single key is its own canonical tuple, with sign 1
        column = outer.get
        sums: dict[tuple[BasisKey, ...], Vector] = {}
        for tup, vec in nums.items():
            out: Vector = {}
            for mid, c in vec.items():
                res = column((mid,))
                if res:
                    for okey, c2 in res.items():
                        x = c * c2
                        out[okey] = out[okey] + x if okey in out else x
            if out:
                sums[tup] = out
        return MultiOp._from_clean(inner.arity, self.degree + inner.degree, inner.source,
                                   self.target, _quotient(sums, d_outer * d_inner))


def _numerators(ops: Mapping[int, MultiOp]) -> tuple[dict, int]:
    """Each staged op's numerators with its factor to the ops' common
    denominator, the lcm of theirs, by arity; and that denominator."""
    staged = {a: op._staged() for a, op in ops.items()}
    den = lcm(*(d for _, d in staged.values()))
    return {a: (nums, den // d) for a, (nums, d) in staged.items()}, den


def _rationals(nums: Vector, den: int) -> Vector:
    """The vector nums / den in normal form, zero entries dropped: for an
    int x, x // den where den divides x, else one Fraction; a Poly x times
    1/den.  nums itself when den is 1 and no entry is zero."""
    if den == 1:
        return nums if all(nums.values()) else {k: x for k, x in nums.items() if x}
    out: Vector = {}
    for k, x in nums.items():
        if x:
            if type(x) is int:
                q, r = divmod(x, den)
                out[k] = Fraction(x, den) if r else q
            else:
                out[k] = x * Fraction(1, den)
    return out


def _quotient(sums: Mapping[tuple[BasisKey, ...], Vector],
              den: int) -> dict[tuple[BasisKey, ...], Vector]:
    """Each vector of sums divided by den (_rationals), empty ones dropped."""
    coeffs = {}
    for tup, nums in sums.items():
        vec = _rationals(nums, den)
        if vec:
            coeffs[tup] = vec
    return coeffs


def op_nilpotency_order(op: MultiOp) -> int | None:
    """Least r with op^r = 0 for a degree-0 arity-1 operation, or None."""
    if op.arity != 1 or op.degree != 0:
        raise ValueError("nilpotency check expects a degree-0 endomorphism")
    bound = op.source.total_dim + 1
    power = op
    r = 1
    while r <= bound:
        if power.is_zero():
            return r
        power = op.compose_linear(power)
        r += 1
    return None


# ---------------------------------------------------------------------------
# operation families
# ---------------------------------------------------------------------------


@dataclass
class OpFamily:
    """A family of operations of common internal degree, one per arity."""

    degree: int
    source: GradedSpace
    target: GradedSpace
    ops: dict[int, MultiOp] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, op in self.ops.items():
            if op.arity != k:
                raise ValueError(f"arity slot {k} holds an arity-{op.arity} operation")
            if op.degree != self.degree:
                raise ValueError("family members must share the internal degree")
            if not _same_space(op.source, self.source):
                raise ValueError("family members must share the source space")
            if not _same_space(op.target, self.target):
                raise ValueError("family members must share the target space")
            if not op.is_zero():
                clean[k] = op
        self.ops = clean

    @classmethod
    def identity(cls, space: GradedSpace) -> "OpFamily":
        return cls(0, space, space, {1: MultiOp.identity(space)})

    @classmethod
    def zero(cls, degree: int, source: GradedSpace, target: GradedSpace) -> "OpFamily":
        return cls(degree, source, target, {})

    def op(self, arity: int) -> MultiOp:
        got = self.ops.get(arity)
        if got is not None:
            return got
        return MultiOp.zero(arity, self.degree, self.source, self.target)

    def arities(self) -> list[int]:
        return sorted(self.ops)

    @property
    def max_arity(self) -> int:
        return max(self.ops) if self.ops else 0

    def is_zero(self) -> bool:
        return not self.ops

    def __eq__(self, other):
        if not isinstance(other, OpFamily):
            return NotImplemented
        # no family holds a zero operation
        return self.degree == other.degree and self.ops == other.ops

    def plus(self, other: "OpFamily") -> "OpFamily":
        """self + other, arity by arity; an arity that only one side holds
        is that side's operation itself."""
        return self._sum(other, 1)

    def minus(self, other: "OpFamily") -> "OpFamily":
        return self._sum(other, -1)

    def _sum(self, other: "OpFamily", sign: int) -> "OpFamily":
        if self.degree != other.degree or not (_same_space(self.source, other.source)
                                               and _same_space(self.target, other.target)):
            raise ValueError("cannot add families of different degree or spaces")
        ops = dict(self.ops)
        for k, op in other.ops.items():
            ops[k] = (ops[k]._sum(op, sign) if k in ops
                      else op if sign == 1 else op.scaled(-1))
        return OpFamily(self.degree, self.source, self.target, ops)

    def scaled(self, c) -> "OpFamily":
        return OpFamily(self.degree, self.source, self.target,
                        {k: op.scaled(c) for k, op in self.ops.items()})

    def with_op(self, op: MultiOp) -> "OpFamily":
        ops = dict(self.ops)
        ops[op.arity] = op
        return OpFamily(self.degree, self.source, self.target, ops)


def arity_bound(fam_degree: int, target: GradedSpace, source: GradedSpace) -> int:
    """Largest arity not forced to vanish for degree reasons."""
    if not source.dims or not target.dims:
        return 0
    step = max(source.min_degree, 1)
    return max(0, (target.max_degree - fam_degree) // step)


# ---------------------------------------------------------------------------
# circ: insertion product
# ---------------------------------------------------------------------------


def _parity_split(keys: tuple[BasisKey, ...]) -> tuple[tuple[BasisKey, ...], dict | None]:
    """The odd keys of a sorted tuple, in order, and its even keys with
    their multiplicities (None when it has none)."""
    odd = tuple(k for k in keys if k[0] % 2)
    even: dict[BasisKey, int] = {}
    for k in keys:
        if k[0] % 2 == 0:
            even[k] = even.get(k, 0) + 1
    return odd, even or None


def _insertion_slots(coeffs: Mapping[tuple[BasisKey, ...], Vector]) -> dict[BasisKey, list]:
    """Each entry S -> w of an operation's coeffs, once per distinct key o
    of S, indexed by o.

    An item is (R, sigma, w, *_parity_split(R)): R is S with one o removed
    and sigma = -1 exactly when o is odd and an odd number of odd keys
    precede it in S, the Koszul sign of sorting (o,) + R into S.
    """
    slots: dict[BasisKey, list] = {}
    for tup, vec in coeffs.items():
        odd_before = 0
        for j, o in enumerate(tup):
            if j and o == tup[j - 1]:
                continue  # a repeated (even) key: the same R again
            sigma = -1 if o[0] % 2 and odd_before % 2 else 1
            odd_before += o[0] % 2
            rest = tup[:j] + tup[j + 1:]
            slots.setdefault(o, []).append((rest, sigma, vec, *_parity_split(rest)))
    return slots


def circ(lam: OpFamily, mu: OpFamily) -> OpFamily:
    """Insertion product: one mu-output fed into one lam-slot, unshuffled.

    mu must be an endo-family; the result has degree lam.degree + mu.degree
    and the same source/target as lam.

    On a sorted tuple T the product is the sum, over the splittings of the
    positions of T into a front F and a rest, of the Koszul sign of moving
    F to the front times lam(mu(T_F), T_rest).  It is pushed forward from
    the nonzero entries of the factors: an entry A -> v of mu_k and an
    entry S -> w of lam_m whose S holds a key o of v meet in
    T = sorted(A + R), R being S with one o removed, at arity k + m - 1.
    Their term there is eps * sigma * mult * v[o] * w, where

    * sigma is the sign of sorting (o,) + R into S: -1 exactly when o is
      odd and an odd number of odd keys precede it in S;
    * eps is the sign of unshuffling T into (A, R): T is sorted and its
      odd keys are distinct, so an odd r of R passes an odd a of A exactly
      when r < a, and eps = (-1)^#{(r, a) odd : r < a};
    * mult counts the fronts F with T_F = A, all with the same eps since
      they differ only in which copies of an even key they take: the
      product of C(a_x + r_x, a_x) over the even keys x lying a_x times
      in A and r_x times in R.

    An odd key in both A and R makes T vanish, and nothing else reaches
    T: every front of T that mu does not kill is some entry A.

    The walk reads the operations' staged numerators, each rescaled to
    its family's common denominator, sums them over the product of the
    two denominators and divides each output coefficient once.
    """
    if mu.source != mu.target:
        raise ValueError("circ expects an endomorphism family on the right")
    if lam.source != mu.source:
        raise ValueError("source mismatch in circ")
    degree = lam.degree + mu.degree
    n_max = min(arity_bound(degree, lam.target, lam.source),
                lam.max_arity + mu.max_arity - 1 if (lam.ops and mu.ops) else -1)
    (lam_read, lam_den), (mu_read, mu_den) = (
        _numerators({m: op for m, op in lam.ops.items() if m}), _numerators(mu.ops))
    slots = {m: (_insertion_slots(coeffs), f) for m, (coeffs, f) in lam_read.items()}
    sums: dict[int, dict[tuple[BasisKey, ...], Vector]] = {}
    for k, (mu_coeffs, f_mu) in mu_read.items():
        for m, (by_key, f_lam) in slots.items():
            n = k + m - 1
            if n > n_max:
                continue
            f = f_mu * f_lam
            acc = sums.setdefault(n, {})
            for front, vec in mu_coeffs.items():
                a_odd, a_even = _parity_split(front)
                for o, c in vec.items():
                    if f != 1:
                        c *= f
                    # weight enters as sigma and leaves as eps * sigma * mult
                    for rest, weight, w, r_odd, r_even in by_key.get(o, ()):
                        if a_odd and r_odd:
                            for a in a_odd:
                                i = bisect_left(r_odd, a)
                                if i < len(r_odd) and r_odd[i] == a:
                                    weight = 0
                                    break
                                if i % 2:
                                    weight = -weight
                            if not weight:
                                continue
                        if a_even and r_even:
                            for x, ax in a_even.items():
                                rx = r_even.get(x)
                                if rx:
                                    weight *= comb(ax + rx, ax)
                        tup = tuple(sorted(front + rest)) if front else rest
                        dst = acc.setdefault(tup, {})
                        scale = weight * c
                        for okey, x in w.items():
                            dst[okey] = dst.get(okey, 0) + scale * x
    den = lam_den * mu_den
    ops = {}
    for n in sorted(sums):
        coeffs = _quotient(dict(sorted(sums[n].items())), den)
        if coeffs:
            ops[n] = MultiOp._from_clean(n, degree, lam.source, lam.target, coeffs)
    return OpFamily(degree, lam.source, lam.target, ops)


# ---------------------------------------------------------------------------
# bullet: composition product
# ---------------------------------------------------------------------------


def multisets(pool: Sequence[tuple[object, int]], total: int) -> Iterator[tuple[object, ...]]:
    """Multisets of pool items (with repetition), given with their sizes,
    whose sizes sum to total: each multiset once, its items in pool order."""

    def rec(idx: int, remaining: int) -> Iterator[tuple[object, ...]]:
        if remaining == 0:
            yield ()
            return
        for i in range(idx, len(pool)):
            item, size = pool[i]
            if size > remaining:
                continue
            for tail in rec(i, remaining - size):
                yield (item,) + tail

    yield from rec(0, total)


def _block_choices(parts: Sequence[MultiOp], positions: Sequence[int],
                   floor: int) -> Iterator[list[tuple[int, ...]]]:
    """Blocks of positions for the parts, in order.

    A part identical to the one before it takes a block whose first
    position lies above that one's, so each unordered choice of blocks
    for a run of identical parts comes once.
    """
    if not parts:
        yield []
        return
    head, rest = parts[0], parts[1:]
    for block in combinations([p for p in positions if p > floor], head.arity):
        remaining = [p for p in positions if p not in block]
        nxt = block[0] if rest and rest[0] is head else -1
        for tail in _block_choices(rest, remaining, nxt):
            yield [block] + tail


def _feeder(op_k: MultiOp,
            parts: Sequence[MultiOp]) -> tuple[Callable[[Vector, tuple, int], None], int]:
    """op_k fed with the degree-0 parts on blocks of a canonical tuple.

    Returns (into, den).  into(out, tup, scale) adds to out the sum, over
    the choices of blocks of tup's positions for the parts, of the Koszul
    sign of bringing the blocks together in part order times op_k on the
    parts' values there.  The choices depend on the arities alone, so
    they are listed once, on the first call: a tabulation may meet no
    tuple at all.  A run of identical, adjacent parts is fed each
    unordered choice of blocks once: by graded symmetry swapping two of
    its blocks changes neither the sign nor the value.

    Each key tuple of the product of the parts' staged numerators is
    sorted once and looked up in op_k's, and out sums scale times the
    numerators of the terms, over den = den(op_k) * the product of
    den(part).
    """
    n = sum(p.arity for p in parts)
    nums, den = op_k._staged()
    column = nums.get
    lookups = []
    for p in parts:
        nums, d = p._staged()
        lookups.append(nums.get)
        den *= d
    choices: list = []

    def into(out: Vector, tup: tuple[BasisKey, ...], scale: int) -> None:
        if not choices:  # there is always at least one choice
            choices.extend((tuple(zip(lookups, blocks)), [i for b in blocks for i in b])
                           for blocks in _block_choices(parts, range(n), -1))
        degs = [k[0] for k in tup]
        for reads, flat in choices:
            vecs = []
            for read, block in reads:
                # blocks keep positions in order, so the keys of a block of
                # the canonical tup are canonical themselves
                v = read(tuple(tup[i] for i in block))
                if not v:
                    break
                vecs.append(v)
            else:
                sign = koszul_sign(degs, flat) * scale
                for keys in product(*vecs):
                    srt, coeff = sort_keys_with_sign(keys)
                    vec = coeff and column(srt)
                    if not vec:
                        continue
                    coeff *= sign
                    for v, k in zip(vecs, keys):
                        coeff *= v[k]
                    for okey, c in vec.items():
                        out[okey] = out.get(okey, 0) + coeff * c

    return into, den


def _summed(feeders: Sequence[tuple[Callable, int]]) -> Callable[[tuple], Vector]:
    """value(tup): the feeders' sums at tup added up, in normal form.

    Each feeder sums over the lcm of the feeders' denominators, and the
    total is divided by it once.
    """
    den = lcm(*(d for _, d in feeders))
    scaled = [(into, den // d) for into, d in feeders]

    def value(tup):
        out: Vector = {}
        for into, scale in scaled:
            into(out, tup, scale)
        return _rationals(out, den)

    return value


def treeterm(op_k: MultiOp, parts: Sequence[MultiOp]) -> MultiOp:
    """op_k fed with the parts on an unshuffled split of the inputs, no weights.

    The parts have degree 0 and arity >= 1.  A run of identical, adjacent
    parts is fed each unordered choice of blocks once, so the ordered sum
    is this one times the factorials of the run lengths.  Parts that are
    equal but not identical count as distinct.
    """
    if op_k.arity != len(parts):
        raise ValueError("arity of the node must match the number of subtrees")
    value = _summed([_feeder(op_k, parts)])
    return MultiOp.from_function(sum(p.arity for p in parts), op_k.degree,
                                 parts[0].source, op_k.target, value)


def _bullet_reach(lam: OpFamily, phi: OpFamily) -> int:
    """Check the factors of lam . phi; return the highest arity it can reach, or -1."""
    if phi.degree != 0:
        raise ValueError("bullet expects a degree-0 family on the right")
    if 0 in phi.ops:
        raise ValueError("bullet expects no arity-0 component on the right")
    if lam.source != phi.target:
        raise ValueError("source/target mismatch in bullet")
    n_max = arity_bound(lam.degree, lam.target, phi.source)
    if lam.ops and phi.ops:
        n_max = min(n_max, lam.max_arity * phi.max_arity)
    elif 0 not in lam.ops:
        n_max = -1
    return max(n_max, 0 if 0 in lam.ops else -1)


def bullet_op(lam: OpFamily, phi: OpFamily, n: int) -> MultiOp:
    """The arity-n part of bullet(lam, phi), tabulated on its own.

    A set partition of the n inputs into k blocks feeds lam_k with one
    part of phi per block.  Its block sizes are a multiset of phi's
    arities, and it is one block choice of the feeder for lam_k and that
    multiset, whose identical parts form the runs fed once; the parts
    have degree 0, so ordering the blocks by part instead of by first
    position leaves the sign and the value alone.  Recursions that fix
    one arity of phi at a time call this at each step instead of
    rebuilding every arity of the product.
    """
    if n > _bullet_reach(lam, phi):
        return MultiOp.zero(n, lam.degree, phi.source, lam.target)
    pool = [(phi.ops[a], a) for a in phi.arities()]
    fed = [(lam.ops[len(parts)], parts)
           for parts in multisets(pool, n) if len(parts) in lam.ops]
    value = _summed([_feeder(op_k, parts) for op_k, parts in fed])
    return MultiOp.from_function(n, lam.degree, phi.source, lam.target, value)


def bullet(lam: OpFamily, phi: OpFamily) -> OpFamily:
    """Composition product: phi-packets fill all slots of lam.

    phi must have internal degree 0 (and no arity-0 component, which in
    positively graded spaces is automatic); lam may be any family out of
    phi's target.  The result maps phi.source to lam.target with lam's degree.
    """
    ops = {}
    for n in range(_bullet_reach(lam, phi) + 1):
        op = bullet_op(lam, phi, n)
        if not op.is_zero():
            ops[n] = op
    return OpFamily(lam.degree, phi.source, lam.target, ops)
