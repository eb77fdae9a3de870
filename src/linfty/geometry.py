"""Geometry of bundle models: tangent complexes, etale maps, fibrations.

A bundle with polynomial coefficients cuts out a classical locus, the zero
set of its curvature section.  At a point of that locus the structure
linearizes to a cochain complex: the base tangent space in degree zero
mapping in via the Jacobian of the curvature, followed by the arity-one
operation in each fiber degree.  Everything here is exact rational linear
algebra on those complexes: cohomology ranks, mapping cones, quasi-
isomorphism tests, and the two constructions that produce new bundles
(the shifted tangent bundle and the pullback of a fibration).

Point searches are the one deliberately numerical corner: a coarse grid
plus Newton iteration proposes candidate zeros, and only rational points
that satisfy the equations exactly are promoted.  Newton's floats are the
exact values at each float iterate, correctly rounded, from one integer
kernel staged once per search.  The points a command checks come from one
seam, StagedTangent.points: supplied points are certified, else the search
runs on bases of at most MAX_SEARCH_COORDS coordinates.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add

from .algebra import (LinftyBundle, Morphism, _eval_coeff, check_mc,
                      check_morphism, compose, linear_morphism, linearize_fibration,
                      pullback_family, reindex_op, rename_source_clear_of,
                      same_morphism)
from .graded import (BasisBuilder, GradedSpace, MultiOp, OpFamily, _insertion_slots,
                     bullet)
from .linalg import kernel_basis, rank, right_inverse
from .poly import Poly, _exact, stage

Matrix = list[list[int | Fraction]]


# ---------------------------------------------------------------------------
# Cochain complexes
# ---------------------------------------------------------------------------


@dataclass
class CochainComplex:
    """Finite complex of rational vector spaces with ascending differentials.

    dims[k] is the dimension in degree k; diffs[k] maps degree k to k+1 and
    is stored row-major with dims[k+1] rows.  Composites of consecutive
    differentials must vanish.
    """

    dims: dict[int, int]
    diffs: dict[int, Matrix]

    def __post_init__(self):
        self.dims = {int(k): int(n) for k, n in self.dims.items() if n}
        self.diffs = {int(k): d for k, d in self.diffs.items()
                      if d and any(any(row) for row in d)}
        for k, d in self.diffs.items():
            rows, cols = len(d), len(d[0]) if d else 0
            if cols != self.dims.get(k, 0) or rows != self.dims.get(k + 1, 0):
                raise ValueError(f"differential in degree {k} has shape "
                                 f"{rows}x{cols}, dims demand "
                                 f"{self.dims.get(k + 1, 0)}x{self.dims.get(k, 0)}")
        for k in self.diffs:
            if k + 1 in self.diffs:
                # each row of nxt . cur, summed exactly over nonzero factors only
                cur = [[(j, c) for j, c in enumerate(row) if c] for row in self.diffs[k]]
                for row in self.diffs[k + 1]:
                    acc: dict[int, Fraction] = {}
                    for r, a in enumerate(row):
                        if a:
                            for j, c in cur[r]:
                                acc[j] = acc.get(j, 0) + a * c
                    if any(acc.values()):
                        raise ValueError(f"d.d != 0 between degrees {k} and {k + 2}")

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def rank_of(self, k: int) -> int:
        d = self.diffs.get(k)
        return rank(d) if d else 0

    def cohomology(self) -> dict[int, int]:
        """Betti numbers by exact rational rank computation.

        Each differential is reduced once; its rank enters the Betti
        numbers of both its source and its target degree.
        """
        ranks = {k: self.rank_of(k) for k in self.diffs}
        betti = {}
        for k in self.degrees():
            b = self.dims[k] - ranks.get(k, 0) - ranks.get(k - 1, 0)
            if b:
                betti[k] = b
        return betti

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in self.dims.items())


def mapping_cone(maps: dict[int, Matrix], a: CochainComplex,
                 b: CochainComplex) -> CochainComplex:
    """Cone of a chain map f: a -> b, with cone^k = a^{k+1} (+) b^k.

    The differential sends (x, y) to (-d_a x, f x + d_b y); the complex
    validates d.d = 0, which encodes that f really is a chain map.
    """
    degs = sorted({k - 1 for k in a.dims} | set(b.dims))
    dims = {k: a.dims.get(k + 1, 0) + b.dims.get(k, 0) for k in degs}
    dims = {k: n for k, n in dims.items() if n}
    diffs: dict[int, Matrix] = {}
    for k in dims:
        if k + 1 not in dims:
            continue
        rows, cols = dims[k + 1], dims[k]
        ra, rb = a.dims.get(k + 2, 0), b.dims.get(k + 1, 0)
        ca, cb = a.dims.get(k + 1, 0), b.dims.get(k, 0)
        m = [[0] * cols for _ in range(rows)]
        da = a.diffs.get(k + 1)
        if da:
            for i in range(ra):
                for j in range(ca):
                    m[i][j] = -da[i][j]
        f = maps.get(k + 1)
        if f:
            for i in range(rb):
                for j in range(ca):
                    m[ra + i][j] = f[i][j]
        db = b.diffs.get(k)
        if db:
            for i in range(rb):
                for j in range(cb):
                    m[ra + i][ca + j] = db[i][j]
        diffs[k] = m
    return CochainComplex(dims, diffs)


# ---------------------------------------------------------------------------
# Classical points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalPoint:
    """A rational base point where the curvature section vanishes.

    classical_point, find_classical_points and StagedTangent.classical_point
    build one only after checking the curvature exactly, and everything
    that takes a ClassicalPoint (tangent complexes and maps) relies on that
    check instead of repeating it.
    """

    coords: tuple[Fraction, ...]


def _fractions(point) -> tuple[Fraction, ...]:
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in point)


def _ratios(coords, point) -> list[tuple[int, int]]:
    """A point as the (numerator, denominator) pairs a staged kernel takes."""
    if len(point) != len(coords):
        raise ValueError(f"expected {len(coords)} coordinates, got {len(point)}")
    return [v.as_integer_ratio() for v in _fractions(point)]


class _StagedMatrix:
    """A matrix of coefficients over base coordinates, staged for many points.

    Rationals and constant polynomials are read once into a template; the
    other polynomial entries are staged together in one kernel (stage).
    `at` returns the exact rational matrix at a point given by `_ratios`,
    from one kernel call.
    """

    def __init__(self, rows: int, cols: int, entries, coords):
        self.template = [[0] * cols for _ in range(rows)]
        self.places = []
        polys = []
        for r, c, x in entries:
            if isinstance(x, Poly) and not x.is_constant():
                self.places.append((r, c))
                polys.append(x)
            else:
                self.template[r][c] = _eval_coeff(x)
        self.kernel = stage(polys, coords)

    @staticmethod
    def block(op: MultiOp, degree: int, coords) -> "_StagedMatrix":
        """The degree-`degree` block of an arity-1 operation, laid out as
        op_matrix lays it out."""
        cols = op.source.dim(degree)
        entries = [(j, i, c) for i in range(cols)
                   for (_, j), c in op.evaluate_basis(((degree, i),)).items()]
        return _StagedMatrix(op.target.dim(degree + op.degree), cols, entries, coords)

    @staticmethod
    def jacobian(rows: int, polys, coords) -> "_StagedMatrix":
        """Row r holds the partial derivatives of p for each (r, p) in polys;
        each derivative is taken once, and a constant row stays zero."""
        entries = [(r, j, dp) for r, p in polys if isinstance(p, Poly)
                   for j, name in enumerate(coords) for dp in (p.diff(name),) if dp]
        return _StagedMatrix(rows, len(coords), entries, coords)

    def at(self, point) -> Matrix:
        m = [row[:] for row in self.template]
        nums, den = self.kernel(point)
        for (r, c), num in zip(self.places, nums):
            m[r][c] = _exact(Fraction(num, den))
        return m


def _curvature_rows(bundle: LinftyBundle) -> list[tuple[int, object]]:
    """The curvature section as (row in the degree-one fiber basis, coefficient)."""
    rows = []
    for key, c in bundle.curvature_section().items():
        if key[0] != 1:
            raise AssertionError("curvature outside degree one")
        rows.append((key[1], c))
    return rows


def _residual(curvature: _StagedMatrix, at) -> int | Fraction:
    return max((abs(row[0]) for row in curvature.at(at)), default=0)


class StagedTangent:
    """A bundle's tangent data, staged once for evaluation at many points.

    The curvature, its Jacobian (each derivative taken once) and each
    degree block of delta + ops_1 are staged when first needed, so a
    caller left with no point to check stages nothing.  A point then costs
    one exact evaluation of those kernels.  The module-level
    classical_point and tangent_complex stage for one point; a loop over
    points builds one StagedTangent and calls its methods, as a compiled
    pattern serves repeated matches.
    """

    def __init__(self, bundle: LinftyBundle):
        self.bundle = bundle
        self._points: dict[tuple[Fraction, ...], ClassicalPoint] = {}

    @cached_property
    def _curvature(self) -> _StagedMatrix:
        b = self.bundle
        return _StagedMatrix(b.fiber.dim(1), 1, [(r, 0, c) for r, c in _curvature_rows(b)],
                             b.coords)

    @cached_property
    def _diffs(self) -> dict[int, _StagedMatrix]:
        # degree zero maps in by the curvature Jacobian, degree d >= 1 by
        # the specialized arity-one operation
        b = self.bundle
        diffs = {0: _StagedMatrix.jacobian(b.fiber.dim(1), _curvature_rows(b), b.coords)}
        ell1 = b.delta.plus(b.ops.op(1))
        for d in b.fiber.degrees():
            diffs[d] = _StagedMatrix.block(ell1, d, b.coords)
        return diffs

    def classical_point(self, point) -> ClassicalPoint:
        """The point, once its curvature is checked to vanish exactly.

        A ClassicalPoint is trusted and returned as is; any other point is
        checked once per StagedTangent, and asking again returns it.
        """
        if isinstance(point, ClassicalPoint):
            return point
        key = _fractions(point)
        got = self._points.get(key)
        if got is None:
            resid = _residual(self._curvature, _ratios(self.bundle.coords, key))
            if resid > 0:
                raise ValueError(f"curvature does not vanish there (residual {resid})")
            got = self._points[key] = ClassicalPoint(key)
        return got

    def points(self, supplied) -> tuple[list[ClassicalPoint], list[tuple[float, ...]]] | None:
        """(points, non-rational candidates): the supplied points certified
        here and no candidate, or with None supplied find_classical_points,
        or None when that base has over MAX_SEARCH_COORDS coordinates.
        """
        if supplied is not None:
            return [self.classical_point(p) for p in supplied], []
        if len(self.bundle.coords) > MAX_SEARCH_COORDS:
            return None
        return find_classical_points(self.bundle)

    def tangent_complex(self, point: ClassicalPoint) -> CochainComplex:
        """Tangent complex at a classical point.

        Degree zero holds the base tangent space with the curvature
        Jacobian (rows over the degree-one fiber basis, columns over base
        coordinates) as first differential; higher degrees carry the
        specialized arity-one operation.  Construction fails if the result
        is not a complex.
        """
        at = _ratios(self.bundle.coords, point.coords)
        diffs: dict[int, Matrix] = {}
        for d, staged in self._diffs.items():
            m = staged.at(at)
            if any(any(row) for row in m):
                diffs[d] = m
        dims = {0: len(self.bundle.coords), **self.bundle.fiber.dims}
        return CochainComplex(dims, diffs)


def classical_point(bundle: LinftyBundle, point) -> ClassicalPoint:
    """One point checked (see StagedTangent.classical_point)."""
    return StagedTangent(bundle).classical_point(point)


def tangent_complex(bundle: LinftyBundle, point: ClassicalPoint) -> CochainComplex:
    """Tangent complex at one classical point (see StagedTangent.tangent_complex)."""
    return StagedTangent(bundle).tangent_complex(point)


def virtual_dimension(bundle: LinftyBundle) -> int:
    """Base dimension minus the alternating sum of fiber ranks."""
    total = len(bundle.coords)
    for d in bundle.fiber.degrees():
        total += (-1) ** d * bundle.fiber.dims[d]
    return total


# ---------------------------------------------------------------------------
# Tangent maps and the etale / weak equivalence / fibration tests
# ---------------------------------------------------------------------------


@dataclass
class EtaleReport:
    ok: bool
    cone_betti: dict[int, int]
    point: ClassicalPoint


class StagedTangentMap:
    """A morphism's tangent data, staged once for evaluation at many points.

    Holds a StagedTangent for each side and stages, when first needed, the
    base map, its Jacobian (each derivative taken once) and each degree
    block of phi_1.  Certified points of the target are remembered by its
    StagedTangent, so a target point is checked once however many source
    points map to it.
    """

    def __init__(self, mor: Morphism):
        self.morphism = mor
        self.src = StagedTangent(mor.src)
        self.dst = StagedTangent(mor.dst)

    @cached_property
    def _base(self) -> _StagedMatrix:
        mor = self.morphism
        return _StagedMatrix(len(mor.base_map), 1,
                             [(i, 0, p) for i, p in enumerate(mor.base_map)], mor.src.coords)

    @cached_property
    def _maps(self) -> dict[int, _StagedMatrix]:
        # degree zero is the base Jacobian, degree d >= 1 the linear part
        mor = self.morphism
        coords = mor.src.coords
        maps = {0: _StagedMatrix.jacobian(len(mor.dst.coords), enumerate(mor.base_map), coords)}
        for d in mor.src.fiber.degrees():
            maps[d] = _StagedMatrix.block(mor.phi.op(1), d, coords)
        return maps

    def image(self, point) -> tuple[Fraction, ...]:
        """The base map at a source point."""
        at = _ratios(self.morphism.src.coords, point)
        return tuple(row[0] for row in self._base.at(at))

    def tangent_map(self, point: ClassicalPoint
                    ) -> tuple[CochainComplex, CochainComplex, dict[int, Matrix]]:
        """Chain map between tangent complexes induced at a classical point.

        The point lives on the source; its image under the base map must be
        classical for the target.  Degree zero is the base Jacobian, higher
        degrees the specialized linear part of the fiber family.
        """
        src_cx = self.src.tangent_complex(point)
        dst_cx = self.dst.tangent_complex(self.dst.classical_point(self.image(point.coords)))
        at = _ratios(self.morphism.src.coords, point.coords)
        return src_cx, dst_cx, {d: m.at(at) for d, m in self._maps.items()}

    def is_etale_at(self, point: ClassicalPoint) -> EtaleReport:
        """Quasi-isomorphism of tangent complexes, certified by an acyclic cone."""
        src_cx, dst_cx, maps = self.tangent_map(point)
        betti = mapping_cone(maps, src_cx, dst_cx).cohomology()
        return EtaleReport(not betti, betti, point)


@dataclass
class WeakEquivReport:
    ok: bool
    bijection_ok: bool
    pairs: list[tuple[ClassicalPoint, tuple[Fraction, ...]]]
    etale: list[EtaleReport]
    note: str = ("certified on the supplied candidate loci only; global "
                 "statements need a complete point list")


def is_weak_equivalence(mor: Morphism, src_points, dst_points) -> WeakEquivReport:
    """Check a morphism is a weak equivalence on supplied candidate loci.

    src_points and dst_points enumerate the known classical points of the
    two sides.  The base map must send the first list bijectively onto the
    second, and the tangent map must be a quasi-isomorphism at every
    source point.  With no source point nothing is checked, and the report
    is not ok and says so: an empty point list certifies nothing, even when
    the target's list is empty too.  The morphism is staged once; source
    coordinates are certified on the source and every target point once on
    the target; a ClassicalPoint is trusted, and tangent_map certifies
    every image the bijection is tested against.
    """
    staged = StagedTangentMap(mor)
    src_pts = [staged.src.classical_point(p) for p in src_points]
    dst_set = {staged.dst.classical_point(q).coords for q in dst_points}

    pairs = [(p, staged.image(p.coords)) for p in src_pts]
    images = [image for _, image in pairs]
    bijection_ok = (len(set(images)) == len(images) == len(dst_set)
                    and set(images) == dst_set)

    etale = [staged.is_etale_at(p) for p in src_pts]
    if not src_pts:
        return WeakEquivReport(False, bijection_ok, pairs, etale,
                               "no point was checked: the source has no supplied "
                               "or found classical point, so nothing is certified")
    return WeakEquivReport(bijection_ok and all(r.ok for r in etale),
                           bijection_ok, pairs, etale)


@dataclass
class FibrationReport:
    ok: bool
    submersion_ok: bool
    surjective_degrees: dict[int, bool]
    ranks: dict[int, int]
    note: str = "rank conditions checked at the supplied sample points"


def _probe_points(coords, samples) -> list[tuple[Fraction, ...]]:
    pts = [tuple(Fraction(v) for v in p) for p in samples]
    m = len(coords)
    for spread in (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)):
        pts.append(tuple(spread + Fraction(j, 7) for j in range(m)))
    return pts


def is_fibration(mor: Morphism, samples=()) -> FibrationReport:
    """Submersion on the base plus degreewise surjective linear part.

    An affine base map has a constant Jacobian, whose full row rank is
    checked once, exactly.  Otherwise the Jacobian must have full row rank
    at every supplied sample point, and with no sample point the submersion
    is reported as unchecked, never as holding.  The linear fiber part must
    be surjective in every degree with the same rank at all samples and a
    few deterministic probe points: a rank that varies is rejected outright
    rather than reported.
    """
    sample_pts = [tuple(Fraction(v) for v in p) for p in samples]
    target_rows = len(mor.dst.coords)
    note = FibrationReport.note
    affine = _try_affine(mor.base_map, mor.src.coords)
    if affine is not None:
        submersion_ok = rank(affine[0]) == target_rows
        if not sample_pts:
            note = ("submersion checked exactly (affine base map); linear "
                    "ranks checked at deterministic probe points only")
    elif sample_pts:
        jac = _StagedMatrix.jacobian(target_rows, enumerate(mor.base_map), mor.src.coords)
        submersion_ok = all(rank(jac.at(_ratios(mor.src.coords, pt))) == target_rows
                            for pt in sample_pts)
    else:
        submersion_ok = False
        note = ("no point was checked: the base map is not affine and no "
                "sample points were given, so the submersion is unverified")

    surj: dict[int, bool] = {}
    ranks: dict[int, int] = {}
    phi1 = mor.phi.op(1)
    probes = _probe_points(mor.src.coords, sample_pts)
    degrees = sorted(set(mor.src.fiber.degrees()) | set(mor.dst.fiber.degrees()))
    for d in degrees:
        block = _StagedMatrix.block(phi1, d, mor.src.coords)
        seen = {rank(block.at(_ratios(mor.src.coords, pt))) for pt in probes}
        if len(seen) > 1:
            raise ValueError(f"linear part has non-constant rank in degree {d}")
        r = seen.pop() if seen else 0
        ranks[d] = r
        surj[d] = r == mor.dst.fiber.dim(d)
    ok = submersion_ok and all(surj.values())
    return FibrationReport(ok, submersion_ok, surj, ranks, note)


# ---------------------------------------------------------------------------
# Shifted tangent bundle
# ---------------------------------------------------------------------------


@dataclass
class ShiftedTangentData:
    """Shifted tangent fiber with the three key dictionaries.

    base_dt maps a coordinate index to its shifted base key, fiber_dt and
    fiber_plain map original fiber keys to the shifted and plain copies.
    """

    space: GradedSpace
    ops: OpFamily
    base_dt: dict[int, tuple]
    fiber_dt: dict[tuple, tuple]
    fiber_plain: dict[tuple, tuple]


def shifted_tangent(bundle: LinftyBundle) -> LinftyBundle:
    """Bundle on the shifted tangent space of the total space.

    The fiber acquires, next to each original summand, a copy shifted up
    by one (marked dt) and a shifted copy of the base tangent space.  The
    operations are determined by three rules on a basis tuple: with no dt
    factor, the original operation; with exactly one shifted fiber factor,
    the original operation on underlying vectors, pushed back into the
    shifted copy; with exactly one shifted base factor, differentiation of
    the coefficient polynomials in that base direction.  Two or more dt
    factors annihilate.  The result is validated against the flatness of
    coordinate differentiation by check_mc downstream.

    The operations are written from the nonzero entries I -> w of
    ell = delta + ops, each reaching its tuples once: I -> w on the plain
    copies; for each key v of I with rest R (graded._insertion_slots),
    R with v dt in its sorted place -> w dt; and for each coordinate x_j,
    (d x_j dt,) + I -> d_j w dt at one arity up, the shifted base keys
    being the first of the space.  Each carries the sign below, and each
    polynomial coefficient is differentiated once per coordinate.

    Sign rule.  Let the dt factor v dt sit at position p of the sorted
    tuple (x_1, .., x_k), with |v| = d, so its key has degree d + 1, and
    let S = |x_1| + .. + |x_{p-1}| and A = |x_{p+1}| + .. + |x_k|.  The
    operation ell is evaluated with v in front and dt on the far right:

        ell(x_1, .., v dt, .., x_k) = (-1)^A ell(x_1, .., v, .., x_k) dt
                                    = (-1)^(A + d S) ell(v, x_1, .., x_k without v) dt,

    the first step carrying dt (degree 1) past the A inputs after it, the
    second carrying v (degree d) past the S inputs before it, as graded
    symmetry of the original operation allows.  A shifted base direction
    d x_j dt has d = 0, so only (-1)^A remains; it feeds the
    differentiated operation the inputs other than d x_j dt in order.
    """
    data = shifted_tangent_data(bundle)
    return LinftyBundle(bundle.coords, data.space,
                        MultiOp.zero(1, 1, data.space, data.space), data.ops)


def shifted_tangent_data(bundle: LinftyBundle) -> ShiftedTangentData:
    """shifted_tangent together with the basis-key dictionaries."""
    fib = bundle.fiber
    basis = BasisBuilder()
    tm_key = {j: basis.push(1, f"d{name} dt", True) for j, name in enumerate(bundle.coords)}
    ldt_key = {(d, i): basis.push(d + 1, fib.labels[d][i] + " dt", True)
               for d, i in fib.keys()}
    lpl_key = {(d, i): basis.push(d, fib.labels[d][i], False) for d, i in fib.keys()}
    space = basis.build()

    entries: dict[int, dict[tuple, dict]] = {}
    for k, op in bundle.total().ops.items():
        same, longer = entries.setdefault(k, {}), entries.setdefault(k + 1, {})
        for tup, w in op.coeffs.items():
            lifted = tuple(lpl_key[x] for x in tup)
            same[lifted] = {lpl_key[q]: c for q, c in w.items()}
            odd = sum(x[0] for x in tup) % 2
            for j, name in enumerate(bundle.coords):
                vec = {ldt_key[q]: -dc if odd else dc for q, c in w.items()
                       if isinstance(c, Poly) for dc in (c.diff(name),) if dc}
                if vec:
                    longer[(tm_key[j],) + lifted] = vec
        # sigma moves v to the front of its entry; the sign rule adds (-1)^(A + |v| S)
        for v, items in _insertion_slots(op.coeffs).items():
            for rest, sigma, w, *_ in items:
                lifted = tuple(lpl_key[x] for x in rest)
                p = bisect(lifted, ldt_key[v])
                before = sum(x[0] for x in rest[:p])
                after = sum(x[0] for x in rest[p:])
                if (after + v[0] * before) % 2:
                    sigma = -sigma
                same[lifted[:p] + (ldt_key[v],) + lifted[p:]] = {
                    ldt_key[q]: c if sigma > 0 else -c for q, c in w.items()}
    ops = {n: MultiOp(n, 1, space, space, {t: got[t] for t in sorted(got)})
           for n, got in sorted(entries.items())}
    return ShiftedTangentData(space, OpFamily(1, space, space, ops),
                              tm_key, ldt_key, lpl_key)


# ---------------------------------------------------------------------------
# Pullback of a fibration
# ---------------------------------------------------------------------------


@dataclass
class PullbackResult:
    bundle: LinftyBundle
    to_fibration_source: Morphism
    to_other_source: Morphism


def _same_target(a: LinftyBundle, b: LinftyBundle) -> bool:
    return (a.coords == b.coords and a.fiber.dims == b.fiber.dims
            and a.total() == b.total())


def _coordinate_projection(m: Morphism) -> dict | None:
    """The key map of m when its fiber family is a constant coordinate
    projection, else None.

    m qualifies when phi has arity 1 only, every source key goes to at most
    one target key with coefficient exactly 1, and every target key is hit
    exactly once (an empty phi onto a zero fiber included).  Returns source
    key -> target key over the mapped source keys.
    """
    if not set(m.phi.ops) <= {1}:
        return None
    sigma = {}
    for (key,), vec in m.phi.op(1).coeffs.items():
        if len(vec) != 1:
            return None
        (out, c), = vec.items()
        if c != 1:
            return None
        sigma[key] = out
    if len(set(sigma.values())) != len(sigma) or len(sigma) != m.dst.fiber.total_dim:
        return None
    return sigma


def pullback_fibration(fib: Morphism, other: Morphism) -> PullbackResult:
    """Strict pullback of a fibration along another morphism.

    fib and other share their target.  The base fibered product must be a
    graph, so one of the two base maps has to be affine.  A fibration whose
    fiber family is a constant coordinate projection, as the path-space
    evaluation is, is pulled back in place: the pullback fiber is the
    source keys the projection drops, in source order, plus the other
    source's fiber, and the projection to fib's source sends each key to
    the source key it came from.  Any other fibration is first straightened
    by linearize_fibration into an isomorphism followed by a coordinate
    projection; that projection is pulled back the same way and the
    inverse isomorphism composed after it.  Where other's coordinates clash
    with fib's, the pullback renames them in its own base only, so
    to_other_source lands on other.src itself.

    fib and other arrive certified by whoever built or loaded them and are
    not checked again.  What this builds is certified here: flatness of
    the structure, both projections being morphisms, commutativity of the
    square, and additivity of virtual dimensions.
    """
    if not _same_target(fib.dst, other.dst):
        raise ValueError("the two morphisms must share their target bundle")
    renamed = rename_source_clear_of(other, fib.src.coords, "b")

    proj, sigma, lin = fib, _coordinate_projection(fib), None
    if sigma is None:
        lin = linearize_fibration(fib)
        proj, sigma = lin.linear, _coordinate_projection(lin.linear)

    # Base graph: solve the affine leg A x + c = (other leg's base map) for
    # its coordinates x, adding fresh coordinates z along the kernel of A.
    legs = (proj, renamed)
    for side, leg_name in enumerate(("the fibration", "the other leg")):
        aff = _try_affine(legs[side].base_map, legs[side].src.coords)
        if aff is not None:
            break
    else:
        raise ValueError("need an affine base map on one side to form the graph")
    solved, free = legs[side], legs[1 - side]
    a, c = aff
    w = right_inverse(a)
    if w is None:
        raise ValueError(f"affine base map of {leg_name} is not surjective")
    kern = kernel_basis(a, cols=len(solved.src.coords))
    znames = _fresh_names("z", len(kern), set(free.src.coords))
    rhs = [q - cc for q, cc in zip(free.base_map, c)]
    x_polys = []
    for r in range(len(solved.src.coords)):
        pexpr = Poly.zero()
        for t, q in enumerate(rhs):
            if w[r][t]:
                pexpr = pexpr + w[r][t] * q
        for t, veck in enumerate(kern):
            if veck[r]:
                pexpr = pexpr + veck[r] * Poly.variable(znames[t])
        x_polys.append(pexpr)
    leg_coords = [tuple(leg.src.coords) for leg in legs]
    bases = [tuple(Poly.variable(n) for n in cs) for cs in leg_coords]
    substs = [{}, {}]
    leg_coords[side], bases[side] = tuple(znames), tuple(x_polys)
    substs[side] = dict(zip(solved.src.coords, x_polys))
    prod_coords = leg_coords[0] + leg_coords[1]
    pr1_base, pr2_base = bases

    # Fiber: the source keys the projection drops, numbered in source order
    # within each degree, plus the other source's fiber.
    comp = BasisBuilder()
    dropped = {(d, i): comp.push(d, f"k{d}_{len(comp.labels.get(d, ()))}", False)
               for d, i in proj.src.fiber.keys() if (d, i) not in sigma}
    lam_space, into_f, into_lp = comp.build().direct_sum(other.src.fiber)
    drop = {key: into_f[k] for key, k in dropped.items()}
    back = {t: s for s, t in sigma.items()}
    src_total = pullback_family(proj.src.total(), substs[0])
    other_total = pullback_family(renamed.src.total(), substs[1])
    phi_other = pullback_family(renamed.phi, substs[1])

    # pr1 lifts each dropped key and sends the other source's keys through
    # the other leg's fiber family; proj_f is the coordinate projection
    lifts = MultiOp(1, 0, lam_space, proj.src.fiber,
                    {(lam,): {key: 1} for key, lam in drop.items()})
    psi = OpFamily(0, lam_space, proj.src.fiber, {
        k: reindex_op(op, lam_space, proj.src.fiber, into_lp, back)
        for k, op in phi_other.ops.items()}).plus(
            OpFamily(0, lam_space, proj.src.fiber, {1: lifts}))
    proj_f = MultiOp(1, 0, proj.src.fiber, lam_space,
                     {(key,): {lam: 1} for key, lam in drop.items()})

    pushed = bullet(src_total, psi)
    lifted_ops: dict[int, MultiOp] = {}
    for k in sorted(set(pushed.ops) | set(other_total.ops)):
        op = proj_f.compose_linear(pushed.op(k)).plus(
            reindex_op(other_total.op(k), lam_space, lam_space, into_lp, into_lp))
        if not op.is_zero():
            lifted_ops[k] = op
    bundle = LinftyBundle(prod_coords, lam_space,
                          MultiOp.zero(1, 1, lam_space, lam_space),
                          OpFamily(1, lam_space, lam_space, lifted_ops))

    pr2 = linear_morphism(bundle, other.src, pr2_base,
                          {lam: {key: 1} for key, lam in into_lp.items()})
    pr1 = Morphism(bundle, proj.src, pr1_base, psi)
    if lin is not None:
        pr1 = compose(lin.inverse, pr1)

    rep = check_mc(bundle)
    if not rep.ok:
        raise AssertionError("pullback structure fails the defining equation")
    for mor in (pr1, pr2):
        if not check_morphism(mor).ok:
            raise AssertionError("pullback projection is not a morphism")
    if not same_morphism(compose(fib, pr1), compose(other, pr2)):
        raise AssertionError("pullback square does not commute")
    want = (virtual_dimension(fib.src) + virtual_dimension(other.src)
            - virtual_dimension(fib.dst))
    if virtual_dimension(bundle) != want:
        raise AssertionError("virtual dimension is not additive")
    return PullbackResult(bundle, pr1, pr2)


def _try_affine(polys, coords):
    """Affine polynomials split into (matrix, constants), or None when one
    of them is not affine in coords."""
    rows = []
    consts = []
    for p in polys:
        pruned = p.pruned()
        if p.total_degree() > 1 or not set(pruned.vars) <= set(coords):
            return None
        row = [0] * len(coords)
        const = 0
        for expo, c in pruned.with_vars(tuple(coords)).terms.items():
            if sum(expo) == 0:
                const = c
            else:
                row[list(expo).index(1)] = c
        rows.append(row)
        consts.append(const)
    return rows, consts


def _fresh_names(stem: str, count: int, taken: set[str]) -> list[str]:
    out = []
    i = 0
    while len(out) < count:
        cand = f"{stem}{i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


# ---------------------------------------------------------------------------
# Point search
# ---------------------------------------------------------------------------


def _drop_near_repeats(points: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """The points in order, less each one within 1e-6 in every coordinate
    of an earlier kept point.

    Kept points are filed by cells twice that wide, so a point within 1e-6
    of q lies in q's cell or a neighbouring one (rounding in v / 2e-6 cannot
    carry it two cells away), and only those 3^m cells are searched.
    """
    kept: list[tuple[float, ...]] = []
    cells: dict[tuple[int, ...], list[tuple[float, ...]]] = {}
    around = list(itertools.product((-1, 0, 1), repeat=len(points[0]))) if points else []
    for pt in points:
        cell = tuple(math.floor(v / 2e-6) for v in pt)
        if any(all(abs(a - b) < 1e-6 for a, b in zip(pt, q))
               for off in around for q in cells.get(tuple(map(add, cell, off)), ())):
            continue
        kept.append(pt)
        cells.setdefault(cell, []).append(pt)
    return kept


# Newton has converged once every curvature component is below _POINT_TOL
# in absolute value.  Multiple roots stall Newton around _POINT_TOL^(1/k),
# so a candidate snaps to a small rational within the generous _SNAP_RADIUS;
# promotion is gated on the exact residual anyway.
_POINT_TOL = 1e-9
_SNAP_RADIUS = max(1e-6, _POINT_TOL ** 0.5 * 4)
# the most base coordinates the point search takes
MAX_SEARCH_COORDS = 3


def find_classical_points(bundle: LinftyBundle
                          ) -> tuple[list[ClassicalPoint], list[tuple[float, ...]]]:
    """Grid-seeded Newton search for zeros of the curvature section.

    Newton runs at most 60 steps from each point of a 7-point-per-axis grid
    on [-3, 3]^m, for at most MAX_SEARCH_COORDS base coordinates.  The
    curvature components and their partial derivatives (each taken once)
    are staged together as one integer kernel (stage), so a step is one
    kernel call and its floats are the exact values at the float iterate,
    correctly rounded.  A seed stops when its step leaves the iterate
    unchanged: the next step would see the same values and take the same
    step, up to the step cap, so that seed cannot converge.  A seed whose
    values or Jacobian leave the float range, or whose step is not finite,
    diverges and is dropped.  Converged
    numerical zeros are deduplicated; candidates close to small rationals
    are verified exactly with the same kernel (every curvature numerator
    zero at the candidate's ratios) and promoted to ClassicalPoint, the
    rest are reported as floats.
    """
    m = len(bundle.coords)
    if m == 0:
        return ([] if bundle.curvature_section() else [ClassicalPoint(())]), []
    if m > MAX_SEARCH_COORDS:
        raise ValueError("point search supports at most three coordinates")
    comps = [c if isinstance(c, Poly) else Poly.constant(c)
             for _, c in sorted(bundle.curvature_section().items())]
    r = len(comps)
    # values: the components, then row i of the Jacobian at r + i * m
    kernel = stage(comps + [c.diff(name) for c in comps for name in bundle.coords],
                   bundle.coords)

    lo, hi, grid = -3.0, 3.0, 7
    seeds = itertools.product(
        *[[lo + (hi - lo) * i / (grid - 1) for i in range(grid)]] * m)
    converged: list[tuple[float, ...]] = []
    for seed in seeds:
        pt = list(seed)
        ok = False
        for _ in range(60):
            nums, den = kernel([v.as_integer_ratio() for v in pt])
            try:
                fv = [num / den for num in nums[:r]]
                if max(map(abs, fv), default=0.0) < _POINT_TOL:
                    ok = True
                    break
                jac = [num / den for num in nums[r:]]
            except OverflowError:
                break
            step = _least_squares_step([jac[i:i + m] for i in range(0, r * m, m)], fv, m)
            if step is None or not all(map(math.isfinite, step)):
                break
            nxt = [a - b for a, b in zip(pt, step)]
            if nxt == pt:
                break
            pt = nxt
            if max(map(abs, pt)) > 1e6:
                break
        if ok:
            converged.append(tuple(pt))
    found = _drop_near_repeats(converged)

    exact: list[ClassicalPoint] = []
    seen: set[tuple[Fraction, ...]] = set()
    loose: list[tuple[float, ...]] = []
    for pt in sorted(found):
        for cap in (1, 2, 8, 64, 1000):
            cand = tuple(Fraction(v).limit_denominator(cap) for v in pt)
            if max(abs(float(c) - v) for c, v in zip(cand, pt)) > _SNAP_RADIUS:
                continue
            if not any(kernel([c.as_integer_ratio() for c in cand])[0][:r]):
                if cand not in seen:
                    seen.add(cand)
                    exact.append(ClassicalPoint(cand))
                break
        else:
            loose.append(pt)
    return exact, loose


def _least_squares_step(jm, fv, m):
    """Solve the ridged normal equations (J^T J + 1e-12 I) s = J^T f in floats.

    Plain loops, so the step depends on IEEE arithmetic alone and not on
    how the interpreter sums: each entry of J^T J and J^T f is summed left
    to right from 0.0 over the rows, the elimination pivots on the first
    entry of largest magnitude and gives up on one below 1e-14 (None).
    """
    aug = [[0.0] * (m + 1) for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            s = 0.0
            for row in jm:
                s += row[i] * row[j]
            aug[i][j] = aug[j][i] = s
        aug[i][i] += 1e-12
        s = 0.0
        for row, f in zip(jm, fv):
            s += row[i] * f
        aug[i][m] = s
    for col in range(m):
        piv, big = col, abs(aug[col][col])
        for r in range(col + 1, m):
            if abs(aug[r][col]) > big:
                piv, big = r, abs(aug[r][col])
        if big < 1e-14:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        for r in range(m):
            row = aug[r]
            if r != col and row[col]:
                fac = row[col] / top[col]
                for cc in range(col, m + 1):
                    row[cc] -= fac * top[cc]
    return [aug[i][m] / aug[i][i] for i in range(m)]
