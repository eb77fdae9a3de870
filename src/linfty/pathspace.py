"""Derived path spaces, diagonal factorizations, derived intersections.

The path space of a bundle is computed on a truncated model: sections of
the pulled-back shifted tangent bundle along the straight path from p to
q are t-polynomials of bounded degree.  On that ambient space the
t-calculus provides a differential and homotopy contracting onto constant
one-form sections plus linear plain sections, presented in the end-value
basis.  Transfer through that contraction, with symbolic endpoints, turns
the truncated model into an honest bundle over the doubled base whose
operation coefficients are closed-form polynomials in (p, q).

On top of the path space sit the diagonal factorization (constant paths
followed by endpoint evaluation), homotopy fibered products as iterated
pullbacks along the evaluation fibration, and derived intersections of
polynomial maps into affine space (morphisms between plain bundles),
including the comparison of a section's derived zero locus with its
quasi-smooth model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (LinftyBundle, Morphism, check_mc, check_morphism, compose,
                      linear_morphism, plain_bundle, product_bundle, product_projection,
                      reindex_op, rename_source_clear_of, same_morphism)
from .geometry import (MAX_SEARCH_COORDS, ClassicalPoint, StagedTangent, _same_target,
                       classical_point, find_classical_points, is_fibration,
                       is_weak_equivalence, pullback_fibration, shifted_tangent_data,
                       virtual_dimension)
from .graded import BasisBuilder, GradedSpace, MultiOp, OpFamily
from .poly import Poly
from .transfer import Contraction, TransferResult, transfer

_T = "t"


def _split_t(c) -> dict[int, "Poly | Fraction"]:
    """Decompose a coefficient into powers of the path parameter."""
    if not isinstance(c, Poly) or _T not in c.vars:
        return {0: c} if c else {}
    i = c.vars.index(_T)
    rest = tuple(v for j, v in enumerate(c.vars) if j != i)
    buckets: dict[int, dict[tuple, Fraction]] = {}
    for e, coeff in c.terms.items():
        re = tuple(x for j, x in enumerate(e) if j != i)
        buckets.setdefault(e[i], {})[re] = coeff
    return {r: Poly(rest, terms) for r, terms in buckets.items()}


# ---------------------------------------------------------------------------
# Truncated ambient model
# ---------------------------------------------------------------------------


@dataclass
class PathModel:
    """Truncated t-polynomial model of sections along a straight path.

    The truncation degree `cap` is derived from the bundle, never chosen:
    max(2, required_t_degree(bundle)).  Ambient keys come in three kinds:
    constant shifted base directions, one-form fiber sections t^s e dt
    with s < cap, and plain fiber sections t^s e with s <= cap.
    The contraction retracts onto constant one-forms plus linear plain
    sections in the end-value basis; its projection is the closed form in
    `build_path_model` (end values of plain sections, averages 1/(s+1) of
    one-forms), checked by Contraction.validate like every other
    contraction.
    """

    bundle: LinftyBundle
    cap: int
    space: GradedSpace
    contraction: Contraction
    base_dt: dict[int, tuple]
    plain: dict[tuple, tuple]          # (fiber key, power) -> ambient key
    one_form: dict[tuple, tuple]       # (fiber key, power) -> ambient key
    h_base_dt: dict[int, tuple]        # coord index -> retract key
    h_avg: dict[tuple, tuple]          # fiber key -> constant one-form key
    h_end: dict[tuple, tuple]          # (fiber key, 0|1) -> end-value key


def required_t_degree(bundle: LinftyBundle) -> int:
    """t-degree the transfer stays within: coefficient degree times amplitude.

    Substituting a straight path into a coefficient of total degree d gives
    a t-polynomial of degree d, and the recursion multiplies at most one
    such factor per amplitude level, so outputs live below d * n.
    """
    d = 0
    for k in bundle.ops.arities():
        for vec in bundle.ops.op(k).coeffs.values():
            for c in vec.values():
                if isinstance(c, Poly):
                    d = max(d, c.total_degree())
    return d * max(bundle.amplitude, 1)


def build_path_model(bundle: LinftyBundle) -> PathModel:
    """Ambient truncated complex with its contraction, no operations yet.

    The model is truncated at t-degree max(2, required_t_degree(bundle)),
    which the transfer never exceeds, so any larger truncation gives the
    same path space.

    The projection is written down, not solved for.  The projector
    1 - [delta, eta] is the end-value interpolation on plain sections and
    the average on one-forms, so in the end-value basis

        t^0 e    -> e(0) + e(1)         t^s e dt -> (1/(s+1)) e dt
        t^s e    -> e(1)  (s >= 1)      dx_j dt  -> dx_j dt

    (t^0 e has both end values 1, t^s e with s >= 1 only e(1), and the
    average of t^s is 1/(s+1)).  Contraction.from_maps still checks the
    projector and all five contraction identities, so a wrong entry here
    is an error, not a wrong path space.
    """
    cap = max(2, required_t_degree(bundle))
    fib = bundle.fiber
    m = len(bundle.coords)

    basis = BasisBuilder()
    base_dt = {j: basis.push(1, f"d{bundle.coords[j]} dt", True) for j in range(m)}
    one_form: dict[tuple, tuple] = {}
    plain: dict[tuple, tuple] = {}
    for d in fib.degrees():
        for i in range(fib.dims[d]):
            lab = fib.labels[d][i]
            for s in range(cap):
                one_form[((d, i), s)] = basis.push(d + 1, f"t^{s} {lab} dt", True)
    for d in fib.degrees():
        for i in range(fib.dims[d]):
            lab = fib.labels[d][i]
            for s in range(cap + 1):
                plain[((d, i), s)] = basis.push(d, f"t^{s} {lab}", False)
    space = basis.build()

    delta_coeffs = {}
    for ((d, i), s), key in plain.items():
        if s == 0:
            continue
        sign = -1 if d % 2 else 1
        delta_coeffs[(key,)] = {one_form[((d, i), s - 1)]: sign * s}
    delta = MultiOp(1, 1, space, space, delta_coeffs)

    eta_coeffs = {}
    for ((d, i), s), key in one_form.items():
        sign = Fraction(-1 if d % 2 else 1, s + 1)
        out = {plain[((d, i), s + 1)]: sign}
        out[plain[((d, i), 1)]] = out.get(plain[((d, i), 1)], 0) - sign
        out = {k: c for k, c in out.items() if c}
        if out:
            eta_coeffs[(key,)] = out
    eta = MultiOp(1, -1, space, space, eta_coeffs)

    h_basis = BasisBuilder()
    h_base_dt = {j: h_basis.push(1, f"d{bundle.coords[j]} dt", True) for j in range(m)}
    h_avg: dict[tuple, tuple] = {}
    h_end: dict[tuple, tuple] = {}
    for d in fib.degrees():
        for i in range(fib.dims[d]):
            h_avg[(d, i)] = h_basis.push(d + 1, f"{fib.labels[d][i]} dt", True)
    for d in fib.degrees():
        for i in range(fib.dims[d]):
            lab = fib.labels[d][i]
            h_end[((d, i), 0)] = h_basis.push(d, f"{lab}(0)", False)
            h_end[((d, i), 1)] = h_basis.push(d, f"{lab}(1)", False)
    h_space = h_basis.build()

    iota_coeffs: dict = {}
    for j, hk in h_base_dt.items():
        iota_coeffs[(hk,)] = {base_dt[j]: 1}
    for fk, hk in h_avg.items():
        iota_coeffs[(hk,)] = {one_form[(fk, 0)]: 1}
    for (fk, end), hk in h_end.items():
        if end == 0:
            iota_coeffs[(hk,)] = {plain[(fk, 0)]: 1,
                                  plain[(fk, 1)]: -1}
        else:
            iota_coeffs[(hk,)] = {plain[(fk, 1)]: 1}
    iota = MultiOp(1, 0, h_space, space, iota_coeffs)

    pi_coeffs: dict = {}
    for j, hk in h_base_dt.items():
        pi_coeffs[(base_dt[j],)] = {hk: 1}
    for (fk, s), key in one_form.items():
        pi_coeffs[(key,)] = {h_avg[fk]: Fraction(1, s + 1)}
    for (fk, s), key in plain.items():
        pi_coeffs[(key,)] = ({h_end[(fk, 0)]: 1, h_end[(fk, 1)]: 1}
                             if s == 0 else {h_end[(fk, 1)]: 1})
    pi = MultiOp(1, 0, space, h_space, pi_coeffs)

    con = Contraction.from_maps(space, delta, eta, h_space, iota, pi)
    return PathModel(bundle, cap, space, con, base_dt,
                     plain, one_form, h_base_dt, h_avg, h_end)


def path_perturbation(model: PathModel, pvals: dict[str, "Poly | Fraction"],
                      qvals: dict[str, "Poly | Fraction"]) -> OpFamily:
    """Pull the shifted tangent operations back along a(t) = p + t(q-p).

    The straight-line displacement enters as extra curvature in the
    shifted base directions.  Every other contribution comes from one
    nonzero entry of the shifted tangent operations: its coefficient is
    pulled back once, by substitution x -> a(t), and pushed forward onto
    the truncated basis for every choice of t-powers of its inputs, each
    output power being the sum of the input powers plus the power of t
    in the pulled-back coefficient.  Terms beyond the cap are projected
    away; the structure equation holds exactly on the truncated model
    because applying an operation never lowers t-degree.
    """
    bundle = model.bundle
    data = shifted_tangent_data(bundle)
    t = Poly.variable(_T)
    avals = {}
    prime = {}
    for j, name in enumerate(bundle.coords):
        p, q = pvals[name], qvals[name]
        pp = p if isinstance(p, Poly) else Poly.constant(p)
        qq = q if isinstance(q, Poly) else Poly.constant(q)
        dcoef = qq - pp
        avals[name] = pp + t * dcoef
        if dcoef:
            prime[model.base_dt[j]] = dcoef

    # shifted tangent key -> its ambient keys by t-power; this keeps key
    # order, so a sorted entry gives sorted ambient tuples
    powers = {v: [model.base_dt[j]] for j, v in data.base_dt.items()}
    for fk, v in data.fiber_dt.items():
        powers[v] = [model.one_form[(fk, s)] for s in range(model.cap)]
    for fk, v in data.fiber_plain.items():
        powers[v] = [model.plain[(fk, s)] for s in range(model.cap + 1)]

    def spread(tup):
        """(ambient tuple, power sum, last power) for each choice of input
        powers with sum at most the cap; along a run of one repeated (even)
        key the powers never decrease, so each ambient tuple comes once."""
        choices = [((), 0, 0)]
        for i, key in enumerate(tup):
            keys = powers[key]
            repeat = i > 0 and tup[i - 1] == key
            choices = [(amb + (keys[s],), shift + s, s)
                       for amb, shift, last in choices
                       for s in range(last if repeat else 0,
                                      min(len(keys), model.cap + 1 - shift))]
        return choices

    # no shifted tangent operation reaches a shifted base direction, so the
    # displacement shares no entry with them
    tables: dict[int, dict] = {0: {(): prime}}
    for k, op in data.ops.ops.items():
        table = tables.setdefault(k, {})
        for tup, vec in op.coeffs.items():
            pulled = [(powers[t_key],
                       _split_t(c.substitute(avals) if isinstance(c, Poly) else c))
                      for t_key, c in vec.items()]
            for amb, shift, _ in spread(tup):
                table.setdefault(amb, {}).update(
                    (targets[shift + r], cr) for targets, split in pulled
                    for r, cr in split.items() if shift + r < len(targets))
    return OpFamily(1, model.space, model.space,
                    {k: MultiOp(k, 1, model.space, model.space, table)
                     for k, table in tables.items()})


# ---------------------------------------------------------------------------
# Derived path space
# ---------------------------------------------------------------------------


@dataclass
class DerivedPathSpace:
    """Path space bundle over the doubled base, with its endpoint evaluation
    into the product and the path model it was transferred from."""

    bundle: LinftyBundle           # over (p, q)
    evaluation: Morphism           # endpoint evaluation, a fibration
    product: LinftyBundle          # source x source with renamed coords
    product_maps: tuple[dict, dict]
    model: PathModel
    transfer_result: TransferResult


def _doubled_names(coords) -> tuple[tuple[str, ...], tuple[str, ...]]:
    taken = set(coords)
    ps, qs = [], []
    for c in coords:
        a, b = c + "_0", c + "_1"
        while a in taken:
            a += "_"
        taken.add(a)
        while b in taken:
            b += "_"
        taken.add(b)
        ps.append(a)
        qs.append(b)
    return tuple(ps), tuple(qs)


def derived_path_space(bundle: LinftyBundle) -> DerivedPathSpace:
    """Transfer the path structure once manifold-wide, with symbolic ends.

    The output bundle lives over the doubled base; its operations have
    polynomial coefficients in the two endpoint copies.  The endpoint
    evaluation comes along as a morphism into the product of two renamed
    copies of the bundle.  What is built here is certified here, once, for
    every caller: the defining equation of the path space, the morphism
    equation of the evaluation, and vdim(PZ) = vdim(Z).  bundle itself is
    taken as given, and checked only when the path space fails its
    equation: a bundle that fails its own is named as the cause.
    """
    model = build_path_model(bundle)
    pnames, qnames = _doubled_names(bundle.coords)
    pvals = {c: Poly.variable(n) for c, n in zip(bundle.coords, pnames)}
    qvals = {c: Poly.variable(n) for c, n in zip(bundle.coords, qnames)}
    lam = path_perturbation(model, pvals, qvals)
    result = transfer(model.contraction, lam)

    coords = pnames + qnames
    h = model.contraction.h_space
    pm = LinftyBundle(coords, h, model.contraction.delta_h, result.mu)

    left = bundle.rename_coords(dict(zip(bundle.coords, pnames)))
    right = bundle.rename_coords(dict(zip(bundle.coords, qnames)))
    product, j0, j1 = product_bundle(left, right)

    ev = linear_morphism(pm, product, tuple(Poly.variable(c) for c in coords),
                         {hk: {(j0 if end == 0 else j1)[fk]: 1}
                          for (fk, end), hk in model.h_end.items()})
    if not check_mc(pm).ok:
        given = check_mc(bundle)
        if not given.ok:
            raise AssertionError(
                f"input structure fails the defining equation:\n{given.describe()}")
        raise AssertionError("path space structure fails the defining equation")
    if not check_morphism(ev).ok:
        raise AssertionError("endpoint evaluation is not a morphism")
    if virtual_dimension(pm) != virtual_dimension(bundle):
        raise AssertionError("path space changes the virtual dimension")
    return DerivedPathSpace(pm, ev, product, (j0, j1), model, result)


# ---------------------------------------------------------------------------
# Factorization of the diagonal
# ---------------------------------------------------------------------------


@dataclass
class Factorization:
    path_space: DerivedPathSpace
    weak_equivalence: Morphism     # source -> path space
    fibration: Morphism            # path space -> product
    diagonal: Morphism             # source -> product


def factorize_diagonal(bundle: LinftyBundle) -> Factorization:
    """Factor the diagonal as constant paths followed by endpoint evaluation.

    The constant-path inclusion sends each fiber key to the sum of its two
    end values in the path space; it is checked to be a morphism, and its
    composite with the evaluation to equal the diagonal.
    """
    dps = derived_path_space(bundle)
    h_end = dps.model.h_end
    j0, j1 = dps.product_maps
    doubled = tuple(Poly.variable(c) for c in bundle.coords) * 2
    inc = linear_morphism(bundle, dps.bundle, doubled,
                          {fk: {h_end[(fk, 0)]: 1, h_end[(fk, 1)]: 1}
                           for fk in bundle.fiber.keys()})
    if not check_morphism(inc).ok:
        raise AssertionError("constant-path inclusion is not a morphism")
    diag = linear_morphism(bundle, dps.product, doubled,
                           {fk: {j0[fk]: 1, j1[fk]: 1} for fk in bundle.fiber.keys()})
    if not same_morphism(compose(dps.evaluation, inc), diag):
        raise AssertionError("factorization composite is not the diagonal")
    return Factorization(dps, inc, dps.evaluation, diag)


@dataclass
class FactorizationReport:
    ok: bool
    weak_equiv: object
    fibration: object


def verify_factorization(fz: Factorization, points) -> FactorizationReport:
    """Check the two legs at supplied classical points of the source."""
    pts = [p if isinstance(p, ClassicalPoint)
           else classical_point(fz.weak_equivalence.src, p) for p in points]
    lifted = [tuple(p.coords) * 2 for p in pts]
    weq = is_weak_equivalence(fz.weak_equivalence, pts, lifted)
    fib = is_fibration(fz.fibration, samples=[tuple(p.coords) * 2 for p in pts])
    return FactorizationReport(weq.ok and fib.ok, weq, fib)


# ---------------------------------------------------------------------------
# Homotopy fibered products
# ---------------------------------------------------------------------------


@dataclass
class FiberedProduct:
    bundle: LinftyBundle
    to_left: Morphism
    to_right: Morphism


def _product_morphism(f: Morphism, g: Morphism, dst_product: LinftyBundle,
                      j0: dict, j1: dict) -> Morphism:
    """f x g into an explicitly built product bundle; g's coordinates are
    renamed in the product where they clash with f's."""
    g = rename_source_clear_of(g, f.src.coords, "r")
    src, m1, m2 = product_bundle(f.src, g.src)

    phi_ops: dict[int, MultiOp] = {}
    for fam, mp_in, mp_out in ((f.phi, m1, j0), (g.phi, m2, j1)):
        for k, op in fam.ops.items():
            piece = reindex_op(op, src.fiber, dst_product.fiber, mp_in, mp_out)
            phi_ops[k] = phi_ops[k].plus(piece) if k in phi_ops else piece
    base = tuple(f.base_map) + tuple(g.base_map)
    return Morphism(src, dst_product, base,
                    OpFamily(0, src.fiber, dst_product.fiber, phi_ops))


def homotopy_fibered_product(f: Morphism, g: Morphism) -> FiberedProduct:
    """Pull the path-space evaluation back along f x g.

    Realizes the homotopy fibered product of the two morphisms into their
    shared target as an honest bundle.  to_left and to_right project f x
    g's own source onto its factors, so they land on f.src and g.src
    themselves and compose with f and g.  The legs enter the engine here,
    so f and g are certified here, which is the same as f x g being a
    morphism: its operations vanish on mixed tuples and its fiber family
    is block diagonal.  A leg that fails is named with its defect.  The
    path space and the pullback certify what they build, additivity of
    virtual dimensions included.
    """
    if not _same_target(f.dst, g.dst):
        raise ValueError("the two morphisms must share their target bundle")
    for name, leg in (("f", f), ("g", g)):
        rep = check_morphism(leg)
        if not rep.ok:
            raise AssertionError(f"leg {name} fails the morphism equation:\n{rep.describe()}")
    dps = derived_path_space(f.dst)
    j0, j1 = dps.product_maps
    fg = _product_morphism(f, g, dps.product, j0, j1)
    res = pullback_fibration(dps.evaluation, fg)
    to_left = compose(product_projection(fg.src, f.src, first=True), res.to_other_source)
    to_right = compose(product_projection(fg.src, g.src, first=False), res.to_other_source)
    return FiberedProduct(res.bundle, to_left, to_right)


# ---------------------------------------------------------------------------
# Derived intersections of maps into affine space
# ---------------------------------------------------------------------------


def _plain_map(params, coords, image) -> Morphism:
    """The map params -> affine space on coords given by the image polys."""
    src, dst = plain_bundle(params), plain_bundle(coords)
    base = []
    for p in image:
        pr = p.pruned()
        if not set(pr.vars) <= set(src.coords):
            raise ValueError("map image uses names outside its parameters")
        base.append(pr.with_vars(src.coords))
    return linear_morphism(src, dst, tuple(base), {})


def axis_submanifold(axis: int, m: int) -> Morphism:
    """The line u -> u e_axis in affine m-space."""
    image = tuple(Poly.variable("u") if j == axis else Poly.zero(("u",))
                  for j in range(m))
    return _plain_map(("u",), ambient_coord_names(m), image)


def graph_submanifold(fn: Poly) -> Morphism:
    """Graph of a one-variable polynomial inside the plane: u -> (u, fn(u))."""
    p = fn.substitute({v: Poly.variable("u") for v in fn.vars if v != "u"})
    return _plain_map(("u",), ambient_coord_names(2), (Poly.variable("u"), p))


@dataclass
class IntersectionPoint:
    point: ClassicalPoint          # in the intersection model base
    ambient: tuple[Fraction, ...]  # common image in the ambient space
    h0: int
    h1: int
    transversal: bool


@dataclass
class DerivedIntersection:
    bundle: LinftyBundle
    points: list[IntersectionPoint]
    virtual_dim: int


def ambient_coord_names(m: int) -> tuple[str, ...]:
    return tuple("xyz"[i] if m <= 3 else f"x{i}" for i in range(m))


def derived_intersection(f: Morphism, g: Morphism,
                         points=None) -> DerivedIntersection:
    """Intersection of two maps into affine space through the path space.

    The model is the homotopy fibered product of f and g, and its virtual
    dimension is read from it.  Each classical point of the model is
    reported with its image under f and the cohomology of its tangent
    complex; transversality at a point is vanishing of H^1, which is the
    top cohomology only over affine space, so a target with a nonzero
    fiber is refused.
    """
    if f.dst.fiber.total_dim or g.dst.fiber.total_dim:
        raise ValueError("derived intersections need maps into affine space")
    fp = homotopy_fibered_product(f, g)
    bundle = fp.bundle

    staged = StagedTangent(bundle)
    pts: list[ClassicalPoint] = []
    if points is not None:
        pts = [p if isinstance(p, ClassicalPoint) else staged.classical_point(p)
               for p in points]
    elif len(bundle.coords) <= MAX_SEARCH_COORDS:
        pts = find_classical_points(bundle)[0]

    reports = []
    for p in pts:
        betti = staged.tangent_complex(p).cohomology()
        values = dict(zip(bundle.coords, p.coords))
        params = dict(zip(f.src.coords,
                          (poly.eval(values) for poly in fp.to_left.base_map)))
        amb = tuple(poly.eval(params) for poly in f.base_map)
        reports.append(IntersectionPoint(p, amb, betti.get(0, 0),
                                         betti.get(1, 0),
                                         betti.get(1, 0) == 0))
    return DerivedIntersection(bundle, reports, virtual_dimension(bundle))


# ---------------------------------------------------------------------------
# Zero locus comparison
# ---------------------------------------------------------------------------


@dataclass
class ZeroLocusComparison:
    model: LinftyBundle            # quasi-smooth (base, E, section)
    weak_equiv: object
    points: list[ClassicalPoint]


def zero_locus_model(coords, section, points=None) -> ZeroLocusComparison:
    """Compare a section's quasi-smooth model with its derived zero locus.

    The zero locus is computed as the homotopy fibered product of the zero
    section and the section's graph inside the total space; the comparison
    morphism sends a base point to the corresponding constant parameters
    and a fiber direction to the matching vertical displacement.  Weak
    equivalence is certified at the supplied or discovered classical
    points.
    """
    coords = tuple(coords)
    section = tuple(section)
    m, k = len(coords), len(section)
    fiber = GradedSpace.build({1: k}, labels={1: [f"s{i}" for i in range(k)]})
    lam0 = {}
    for i, p in enumerate(section):
        if p:
            lam0[(1, i)] = p
    model = LinftyBundle(coords, fiber, MultiOp.zero(1, 1, fiber, fiber),
                         OpFamily(1, fiber, fiber,
                                  {0: MultiOp(0, 1, fiber, fiber, {(): lam0})}
                                  if lam0 else {}))

    total = ambient_coord_names(m + k)
    uparams = tuple(f"u{i}" for i in range(m))
    vparams = tuple(f"v{i}" for i in range(m))
    zero_image = tuple(Poly.variable(n, uparams) for n in uparams) + tuple(
        Poly.zero(uparams) for _ in range(k))
    sub_map = {c: Poly.variable(v, vparams) for c, v in zip(coords, vparams)}
    graph_image = tuple(Poly.variable(n, vparams) for n in vparams) + tuple(
        (p.substitute(sub_map) if isinstance(p, Poly) else Poly.constant(p))
        for p in section)

    target = homotopy_fibered_product(_plain_map(uparams, total, zero_image),
                                      _plain_map(vparams, total, graph_image)).bundle

    # fiber directions of the total space sit after the base directions
    comparison = linear_morphism(model, target, tuple(Poly.variable(c) for c in coords) * 2,
                                 {(1, i): {(1, m + i): 1} for i in range(k)})
    if not check_morphism(comparison).ok:
        raise AssertionError("zero-locus comparison is not a morphism")

    if points is not None:
        pts = [p if isinstance(p, ClassicalPoint) else classical_point(model, p)
               for p in points]
    elif m <= MAX_SEARCH_COORDS:
        pts = find_classical_points(model)[0]
    else:
        pts = []
    lifted = [tuple(p.coords) * 2 for p in pts]
    weq = is_weak_equivalence(comparison, pts, lifted)
    return ZeroLocusComparison(model, weq, pts)
