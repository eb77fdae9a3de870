"""Classical loci, tangent complexes, etale maps, fibrations, shifted tangents."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from oracles import (amp2_bundle, bareiss_betti, circle_bundle, eval_literal,
                     find_classical_points_per_polynomial, identity_morphism,
                     least_squares_step_sums, section_bundle, shifted_tangent_tabulated)

import linfty.graded
from linfty import geometry
from linfty.algebra import (LinftyBundle, Morphism, check_mc, check_morphism,
                            compose, linearize_fibration,
                            plain_bundle, product_bundle, product_projection,
                            same_morphism)
from linfty.geometry import (ClassicalPoint, CochainComplex, StagedTangentMap,
                             classical_point, find_classical_points, is_fibration,
                             is_weak_equivalence, mapping_cone,
                             pullback_fibration, shifted_tangent, shifted_tangent_data,
                             tangent_complex, virtual_dimension)
from linfty.graded import GradedSpace, MultiOp, OpFamily
from linfty.linalg import kernel_basis
from linfty.pathspace import _plain_map
from linfty.poly import Poly
from linfty.samples import random_bundle

x = Poly.variable("x")
y = Poly.variable("y")


def square_bundle():
    return section_bundle(("x",), (x ** 2,))


# -- complexes -------------------------------------------------------------------

def test_cochain_complex_with_zero_differential():
    cx = CochainComplex({0: 2, 1: 3}, {})
    assert cx.cohomology() == {0: 2, 1: 3}
    assert cx.euler_characteristic() == -1


def test_cochain_complex_with_identity_differential():
    cx = CochainComplex({0: 2, 1: 2}, {0: [[1, 0], [0, 1]]})
    assert cx.cohomology() == {}
    assert not cx.cohomology()


def test_cochain_complex_rejects_nonzero_composite():
    with pytest.raises(ValueError):
        CochainComplex({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})


def test_cochain_complex_proves_d_squared_zero_exactly():
    """Composites that vanish by cancellation pass, one changed entry fails."""
    rng = random.Random(5)
    seen = {"passed": 0, "rejected": 0}
    for _ in range(60):
        n0, n1, n2 = rng.randint(1, 4), rng.randint(2, 5), rng.randint(1, 4)
        d0 = [[Fraction(rng.choice([0, 0, rng.randint(-3, 3)]), rng.randint(1, 3))
               for _ in range(n0)] for _ in range(n1)]
        left = kernel_basis([list(col) for col in zip(*d0)], cols=n1)
        if not left:
            continue
        d1 = [[sum((c * v[r] for c, v in zip(coeffs, left)), Fraction(0)) for r in range(n1)]
              for coeffs in ([rng.randint(-2, 2) for _ in left] for _ in range(n2))]
        if rng.random() < 0.5:
            d1[rng.randrange(n2)][rng.randrange(n1)] += 1
        nonzero = any(sum(d1[i][r] * d0[r][j] for r in range(n1))
                      for i in range(n2) for j in range(n0))
        if nonzero:
            with pytest.raises(ValueError, match="d.d != 0 between degrees 0 and 2"):
                CochainComplex({0: n0, 1: n1, 2: n2}, {0: d0, 1: d1})
        else:
            CochainComplex({0: n0, 1: n1, 2: n2}, {0: d0, 1: d1})
        seen["rejected" if nonzero else "passed"] += 1
    assert min(seen.values()) >= 10, seen


def test_cochain_complex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CochainComplex({0: 2, 1: 1}, {0: [[1]]})


def test_rank_methods_agree_on_random_complexes():
    """Row-reduction Betti numbers equal the fraction-free Bareiss ones."""
    rng = random.Random(12)
    for _ in range(10):
        n0, n1 = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[Fraction(rng.randint(-3, 3)) for _ in range(n0)]
               for _ in range(n1)]
        cx = CochainComplex({0: n0, 1: n1}, {0: mat})
        assert cx.cohomology() == bareiss_betti(cx)
    for _ in range(10):
        n0, n1 = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n0)]
               for _ in range(n1)]
        cx = CochainComplex({0: n0, 1: n1}, {0: mat})
        assert cx.cohomology() == bareiss_betti(cx)


def test_euler_characteristic_matches_betti_alternation():
    rng = random.Random(21)
    for _ in range(6):
        n0, n1 = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[Fraction(rng.randint(-2, 2)) for _ in range(n0)]
               for _ in range(n1)]
        cx = CochainComplex({0: n0, 1: n1}, {0: mat})
        betti = cx.cohomology()
        assert cx.euler_characteristic() == betti.get(0, 0) - betti.get(1, 0)


def test_mapping_cone_of_identity_is_acyclic():
    cx = CochainComplex({0: 2, 1: 1}, {0: [[1, 2]]})
    cone = mapping_cone({0: [[1, 0], [0, 1]], 1: [[1]]}, cx, cx)
    assert not cone.cohomology()
    assert bareiss_betti(cone) == {}


# -- classical locus ----------------------------------------------------------------

def test_classical_point_accepts_zeros_of_the_curvature():
    b = square_bundle()
    assert classical_point(b, (0,)).coords == (Fraction(0),)
    with pytest.raises(ValueError, match="residual 4"):
        classical_point(b, (2,))


def test_classical_point_rejects_other_points():
    with pytest.raises(ValueError):
        classical_point(square_bundle(), (1,))


def test_find_classical_points_two_simple_roots():
    b = section_bundle(("x",), (x ** 2 - 1,))
    exact, loose = find_classical_points(b)
    assert [p.coords for p in exact] == [(-1,), (1,)]
    assert loose == []


@pytest.mark.parametrize("section, exact_coords, loose", [
    # an iterate beyond the float range of x^60 is dropped, not raised on
    (x ** 60 + 1, [], []),
    (x ** 60 - 1, [(-1,), (1,)], []),
    (x ** 56 - 3, [], [(-1.019811775641927,), (1.0198117756419274,)]),
    ((x ** 2 + 1) ** 30, [], []),
], ids=["x^60+1", "x^60-1", "x^56-3", "(x^2+1)^30"])
def test_find_classical_points_on_sections_of_high_degree(section, exact_coords, loose):
    found, near = find_classical_points(section_bundle(("x",), (section,)))
    assert [p.coords for p in found] == exact_coords
    assert near == loose


def test_find_classical_points_snaps_double_root():
    exact, loose = find_classical_points(square_bundle())
    assert [p.coords for p in exact] == [(0,)]
    assert loose == []


def test_find_classical_points_on_a_circle_returns_rational_hits_only():
    b = section_bundle(("x", "y"), (x ** 2 + y ** 2 - 1,))
    exact, _ = find_classical_points(b)
    for p in exact:
        assert classical_point(b, p.coords) == p


def test_near_repeats_are_dropped_as_by_the_pairwise_rule():
    def pairwise(points):
        kept = []
        for pt in points:
            if not any(all(abs(a - b) < 1e-6 for a, b in zip(pt, q)) for q in kept):
                kept.append(pt)
        return kept

    rng = random.Random(2307)
    offsets = (0.0, 0.4e-6, 0.99e-6, 1e-6, 1.01e-6, 1.9e-6, 2e-6, 3.1e-6)
    seen = {"dropped": 0, "near but kept": 0}
    for m in (1, 2, 3):
        for _ in range(60):
            points = []
            for _ in range(rng.randint(1, 6)):
                # cluster centres on cell edges, inside the box and far out
                centre = [rng.choice([rng.randint(-5, 5) * 2e-6, rng.uniform(-3, 3),
                                      rng.choice([-1, 1]) * (1e6 - rng.random())])
                          for _ in range(m)]
                for _ in range(rng.randint(1, 4)):
                    points.append(tuple(c + rng.choice((-1, 1)) * rng.choice(offsets)
                                        for c in centre))
            rng.shuffle(points)
            want = pairwise(points)
            assert geometry._drop_near_repeats(points) == want
            seen["dropped"] += len(points) - len(want)
            seen["near but kept"] += sum(
                all(abs(a - b) < 4e-6 for a, b in zip(p, q))
                for i, p in enumerate(want) for q in want[i + 1:])
    assert min(seen.values()) >= 20, seen


def test_find_classical_points_differentiates_each_component_once(monkeypatch):
    calls = []
    diff = Poly.diff
    monkeypatch.setattr(Poly, "diff", lambda self, name: calls.append(name) or diff(self, name))
    b = section_bundle(("x", "y"), (x ** 2 + y ** 2 - 1, x - y, x * y))
    find_classical_points(b)
    assert sorted(calls) == ["x"] * 3 + ["y"] * 3


def test_find_classical_points_stages_each_polynomial_once(monkeypatch):
    builds, diffs, steps = [], [], []
    stage, diff, step = geometry.stage, Poly.diff, geometry._least_squares_step
    monkeypatch.setattr(geometry, "stage", lambda polys, coords: builds.append(polys)
                        or stage(polys, coords))
    monkeypatch.setattr(Poly, "diff", lambda self, name: diffs.append(name)
                        or diff(self, name))
    monkeypatch.setattr(geometry, "_least_squares_step", lambda *a: steps.append(a)
                        or step(*a))
    b = section_bundle(("x", "y"), (x ** 2 + y ** 2 - 2 * x, x - y, x * y))
    exact, _ = find_classical_points(b)
    assert exact == [ClassicalPoint((0, 0))]
    assert len(steps) > 49
    # one kernel for the components and the Jacobian entries, however many
    # Newton steps ran and however many candidates the exact promotion checks
    assert len(builds) == 1 and len(builds[0]) == 3 + 3 * 2
    assert sorted(diffs) == ["x"] * 3 + ["y"] * 3


def test_newton_floats_are_the_exact_values_rounded_once():
    rng = random.Random(2307)
    coords = ("x", "y", "z")
    polys = [Poly(coords, {tuple(rng.randint(0, 3) for _ in coords):
                           Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                           for _ in range(rng.randint(1, 6))})
             for _ in range(40)]
    kernel = geometry.stage(polys, coords)
    for _ in range(20):
        pt = [rng.uniform(-3, 3) for _ in coords]
        values = {n: Fraction(v) for n, v in zip(coords, pt)}
        nums, den = kernel([v.as_integer_ratio() for v in pt])
        assert [num / den for num in nums] == [float(eval_literal(p, values)) for p in polys]


def random_section(rng, coords):
    """A curvature component over coords: a product of rational affine
    factors, so that it has rational zeros, or a square plus a random
    multilinear polynomial."""
    if rng.random() < 0.5:
        out = Poly.constant(rng.choice([1, -1, 2, Fraction(1, 3)]))
        for _ in range(rng.randint(1, 2)):
            v = Poly.variable(rng.choice(coords), coords)
            out = out * (v - Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 4])))
        return out
    multilinear = Poly(coords, {tuple(rng.randint(0, 1) for _ in coords):
                                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                for _ in range(rng.randint(1, 4))})
    return multilinear + Poly.variable(rng.choice(coords), coords) ** 2


def test_find_classical_points_matches_the_per_polynomial_search():
    rng = random.Random(2307)
    z = Poly.variable("z")
    named = [(("x",), (x ** 2 + 1,)),                   # no real zero
             (("x",), ((x - 1) ** 2,)),                 # a double root
             (("x", "y"), (Poly.constant(3),)),         # a constant nonzero section
             (("x",), (x ** 2 - 4,)),                   # the grid seed 0 has J = 0
             (("x",), ((10 ** 8 * x - 1) * (x - 1),)),  # last steps below 1e-12
             (("x", "y"), (x * y - 1, x ** 2 - 2)),     # irrational zeros only
             (("x", "y", "z"), (x * y, y - z, (z - 1) ** 2))]
    cases = list(named)
    # a 3-coordinate search costs most: a seed that does not converge runs
    # all its steps, and the per-polynomial search never stops it early
    for m, count in ((1, 30), (2, 24), (3, 8)):
        coords = ("x", "y", "z")[:m]
        for _ in range(count):
            cases.append((coords, tuple(random_section(rng, coords)
                                        for _ in range(rng.randint(1, m)))))
    seen = Counter()
    for coords, sections in cases:
        b = section_bundle(coords, sections)
        exact, loose = find_classical_points(b)
        want_exact, want_loose = find_classical_points_per_polynomial(b)
        assert exact == want_exact
        assert ([[v.hex() for v in p] for p in loose]
                == [[v.hex() for v in p] for p in want_loose])
        seen["exact"] += bool(exact)
        seen["loose"] += bool(loose)
        seen["none"] += not exact and not loose
    assert len(cases) >= 60 and min(seen.values()) >= 5, seen


def test_a_search_stops_each_stalled_seed_after_one_step(monkeypatch):
    steps = []
    step = geometry._least_squares_step
    monkeypatch.setattr(geometry, "_least_squares_step", lambda *a: steps.append(a)
                        or step(*a))
    # J = 0 everywhere: every seed's step is zero, once per seed of the 7 x 7 grid
    assert find_classical_points(section_bundle(("x", "y"), (Poly.constant(1),))) == ([], [])
    assert len(steps) == 49


def test_the_least_squares_step_sums_left_to_right():
    # 1e16 + 1 rounds to 1e16, so J^T f is 0.0 left to right; a compensated
    # sum would keep the 1 and give a nonzero step
    assert geometry._least_squares_step([[1e8], [1.0], [-1e8]], [1e8, 1.0, 1e8], 1) == [0.0]
    rng = random.Random(2307)
    for _ in range(300):
        m = rng.randint(1, 3)
        jm = [[rng.choice([0.0, -0.0, 1e-8, rng.uniform(-5, 5)]) for _ in range(m)]
              for _ in range(rng.randint(1, 4))]
        fv = [rng.uniform(-5, 5) for _ in jm]
        got = geometry._least_squares_step(jm, fv, m)
        want = least_squares_step_sums(jm, fv, m)
        assert got == want and (got is None or [v.hex() for v in got] == [v.hex() for v in want])

# -- tangent complex -------------------------------------------------------------------

def test_tangent_complex_of_the_squared_function():
    b = square_bundle()
    cx = tangent_complex(b, classical_point(b, (0,)))
    assert cx.dims == {0: 1, 1: 1}
    assert cx.cohomology() == {0: 1, 1: 1}


def test_tangent_complex_of_a_simple_zero_is_acyclic():
    b = section_bundle(("x",), (x,))
    cx = tangent_complex(b, classical_point(b, (0,)))
    assert not cx.cohomology()


def test_tangent_complex_on_the_circle():
    b = section_bundle(("x", "y"), (x ** 2 + y ** 2 - 1,))
    cx = tangent_complex(b, classical_point(b, (1, 0)))
    assert cx.cohomology() == {0: 1}
    assert virtual_dimension(b) == 1


def test_rank_oracle_agrees_on_tangent_complexes_and_cones():
    complexes = []
    for coords, sections, point in ((("x",), (x ** 2,), (0,)),
                                    (("x",), (x,), (0,)),
                                    (("x", "y"), (x ** 2 + y ** 2 - 1,), (1, 0)),
                                    (("x", "y"), (x * y,), (0, 0))):
        b = section_bundle(coords, sections)
        complexes.append(tangent_complex(b, classical_point(b, point)))
    b = square_bundle()
    src_cx, dst_cx, maps = StagedTangentMap(identity_morphism(b)).tangent_map(
        classical_point(b, (0,)))
    complexes.append(mapping_cone(maps, src_cx, dst_cx))
    cx = CochainComplex({0: 2, 1: 1}, {0: [[1, 2]]})
    complexes.append(mapping_cone({0: [[1, 0], [0, 1]], 1: [[1]]}, cx, cx))
    for cx in complexes:
        assert cx.cohomology() == bareiss_betti(cx)


def test_curvature_derivative_rows():
    # the Jacobian is the degree-zero differential: rows over the degree-one
    # fiber basis, columns over base coordinates, dropped when it vanishes
    b = square_bundle()
    assert 0 not in tangent_complex(b, classical_point(b, (0,))).diffs
    c = section_bundle(("x", "y"), (x ** 2 + y - 1,))
    assert tangent_complex(c, classical_point(c, (0, 1))).diffs[0] == [[0, 1]]


def test_tangent_complex_includes_fiber_differential():
    rng = random.Random(31)
    b = random_bundle(rng, ("x",), amplitude=3, max_dim=2)
    exact, _ = find_classical_points(b)
    assert exact, "the point search lost the rational points of a fixed draw"
    cx = tangent_complex(b, exact[0])
    assert cx.euler_characteristic() == virtual_dimension(b)


# -- virtual dimension --------------------------------------------------------------------

def test_virtual_dimension_formulas():
    assert virtual_dimension(plain_bundle(("x", "y", "z"))) == 3
    assert virtual_dimension(square_bundle()) == 0
    fiber = GradedSpace.build({1: 2, 2: 3})
    amp2 = LinftyBundle(("x",), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {}))
    assert virtual_dimension(amp2) == 1 - 2 + 3


# -- etale and weak equivalence ----------------------------------------------------------

def test_identity_is_etale():
    b = square_bundle()
    rep = StagedTangentMap(identity_morphism(b)).is_etale_at(classical_point(b, (0,)))
    assert rep.ok and rep.cone_betti == {}


def test_identity_is_a_weak_equivalence():
    b = square_bundle()
    rep = is_weak_equivalence(identity_morphism(b), [(0,)], [(0,)])
    assert rep.ok and rep.bijection_ok
    assert rep.note == ("certified on the supplied candidate loci only; "
                        "global statements need a complete point list")


def test_weak_equivalence_rejects_point_count_mismatch():
    # the empty locus of x^2 + 1 against a single point downstairs
    b = section_bundle(("x",), (x ** 2 + 1,))
    pt = plain_bundle(())
    m = Morphism(b, pt, (), OpFamily(0, b.fiber, pt.fiber, {}))
    rep = is_weak_equivalence(m, [], [()])
    assert not rep.ok and not rep.bijection_ok


def test_weak_equivalence_rejects_non_etale_map():
    # fold map x -> x^2 between two copies of the line
    src = plain_bundle(("x",))
    dst = plain_bundle(("z",))
    m = Morphism(src, dst, (x ** 2,), OpFamily(0, src.fiber, dst.fiber, {}))
    rep = is_weak_equivalence(m, [(0,)], [(0,)])
    assert rep.bijection_ok and not rep.ok
    assert not rep.etale[0].ok


def test_weak_equivalence_certifies_every_point_it_is_given():
    b = square_bundle()
    m = identity_morphism(b)
    for src, dst in (([(1,)], [(0,)]), ([(0,)], [(0,), (1,)])):
        with pytest.raises(ValueError, match="curvature does not vanish"):
            is_weak_equivalence(m, src, dst)
    # a source point whose image is not classical downstairs
    shift = Morphism(b, b, (x + 1,), OpFamily.identity(b.fiber))
    with pytest.raises(ValueError, match=r"curvature does not vanish there \(residual 1\)"):
        is_weak_equivalence(shift, [classical_point(b, (0,))], [])


def test_two_out_of_three_on_a_concrete_triple():
    # scaling followed by scaling: all three maps are weak equivalences
    b = plain_bundle(("x",))
    c = plain_bundle(("z",))
    f = Morphism(b, c, (2 * x,), OpFamily(0, b.fiber, c.fiber, {}))
    g = Morphism(c, b, (Fraction(1, 2) * Poly.variable("z"),),
                 OpFamily(0, c.fiber, b.fiber, {}))
    h = compose(g, f)
    pts = [(0,)]
    assert is_weak_equivalence(f, pts, pts).ok
    assert is_weak_equivalence(g, pts, pts).ok
    assert is_weak_equivalence(h, pts, pts).ok


# -- fibrations -------------------------------------------------------------------------

def test_projection_to_a_point_is_a_fibration():
    b = square_bundle()
    pt = plain_bundle(())
    m = Morphism(b, pt, (), OpFamily(0, b.fiber, pt.fiber, {}))
    assert is_fibration(m, samples=[(0,)]).ok


def test_point_into_the_line_is_not_a_fibration():
    pt = plain_bundle(())
    line = plain_bundle(("x",))
    m = Morphism(pt, line, (Poly.constant(0),), OpFamily(0, pt.fiber, line.fiber, {}))
    rep = is_fibration(m, samples=[()])
    assert not rep.ok and not rep.submersion_ok
    assert rep.note == "rank conditions checked at the supplied sample points"


def test_product_projection_is_a_fibration():
    rng = random.Random(44)
    a = random_bundle(rng, ("x",), coeff_degree=1)
    b = random_bundle(rng, ("y",), coeff_degree=1)
    prod, _, _ = product_bundle(a, b)
    m = product_projection(prod, a, first=True)
    assert is_fibration(m, samples=[(0, 0)]).ok


def test_fibration_without_samples_is_never_vacuous():
    # a non-affine base map with no sample point: nothing was checked
    fold = Morphism(plain_bundle(("x",)), plain_bundle(("y",)), (x ** 2,),
                    OpFamily(0, GradedSpace.build({}), GradedSpace.build({}), {}))
    rep = is_fibration(fold)
    assert not rep.ok and not rep.submersion_ok
    assert "no point was checked" in rep.note
    # an affine base map has a constant Jacobian, checked exactly
    src, dst = plain_bundle(("x", "y")), plain_bundle(("z",))
    proj = Morphism(src, dst, (x + y,), OpFamily(0, src.fiber, dst.fiber, {}))
    rep = is_fibration(proj)
    assert rep.ok and "checked exactly" in rep.note
    pt = plain_bundle(())
    into = Morphism(pt, dst, (Poly.constant(0),), OpFamily(0, pt.fiber, dst.fiber, {}))
    rep = is_fibration(into)
    assert not rep.ok and not rep.submersion_ok


def plane_onto_line():
    """(x, y) with curvature (x^2, xy) projected onto u with curvature u^2."""
    u = Poly.variable("u")
    fib_m = GradedSpace.build({1: 2}, labels={1: ["l0", "l1"]})
    m = LinftyBundle(("x", "y"), fib_m, MultiOp.zero(1, 1, fib_m, fib_m),
                     OpFamily(1, fib_m, fib_m, {0: MultiOp(0, 1, fib_m, fib_m, {
                         (): {(1, 0): x * x, (1, 1): x * y}})}))
    fib_n = GradedSpace.build({1: 1}, labels={1: ["eps"]})
    n = LinftyBundle(("u",), fib_n, MultiOp.zero(1, 1, fib_n, fib_n),
                     OpFamily(1, fib_n, fib_n, {0: MultiOp(0, 1, fib_n, fib_n, {
                         (): {(1, 0): u * u}})}))
    phi1 = MultiOp(1, 0, fib_m, fib_n, {((1, 0),): {(1, 0): Fraction(1)}})
    return Morphism(m, n, (x,), OpFamily(0, fib_m, fib_n, {1: phi1}))


def test_plane_onto_line_is_a_fibration_and_linearizes():
    p = plane_onto_line()
    assert check_morphism(p).ok
    assert is_fibration(p, samples=[(0, 0), (1, 2)]).ok
    lin = linearize_fibration(p)
    assert check_morphism(lin.iso).ok and check_morphism(lin.linear).ok
    assert compose(lin.linear, lin.iso).phi == p.phi


def test_pullback_of_a_fibration_along_a_non_affine_map():
    # w -> w^2 with curvature w^4 over the line, against the plane projection
    p = plane_onto_line()
    w = Poly.variable("w")
    fib_w = GradedSpace.build({1: 1}, labels={1: ["m0"]})
    src = LinftyBundle(("w",), fib_w, MultiOp.zero(1, 1, fib_w, fib_w),
                       OpFamily(1, fib_w, fib_w, {0: MultiOp(0, 1, fib_w, fib_w, {
                           (): {(1, 0): w ** 4}})}))
    psi1 = MultiOp(1, 0, fib_w, p.dst.fiber, {((1, 0),): {(1, 0): Fraction(1)}})
    f = Morphism(src, p.dst, (w * w,), OpFamily(0, fib_w, p.dst.fiber, {1: psi1}))
    assert check_morphism(f).ok
    pb = pullback_fibration(p, f)
    assert check_mc(pb.bundle).ok
    want = virtual_dimension(p.src) + virtual_dimension(src) - virtual_dimension(p.dst)
    assert virtual_dimension(pb.bundle) == want


def test_fibration_rejects_rank_jumps():
    # fiber map scaled by the base coordinate drops rank at x = 0
    b = square_bundle()
    phi1 = MultiOp(1, 0, b.fiber, b.fiber, {((1, 0),): {(1, 0): x}})
    m = Morphism(b, b, (Poly.variable("x"),),
                 OpFamily(0, b.fiber, b.fiber, {1: phi1}))
    with pytest.raises(ValueError):
        is_fibration(m, samples=[(0,), (1,)])


# -- pullbacks of fibrations ----------------------------------------------------------------

def test_pullback_of_plane_submersions():
    r2 = plain_bundle(("u1", "u2"))
    r2b = plain_bundle(("v1", "v2"))
    r1 = plain_bundle(("z",))
    f = Morphism(r2, r1, (Poly.variable("u1"),), OpFamily(0, r2.fiber, r1.fiber, {}))
    g = Morphism(r2b, r1, (Poly.variable("v1"),), OpFamily(0, r2b.fiber, r1.fiber, {}))
    pb = pullback_fibration(f, g)
    assert virtual_dimension(pb.bundle) == 3
    assert check_mc(pb.bundle).ok
    assert check_morphism(pb.to_fibration_source).ok
    assert check_morphism(pb.to_other_source).ok
    # the two legs agree after mapping down to the shared target
    left = compose(f, pb.to_fibration_source)
    right = compose(g, pb.to_other_source)
    assert left.base_map == right.base_map


def test_pullback_along_a_point_recovers_the_fiber():
    b = square_bundle()
    pt = plain_bundle(())
    fib = Morphism(b, pt, (), OpFamily(0, b.fiber, pt.fiber, {}))
    other = identity_morphism(pt)
    pb = pullback_fibration(fib, other)
    assert virtual_dimension(pb.bundle) == virtual_dimension(b)
    assert check_morphism(pb.to_fibration_source).ok


def test_pullback_of_a_weak_equivalence_along_a_fibration():
    # pulling the identity back along a product projection stays a weak
    # equivalence at the supplied points
    r2 = plain_bundle(("u1", "u2"))
    r1 = plain_bundle(("z",))
    f = Morphism(r2, r1, (Poly.variable("u1"),), OpFamily(0, r2.fiber, r1.fiber, {}))
    w = identity_morphism(r1)
    pb = pullback_fibration(f, w)
    assert is_weak_equivalence(pb.to_fibration_source,
                               [(0, 0)], [(0, 0)]).ok


def test_pullback_solves_the_other_leg_when_only_it_is_affine():
    u = Poly.variable("u")
    fib = _plain_map(("x", "y"), ("t",), (x + y * y,))
    other = _plain_map(("u",), ("t",), (2 * u + 1,))
    pb = pullback_fibration(fib, other)
    assert pb.bundle.coords == ("x", "y")
    assert pb.to_fibration_source.base_map == (x, y)
    half = Fraction(1, 2)
    assert pb.to_other_source.base_map == (half * x + half * y * y - half,)
    assert check_morphism(pb.to_fibration_source).ok
    assert check_morphism(pb.to_other_source).ok


def test_pullback_renames_a_shared_coordinate_of_the_other_leg():
    fib = _plain_map(("x",), ("t",), (x,))
    other = _plain_map(("x",), ("t",), (x * x,))
    pb = pullback_fibration(fib, other)
    # the rename stays inside the pullback: its leg lands on other.src itself
    assert pb.to_other_source.dst is other.src
    assert pb.to_other_source.base_map == (Poly.variable("x_b"),)
    assert pb.bundle.coords == ("x_b",)
    assert pb.to_fibration_source.base_map == (Poly.variable("x_b") ** 2,)
    assert same_morphism(compose(other, pb.to_other_source),
                         compose(fib, pb.to_fibration_source))


def test_pullback_needs_an_affine_leg():
    u = Poly.variable("u")
    fib = _plain_map(("x",), ("t",), (x * x,))
    other = _plain_map(("u",), ("t",), (u * u,))
    with pytest.raises(ValueError, match="need an affine base map on one side to form the graph"):
        pullback_fibration(fib, other)


# -- shifted tangent bundle ------------------------------------------------------------------

def test_shifted_tangent_of_a_plain_manifold():
    st = shifted_tangent(plain_bundle(("x", "y")))
    assert st.fiber.dims == {1: 2}
    assert all(st.fiber.dt[d][i] for d, i in st.fiber.keys())
    assert st.ops.is_zero() or all(st.ops.op(k).is_zero() for k in st.ops.arities())
    assert check_mc(st).ok


def test_shifted_tangent_of_the_squared_function():
    st = shifted_tangent(square_bundle())
    assert st.fiber.dims == {1: 2, 2: 1}
    assert check_mc(st).ok
    # tangent direction dx dt maps to 2x e dt under the derived bracket
    assert st.ops.op(1).coeffs == {((1, 0),): {(2, 0): 2 * x}}
    # original curvature rides along on the undifferentiated copy
    assert st.ops.op(0).coeffs == {(): {(1, 1): x ** 2}}


def test_shifted_tangent_of_an_amplitude_two_model():
    fiber = GradedSpace.build({1: 1, 2: 1}, labels={1: ["e"], 2: ["f"]})
    lam1 = MultiOp(1, 1, fiber, fiber, {((1, 0),): {(2, 0): x}})
    lam2 = MultiOp(2, 1, fiber, fiber, {((1, 0), (1, 0)): {(2, 0): y}})
    amp2 = LinftyBundle(("x", "y"), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {1: lam1, 2: lam2}))
    assert check_mc(amp2).ok
    assert check_mc(shifted_tangent(amp2)).ok


def test_shifted_tangent_doubles_the_virtual_dimension_count():
    rng = random.Random(77)
    b = random_bundle(rng, ("x", "y"))
    st = shifted_tangent(b)
    assert check_mc(st).ok
    assert virtual_dimension(st) == 0


@pytest.mark.parametrize("amplitude", [3, 4, 5])
def test_shifted_tangent_is_flat_at_higher_amplitude(amplitude):
    """A shifted fiber input after inputs of odd total degree carries the
    Koszul sign of moving its underlying vector to the front; at amplitude
    3 and up the random draws reach such tuples (seeds 9, 12, 17, 27, 30
    and 34 at amplitude 3 fail without that sign)."""
    bad = [s for s in range(40)
           if not check_mc(shifted_tangent(random_bundle(
               random.Random(s), ("x", "y"), amplitude=amplitude))).ok]
    assert bad == []


def shifted_tangent_draws():
    """Four fixture bundles and 116 seeded draws.  Amplitude 5 is the least
    at which an entry of ell repeats an even key: two degree-2 inputs
    already land in degree 5."""
    yield from (square_bundle(), circle_bundle(), amp2_bundle(), plain_bundle(("x", "y")))
    for coords, amplitudes, seeds in ((("x", "y"), (2, 3), 40), (("x",), (4,), 10),
                                      (("x", "y", "z"), (3, 4), 8), (("x", "y"), (5,), 10)):
        for a in amplitudes:
            for s in range(seeds):
                yield random_bundle(random.Random(s), coords, amplitude=a)


def shifted_tangent_terms(bundle, data):
    """The kinds of term among data's entries that the construction writes
    differently, each traced back to its entry of ell."""
    ell = bundle.total()
    base = set(data.base_dt.values())
    dt = {v: k for k, v in data.fiber_dt.items()}
    plain = {v: k for k, v in data.fiber_plain.items()}
    if any(isinstance(c, Poly) for op in ell.ops.values()
           for w in op.coeffs.values() for c in w.values()):
        yield "Poly coefficient"
    for n, op in data.ops.ops.items():
        for tup, vec in op.coeffs.items():
            if tup and tup[0] in base:
                if n == 1:
                    yield "curvature derivative"
                if sum(k[0] for k in tup[1:]) % 2:
                    yield "base dt after odd |S|"
            for key in (k for k in tup if k in dt):
                v, rest = dt[key], [plain[k] for k in tup if k != key]
                w = ell.op(n).coeffs[tuple(sorted(rest + [v]))]
                if vec == {data.fiber_dt[q]: -c for q, c in w.items()}:
                    yield "fiber dt with its sign flipped"
                if v in rest:
                    yield "even key repeated in S"


def test_shifted_tangent_is_the_tabulation():
    """The operations written from ell's entries equal the tabulation over
    every canonical tuple, tuples and output keys in the same order."""
    def listed(data):
        return [(n, [(tup, [(q, type(c), c) for q, c in vec.items()])
                     for tup, vec in op.coeffs.items()])
                for n, op in data.ops.ops.items()]

    bundles = list(shifted_tangent_draws())
    assert len(bundles) == 120
    seen = Counter()
    for b in bundles:
        got, want = shifted_tangent_data(b), shifted_tangent_tabulated(b)
        assert (got.space, got.base_dt, got.fiber_dt, got.fiber_plain) == (
            want.space, want.base_dt, want.fiber_dt, want.fiber_plain)
        assert listed(got) == listed(want)
        seen.update(shifted_tangent_terms(b, got))
    assert len(seen) == 5 and min(seen.values()) >= 5, seen


def test_shifted_tangent_tabulates_no_canonical_tuple(monkeypatch):
    bundles = [square_bundle(), amp2_bundle(),
               random_bundle(random.Random(6), ("x", "y"), amplitude=5)]
    want = [shifted_tangent_tabulated(b).ops for b in bundles]

    def forbidden(*args, **kwargs):
        raise AssertionError("the shifted tangent walked the canonical tuples")

    monkeypatch.setattr(linfty.graded, "canonical_tuples", forbidden)
    monkeypatch.setattr(linfty.graded.MultiOp, "from_function", classmethod(forbidden))
    for b, ops in zip(bundles, want):
        assert shifted_tangent_data(b).ops == ops


def test_shifted_tangent_differentiates_each_coefficient_once_per_coordinate(monkeypatch):
    calls = []
    diff = Poly.diff
    monkeypatch.setattr(Poly, "diff", lambda self, name: calls.append(name) or diff(self, name))
    for b in (square_bundle(), amp2_bundle(),
              random_bundle(random.Random(3), ("x", "y", "z"), amplitude=4)):
        polys = sum(isinstance(c, Poly) for op in b.total().ops.values()
                    for w in op.coeffs.values() for c in w.values())
        calls.clear()
        shifted_tangent_data(b)
        assert polys and Counter(calls) == {name: polys for name in b.coords}


def test_tangent_map_shapes():
    b = square_bundle()
    m = identity_morphism(b)
    src_cx, dst_cx, maps = StagedTangentMap(m).tangent_map(classical_point(b, (0,)))
    assert src_cx.dims == dst_cx.dims == {0: 1, 1: 1}
    assert maps[0] == [[1]]
