"""Factor the diagonal of the double point {x^2 = 0} through its path space.

Builds the quasi-smooth model (R, rank-1 fiber, section x^2), runs the
diagonal factorization, and prints the two legs with their certificates:
the inclusion of constant paths is a weak equivalence at the classical
point, evaluation at both ends is a fibration.

Run:  python3 scripts/factorize_square.py
"""

from fractions import Fraction

from linfty.algebra import LinftyBundle, check_mc
from linfty.geometry import virtual_dimension
from linfty.graded import GradedSpace, MultiOp, OpFamily
from linfty.pathspace import factorize_diagonal, verify_factorization
from linfty.poly import Poly


def main():
    x = Poly.variable("x")
    fiber = GradedSpace.build({1: 1}, labels={1: ["e"]})
    lam0 = MultiOp(0, 1, fiber, fiber, {(): {(1, 0): x ** 2}})
    bundle = LinftyBundle(("x",), fiber, MultiOp.zero(1, 1, fiber, fiber),
                          OpFamily(1, fiber, fiber, {0: lam0}))
    print("source model: base", bundle.coords, "fiber ranks",
          dict(bundle.fiber.dims), "vdim", virtual_dimension(bundle))

    fz = factorize_diagonal(bundle)
    ps = fz.path_space.bundle
    print("path space:   base", ps.coords, "fiber ranks", dict(ps.fiber.dims),
          "amplitude", ps.amplitude, "vdim", virtual_dimension(ps))
    assert check_mc(ps).ok

    rep = verify_factorization(fz, [(Fraction(0),)])
    print("inclusion leg:", "weak equivalence" if rep.weak_equiv.ok else "FAILS")
    for e in rep.weak_equiv.etale:
        label = "acyclic" if e.ok else str(e.cone_betti)
        print(f"  cone at {tuple(e.point.coords)}: {label}")
    print("  note:", rep.weak_equiv.note)
    print("evaluation leg:", "fibration" if rep.fibration.ok else "FAILS")
    print("  linear ranks:", dict(sorted(rep.fibration.ranks.items())))
    print("  note:", rep.fibration.note)
    print("composite equals the diagonal: certified during construction")
    return 0 if rep.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
