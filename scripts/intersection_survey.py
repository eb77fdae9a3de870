"""Small survey of derived intersections in the plane.

Three classical situations, one table each:
  * two coordinate axes (transversal, the intersection is a point),
  * the x-axis against the parabola y = x^2 (tangential: H^0 = H^1 = 1,
    virtual dimension still 0),
  * the derived critical locus of x^3/3, i.e. the zero locus of x^2,
    compared against the graph intersection it abbreviates.

Run:  python3 scripts/intersection_survey.py
"""

from linfty.pathspace import (axis_submanifold, derived_intersection,
                              graph_submanifold, zero_locus_model)
from linfty.poly import Poly


def show(title, inter):
    print(title)
    print("  virtual dimension:", inter.virtual_dim)
    if not inter.points:
        print("  no classical points")
    for p in inter.points:
        flavor = "transversal" if p.transversal else "non-transversal"
        print(f"  point {p.ambient}: H^0 = {p.h0}, H^1 = {p.h1} ({flavor})")
    print()


def main():
    u = Poly.variable("u")
    show("x-axis against y-axis",
         derived_intersection(axis_submanifold(0, 2), axis_submanifold(1, 2)))
    show("x-axis against the parabola y = u^2",
         derived_intersection(axis_submanifold(0, 2), graph_submanifold(u * u)))

    x = Poly.variable("x")
    cmp = zero_locus_model(("x",), [x ** 2])
    print("derived critical locus of x^3/3 (section x^2)")
    print("  classical points:", [tuple(p.coords) for p in cmp.points])
    verdict = ("not checked" if not cmp.weak_equiv.pairs
               else "weak equivalence" if cmp.weak_equiv.ok else "FAILS")
    print("  graph comparison:", verdict)
    print("  note:", cmp.weak_equiv.note)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
