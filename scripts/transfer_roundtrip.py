"""Transfer a random curved structure two ways and round-trip it to JSON.

Samples a contraction and a compatible perturbation, runs the fixed-point
transfer and the tree-sum transfer, and checks the outputs agree exactly;
checks that the extended projection is a morphism onto the transferred
structure and a left inverse of the inclusion; then serializes the
transferred structure and reads it back unchanged.

Run:  python3 scripts/transfer_roundtrip.py [seed]
"""

import json
import random
import sys

from linfty.algebra import LinftyBundle, Morphism, check_mc, check_morphism
from linfty.graded import OpFamily, bullet
from linfty.modelio import bundle_from_json, bundle_to_json, dumps
from linfty.samples import random_transfer_instance
from linfty.transfer import projection_morphism, transfer, transfer_trees


def main(argv):
    seed = int(argv[1]) if len(argv) > 1 else 31
    rng = random.Random(seed)
    con, lam = random_transfer_instance(rng, amplitude=3, max_dim=4)
    print("ambient ranks:", dict(con.space.dims),
          "-> retract ranks:", dict(con.h_space.dims))
    print("perturbation arities:", lam.arities())

    res = transfer(con, lam)
    via_trees = transfer_trees(con, lam)
    assert res.phi == via_trees.phi and res.mu == via_trees.mu
    print("fixed-point and tree-sum engines agree exactly")

    h = LinftyBundle((), con.h_space, con.delta_h, res.mu)
    rep = check_mc(h)
    print("transferred structure equations:", "hold" if rep.ok else "FAIL")
    print("transferred arities:", res.mu.arities())

    proj = projection_morphism(con, lam)
    assert bullet(proj, res.phi) == OpFamily.identity(con.h_space)
    print("extended projection composes with the inclusion to the identity")
    ambient = LinftyBundle((), con.space, con.delta, lam)
    assert check_morphism(Morphism(ambient, h, (), proj)).ok
    print("extended projection is a morphism onto the transferred structure")

    text = dumps(bundle_to_json(h))
    back, _ = bundle_from_json(json.loads(text))
    assert dumps(bundle_to_json(back)) == text
    print("JSON round trip: byte-identical,", len(text), "bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
