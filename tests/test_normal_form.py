"""Every stored coefficient is in the exact normal form: an int when it is
integral, otherwise a Fraction with denominator greater than 1.

The scan walks everything reachable from a result (dataclass fields,
dicts, lists and tuples) and checks each coefficient of each MultiOp
vector and Poly term it meets, including the terms of polynomial
coefficients.
"""

import json
import random
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest
from oracles import amp2_bundle, circle_bundle, identity_morphism, square_bundle

from linfty.graded import GradedSpace, MultiOp, OpFamily, bullet, canonical_tuples, circ
from linfty.modelio import bundle_from_json, bundle_to_json, dumps
from linfty.pathspace import derived_path_space, homotopy_fibered_product
from linfty.poly import Poly
from linfty.samples import random_transfer_instance
from linfty.transfer import transfer, transfer_trees


def _normal(c) -> bool:
    return type(c) is int or type(c) is Fraction and c.denominator > 1


def stored_coefficients(root) -> tuple[int, list]:
    """(number of coefficients checked, those not in normal form)."""
    checked, bad = 0, []
    seen: set[int] = set()
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, MultiOp):
            coeffs = [c for vec in obj.coeffs.values() for c in vec.values()]
        elif isinstance(obj, Poly):
            coeffs = list(obj.terms.values())
        elif is_dataclass(obj) and not isinstance(obj, type):
            todo += [getattr(obj, f.name) for f in fields(obj)]
            continue
        elif isinstance(obj, dict):
            todo += list(obj.values())
            continue
        elif isinstance(obj, (list, tuple)):
            todo += list(obj)
            continue
        else:
            continue
        for c in coeffs:
            if isinstance(c, Poly):
                todo.append(c)
                continue
            checked += 1
            if not _normal(c):
                bad.append(c)
    return checked, bad


def assert_normal(result):
    checked, bad = stored_coefficients(result)
    assert checked, "the scan reached no coefficient"
    assert not bad, f"{len(bad)} of {checked} stored coefficients not in normal form: {bad[:5]}"


def test_the_scan_finds_an_integral_fraction():
    sp = GradedSpace.build({1: 1, 2: 1})
    op = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(4, 2)}})
    assert op.coeffs[((1, 0),)][(2, 0)] == 2
    assert stored_coefficients({"op": [op]}) == (1, [])
    op.coeffs[((1, 0),)][(2, 0)] = Fraction(2)
    p = Poly(("x",), {(1,): 3})
    p.terms[(1,)] = Fraction(3)
    checked, bad = stored_coefficients((op, {(1, 0): p}))
    assert checked == 2 and sorted(bad) == [2, 3]


def _round_trip(bundle):
    doc = json.loads(dumps(bundle_to_json(bundle)))
    return bundle_from_json(doc)[0]


@pytest.mark.parametrize("make", [square_bundle, circle_bundle, amp2_bundle],
                         ids=["square", "circle", "amp2"])
def test_path_spaces_and_fibered_products_store_normal_coefficients(make):
    bundle = _round_trip(make())
    dps = derived_path_space(bundle)
    assert_normal(dps)
    f = identity_morphism(bundle)
    assert_normal(homotopy_fibered_product(f, f))


def test_transfer_engines_store_normal_coefficients():
    rng = random.Random(14)
    for _ in range(20):
        con, lam = random_transfer_instance(rng, amplitude=3, max_dim=rng.choice([2, 3, 4]))
        assert_normal(transfer(con, lam))
        assert_normal(transfer_trees(con, lam))


def _fractional_family(rng, space, degree, arities):
    ops = {}
    for n in arities:
        coeffs = {}
        for tup in canonical_tuples(space, n):
            out = sum(k[0] for k in tup) + degree
            vec = {key: Fraction(rng.randint(-6, 6), rng.choice((2, 3, 4, 6)))
                   for key in space.keys() if key[0] == out and rng.random() < 0.6}
            coeffs[tup] = {k: c for k, c in vec.items() if c}
        ops[n] = MultiOp(n, degree, space, space, coeffs)
    return OpFamily(degree, space, space, ops)


def test_circ_and_bullet_store_normal_coefficients():
    """Both sum integer numerators over one denominator and divide once per
    output coefficient: a sum of fractional terms that is integral is
    stored as an int."""
    rng = random.Random(31)
    sp = GradedSpace.build({1: 3, 2: 2, 3: 1, 4: 1})
    integral = 0
    for _ in range(6):
        lam = _fractional_family(rng, sp, 1, (0, 1, 2))
        mu = _fractional_family(rng, sp, 1, (0, 1, 2))
        phi = _fractional_family(rng, sp, 0, (1, 2))
        for result in (circ(lam, mu), bullet(lam, phi)):
            assert_normal(result)
            integral += any(type(c) is int for op in result.ops.values()
                            for vec in op.coeffs.values() for c in vec.values())
    assert integral
