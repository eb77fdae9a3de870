"""Polynomial ring and path section calculus."""

import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st
from oracles import (PathSection, eval_literal, path_delta, path_eta, pi_con, pi_lin,
                     poly_eq_literal, poly_t, pruned_literal, pullback, scalar_product_literal,
                     substitute_literal)

from linfty import poly as poly_module
from linfty.poly import Poly, as_rational, format_fraction, stage

x = Poly.variable("x")
y = Poly.variable("y")
t = Poly.variable("t")


# -- ring basics -------------------------------------------------------------

def test_arithmetic_is_exact():
    p = (x + y) ** 3
    q = x ** 3 + 3 * x ** 2 * y + 3 * x * y ** 2 + y ** 3
    assert p == q
    assert p - q == Poly.zero(p.vars)
    assert (x * x - y * y) == (x + y) * (x - y)


def test_constant_and_variable_constructors():
    c = Poly.constant(Fraction(3, 2))
    assert c.is_constant() and c.constant_value() == Fraction(3, 2)
    assert not (x + c).is_constant()


def test_diff_and_substitute():
    p = x ** 2 * y + 2 * y
    assert p.diff("x") == 2 * x * y
    assert p.diff("y") == x ** 2 + Poly.constant(2)
    s = p.substitute({"x": t + Poly.constant(1)})
    assert s.eval({"t": 1, "y": 3}) == p.eval({"x": 2, "y": 3})


def test_eval_requires_all_variables():
    with pytest.raises(ValueError):
        (x + y).eval({"x": 1})


def test_with_vars_and_pruned_round_trip():
    p = (x + y) - y
    wide = p.with_vars(("x", "y", "z"))
    assert wide.pruned().vars == ("x",)
    assert wide.pruned() == Poly.variable("x")


def test_fraction_helpers():
    assert as_rational("3/4") == Fraction(3, 4)
    # integral values come back as int, whatever form they were given in
    for given in (2, Fraction(4, 2), "6/3"):
        got = as_rational(given)
        assert type(got) is int and got == 2
    assert format_fraction(Fraction(3, 4)) == "3/4"
    assert format_fraction(Fraction(5)) == "5"


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_product_evaluates_pointwise(acoef, bcoef):
    a = poly_t(dict(enumerate(acoef)))
    b = poly_t(dict(enumerate(bcoef)))
    at = Fraction(1, 3)
    assert (a * b).eval({"t": at}) == a.eval({"t": at}) * b.eval({"t": at})


def random_float(rng):
    """A float from the edges of the double range as well as from [-3, 3]."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([0.0, -0.0])
    if kind == 1:
        return rng.choice([5e-324, -5e-324])
    if kind == 2:
        return rng.choice([1, -1]) * rng.uniform(0.5, 2) * 1e-300
    if kind == 3:
        return rng.choice([1e6, -1e6])
    return rng.uniform(-3, 3)


def test_eval_and_the_staged_kernel_match_the_literal_loop():
    rng = random.Random(2307)
    negative_zeros = 0
    for _ in range(240):
        polys = []
        for _ in range(rng.randint(1, 4)):
            vs = rng.sample(("x", "y", "z"), rng.randint(0, 3))
            p = Poly(vs, {tuple(rng.randint(0, 3) for _ in vs):
                          Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                          for _ in range(rng.randint(0, 6))})
            rat = {v: Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for v in vs}
            assert p.eval(rat) == eval_literal(p, rat)
            polys.append(p)
        # staged together over a shuffled superset of the variables, at
        # float points: each quotient over the one shared denominator is
        # the exact value rounded once, signed zeros included
        coords = ["x", "y", "z", "w"]
        rng.shuffle(coords)
        at = {v: random_float(rng) for v in coords}
        nums, den = stage(polys, coords)([at[v].as_integer_ratio() for v in coords])
        assert den > 0 and len(nums) == len(polys)
        for p, num in zip(polys, nums):
            got = num / den
            want = float(eval_literal(p, {v: Fraction(f) for v, f in at.items()}))
            assert got.hex() == want.hex()
            negative_zeros += got == 0 and math.copysign(1, got) < 0
    assert negative_zeros


def test_staging_requires_every_used_variable():
    p = x ** 2 + Poly.monomial(("x", "y"), (0, 0), 1)
    assert stage([p], ("x",))([(3, 2)]) == ([13], 4)
    # one denominator 2 * 2^2 for p, 1/2 and 3x at x = 3/2: y is in no
    # term, so it adds no factor, and the constant takes x's 2^2 once
    assert stage([p, Poly.constant(Fraction(1, 2)), 3 * x], ("x", "y"))(
        [(3, 2), (1, 5)]) == ([26, 4, 36], 8)
    assert stage([], ("x",))([(3, 2)]) == ([], 1)
    with pytest.raises(ValueError, match="no value supplied for variable 'x'"):
        stage([p], ("y",))


# -- results built without re-validation --------------------------------------

def random_poly(rng, names=("x", "y", "z")):
    """A polynomial in 1-3 of the given variables, in random order, with 0-4 terms."""
    vs = rng.sample(names, rng.randint(1, min(3, len(names))))
    return Poly(vs, {tuple(rng.randint(0, 3) for _ in vs):
                     Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 4))})


def assert_normal_form(p):
    """What the public constructor guarantees, checked on a result."""
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == len(p.vars)
        assert all(type(k) is int and k >= 0 for k in e)
        assert c != 0 and (type(c) is int
                           or type(c) is Fraction and c.denominator > 1)
    checked = Poly(p.vars, p.terms)
    assert checked == p and checked.terms == p.terms


def test_operator_results_are_in_normal_form():
    rng = random.Random(7)
    for _ in range(150):
        p, q = random_poly(rng), random_poly(rng)
        const = Poly.monomial(p.vars, (0,) * len(p.vars), rng.randint(-3, 3))
        wide = list(dict.fromkeys(p.vars + ("x", "y", "z", "w")))
        rng.shuffle(wide)
        sub = {v: rng.choice([rng.randint(-2, 2), random_poly(rng), random_poly(rng, ("s", "t"))])
               for v in rng.sample(p.vars, rng.randint(1, len(p.vars)))}
        results = [p + q, p - q, q - p, p * q, -p, p + Fraction(1, 2), 3 - p, 2 * p,
                   p ** rng.randint(0, 3), p.with_vars(wide), p.pruned(), p.substitute(sub),
                   p.diff("w"), const.diff(p.vars[0]), p * 0, 0 * p, p * Poly.zero(q.vars)]
        results += [p.diff(v) for v in p.vars]
        cancelled = [p + (-p), p - p, p * 0, const.diff(p.vars[0]), (p - p).pruned()]
        for r in results + cancelled:
            assert_normal_form(r)
        assert all(not r.terms for r in cancelled)


def test_a_unit_factor_or_a_zero_summand_costs_no_arithmetic(monkeypatch):
    """p * 1 and 0 + p are p itself, p * -1 is -p; any int or Fraction
    factor scales the terms over p.vars with no general product, and a
    zero factor gives the zero polynomial over p.vars."""
    p = Poly(("y", "x", "z"), {(1, 0, 0): Fraction(1, 2), (0, 2, 0): -3})
    assert p * 1 is p and 1 * p is p and p + 0 is p and 0 + p is p
    for neg in (p * -1, -1 * p):
        assert neg.vars == p.vars and neg.terms == {e: -c for e, c in p.terms.items()}
    general = []
    mul_terms = poly_module._mul_terms
    monkeypatch.setattr(poly_module, "_mul_terms",
                        lambda a, b: general.append(1) or mul_terms(a, b))
    for c in (1, -1, 2, -2, 7, Fraction(1, 3), Fraction(-5, 2), Fraction(-1), Fraction(6, 3)):
        for r in (p * c, c * p):
            assert r.vars == p.vars
            assert r.terms == {e: as_rational(v * c) for e, v in p.terms.items()}
            assert all(type(v) is int or v.denominator > 1 for v in r.terms.values())
    for zero in (0, Fraction(0)):
        for r in (p * zero, zero * p):
            assert r.vars == p.vars and r.terms == {} and r == Poly.zero(p.vars)
    assert not general
    for c in (1, -1, Fraction(1, 2), Fraction(0)):
        for r in (p + c, c + p):
            assert r is not p and r.vars == p.vars
            assert r.terms == Poly(p.vars, {**p.terms, (0, 0, 0): c}).terms
    # True is an int equal to 1, but not the int 1: it takes the general path
    r = p * True
    assert r is not p and r == p and r.vars == p.vars and len(general) == 1


def test_scalar_products_equality_and_pruning_agree_with_the_reference():
    """The scalar branch of __mul__, the direct comparison of __eq__ and the
    uncopied pruned() give what the general product, the prune-and-align
    comparison and the copying prune give, and equal values hash equal."""
    rng = random.Random(3507)
    scalars = (0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3), True)
    polys = []
    for n in range(150):
        vs = rng.sample(("x", "y", "z", "w"), rng.randint(0, 4))
        live = rng.sample(vs, rng.randint(0, len(vs)))   # the other names stay unused
        terms = {}
        for _ in range(0 if n % 8 == 0 else rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) if v in live else 0 for v in vs)
            terms[e] = rng.choice([rng.randint(-4, 4),
                                   Fraction(rng.randint(-4, 4), rng.randint(2, 3))])
        p = Poly(vs, terms)
        polys += [p, p.with_vars(rng.sample(vs, len(vs)) + ["v"][:n % 2])]
    # the draws hold zero polynomials, unused variables and fully used ones
    assert any(not p for p in polys)
    assert any(p.pruned() is not p for p in polys) and any(p.pruned() is p and p.vars
                                                           for p in polys)
    for p in polys:
        ref = pruned_literal(p)
        got = p.pruned()
        assert (got.vars, got.terms) == (ref.vars, ref.terms)
        for c in scalars:
            ref = scalar_product_literal(p, c)
            for got in (p * c, c * p):
                assert (got.vars, got.terms) == (ref.vars, ref.terms)
            assert (p == c) == poly_eq_literal(p, c)
    for p, q in [(rng.choice(polys), rng.choice(polys)) for _ in range(3000)] \
            + [(p, q) for p in polys[:40] for q in polys[:40]] + list(zip(polys, polys[1:])):
        assert (p == q) == poly_eq_literal(p, q) == (q == p)
        if p == q:
            assert hash(p) == hash(q)


def test_substitute_matches_the_term_by_term_oracle():
    rng = random.Random(2307)
    kinds = ("rational", "fresh", "shared", "unused name")
    for n in range(200):
        p = random_poly(rng)
        names = rng.sample(p.vars, rng.randint(1, len(p.vars)))   # partial when short
        kind = kinds[n % len(kinds)]
        if kind == "rational":
            values = {v: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2), "2/3"])
                      for v in names}
        elif kind == "fresh":
            values = {v: random_poly(rng, ("s", "t", "u")) for v in names}
        elif kind == "shared":
            values = {v: random_poly(rng) for v in names}
        else:
            values = {"w": random_poly(rng, ("t", "x")), names[0]: Poly.variable("x") + 1}
        got, want = p.substitute(values), substitute_literal(p, values)
        assert got.vars == want.vars and got.terms == want.terms, (p, values)


@pytest.mark.parametrize("values, want_vars", [
    ({"x": x, "y": y}, ("z", "x", "y")),             # identity
    ({"x": Poly.variable("s")}, ("y", "z", "s")),    # rename
    ({"x": y, "y": x}, ("z", "y", "x")),             # swap
    ({"x": y}, ("y", "z")),                          # rename onto a kept variable
], ids=["identity", "rename", "swap", "onto kept"])
def test_substitute_relabels_without_multiplying(values, want_vars, monkeypatch):
    def refuse(*args):
        raise AssertionError("a relabelling multiplied term dicts")

    rng = random.Random(1023)
    polys = [random_poly(rng).with_vars(("x", "y", "z")) for _ in range(60)]
    xy, x_minus_y = x * y, x - y
    monkeypatch.setattr(poly_module, "_mul_terms", refuse)
    results = [p.substitute(values) for p in polys]
    product, cancelled = xy.substitute({"x": y}), x_minus_y.substitute({"x": y})
    monkeypatch.undo()
    for p, got in zip(polys, results):
        assert got.vars == want_vars
        assert_normal_form(got)
        want = substitute_literal(p, values)
        assert got.vars == want.vars and got.terms == want.terms, (p, values)
        pt = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in ("x", "y", "z", "s")}
        moved = {name: val.eval(pt) for name, val in values.items()}
        assert got.eval(pt) == p.eval({**pt, **moved})
    assert product.vars == ("y",) and product == y ** 2
    assert cancelled.terms == {}


@pytest.mark.parametrize("vars, terms, error", [
    (("x", "x"), {}, ValueError),                 # duplicate variable
    (("x", "y"), {(1,): 1}, ValueError),          # exponent vector too short
    (("x",), {(1, 0): 1}, ValueError),            # exponent vector too long
    (("x",), {(-1,): 1}, ValueError),             # negative exponent
    (("x",), {(1,): 0.5}, TypeError),             # float coefficient
], ids=["duplicate", "short", "long", "negative", "float"])
def test_public_constructor_keeps_its_checks(vars, terms, error):
    with pytest.raises(error):
        Poly(vars, terms)


def test_with_vars_rejects_duplicate_variables():
    with pytest.raises(ValueError):
        x.with_vars(("x", "x"))


def test_equal_values_hash_equal():
    """Across variable orders, and between constants and the numbers they equal."""
    rng = random.Random(17)
    equal_pairs = 0
    for _ in range(150):
        p = random_poly(rng)
        views = [p.with_vars(order) for order in permutations(p.vars)]
        views += [p.with_vars(p.vars + ("w",)), p + 0]
        for a, b in product(views + [p.pruned()], repeat=2):
            assert a == b and hash(a) == hash(b), (a.vars, b.vars, a.terms)
            equal_pairs += 1
        q = random_poly(rng)
        if p == q:
            assert hash(p) == hash(q)
    for c in (0, 3, -2, Fraction(1, 2), Fraction(-7, 3)):
        for vars in ((), ("x",), ("y", "x")):
            k = Poly.monomial(vars, (0,) * len(vars), c)
            for number in (c, Fraction(c)) + ((int(c),) if Fraction(c).denominator == 1 else ()):
                assert k == number and hash(k) == hash(number), (c, vars)
    assert len({Poly(("x", "y"), {(1, 1): 1}), Poly(("y", "x"), {(1, 1): 1})}) == 1
    assert len({Poly.constant(3), 3, Fraction(3)}) == 1
    assert equal_pairs > 1000


# -- pullback along the straight path ----------------------------------------

def test_pullback_square_unit_interval():
    s = pullback([x ** 2], ("x",), (0,), (1,), 1)
    assert s.components[0] == poly_t({2: 1})


def test_pullback_two_variables():
    s = pullback([x + y], ("x", "y"), (0, 0), (1, 2), 1)
    assert s.components[0] == poly_t({1: 3})


def test_pullback_constant_is_fixed():
    s = pullback([Poly.monomial(("x",), (0,), 5)], ("x",), (2,), (7,), 1)
    assert s.components[0] == poly_t({0: 5})


def test_pullback_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        pullback([x], ("x",), (0, 0), (1,), 1)


# -- differential, homotopy, projections --------------------------------------

def sec(degree, comps, dt=False):
    return PathSection.make((0,), (1,), degree, comps, dt=dt)


def test_path_delta_odd_degree():
    s = sec(1, [poly_t({1: 1})])
    d = path_delta(s)
    assert d.dt and d.components[0] == poly_t({0: -1})


def test_path_delta_even_degree():
    s = sec(2, [poly_t({2: 1})])
    d = path_delta(s)
    assert d.components[0] == poly_t({1: 2})


def test_path_delta_kills_constants():
    d = path_delta(sec(1, [poly_t({0: 4})]))
    assert all(c == Poly.zero(("t",)) for c in d.components)


def test_path_delta_rejects_dt_input():
    with pytest.raises(ValueError):
        path_delta(sec(1, [poly_t({0: 1})], dt=True))


def test_path_eta_linear_odd():
    e = path_eta(sec(1, [poly_t({1: 1})], dt=True))
    assert not e.dt
    assert e.components[0] == poly_t({1: Fraction(1, 2), 2: Fraction(-1, 2)})


def test_path_eta_constant_vanishes():
    e = path_eta(sec(1, [poly_t({0: 3})], dt=True))
    assert e.components[0] == Poly.zero(("t",))


def test_path_eta_even_degree():
    e = path_eta(sec(2, [poly_t({0: 1, 1: -2})], dt=True))
    assert e.components[0] == poly_t({1: 1, 2: -1})


def test_path_eta_rejects_plain_input():
    with pytest.raises(ValueError):
        path_eta(sec(1, [poly_t({1: 1})]))


def test_pi_lin_examples():
    assert pi_lin(sec(1, [poly_t({2: 1})])).components[0] == poly_t({1: 1})
    aff = poly_t({0: 2, 1: -3})
    assert pi_lin(sec(1, [aff])).components[0] == aff
    assert pi_lin(sec(1, [poly_t({1: 1, 2: -1})])).components[0] == Poly.zero(("t",))


def test_pi_con_examples():
    assert pi_con(sec(1, [poly_t({1: 2})], dt=True)).components[0] == poly_t({0: 1})
    assert pi_con(sec(1, [poly_t({0: 5})], dt=True)).components[0] == poly_t({0: 5})
    assert pi_con(sec(1, [poly_t({1: 6, 2: -6})], dt=True)).components[0] == poly_t({0: 1})


# -- contraction identities on random sections --------------------------------

def tpoly(coeffs):
    return poly_t({k: Fraction(c) for k, c in enumerate(coeffs)})


plain_sections = st.builds(
    lambda d, rows: sec(d, [tpoly(r) for r in rows]),
    st.integers(1, 3),
    st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=7),
             min_size=1, max_size=3))

dt_sections = st.builds(
    lambda d, rows: sec(d, [tpoly(r) for r in rows], dt=True),
    st.integers(1, 3),
    st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=6),
             min_size=1, max_size=3))


@given(dt_sections)
def test_eta_lands_in_plain_sections(s):
    assert not path_eta(s).dt


@given(dt_sections)
def test_eta_delta_eta_equals_eta(s):
    e = path_eta(s)
    again = path_eta(path_delta(e))
    assert again.components == e.components


@given(dt_sections)
def test_eta_vanishes_at_both_endpoints(s):
    e = path_eta(s)
    assert all(v == 0 for v in e.value_at(0))
    assert all(v == 0 for v in e.value_at(1))


@given(plain_sections)
def test_projector_on_plain_sections_is_pi_lin(s):
    corrected = path_eta(path_delta(s))
    proj = [a - b for a, b in zip(s.components, corrected.components)]
    assert proj == list(pi_lin(s).components)


@given(dt_sections)
def test_projector_on_dt_sections_is_pi_con(s):
    corrected = path_delta(path_eta(s))
    proj = [a - b for a, b in zip(s.components, corrected.components)]
    assert proj == list(pi_con(s).components)


@given(plain_sections)
def test_pi_lin_is_idempotent(s):
    once = pi_lin(s)
    assert pi_lin(once).components == once.components


@given(dt_sections)
def test_pi_con_is_idempotent(s):
    once = pi_con(s)
    assert pi_con(once).components == once.components


@given(plain_sections)
def test_delta_eta_delta_drops_the_harmonic_part(s):
    # constant dt-forms sit in ker(eta), so the average survives
    d = path_delta(s)
    avg = pi_con(d)
    got = path_delta(path_eta(d))
    assert got.components == tuple(a - b for a, b in
                                   zip(d.components, avg.components))

