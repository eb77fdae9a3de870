"""Canonical JSON serialization of models, morphisms, and contractions."""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (amp2_bundle, build_contraction, circle_bundle, entries_from_json_literal,
                     identity_morphism, square_bundle)

from linfty import modelio

from linfty.algebra import LinftyBundle, Morphism, check_mc, plain_bundle
from linfty.cli import main
from linfty.geometry import shifted_tangent
from linfty.graded import GradedSpace, MultiOp, OpFamily
from linfty.modelio import (ModelFormatError, bundle_from_json,
                            bundle_to_json, contraction_from_json,
                            contraction_to_json, dumps,
                            load_document, morphism_from_json,
                            morphism_to_json, parse_frac)
from linfty.pathspace import derived_path_space
from linfty.poly import Poly, _exact, format_fraction

x = Poly.variable("x")
y = Poly.variable("y")


def round_trip_bundle(b, metadata=None):
    doc = bundle_to_json(b, metadata)
    text = dumps(doc)
    back, meta = bundle_from_json(doc)
    again = dumps(bundle_to_json(back, meta or None))
    assert again == text
    return back, meta


# -- fractions ------------------------------------------------------------------

def test_fraction_strings():
    assert format_fraction(Fraction(-3, 4)) == "-3/4"
    assert format_fraction(Fraction(5)) == "5"
    assert parse_frac("7/2") == Fraction(7, 2)
    assert parse_frac("-4") == Fraction(-4)
    assert parse_frac(3) == Fraction(3)


def test_parse_frac_returns_the_normal_form():
    for text, want in (("-4", -4), ("+3", 3), (" 12 ", 12), ("6/3", 2), ("1_000", 1000),
                       ("1e3", 1000), (7, 7), ("7/2", Fraction(7, 2)), ("-0.25", Fraction(-1, 4))):
        got = parse_frac(text)
        assert got == want and type(got) is type(want), text
    assert format_fraction(7) == "7" and format_fraction(-2) == "-2"


def test_parse_frac_rejects_garbage():
    for text in ("3.5x", "1/0", "+-3", "-", "\u00b2", ""):
        with pytest.raises(ModelFormatError):
            parse_frac(text)


# -- bundles --------------------------------------------------------------------

def test_square_bundle_round_trip():
    back, meta = round_trip_bundle(square_bundle())
    assert back.coords == ("x",)
    assert back.curvature_section() == {(1, 0): x ** 2}
    assert meta == {}
    assert check_mc(back).ok


def test_round_trip_keeps_user_metadata():
    _, meta = round_trip_bundle(square_bundle(), {"name": "squared section"})
    assert meta == {"name": "squared section"}


def test_round_trip_keeps_labels_and_dt_flags():
    st = shifted_tangent(square_bundle())
    back, _ = round_trip_bundle(st)
    assert back.fiber == st.fiber
    assert [back.fiber.labels[d][i] for d, i in back.fiber.keys()] == \
        [st.fiber.labels[d][i] for d, i in st.fiber.keys()]
    assert [back.fiber.dt[d][i] for d, i in back.fiber.keys()] == \
        [st.fiber.dt[d][i] for d, i in st.fiber.keys()]


def test_round_trip_constant_structure():
    sp = GradedSpace.build({1: 1, 2: 1})
    delta = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1, 3)}})
    b = LinftyBundle((), sp, delta, OpFamily(1, sp, sp, {}))
    back, _ = round_trip_bundle(b)
    assert back.delta == delta
    assert back.coords == ()


def test_round_trip_path_space_model():
    dps = derived_path_space(square_bundle())
    back, _ = round_trip_bundle(dps.bundle)
    assert back.ops == dps.bundle.ops
    assert back.delta == dps.bundle.delta


def test_algebra_document_matches_coordinate_free_bundle():
    sp = GradedSpace.build({1: 1, 2: 1})
    delta = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(2)}})
    # a structure on one graded space is a bundle with no coordinates
    doc = bundle_to_json(LinftyBundle((), sp, delta, OpFamily(1, sp, sp, {})))
    assert doc["base"]["dim"] == 0
    back, _ = bundle_from_json(doc)
    assert back.delta == delta


def test_delta_entries_are_tagged():
    sp = GradedSpace.build({1: 1, 2: 1})
    delta = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(5)}})
    b = LinftyBundle((), sp, delta, OpFamily(1, sp, sp, {1: lam1}))
    doc = bundle_to_json(b)
    parts = [e.get("part") for e in doc["ops"]]
    assert parts.count("delta") == 1
    back, _ = bundle_from_json(doc)
    assert back.delta == delta and back.ops.op(1) == lam1


def test_canonical_form_is_stable_under_entry_shuffling():
    doc = bundle_to_json(square_bundle())
    doc["ops"] = list(reversed(doc["ops"]))
    back, _ = bundle_from_json(doc)
    assert dumps(bundle_to_json(back)) == dumps(bundle_to_json(square_bundle()))


# -- format errors -----------------------------------------------------------------

def base_doc():
    return bundle_to_json(square_bundle())


def test_missing_field_is_reported():
    doc = base_doc()
    del doc["bundle"]
    with pytest.raises(ModelFormatError, match="bundle"):
        bundle_from_json(doc)


def test_unknown_coordinate_in_coefficient():
    doc = base_doc()
    doc["ops"][0]["coeff"] = [[[1, 1], "1"]]
    with pytest.raises(ModelFormatError):
        bundle_from_json(doc)


@pytest.mark.parametrize("coeff, n, message", [
    ([[[2.7], "1"]], 0, "exponents must be integers >= 0, got [2.7]"),
    ([[[True], "1"]], 0, "exponents must be integers >= 0, got [True]"),
    ([[[[1]], "1"]], 0, "exponents must be integers >= 0, got [[1]]"),
    ([[[-1], "1"]], 0, "exponents must be integers >= 0, got [-1]"),
    ([[[2], "1"], [[2], "5"]], 1, "exponents [2] repeat those of an earlier term")],
    ids=["float", "bool", "list", "negative", "repeated"])
def test_ill_typed_or_repeated_exponents_are_refused(coeff, n, message):
    doc = base_doc()
    doc["ops"][0]["coeff"] = coeff
    with pytest.raises(ModelFormatError, match=re.escape(f"ops[0].coeff[{n}]: {message}")):
        bundle_from_json(doc)


# bool is an int subclass and True == 1, False == 0, so each of these
# loaded as a valid document until integers were read with type(x) is int
@pytest.mark.parametrize("path, value, message", [
    (("ops", 0, "output"), [True, False],
     "ops[0].output: expected a [degree, index] pair, got [True, False]"),
    (("ops", 0, "arity"), False, "ops[0]: arity must be an integer >= 0"),
    (("bundle", "1"), True, "bundle: rank for degree 1 must be a nonnegative integer"),
    (("base", "dim"), True, "base.dim: dim True but 1 coords")],
    ids=["output-key", "arity", "rank", "base-dim"])
def test_a_boolean_is_refused_where_an_integer_is_expected(path, value, message):
    doc = base_doc()
    *head, last = path
    node = doc
    for part in head:
        node = node[part]
    node[last] = value
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        bundle_from_json(doc)


@pytest.mark.parametrize("meta, message", [
    ("0", "metadata: expected an object"),
    ({"labels": "0"}, "metadata.labels: expected an object of degree: list of strings, got '0'"),
    ({"labels": {"1": True}}, "metadata.labels.1: expected a list of strings, got True"),
    ({"labels": {"1": [7]}}, "metadata.labels.1: expected a list of strings, got [7]"),
    ({"labels": {"one": ["e"]}}, "metadata.labels: degree key 'one' is not an integer"),
    ({"dt": [True]}, "metadata.dt: expected an object of degree: list of booleans, got [True]"),
    ({"dt": {"1": ["1"]}}, "metadata.dt.1: expected a list of booleans, got ['1']")],
    ids=["metadata", "labels", "label-row", "label", "degree", "dt", "dt-flag"])
def test_labels_and_dt_of_the_wrong_shape_are_refused(meta, message):
    doc = base_doc()
    doc["metadata"] = meta
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        bundle_from_json(doc)


@pytest.mark.parametrize("meta", [0, "", [], False, None], ids=repr)
def test_a_falsy_metadata_is_refused_not_taken_as_absent(meta):
    doc = base_doc()
    doc["metadata"] = meta
    with pytest.raises(ModelFormatError, match=re.escape("metadata: expected an object")):
        bundle_from_json(doc)
    doc = contraction_to_json(worked_contraction())
    doc["metadata"] = meta
    with pytest.raises(ModelFormatError, match=re.escape("metadata: expected an object")):
        contraction_from_json(doc)


def test_contraction_labels_of_the_wrong_shape_are_refused():
    doc = contraction_to_json(worked_contraction())
    for meta, message in (("0", "metadata: expected an object"),
                          ({"h_labels": []}, "metadata.h_labels: expected an object"),
                          ({"space_labels": {"labels": {"1": None}}},
                           "metadata.space_labels.labels.1: expected a list of strings")):
        doc["metadata"] = meta
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            contraction_from_json(doc)


def test_key_out_of_range_is_reported():
    doc = base_doc()
    doc["ops"][0]["output"] = [1, 5]
    with pytest.raises(ModelFormatError):
        bundle_from_json(doc)


def test_inhomogeneous_entry_is_reported():
    sp = GradedSpace.build({1: 1, 2: 1})
    b = LinftyBundle((), sp, MultiOp.zero(1, 1, sp, sp), OpFamily(1, sp, sp, {}))
    doc = bundle_to_json(b)
    doc["ops"] = [{"arity": 1, "inputs": [[1, 0]], "output": [2, 0], "coeff": "1"},
                  {"arity": 1, "inputs": [[1, 0]], "output": [1, 0], "coeff": "1"}]
    message = "ops[1]: inhomogeneous entry ((1, 0),) -> (1, 0): expected output degree 2"
    with pytest.raises(ModelFormatError, match="^" + re.escape(message) + "$"):
        bundle_from_json(doc)


def test_entry_out_of_canonical_order_is_reported():
    sp = GradedSpace.build({1: 2, 3: 1})
    b = LinftyBundle((), sp, MultiOp.zero(1, 1, sp, sp), OpFamily(1, sp, sp, {}))
    doc = bundle_to_json(b)
    doc["ops"] = [{"arity": 2, "inputs": [[1, 0], [1, 1]], "output": [3, 0], "coeff": "1"},
                  {"arity": 2, "inputs": [[1, 1], [1, 0]], "output": [3, 0], "coeff": "1"}]
    message = "ops[1]: input tuple ((1, 1), (1, 0)) is not canonically sorted"
    with pytest.raises(ModelFormatError, match="^" + re.escape(message) + "$"):
        bundle_from_json(doc)


def test_repeated_entry_is_reported():
    doc = base_doc()
    doc["ops"].append(dict(doc["ops"][0]))
    n = len(doc["ops"]) - 1
    with pytest.raises(ModelFormatError, match=re.escape(f"ops[{n}]: duplicate entry for")):
        bundle_from_json(doc)


def test_load_document_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"base": [,]}')
    with pytest.raises(ModelFormatError, match="line 1"):
        load_document(str(p))


# -- morphisms -----------------------------------------------------------------------

def test_identity_morphism_round_trip():
    m = identity_morphism(square_bundle())
    doc = morphism_to_json(m)
    text = dumps(doc)
    back = morphism_from_json(doc)
    assert dumps(morphism_to_json(back)) == text
    assert back.base_map == m.base_map
    assert back.phi == m.phi


def test_polynomial_base_map_round_trip():
    src = plain_bundle(("u",))
    dst = plain_bundle(("x", "y"))
    u = Poly.variable("u")
    m = Morphism(src, dst, (u, u * u), OpFamily(0, src.fiber, dst.fiber, {}))
    back = morphism_from_json(morphism_to_json(m))
    assert back.base_map == m.base_map
    assert back.src.coords == ("u",) and back.dst.coords == ("x", "y")


@pytest.mark.parametrize("side, path, value, message", [
    ("src", ("metadata",), {"labels": "0"},
     "src.metadata.labels: expected an object of degree: list of strings, got '0'"),
    ("dst", ("ops", 0, "output"), [9, 0],
     "dst.ops[0].output: basis key (9, 0) outside bundle ranks"),
    ("dst", ("base",), [], "dst.base: expected an object with dim and coords")],
    ids=["src-labels", "dst-output", "dst-base"])
def test_a_refusal_inside_a_morphism_names_its_bundle(side, path, value, message):
    doc = morphism_to_json(identity_morphism(square_bundle()))
    *head, last = path
    node = doc[side]
    for part in head:
        node = node[part]
    node[last] = value
    with pytest.raises(ModelFormatError, match="^" + re.escape(message) + "$"):
        morphism_from_json(doc)


def test_morphism_document_embeds_both_bundles():
    m = identity_morphism(square_bundle())
    doc = morphism_to_json(m)
    assert doc["kind"] == "morphism"
    assert "src" in doc and "dst" in doc and "base_map" in doc


# -- contractions ----------------------------------------------------------------------

def worked_contraction():
    sp = GradedSpace.build({1: 2, 2: 1, 3: 1},
                           labels={1: ["e", "a"], 2: ["f"], 3: ["g"]})
    delta = MultiOp(1, 1, sp, sp, {((1, 1),): {(2, 0): Fraction(1)}})
    eta = MultiOp(1, -1, sp, sp, {((2, 0),): {(1, 1): Fraction(1)}})
    return build_contraction(sp, delta, eta)


def test_contraction_round_trip():
    con = worked_contraction()
    doc = contraction_to_json(con)
    text = dumps(doc)
    back = contraction_from_json(doc)
    assert dumps(contraction_to_json(back)) == text
    assert back.h_space == con.h_space
    assert back.pi == con.pi and back.iota == con.iota
    back.validate()


def test_contraction_document_is_revalidated_on_load():
    doc = contraction_to_json(worked_contraction())
    for entry in doc["eta"]:
        entry["coeff"] = "2"
    with pytest.raises(ModelFormatError):
        contraction_from_json(doc)


@pytest.mark.parametrize("field, inputs, output", [
    ("delta", [[1, 0], [1, 1]], [3, 0]),
    ("eta", [[1, 0], [1, 1]], [1, 0]),
    ("iota", [[1, 0], [1, 0]], [2, 0]),
    ("delta", [], [1, 0]),
], ids=["delta-arity-2", "eta-arity-2", "iota-arity-2", "delta-arity-0"])
def test_contraction_entry_of_arity_other_than_one_is_refused(field, inputs, output):
    # each entry is homogeneous, so only the arity rule can refuse it
    doc = contraction_to_json(worked_contraction())
    n = len(doc[field])
    doc[field].append({"arity": len(inputs), "inputs": inputs, "output": output, "coeff": "1"})
    with pytest.raises(ModelFormatError, match=re.escape(f"{field}[{n}]: arity must be 1")):
        contraction_from_json(doc)


def test_entry_with_a_part_is_refused_outside_a_bundle():
    for part in ("delta", "extra"):
        doc = morphism_to_json(identity_morphism(square_bundle()))
        doc["phi"][0]["part"] = part
        with pytest.raises(ModelFormatError, match=re.escape(f"phi[0]: unknown part {part!r}")):
            morphism_from_json(doc)
        doc = contraction_to_json(worked_contraction())
        doc["iota"][0]["part"] = part
        with pytest.raises(ModelFormatError, match=re.escape(f"iota[0]: unknown part {part!r}")):
            contraction_from_json(doc)


# -- the reader against its literal reference ----------------------------------------

POOL_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "pool"


def rational_corpus() -> list:
    """Strings around the "[+-]digits/digits" form parse_frac reads with
    int(): signs, padding, spaced slashes, underscores, leading zeros,
    zero denominators, decimals, exponents, nan and non-ASCII digits."""
    signs = ("", "+", "-", "+-", "--")
    bodies = ("1", "3", "007", "0", "12_000", "1__0", "_1", "1_", "\u0663", "\u00b2",
              "\uff11\uff12", "3.5", ".5", "5.", "1e3", "1E3", "1e400", "1e-2", "nan",
              "inf", "x", "")
    tails = ("",) + tuple(slash + den for slash in ("/", " /", "/ ", " / ")
                          for den in ("3", "4", "014", "0", "00", "-4", "+4", "\u0664", "\u00b2",
                                      "4_0", "4.0", "", "1e3"))
    pads = (("", ""), (" ", " "), ("\t", ""), ("", "\n"))
    # past int()'s 4300-digit limit, which Fraction's parser meets too
    long = "9" * 5000
    return [left + sign + body + tail + right for sign in signs for body in bodies
            for tail in tails for left, right in pads] + [long, f"-{long}/7", f"7/{long}"]


def test_parse_frac_accepts_and_refuses_what_fraction_does():
    corpus = rational_corpus()
    assert {"-0/3", "007/014", "3 /4", "+-3", "1/0"} <= set(corpus)
    accepted = 0
    for text in corpus:
        try:
            want = _exact(Fraction(text))
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ModelFormatError):
                parse_frac(text)
            continue
        got = parse_frac(text)
        assert got == want and type(got) is type(want), text
        accepted += 1
    assert 0 < accepted < len(corpus)


def entry_lists(doc) -> list[list]:
    """The operation entry lists of a model, morphism or contraction document."""
    if doc.get("kind") == "morphism":
        return [doc["src"]["ops"], doc["dst"]["ops"], doc["phi"]]
    if doc.get("kind") == "contraction":
        return [doc["delta"], doc["eta"], doc["iota"]]
    return [doc["ops"]]


def read_document(doc):
    if doc.get("kind") == "morphism":
        return morphism_from_json(doc)
    if doc.get("kind") == "contraction":
        return contraction_from_json(doc)
    return bundle_from_json(doc)


MUTATION_VALUES = [None, 0, -1, 1.5, "x", "1/0", "", [], {}, True, 10 ** 30, "0", "-1/2",
                   [0, 0], "1e400", "nan"]
MUTATIONS = ("arity", "inputs", "key", "output", "coeff", "part", "index", "repeat", "shift",
             "reverse", "double")
# the mutations that need an entry of arity >= 2
WIDE_MUTATIONS = ("reverse", "double")


def mutate_entry(rng: random.Random, doc, kind: str) -> None:
    """Change one entry of doc in place as kind says: a field, or a
    component of one of its keys, set to a value of MUTATION_VALUES; a key
    index set to -1 or raised by 1 or 100; the entry repeated; its output
    degree moved by one; or, on an entry of arity >= 2, its inputs
    reversed or the first one put in the second's place."""
    held = [(entries, e) for entries in entry_lists(doc) for e in entries
            if kind not in WIDE_MUTATIONS or len(e["inputs"]) > 1]
    entries, e = rng.choice(held)
    key = rng.choice(e["inputs"] + [e["output"]])
    if kind == "key":
        key[rng.randrange(2)] = rng.choice(MUTATION_VALUES)
    elif kind == "index":
        key[1] = rng.choice((-1, key[1] + 1, key[1] + 100))
    elif kind == "repeat":
        entries.append(json.loads(json.dumps(e)))
    elif kind == "shift":
        e["output"][0] += rng.choice((-1, 1))
    elif kind == "reverse":
        e["inputs"].reverse()
    elif kind == "double":
        e["inputs"][1] = list(e["inputs"][0])
    else:
        e[kind] = rng.choice(MUTATION_VALUES)


def differential_documents() -> list:
    """Fixture documents and a slice of the benchmark pool's inputs."""
    docs = [bundle_to_json(b) for b in (square_bundle(), circle_bundle(), amp2_bundle(),
                                        derived_path_space(square_bundle()).bundle)]
    docs += [morphism_to_json(identity_morphism(square_bundle())),
             contraction_to_json(worked_contraction())]
    for workload in ("certify", "transfer", "polybase"):
        paths = sorted((POOL_DIR / workload).glob("*.json"))
        docs += [json.loads(p.read_text()) for p in paths[::12]]
    return docs


def test_reader_agrees_with_its_literal_reference(monkeypatch):
    # each mutated document is read once, every entry list by the reader
    # and by the reference: both refuse it, or both build equal
    # operations with their entries in the same order; nothing but
    # ModelFormatError escapes
    reader = modelio._entries_from_json
    outcomes = Counter()

    def compared(*args):
        try:
            want = entries_from_json_literal(*args)
        except ModelFormatError:
            want = None
        try:
            got = reader(*args)
        except ModelFormatError as exc:
            assert want is None, f"refused what the reference reads: {exc}"
            outcomes[re.sub(r"^[^:]*: |[(\[].*", "", str(exc))] += 1
            raise
        assert want is not None, "read what the reference refuses"
        assert got == want
        assert ([(p, a, list(op.coeffs), [list(v) for v in op.coeffs.values()])
                 for p, fam in got.items() for a, op in fam.ops.items()]
                == [(p, a, list(op.coeffs), [list(v) for v in op.coeffs.values()])
                    for p, fam in want.items() for a, op in fam.ops.items()])
        return got

    monkeypatch.setattr(modelio, "_entries_from_json", compared)
    docs = differential_documents()
    wide = [doc for doc in docs
            if any(len(e["inputs"]) > 1 for entries in entry_lists(doc) for e in entries)]
    rng = random.Random(12345)
    for _ in range(960):
        kind = rng.choice(MUTATIONS)
        doc = json.loads(json.dumps(rng.choice(wide if kind in WIDE_MUTATIONS else docs)))
        mutate_entry(rng, doc, kind)
        try:
            read_document(doc)
            outcomes["read"] += 1
        except ModelFormatError:
            outcomes["refused"] += 1
    assert outcomes["read"] and outcomes["refused"]
    for message in ("basis key ", "input tuple ", "inhomogeneous entry ", "duplicate entry for "):
        assert outcomes[message], (message, outcomes)


def test_each_key_read_is_tested_against_its_space_at_most_once(monkeypatch):
    # a key is tested once, where the entry is checked, by a degree -> rank
    # lookup; before, the reader tested it and the MultiOp constructor again
    doc = json.loads((POOL_DIR / "certify" / "mor-a7d4-8.json").read_text())
    keys = sum(len(e["inputs"]) + 1 for lst in entry_lists(doc) for e in lst)
    tests = Counter()

    class CountedRanks(dict):
        def get(self, *args):
            tests["ranks"] += 1
            return super().get(*args)

    build, contains = GradedSpace.build, GradedSpace.contains

    def counted_build(*args, **kwargs):
        space = build(*args, **kwargs)
        object.__setattr__(space, "dims", CountedRanks(space.dims))
        return space

    def counted_contains(space, key):
        tests["contains"] += 1
        return contains(space, key)

    monkeypatch.setattr(GradedSpace, "build", staticmethod(counted_build))
    monkeypatch.setattr(GradedSpace, "contains", counted_contains)
    morphism_from_json(doc)
    assert keys > 100 and 0 < sum(tests.values()) <= keys, (tests, keys)


# -- the canonical writer ----------------------------------------------------------

def test_dumps_writes_the_bytes_of_json_with_a_two_space_indent(tmp_path, capsys):
    sp = GradedSpace.build({1: 2, 2: 1}, labels={1: ["\u03be", 'q"\\\n'], 2: ["\u2603"]})
    delta = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(-3, 4)}})
    odd = LinftyBundle((), sp, delta, OpFamily(1, sp, sp, {}))
    model = tmp_path / "square.json"
    model.write_text(dumps(bundle_to_json(square_bundle())))
    assert main(["check-axioms", str(model), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    docs = [bundle_to_json(square_bundle()),
            bundle_to_json(odd, {"note": "caf\u00e9 \U0001d4b3", "empty": {}, "none": [],
                                 "nested": [[], {}, [{}]], "flags": [True, False, None]}),
            morphism_to_json(identity_morphism(square_bundle())),
            contraction_to_json(worked_contraction()),
            report, {}, [], {"": ""}]
    assert report["ok"] is True
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, indent=2) + "\n"
