"""End-to-end coverage of the command line drivers, run in process."""

import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import build_contraction, identity_morphism, section_bundle, square_bundle

from linfty import algebra, cli, geometry, pathspace
from linfty.algebra import LinftyBundle, Morphism, check_morphism, linear_morphism, plain_bundle
from linfty.cli import build_parser, main, parse_poly_expr
from linfty.graded import GradedSpace, MultiOp, OpFamily
from linfty.modelio import (ModelFormatError, bundle_to_json, contraction_to_json, dumps,
                            load_model, morphism_to_json)
from linfty.poly import Poly, format_fraction
from linfty.transfer import TransferResult

x = Poly.variable("x")
u = Poly.variable("u")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(dumps(doc))
    return str(p)


@pytest.fixture
def square_model(tmp_path):
    return write_doc(tmp_path, "square.json", bundle_to_json(square_bundle()))


@pytest.fixture
def violator_model(tmp_path):
    # delta steps twice through a three-term chain, so delta^2 has a witness
    sp = GradedSpace.build({1: 1, 2: 1, 3: 1})
    delta = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)},
                                   ((2, 0),): {(3, 0): Fraction(1)}})
    b = LinftyBundle((), sp, delta, OpFamily(1, sp, sp, {}))
    return write_doc(tmp_path, "violator.json", bundle_to_json(b))


# -- axiom checking ------------------------------------------------------------

def test_check_axioms_passes(square_model, capsys):
    code, out, _ = run(capsys, "check-axioms", square_model)
    assert code == 0
    assert "structure equations" in out and "hold" in out


def test_check_axioms_reports_witness(violator_model, capsys):
    code, out, _ = run(capsys, "check-axioms", violator_model)
    assert code == 1
    assert "FAIL" in out and "delta^2 != 0" in out


def test_json_report_is_parseable(square_model, capsys):
    code, out, _ = run(capsys, "check-axioms", square_model, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["witness"] is None


def test_missing_file_is_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "check-axioms", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_invalid_json_names_line_and_column(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    code, _, err = run(capsys, "check-axioms", str(p))
    assert code == 2
    assert "invalid JSON at line 1" in err


# -- morphism checking ------------------------------------------------------------

def test_check_morphism_identity(tmp_path, capsys):
    path = write_doc(tmp_path, "id.json",
                     morphism_to_json(identity_morphism(square_bundle())))
    code, out, _ = run(capsys, "check-morphism", path)
    assert code == 0
    assert "holds" in out


def test_check_morphism_failure_has_witness(tmp_path, capsys):
    b = square_bundle()
    phi = OpFamily(0, b.fiber, b.fiber,
                   {1: MultiOp(1, 0, b.fiber, b.fiber,
                               {((1, 0),): {(1, 0): Fraction(2)}})})
    path = write_doc(tmp_path, "twice.json",
                     morphism_to_json(Morphism(b, b, (x,), phi)))
    code, out, _ = run(capsys, "check-morphism", path)
    assert code == 1
    assert "FAIL" in out and "witness" in out


# -- transfer ------------------------------------------------------------------------

def retract_pair(tmp_path):
    sp = GradedSpace.build({1: 2, 2: 1, 3: 1},
                           labels={1: ["e", "a"], 2: ["f"], 3: ["g"]})
    delta = MultiOp(1, 1, sp, sp, {((1, 1),): {(2, 0): Fraction(1)}})
    eta = MultiOp(1, -1, sp, sp, {((2, 0),): {(1, 1): Fraction(1)}})
    con = build_contraction(sp, delta, eta)
    lam1 = MultiOp(1, 1, sp, sp, {((1, 0),): {(2, 0): Fraction(1)}})
    model = LinftyBundle((), sp, delta, OpFamily(1, sp, sp, {1: lam1}))
    return (write_doc(tmp_path, "ambient.json", bundle_to_json(model)),
            write_doc(tmp_path, "retract.json", contraction_to_json(con)))


def test_transfer_both_modes_and_revalidate(tmp_path, capsys):
    model, con = retract_pair(tmp_path)
    out_path = str(tmp_path / "small.json")
    code, out, _ = run(capsys, "transfer", model, con,
                       "--mode", "both", "--out", out_path)
    assert code == 0
    assert "re-validated" in out
    code, out, _ = run(capsys, "check-axioms", out_path)
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc["bundle"] == {"1": 1, "3": 1}


def test_transfer_writes_the_induced_differential(tmp_path, capsys):
    # along eta = 0, H is the whole space with delta_h = delta, phi = iota
    # and mu = lam: the written model is the input's, differential included
    model_path, _ = retract_pair(tmp_path)
    model, _ = load_model(model_path)
    sp = model.fiber
    con = build_contraction(sp, model.delta, MultiOp.zero(1, -1, sp, sp))
    con_path = write_doc(tmp_path, "whole.json", contraction_to_json(con))
    out_path = str(tmp_path / "same.json")
    code, _, _ = run(capsys, "transfer", model_path, con_path,
                     "--mode", "both", "--out", out_path)
    assert code == 0
    back, _ = load_model(out_path)
    assert not back.delta.is_zero()
    assert back.delta.coeffs == model.delta.coeffs
    assert back.ops.ops.keys() == model.ops.ops.keys()
    assert all(back.ops.op(k).coeffs == model.ops.op(k).coeffs for k in model.ops.ops)


def test_transfer_carries_a_model_with_other_labels_onto_the_contraction(tmp_path, capsys):
    # the same model with default labels is re-homed onto the contraction's
    # labelled space and gives the output of the model that shares it
    model_path, _ = retract_pair(tmp_path)
    model, _ = load_model(model_path)
    sp = GradedSpace.build(model.fiber.dims)
    assert sp != model.fiber
    plain = LinftyBundle((), sp, MultiOp(1, 1, sp, sp, dict(model.delta.coeffs)),
                         OpFamily(1, sp, sp, {1: MultiOp(1, 1, sp, sp,
                                                         dict(model.ops.op(1).coeffs))}))
    plain_path = write_doc(tmp_path, "plain.json", bundle_to_json(plain))
    con = build_contraction(model.fiber, model.delta,
                            MultiOp.zero(1, -1, model.fiber, model.fiber))
    con_path = write_doc(tmp_path, "whole.json", contraction_to_json(con))
    outs = []
    for path in (model_path, plain_path):
        code, out, _ = run(capsys, "transfer", path, con_path, "--mode", "both")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and len(json.loads(outs[0])["ops"]) == 2


@pytest.mark.parametrize("h_rank", [1, 0])
def test_transfer_modes_refuse_a_non_nilpotent_eta_lam1(h_rank, tmp_path, capsys):
    # delta a = b, eta b = a and lam_1 a = b, so eta lam_1 a = a; with
    # h_rank 1 a cycle h (lam_1 h = b) spans H, with h_rank 0 H is zero
    sp = GradedSpace.build({1: 1 + h_rank, 2: 1})
    a, b = (1, 0), (2, 0)
    delta = MultiOp(1, 1, sp, sp, {(a,): {b: Fraction(1)}})
    eta = MultiOp(1, -1, sp, sp, {(b,): {a: Fraction(1)}})
    lam1 = MultiOp(1, 1, sp, sp, {((1, i),): {b: Fraction(1)} for i in range(1 + h_rank)})
    con = build_contraction(sp, delta, eta)
    assert con.h_space.total_dim == h_rank
    model = write_doc(tmp_path, "model.json",
                      bundle_to_json(LinftyBundle((), sp, delta, OpFamily(1, sp, sp, {1: lam1}))))
    con_path = write_doc(tmp_path, "con.json", contraction_to_json(con))
    errs = set()
    for mode in ("recursive", "trees", "both"):
        code, out, err = run(capsys, "transfer", model, con_path, "--mode", mode)
        assert code == 2 and out == ""
        errs.add(err)
    assert errs == {"input error: eta lam_1 is not nilpotent; "
                    "the expansion does not terminate\n"}


def test_transfer_rejects_base_coordinates(square_model, tmp_path, capsys):
    _, con = retract_pair(tmp_path)
    code, _, err = run(capsys, "transfer", square_model, con)
    assert code == 2
    assert "constant-coefficient" in err


def test_transfer_rejects_mismatched_ranks(tmp_path, capsys):
    _, con = retract_pair(tmp_path)
    sp = GradedSpace.build({1: 1})
    b = LinftyBundle((), sp, MultiOp.zero(1, 1, sp, sp), OpFamily(1, sp, sp, {}))
    model = write_doc(tmp_path, "tiny.json", bundle_to_json(b))
    code, _, err = run(capsys, "transfer", model, con)
    assert code == 2
    assert "ranks" in err


def test_transfer_refuses_a_contraction_entry_of_arity_two(tmp_path, capsys):
    # an arity-2 term of delta is no part of a linear map: loading it
    # would transfer along another contraction than the file's
    model, con = retract_pair(tmp_path)
    doc = json.loads(open(con).read())
    n = len(doc["delta"])
    doc["delta"].append({"arity": 2, "inputs": [[1, 0], [1, 1]], "output": [3, 0],
                         "coeff": "1"})
    bad = write_doc(tmp_path, "arity2.json", doc)
    code, out, err = run(capsys, "transfer", model, bad, "--json")
    assert code == 2 and out == ""
    assert f"input error: {bad}: delta[{n}]: arity must be 1" in err


def test_check_axioms_refuses_an_exponent_that_is_a_list(tmp_path, capsys):
    doc = bundle_to_json(square_bundle())
    doc["ops"][0]["coeff"] = [[[[1]], "1"]]
    bad = write_doc(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "check-axioms", bad)
    assert code == 2 and out == ""
    assert f"input error: {bad}: ops[0].coeff[0]: exponents must be integers" in err


def test_check_axioms_refuses_a_boolean_for_an_integer(tmp_path, capsys):
    doc = bundle_to_json(square_bundle())
    doc["ops"][0]["output"] = [True, False]
    bad = write_doc(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "check-axioms", bad)
    assert code == 2 and out == ""
    assert f"input error: {bad}: ops[0].output: expected a [degree, index] pair" in err


# -- pointwise reports ----------------------------------------------------------------

def test_tangent_complex_at_the_double_root(square_model, capsys):
    code, out, _ = run(capsys, "tangent-complex", square_model, "--point", "0")
    assert code == 0
    assert "H^0 = 1" in out and "H^1 = 1" in out
    assert "euler characteristic" in out and "virtual dimension" in out


def test_tangent_complex_rejects_non_classical_point(square_model, capsys):
    code, _, err = run(capsys, "tangent-complex", square_model, "--point", "1")
    assert code == 2
    assert "input error" in err


def test_weak_equiv_identity(tmp_path, capsys):
    path = write_doc(tmp_path, "id.json",
                     morphism_to_json(identity_morphism(square_bundle())))
    code, out, _ = run(capsys, "weak-equiv", path,
                       "--src-points", "0", "--dst-points", "0")
    assert code == 0
    assert "certified on the supplied candidate loci only" in out


def test_weak_equiv_fold_map_fails_bijection(tmp_path, capsys):
    src, dst = plain_bundle(("u",)), plain_bundle(("x",))
    fold = Morphism(src, dst, (u * u,),
                    OpFamily(0, src.fiber, dst.fiber, {}))
    path = write_doc(tmp_path, "fold.json", morphism_to_json(fold))
    code, out, _ = run(capsys, "weak-equiv", path,
                       "--src-points", "1;-1", "--dst-points", "1")
    assert code == 1
    assert "NO" in out


def test_fibration_projection(tmp_path, capsys):
    src, dst = plain_bundle(("x", "y")), plain_bundle(("x",))
    proj = Morphism(src, dst, (x,), OpFamily(0, src.fiber, dst.fiber, {}))
    path = write_doc(tmp_path, "proj.json", morphism_to_json(proj))
    code, out, _ = run(capsys, "fibration", path, "--samples", "0,0;1,2")
    assert code == 0
    assert "rank conditions checked at the supplied sample points" in out


def test_fibration_rejects_non_submersion(tmp_path, capsys):
    src, dst = plain_bundle(("u",)), plain_bundle(("x", "y"))
    incl = Morphism(src, dst, (u, Poly.constant(Fraction(0))),
                    OpFamily(0, src.fiber, dst.fiber, {}))
    path = write_doc(tmp_path, "incl.json", morphism_to_json(incl))
    code, out, _ = run(capsys, "fibration", path, "--samples", "0")
    assert code == 1
    assert "NO" in out


def test_fibration_without_samples_does_not_pass_a_non_affine_map(tmp_path, capsys):
    src, dst = plain_bundle(("u",)), plain_bundle(("x",))
    fold = Morphism(src, dst, (u * u,), OpFamily(0, src.fiber, dst.fiber, {}))
    path = write_doc(tmp_path, "fold.json", morphism_to_json(fold))
    code, out, _ = run(capsys, "fibration", path)
    assert code == 1
    assert "NO" in out and "no point was checked" in out


def test_fibration_rank_jump_is_a_witnessed_failure(tmp_path, capsys):
    b = square_bundle()
    phi = OpFamily(0, b.fiber, b.fiber,
                   {1: MultiOp(1, 0, b.fiber, b.fiber, {((1, 0),): {(1, 0): x}})})
    path = write_doc(tmp_path, "jump.json",
                     morphism_to_json(Morphism(b, b, (x,), phi)))
    code, _, err = run(capsys, "fibration", path, "--samples", "0;1")
    assert code == 1
    assert "witness" in err and "non-constant rank" in err


def test_fibration_refuses_a_sample_of_the_wrong_length(tmp_path, capsys):
    src, dst = plain_bundle(("x", "y")), plain_bundle(("x",))
    proj = Morphism(src, dst, (x,), OpFamily(0, src.fiber, dst.fiber, {}))
    path = write_doc(tmp_path, "proj.json", morphism_to_json(proj))
    code, _, err = run(capsys, "fibration", path, "--samples", "0,0;1")
    assert code == 2
    assert "input error" in err and "expected 2 coordinates, got 1" in err


# -- constructions that emit models ---------------------------------------------------

def test_shifted_tangent_output_revalidates(square_model, tmp_path, capsys):
    out_path = str(tmp_path / "shift.json")
    code, out, _ = run(capsys, "shifted-tangent", square_model, "--out", out_path)
    assert code == 0 and "re-validated" in out
    code, _, _ = run(capsys, "check-axioms", out_path)
    assert code == 0


def test_path_space_of_affine_plane(tmp_path, capsys):
    out_path = str(tmp_path / "paths.json")
    code, _, _ = run(capsys, "path-space", "--manifold", "2", "--out", out_path)
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert sorted(doc["base"]["coords"]) == ["x_0", "x_1", "y_0", "y_1"]
    assert run(capsys, "check-axioms", out_path)[0] == 0


def test_path_space_builds_a_bundle_needing_t_degree_17(tmp_path, capsys):
    # curvature x^17 on a rank-1 fiber needs a path model of t-degree 17
    model = write_doc(tmp_path, "steep.json",
                      bundle_to_json(section_bundle(("x",), (x ** 17,))))
    out_path = str(tmp_path / "paths.json")
    code, out, _ = run(capsys, "path-space", model, "--out", out_path)
    assert code == 0 and "re-validated" in out
    assert run(capsys, "check-axioms", out_path)[0] == 0


@pytest.mark.parametrize("command", ["path-space", "factorize"])
def test_a_model_that_fails_its_equation_is_named_as_the_cause(command, violator_model,
                                                              capsys):
    code, out, err = run(capsys, command, violator_model)
    assert code == 1 and out == ""
    assert err.startswith("witness: input structure fails the defining equation")
    assert "delta^2 != 0 on ((1, 0),)" in err and "path space" not in err


def test_factorize_affine_line(capsys):
    code, out, _ = run(capsys, "factorize", "--manifold", "1", "--points", "0;2")
    assert code == 0
    assert "weak equivalence" in out and "fibration" in out
    assert "equals the diagonal" in out


def test_factorize_square_model_finds_its_point(square_model, capsys):
    code, out, _ = run(capsys, "factorize", square_model)
    assert code == 0
    assert "(0)" in out


def test_fibered_product_of_the_two_axes(tmp_path, capsys):
    plane = plain_bundle(("x", "y"))
    zero = Poly.constant(Fraction(0))
    f = Morphism(plain_bundle(("u",)), plane, (u, zero),
                 OpFamily(0, GradedSpace.build({}), plane.fiber, {}))
    v = Poly.variable("v")
    g = Morphism(plain_bundle(("v",)), plane, (zero, v),
                 OpFamily(0, GradedSpace.build({}), plane.fiber, {}))
    fp = write_doc(tmp_path, "f.json", morphism_to_json(f))
    gp = write_doc(tmp_path, "g.json", morphism_to_json(g))
    out_path = str(tmp_path / "fp.json")
    code, out, _ = run(capsys, "fib-product", "--f", fp, "--g", gp,
                       "--out", out_path)
    assert code == 0
    assert "virtual dimension 0" in out
    assert run(capsys, "check-axioms", out_path)[0] == 0


@pytest.mark.parametrize("broken", ["f", "g"])
def test_fib_product_names_the_leg_that_is_not_a_morphism(broken, tmp_path, capsys):
    b = square_bundle()
    bad = linear_morphism(b, b, (x,), {(1, 0): {(1, 0): Fraction(7, 3)}})
    legs = {"f": identity_morphism(b), "g": identity_morphism(b), broken: bad}
    paths = {n: write_doc(tmp_path, f"{n}.json", morphism_to_json(m)) for n, m in legs.items()}
    code, out, err = run(capsys, "fib-product", "--f", paths["f"], "--g", paths["g"])
    assert code == 1 and not out
    assert f"leg {broken} fails the morphism equation" in err
    assert check_morphism(bad).describe() in err


# -- named intersections ----------------------------------------------------------------

def test_intersect_transversal_axes(capsys):
    code, out, _ = run(capsys, "intersect", "--x", "axis-x", "--y", "axis-y",
                       "--ambient", "2")
    assert code == 0
    assert "virtual dimension" in out and "0" in out
    assert "transversal" in out and "non-transversal" not in out


def test_intersect_axis_with_parabola(capsys):
    code, out, _ = run(capsys, "intersect", "--x", "axis-x", "--y", "parabola",
                       "--ambient", "2")
    assert code == 0
    assert "H^0 = 1" in out and "H^1 = 1" in out
    assert "non-transversal" in out


def test_intersect_unknown_shape(capsys):
    code, _, err = run(capsys, "intersect", "--x", "axis-z", "--y", "axis-x",
                       "--ambient", "2")
    assert code == 2
    assert "not available" in err


def test_zero_locus_of_the_squared_coordinate(capsys):
    code, out, _ = run(capsys, "zero-locus", "--coords", "x",
                       "--sections", "x**2")
    assert code == 0
    assert "(0)" in out and "weak equivalence" in out


def test_zero_locus_without_real_points(capsys):
    # two complex points and no rational one: with no point checked, no
    # weak equivalence is claimed
    code, out, _ = run(capsys, "zero-locus", "--coords", "x",
                       "--sections", "x**2 + 1")
    assert code == 1
    assert "none" in out and "no point was checked" in out
    assert "weak equivalence" not in out


@pytest.mark.parametrize("sections", ["x**60 + 1", "x**56 - 3", "(x**2 + 1)**30"])
def test_zero_locus_of_high_degree_checks_nothing(capsys, sections):
    # no rational point; the search drops the seeds whose values leave the
    # float range instead of raising on them
    code, out, err = run(capsys, "zero-locus", "--coords", "x",
                         "--sections", sections, "--json")
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["ok"] is False and doc["points"] == []
    assert doc["note"].startswith("no point was checked")


def test_zero_locus_beyond_the_point_search_checks_nothing(capsys):
    # a 3-dimensional locus in 4 coordinates, where the search does not run
    code, out, _ = run(capsys, "zero-locus", "--coords", "a,b,c,d",
                       "--sections", "a-1", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["points"] == []
    assert doc["note"].startswith("no point was checked")


def test_zero_locus_text_says_an_unchecked_comparison_is_not_checked(capsys):
    code, out, _ = run(capsys, "zero-locus", "--coords", "a,b,c,d",
                       "--sections", "a-1")
    assert code == 1
    assert "graph comparison  not checked\n" in out
    assert "FAILS" not in out


def test_factorize_text_says_an_unchecked_leg_is_not_checked(tmp_path, capsys):
    # x^2 + 1 has no real point, so the inclusion leg is checked nowhere
    model = write_doc(tmp_path, "no-points.json",
                      bundle_to_json(section_bundle(("x",), (x ** 2 + 1,))))
    code, out, _ = run(capsys, "factorize", model)
    assert code == 1
    assert "inclusion leg" in out and "not checked" in out
    assert "FAILS" not in out


def test_zero_locus_rejects_unknown_coordinate(capsys):
    code, _, err = run(capsys, "zero-locus", "--coords", "x",
                       "--sections", "y")
    assert code == 2
    assert "unknown coordinate" in err


@pytest.mark.parametrize("sections", ["x**True - 1", "x**False"])
def test_zero_locus_refuses_a_boolean_exponent(capsys, sections):
    # a boolean is no integer literal, in an exponent as in a factor
    code, _, err = run(capsys, "zero-locus", "--coords", "x", "--sections", sections)
    assert code == 2
    assert "exponents must be nonnegative integer literals" in err


def test_report_summarizes_the_model(square_model, capsys):
    code, out, _ = run(capsys, "report", square_model)
    assert code == 0
    assert "fiber ranks" in out and "amplitude" in out
    assert "tangent at (0)" in out


def test_report_flags_broken_models(violator_model, capsys):
    code, out, _ = run(capsys, "report", violator_model)
    assert code == 1
    assert "FAIL" in out


def test_report_says_when_it_checks_no_point(tmp_path, capsys):
    a, b, c, d = (Poly.variable(n) for n in "abcd")
    model = write_doc(tmp_path, "four.json",
                      bundle_to_json(section_bundle(tuple("abcd"), (a * b - c, d))))
    code, out, _ = run(capsys, "report", model)
    assert code == 0 and "tangent at" not in out
    assert re.search(r"note +no point checked: the point search takes at most three", out)
    code, out, _ = run(capsys, "report", model, "--json")
    assert code == 0 and json.loads(out)["note"].startswith("no point checked")


# -- many commands in one process -----------------------------------------------------------

def run_any(capsys, argv):
    """(exit code, stdout, stderr) of one command, argparse's own exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_main_runs_many_commands_in_one_process(square_model, tmp_path, capsys):
    model, con = retract_pair(tmp_path)
    bad = ("transfer", model, con, "--mode", "sideways")
    commands = [("transfer", model, con, "--mode", "trees"),
                ("transfer", model, con),
                ("factorize", square_model, "--json"),
                ("factorize", square_model),
                ("check-axioms", square_model, "--json"),
                ("check-axioms", square_model),
                bad,
                ("report", square_model)]
    alone = {}
    for argv in commands:
        build_parser.cache_clear()   # each reference run starts from a fresh parser
        alone[argv] = run_any(capsys, argv)
    assert alone[bad][0] == 2 and "invalid choice" in alone[bad][2]
    assert json.loads(alone[commands[4]][1])["ok"]
    assert alone[commands[5]][1].startswith("check-axioms")
    shuffled = random.Random(4).sample(commands, len(commands))
    for order in (commands, commands[::-1], shuffled, commands + commands):
        for argv in order:
            assert run_any(capsys, argv) == alone[argv], argv
    # the parser is shared, the namespaces are not
    assert build_parser() is build_parser()
    args = build_parser().parse_args(["transfer", model, con])
    assert args.mode == "recursive" and args.out is None and not args.json
    assert not build_parser().parse_args(["factorize", square_model]).json


def test_main_dispatches_to_the_current_binding(square_model, monkeypatch, capsys):
    # the parser outlives a rebinding of cmd_* (a tracer installs and removes wrappers)
    assert run(capsys, "check-axioms", square_model)[0] == 0
    monkeypatch.setattr(cli, "cmd_check_axioms", lambda args: 7)
    assert main(["check-axioms", square_model]) == 7
    monkeypatch.undo()
    assert run(capsys, "check-axioms", square_model)[0] == 0


# -- recorded pool answers ---------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
POOL = json.loads((ROOT / "perfbench" / "pool" / "manifest.json").read_text())["workloads"]


def digest(out):
    canon = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_pool_job(job, monkeypatch, capsys):
    """Run one pool job in process, its paths relative to the root, and judge
    its answer by its recorded check: the digest of its JSON output, a
    witness for a damaged input, or the additive virtual dimension."""
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *job["argv"])
    expect = job["expect"]
    assert code == expect["exit"]
    doc = json.loads(out)
    if expect["check"] == "digest":
        assert digest(out) == expect["digest"]
    elif expect["check"] == "witness":
        assert doc["ok"] is False and doc["witness"]
    else:
        assert expect["check"] == "vdim"
        assert (doc.get("metadata") or {}).get("virtual_dimension") == expect["vdim"]


def is_path_model_job(job):
    return job["id"].startswith(("ps-", "fz-"))


@pytest.mark.parametrize("job", [j for j in POOL["polybase"] if is_path_model_job(j)],
                         ids=lambda j: j["id"])
def test_pool_path_model_job_gives_its_recorded_digest(job, monkeypatch, capsys):
    # the pool's path-space and factorize jobs
    run_pool_job(job, monkeypatch, capsys)


@pytest.mark.parametrize("job", POOL["certify"], ids=lambda j: j["id"])
def test_pool_certify_job_gives_its_recorded_answer(job, monkeypatch, capsys):
    # check-axioms and check-morphism on the pool's models, a third of them damaged
    run_pool_job(job, monkeypatch, capsys)


@pytest.mark.parametrize("job", POOL["transfer"] + [j for j in POOL["polybase"]
                                                    if not is_path_model_job(j)],
                         ids=lambda j: j["id"])
def test_pool_job_gives_its_recorded_answer(job, monkeypatch, capsys):
    # every other pool job: both transfer engines, fibered products,
    # intersections, zero loci, tangent complexes and reports
    run_pool_job(job, monkeypatch, capsys)


def test_transfer_both_names_an_entry_where_the_engines_disagree(monkeypatch, capsys):
    # a tree engine with one coefficient of its top-arity mu flipped
    real = cli.transfer_trees
    flipped = []

    def corrupt(con, lam):
        res = real(con, lam)
        n = max(res.mu.ops)
        op = res.mu.op(n)
        tup, vec = min(op.coeffs.items())
        key, c = next(iter(vec.items()))
        flipped.append((n, tup, key, c))
        bad = MultiOp(n, op.degree, op.source, op.target, {**op.coeffs, tup: {**vec, key: -c}})
        return TransferResult(res.contraction, res.phi, res.mu.with_op(bad))

    monkeypatch.setattr(cli, "transfer_trees", corrupt)
    monkeypatch.chdir(ROOT)
    # a --mode both job whose transferred operations reach arity 2
    job = next(j for j in POOL["transfer"] if j["id"] == "t-a4d3-11")
    assert job["argv"][-2:] == ["--mode", "both"]
    code, out, err = run(capsys, *job["argv"])
    [(n, tup, key, c)] = flipped
    assert code == 1 and out == ""
    got = re.fullmatch(r"witness: recursive and tree-sum transfers disagree on arity-(\d+) "
                       r"input (.+): recursive (\{.*\}), trees (\{.*\})\n", err)
    assert got and (int(got[1]), got[2]) == (n, str(tup))
    assert f"{key}: {format_fraction(c)}" in got[3]
    assert f"{key}: {format_fraction(-c)}" in got[4]


FIB_PRODUCT_DIGESTS = json.loads((ROOT / "tests" / "fib_product_digests.json").read_text())


@pytest.mark.parametrize("job", [j for j in POOL["polybase"] if j["argv"][0] == "fib-product"],
                         ids=lambda j: j["id"])
def test_pool_fib_product_writes_its_recorded_bundle(job, monkeypatch, capsys):
    # the pool checks these jobs by virtual dimension only; this pins the
    # bundles they write
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *job["argv"])
    assert code == 0
    assert digest(out) == FIB_PRODUCT_DIGESTS[job["id"]]


@pytest.mark.parametrize("name, sha", [
    ("square", "979772fc346bad312558f3069263dbf327ac884aa2e01a71327587b43cb94e13"),
    ("circle", "b19e4deecf37569e40a96ed267d80664bc29645ec88686b925cbab9638c80329"),
    ("amp2", "050feb25d95d0e227ecf34aae2794cb13ff8dda6c6ced04269acd9dd55ef04d3"),
])
def test_shifted_tangent_prints_its_recorded_bytes(name, sha, monkeypatch, capsys):
    # the SHA-256 of the printed model as it was when the operations were
    # tabulated over every canonical tuple
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, "shifted-tangent", f"perfbench/pool/polybase/{name}.json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def pool_doc_copy(tmp_path, name, mutate):
    """A copy under tmp_path of the pool document perfbench/pool/name,
    changed by mutate; the pool file itself is left alone."""
    doc = json.loads((ROOT / "perfbench" / "pool" / name).read_text())
    mutate(doc)
    return write_doc(tmp_path, Path(name).name, doc)


def test_fib_product_refuses_labels_that_are_not_an_object(tmp_path, capsys):
    f = pool_doc_copy(tmp_path, "polybase/fp-14.f.json",
                      lambda doc: doc["src"]["metadata"].update(labels="0"))
    g = str(ROOT / "perfbench" / "pool" / "polybase" / "fp-14.g.json")
    code, out, err = run(capsys, "fib-product", "--f", f, "--g", g)
    assert code == 2 and out == ""
    assert err == (f"input error: {f}: src.metadata.labels: "
                   "expected an object of degree: list of strings, got '0'\n")


def test_fib_product_names_the_file_at_fault(tmp_path, capsys):
    """Two morphism files damaged the same way: each refusal names its own."""
    f = pool_doc_copy(tmp_path, "polybase/fp-14.f.json",
                      lambda doc: doc["src"]["metadata"].update(labels="0"))
    g = pool_doc_copy(tmp_path, "polybase/fp-14.g.json",
                      lambda doc: doc["src"]["metadata"].update(labels="0"))
    good_f = str(ROOT / "perfbench" / "pool" / "polybase" / "fp-14.f.json")
    good_g = str(ROOT / "perfbench" / "pool" / "polybase" / "fp-14.g.json")
    for args, bad in ((("--f", good_f, "--g", g), g), (("--f", f, "--g", good_g), f),
                      (("--f", f, "--g", g), f)):
        code, out, err = run(capsys, "fib-product", *args)
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {bad}: src.metadata.labels: ")


def test_path_space_refuses_a_label_row_that_is_not_a_list(tmp_path, capsys):
    model = pool_doc_copy(tmp_path, "polybase/amp2.json",
                          lambda doc: doc["metadata"]["labels"].update({"1": True}))
    code, out, err = run(capsys, "path-space", model)
    assert code == 2 and out == ""
    assert f"input error: {model}: metadata.labels.1: expected a list of strings, got True" in err


def test_check_morphism_refuses_a_part_that_is_not_a_string(tmp_path, capsys):
    mor = pool_doc_copy(tmp_path, "certify/mor-a5d4-6.json",
                        lambda doc: doc["phi"][0].update(part=[0]))
    code, out, err = run(capsys, "check-morphism", "--json", mor)
    assert code == 2 and out == ""
    assert f"input error: {mor}: phi[0]: unknown part [0]" in err


# -- expression parser --------------------------------------------------------------------

def test_parse_poly_expr_matches_hand_built_polynomials():
    assert parse_poly_expr("x**2 - 2*x + 1", ("x",)) == (x - 1) ** 2
    assert parse_poly_expr("x/2", ("x",)) == x * Fraction(1, 2)
    y = Poly.variable("y")
    assert parse_poly_expr("-(x*y) + 3", ("x", "y")) == -(x * y) + 3


@pytest.mark.parametrize("src", [
    "1.5", "x**-1", "x**y", "1/x", "z", "x @ y", "x +",
])
def test_parse_poly_expr_rejections(src):
    with pytest.raises(ModelFormatError):
        parse_poly_expr(src, ("x", "y"))


CERTIFYING_MODULES = (algebra, geometry, pathspace, cli)


@pytest.mark.parametrize("job", [j for j in POOL["polybase"] if j["argv"][0] in (
    "fib-product", "intersect", "zero-locus", "path-space", "factorize")],
    ids=lambda j: j["id"])
def test_pool_job_certifies_each_map_once(job, monkeypatch, capsys):
    # a construction certifies what it builds and takes its inputs as
    # certified, so no object meets check_morphism or check_mc twice; every
    # argument is held, so no id is reused within the job
    held = []

    def counting(real):
        def certify(obj):
            held.append(obj)
            return real(obj)
        return certify

    for name in ("check_morphism", "check_mc"):
        wrapped = counting(getattr(algebra, name))
        for module in CERTIFYING_MODULES:
            monkeypatch.setattr(module, name, wrapped)
    run_pool_job(job, monkeypatch, capsys)
    assert held
    counts = Counter(map(id, held))
    twice = sorted({type(obj).__name__ for obj in held if counts[id(obj)] > 1})
    assert not twice, f"certified more than once: {twice}"
