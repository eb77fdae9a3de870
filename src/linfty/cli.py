"""Command-line drivers.

Every subcommand reads and writes the JSON model format from
linfty.modelio, so the output of one command can feed the next.  Exit
codes: 0 when the requested check or construction succeeds, 1 when a
mathematical property fails (the report carries a witness), 2 for
malformed files or arguments.  Commands that certify properties at sample
points repeat the scope note of the underlying report verbatim; nothing
here claims more than the engine checked.

main(argv) may be called repeatedly in one process: the argument parser
is built on the first call and reused, and each call parses into a fresh
namespace, so nothing carries over from one command to the next.
"""

from __future__ import annotations

import argparse
import ast
import functools
import sys
from fractions import Fraction

from .algebra import LinftyBundle, _format_vector, check_mc, check_morphism, plain_bundle
from .geometry import (MAX_SEARCH_COORDS, StagedTangent, classical_point,
                       find_classical_points, is_fibration, is_weak_equivalence,
                       shifted_tangent, tangent_complex, virtual_dimension)
from .graded import MultiOp, OpFamily
from .modelio import (ModelFormatError, bundle_to_json, dumps,
                      load_contraction, load_model, load_morphism, parse_frac)
from .pathspace import (ambient_coord_names, axis_submanifold, derived_intersection,
                        derived_path_space, factorize_diagonal, graph_submanifold,
                        homotopy_fibered_product, verify_factorization,
                        zero_locus_model)
from .poly import Poly, format_fraction
from .transfer import transfer, transfer_trees


# ---------------------------------------------------------------------------
# small input parsers
# ---------------------------------------------------------------------------


def parse_poly_expr(src: str, coords) -> Poly:
    """Parse a polynomial expression with +, -, *, ** and rational constants.

    Division is allowed by constants only; exponents must be nonnegative
    integers.  Anything else is rejected with the offending fragment named.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ModelFormatError(f"bad polynomial {src!r}: {exc.msg}") from exc

    def walk(node) -> Poly:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return Poly.constant(Fraction(node.value))
            raise ModelFormatError(
                f"{src!r}: only integer literals are allowed, got {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id not in coords:
                raise ModelFormatError(
                    f"{src!r}: unknown coordinate {node.id!r} "
                    f"(have {', '.join(coords) or 'none'})")
            return Poly.variable(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return walk(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                return walk(node.left) + walk(node.right)
            if isinstance(node.op, ast.Sub):
                return walk(node.left) - walk(node.right)
            if isinstance(node.op, ast.Mult):
                return walk(node.left) * walk(node.right)
            if isinstance(node.op, ast.Pow):
                if not (isinstance(node.right, ast.Constant)
                        and isinstance(node.right.value, int)
                        and not isinstance(node.right.value, bool)
                        and node.right.value >= 0):
                    raise ModelFormatError(
                        f"{src!r}: exponents must be nonnegative integer literals")
                return walk(node.left) ** node.right.value
            if isinstance(node.op, ast.Div):
                den = walk(node.right)
                if not den.is_constant() or not den.constant_value():
                    raise ModelFormatError(
                        f"{src!r}: division only by nonzero constants")
                return walk(node.left) * (Fraction(1) / den.constant_value())
        raise ModelFormatError(f"{src!r}: unsupported syntax "
                               f"({type(node).__name__})")

    return walk(tree)


def parse_point(text: str, where: str = "point") -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_frac(v.strip(), where) for v in text.split(","))


def parse_points(text: str | None, where: str = "points") -> list[tuple[Fraction, ...]]:
    if not text:
        return []
    return [parse_point(chunk, where) for chunk in text.split(";") if chunk.strip()]


def _json_point(pt) -> list[str]:
    coords = pt.coords if hasattr(pt, "coords") else pt
    return [format_fraction(v) for v in coords]


def _fmt_point(pt) -> str:
    coords = pt.coords if hasattr(pt, "coords") else pt
    return "(" + ", ".join(format_fraction(v) for v in coords) + ")"


def _weq_verdict(weq, failed: str) -> str:
    """Text verdict of a weak-equivalence report; with no point checked
    there is no verdict, only "not checked"."""
    if not weq.pairs:
        return "not checked"
    return "weak equivalence" if weq.ok else failed


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _write(args, payload: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_report(args, doc: dict, lines: list[tuple[str, object]]) -> None:
    if getattr(args, "json", False):
        _write(args, dumps(doc))
        return
    width = max((len(k) for k, _ in lines), default=0)
    _write(args, "".join(f"{k:<{width}}  {v}\n" for k, v in lines))


def _emit_model(args, text: str, summary: str) -> None:
    _write(args, text)
    if getattr(args, "out", None):
        print(summary)


def _space_lines(bundle: LinftyBundle) -> list[tuple[str, object]]:
    ranks = ", ".join(f"{d}: {bundle.fiber.dims[d]}"
                      for d in bundle.fiber.degrees()) or "none"
    return [("base coordinates", ", ".join(bundle.coords) or "none"),
            ("fiber ranks", ranks),
            ("virtual dimension", virtual_dimension(bundle))]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check_axioms(args) -> int:
    bundle, _ = load_model(args.model)
    rep = check_mc(bundle)
    doc = {"command": "check-axioms", "model": args.model, "ok": rep.ok,
           "witness": None if rep.ok else rep.describe()}
    lines = [("check-axioms", args.model), *_space_lines(bundle),
             ("structure equations", "hold" if rep.ok else "FAIL")]
    if not rep.ok:
        lines.append(("witness", rep.describe()))
    _emit_report(args, doc, lines)
    return 0 if rep.ok else 1


def cmd_check_morphism(args) -> int:
    mor = load_morphism(args.morphism)
    rep = check_morphism(mor)
    doc = {"command": "check-morphism", "morphism": args.morphism, "ok": rep.ok,
           "witness": None if rep.ok else rep.describe()}
    lines = [("check-morphism", args.morphism),
             ("source", ", ".join(mor.src.coords) or "point"),
             ("target", ", ".join(mor.dst.coords) or "point"),
             ("morphism equation", "holds" if rep.ok else "FAIL")]
    if not rep.ok:
        lines.append(("witness", rep.describe()))
    _emit_report(args, doc, lines)
    return 0 if rep.ok else 1


def _rehome_family(bundle: LinftyBundle, space):
    # model files address the fiber by (degree, index), so a contraction
    # over the same ranks names the same space; a fiber equal to space,
    # labels included, is already there
    if bundle.fiber == space:
        return bundle.delta, bundle.ops
    delta = MultiOp(1, 1, space, space, dict(bundle.delta.coeffs))
    ops = OpFamily(1, space, space,
                   {k: MultiOp(k, 1, space, space, dict(bundle.ops.op(k).coeffs))
                    for k in bundle.ops.arities()})
    return delta, ops


def cmd_transfer(args) -> int:
    bundle, _ = load_model(args.model)
    if bundle.coords:
        raise ModelFormatError(
            "transfer needs a constant-coefficient model (no base coordinates)")
    con = load_contraction(args.contraction)
    if con.space.dims != bundle.fiber.dims:
        raise ModelFormatError(
            f"model ranks {dict(bundle.fiber.dims)} do not match "
            f"contraction ambient ranks {dict(con.space.dims)}")
    delta, lam = _rehome_family(bundle, con.space)
    if delta != con.delta:
        raise ModelFormatError(
            "model differential disagrees with the contraction differential")

    mu = (transfer_trees if args.mode == "trees" else transfer)(con, lam).mu
    if args.mode == "both":
        other = transfer_trees(con, lam).mu
        if mu != other:
            n, tup = next((n, tup) for n in sorted(set(mu.ops) | set(other.ops))
                          for tup in sorted(mu.op(n).minus(other.op(n)).coeffs))
            print(f"witness: recursive and tree-sum transfers disagree on arity-{n} "
                  f"input {tup}: recursive {_format_vector(mu.op(n).coeffs.get(tup, {}))}, "
                  f"trees {_format_vector(other.op(n).coeffs.get(tup, {}))}",
                  file=sys.stderr)
            return 1
    transferred = LinftyBundle((), con.h_space, con.delta_h, mu)
    rep = check_mc(transferred)
    if not rep.ok:
        print(f"transferred structure fails its defining equation ({args.mode}):\n"
              f"{rep.describe()}", file=sys.stderr)
        return 1
    _emit_model(args, dumps(bundle_to_json(transferred)),
                f"transfer ok (mode {args.mode}), output re-validated")
    return 0


def cmd_tangent_complex(args) -> int:
    bundle, _ = load_model(args.model)
    pt = parse_point(args.point, "--point")
    cp = classical_point(bundle, pt)
    cx = tangent_complex(bundle, cp)
    betti = cx.cohomology()
    euler = cx.euler_characteristic()
    vdim = virtual_dimension(bundle)
    doc = {"command": "tangent-complex", "model": args.model,
           "point": _json_point(cp),
           "dims": {str(k): n for k, n in sorted(cx.dims.items())},
           "betti": {str(k): n for k, n in sorted(betti.items())},
           "euler_characteristic": euler, "virtual_dimension": vdim}
    lines = [("tangent complex at", _fmt_point(cp)),
             ("complex ranks", ", ".join(f"{k}: {n}" for k, n in sorted(cx.dims.items())) or "0"),
             ("cohomology", ", ".join(f"H^{k} = {n}" for k, n in sorted(betti.items())) or "trivial"),
             ("euler characteristic", euler),
             ("virtual dimension", vdim)]
    _emit_report(args, doc, lines)
    return 0


def cmd_weak_equiv(args) -> int:
    mor = load_morphism(args.morphism)
    src_pts = parse_points(args.src_points, "--src-points")
    dst_pts = parse_points(args.dst_points, "--dst-points")
    rep = is_weak_equivalence(mor, src_pts, dst_pts)
    doc = {"command": "weak-equiv", "morphism": args.morphism, "ok": rep.ok,
           "bijection_ok": rep.bijection_ok,
           "pairs": [[_json_point(p), _json_point(img)] for p, img in rep.pairs],
           "cone_betti": [{str(k): n for k, n in sorted(e.cone_betti.items())}
                          for e in rep.etale],
           "note": rep.note}
    lines = [("weak-equiv", args.morphism),
             ("locus bijection", "yes" if rep.bijection_ok else "NO")]
    for e in rep.etale:
        cone = ("acyclic" if e.ok else
                ", ".join(f"H^{k} = {n}" for k, n in sorted(e.cone_betti.items())))
        lines.append((f"cone at {_fmt_point(e.point)}", cone))
    lines += [("weak equivalence", "yes" if rep.ok else "NO"),
              ("note", rep.note)]
    _emit_report(args, doc, lines)
    return 0 if rep.ok else 1


def cmd_fibration(args) -> int:
    mor = load_morphism(args.morphism)
    samples = parse_points(args.samples, "--samples")
    n = len(mor.src.coords)
    for s in samples:
        if len(s) != n:
            raise ModelFormatError(f"--samples: expected {n} coordinates, got {len(s)}")
    try:
        rep = is_fibration(mor, samples=samples)
    except ValueError as exc:
        print(f"witness: {exc}", file=sys.stderr)
        return 1
    doc = {"command": "fibration", "morphism": args.morphism, "ok": rep.ok,
           "submersion_ok": rep.submersion_ok,
           "surjective_degrees": {str(k): v for k, v in sorted(rep.surjective_degrees.items())},
           "linear_ranks": {str(k): v for k, v in sorted(rep.ranks.items())},
           "note": rep.note}
    lines = [("fibration", args.morphism),
             ("base submersion", "yes" if rep.submersion_ok else "NO")]
    for k in sorted(rep.surjective_degrees):
        lines.append((f"degree {k} linear part",
                      f"rank {rep.ranks[k]}, "
                      f"{'surjective' if rep.surjective_degrees[k] else 'NOT surjective'}"))
    lines += [("fibration check", "pass" if rep.ok else "FAIL"), ("note", rep.note)]
    _emit_report(args, doc, lines)
    return 0 if rep.ok else 1


def cmd_shifted_tangent(args) -> int:
    bundle, _ = load_model(args.model)
    st = shifted_tangent(bundle)
    rep = check_mc(st)
    if not rep.ok:
        print(f"shifted tangent fails its defining equation:\n{rep.describe()}",
              file=sys.stderr)
        return 1
    _emit_model(args, dumps(bundle_to_json(st)), "shifted tangent ok, output re-validated")
    return 0


def _input_bundle(args) -> LinftyBundle:
    if getattr(args, "manifold", None):
        return _affine_bundle(args.manifold)
    if not args.model:
        raise ModelFormatError("give a model file or --manifold DIM")
    bundle, _ = load_model(args.model)
    return bundle


def _affine_bundle(m: int) -> LinftyBundle:
    if m <= 0:
        raise ModelFormatError("--manifold needs a positive dimension")
    return plain_bundle(ambient_coord_names(m))


def cmd_path_space(args) -> int:
    bundle = _input_bundle(args)
    dps = derived_path_space(bundle)
    _emit_model(args, dumps(bundle_to_json(dps.bundle)),
                "path space ok: structure and endpoint evaluation re-validated")
    return 0


def _candidate_points(bundle: LinftyBundle, supplied):
    if supplied:
        return [classical_point(bundle, p) for p in supplied]
    if len(bundle.coords) > MAX_SEARCH_COORDS:
        raise ModelFormatError(
            "point search supports at most three coordinates; pass --points")
    exact, leftovers = find_classical_points(bundle)
    if leftovers:
        raise ModelFormatError(
            f"numeric search found non-rational candidate zeros {leftovers}; "
            f"pass --points with exact coordinates")
    return exact


def cmd_factorize(args) -> int:
    bundle = _input_bundle(args)
    fz = factorize_diagonal(bundle)
    pts = _candidate_points(bundle, parse_points(args.points, "--points"))
    rep = verify_factorization(fz, pts)
    weq, fib = rep.weak_equiv, rep.fibration
    doc = {"command": "factorize", "ok": rep.ok,
           "composite_is_diagonal": True,
           "points": [_json_point(p) for p, _ in weq.pairs],
           "weak_equivalence": {"ok": weq.ok, "bijection_ok": weq.bijection_ok,
                                "note": weq.note},
           "fibration": {"ok": fib.ok, "submersion_ok": fib.submersion_ok,
                         "linear_ranks": {str(k): v for k, v in sorted(fib.ranks.items())},
                         "note": fib.note}}
    lines = [("factorize", args.model or f"affine space of dim {args.manifold}"),
             ("composite", "equals the diagonal"),
             ("classical points", "; ".join(_fmt_point(p) for p, _ in weq.pairs) or "none"),
             ("inclusion leg", _weq_verdict(weq, "FAILS weak equivalence")),
             ("note", weq.note),
             ("evaluation leg", "fibration" if fib.ok else "NOT a fibration"),
             ("note ", fib.note)]
    _emit_report(args, doc, lines)
    return 0 if rep.ok else 1


def cmd_fib_product(args) -> int:
    f = load_morphism(args.f)
    g = load_morphism(args.g)
    fp = homotopy_fibered_product(f, g)
    vdim = virtual_dimension(fp.bundle)
    _emit_model(args, dumps(bundle_to_json(
        fp.bundle, metadata={"virtual_dimension": vdim})),
        f"fibered product ok, virtual dimension {vdim}")
    return 0


_NAMED_SHAPES = ("axis-x", "axis-y", "axis-z", "parabola")


def _named_submanifold(name: str, m: int):
    if name.startswith("axis-"):
        letter = name[len("axis-"):]
        if letter in ("x", "y", "z") and "xyz".index(letter) < m:
            return axis_submanifold("xyz".index(letter), m)
        raise ModelFormatError(f"axis {letter!r} not available in dimension {m}")
    if name == "parabola":
        if m != 2:
            raise ModelFormatError("parabola lives in ambient dimension 2")
        u = Poly.variable("u")
        return graph_submanifold(u * u)
    raise ModelFormatError(
        f"unknown shape {name!r}; choose from {', '.join(_NAMED_SHAPES)}")


def cmd_intersect(args) -> int:
    m = args.ambient
    x = _named_submanifold(args.x, m)
    y = _named_submanifold(args.y, m)
    supplied = parse_points(args.points, "--points") or None
    di = derived_intersection(x, y, points=supplied)
    doc = {"command": "intersect", "x": args.x, "y": args.y, "ambient_dim": m,
           "virtual_dimension": di.virtual_dim,
           "points": [{"ambient": _json_point(p.ambient),
                       "H^0": p.h0, "H^1": p.h1,
                       "transversal": p.transversal} for p in di.points],
           "model": bundle_to_json(di.bundle)}
    lines = [("intersect", f"{args.x} with {args.y} in dimension {m}"),
             ("virtual dimension", di.virtual_dim)]
    for p in di.points:
        lines.append((f"point {_fmt_point(p.ambient)}",
                      f"H^0 = {p.h0}, H^1 = {p.h1}, "
                      f"{'transversal' if p.transversal else 'non-transversal'}"))
    if not di.points:
        lines.append(("points", "no classical points found"))
    _emit_report(args, doc, lines)
    return 0


def cmd_zero_locus(args) -> int:
    coords = tuple(c.strip() for c in args.coords.split(",") if c.strip())
    if not coords:
        raise ModelFormatError("--coords needs at least one name")
    sections = [parse_poly_expr(s.strip(), coords)
                for s in args.sections.split(";") if s.strip()]
    if not sections:
        raise ModelFormatError("--sections needs at least one expression")
    supplied = parse_points(args.points, "--points") or None
    cmp = zero_locus_model(coords, sections, points=supplied)
    weq = cmp.weak_equiv
    doc = {"command": "zero-locus", "coords": list(coords),
           "sections": [str(s) for s in sections],
           "ok": weq.ok,
           "points": [_json_point(p) for p in cmp.points],
           # no point is searched on the graph intersection itself
           "intersection_points": [],
           "note": weq.note,
           "model": bundle_to_json(cmp.model)}
    lines = [("zero-locus", "; ".join(str(s) for s in sections)),
             ("coordinates", ", ".join(coords)),
             ("classical points", "; ".join(_fmt_point(p) for p in cmp.points) or "none"),
             ("graph comparison", _weq_verdict(weq, "FAILS")),
             ("note", weq.note)]
    _emit_report(args, doc, lines)
    return 0 if weq.ok else 1


def cmd_report(args) -> int:
    bundle, meta = load_model(args.model)
    rep = check_mc(bundle)
    doc = {"command": "report", "model": args.model,
           "base": {"dim": len(bundle.coords), "coords": list(bundle.coords)},
           "fiber_ranks": {str(d): bundle.fiber.dims[d] for d in bundle.fiber.degrees()},
           "amplitude": bundle.amplitude,
           "max_arity": max(bundle.ops.arities(), default=0),
           "virtual_dimension": virtual_dimension(bundle),
           "structure_equations": "hold" if rep.ok else rep.describe()}
    lines = [("report", args.model), *_space_lines(bundle),
             ("amplitude", bundle.amplitude),
             ("max arity", max(bundle.ops.arities(), default=0)),
             ("structure equations", "hold" if rep.ok else "FAIL")]
    if not rep.ok:
        lines.append(("witness", rep.describe()))
    elif len(bundle.coords) > MAX_SEARCH_COORDS:
        doc["note"] = "no point checked: the point search takes at most three coordinates"
        lines.append(("note", doc["note"]))
    else:
        exact, leftovers = find_classical_points(bundle)
        pts_doc = []
        note = ("certified on the supplied candidate loci only; global "
                "statements need a complete point list")
        staged = StagedTangent(bundle)
        for cp in exact:
            betti = staged.tangent_complex(cp).cohomology()
            pts_doc.append({"point": _json_point(cp),
                            "betti": {str(k): n for k, n in sorted(betti.items())}})
            lines.append((f"tangent at {_fmt_point(cp)}",
                          ", ".join(f"H^{k} = {n}" for k, n in sorted(betti.items()))
                          or "acyclic"))
        doc["classical_points"] = pts_doc
        doc["non_rational_candidates"] = [list(map(str, p)) for p in leftovers]
        doc["note"] = note
        if leftovers:
            lines.append(("non-rational candidates",
                          "; ".join(str(tuple(round(v, 6) for v in p))
                                    for p in leftovers)))
        lines.append(("note", note))
    if meta:
        doc["metadata"] = meta
    _emit_report(args, doc, lines)
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.

    Every call returns the same parser.  It records each subcommand's
    function by name and main looks the name up in this module at call
    time, so rebinding a cmd_* name (a tracer, a test double) takes effect
    even after the parser was built.
    """
    parser = argparse.ArgumentParser(
        prog="linfty",
        description="Exact computations with curved homotopy structures: "
                    "axioms, transfer, path spaces, and derived intersections.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func_name=fn.__name__)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of aligned text")
        p.add_argument("--out", help="write output to this file")
        return p

    p = add("check-axioms", cmd_check_axioms, "verify the structure equations of a model")
    p.add_argument("model")

    p = add("check-morphism", cmd_check_morphism, "verify the morphism equation")
    p.add_argument("morphism")

    p = add("transfer", cmd_transfer, "transfer a model through a contraction")
    p.add_argument("model")
    p.add_argument("contraction")
    p.add_argument("--mode", choices=["recursive", "trees", "both"],
                   default="recursive")

    p = add("tangent-complex", cmd_tangent_complex,
            "tangent complex and cohomology at a classical point")
    p.add_argument("model")
    p.add_argument("--point", required=True, help="comma-separated rationals")

    p = add("weak-equiv", cmd_weak_equiv,
            "check a morphism is a weak equivalence on candidate loci")
    p.add_argument("morphism")
    p.add_argument("--src-points", required=True,
                   help="semicolon-separated points, e.g. '0,0;1,1'")
    p.add_argument("--dst-points", required=True)

    p = add("fibration", cmd_fibration, "check a morphism is a fibration")
    p.add_argument("morphism")
    p.add_argument("--samples", help="semicolon-separated base sample points")

    p = add("shifted-tangent", cmd_shifted_tangent,
            "shifted tangent bundle of a model")
    p.add_argument("model")

    p = add("path-space", cmd_path_space, "derived path space of a model")
    p.add_argument("model", nargs="?")
    p.add_argument("--manifold", type=int,
                   help="use a plain affine space of this dimension")

    p = add("factorize", cmd_factorize,
            "factor the diagonal as weak equivalence then fibration")
    p.add_argument("model", nargs="?")
    p.add_argument("--manifold", type=int)
    p.add_argument("--points", help="classical points for the certificates")

    p = add("fib-product", cmd_fib_product,
            "homotopy fibered product of two morphisms to a common target")
    p.add_argument("--f", required=True, help="morphism file, left leg")
    p.add_argument("--g", required=True, help="morphism file, right leg")

    p = add("intersect", cmd_intersect, "derived intersection of two named shapes")
    p.add_argument("--x", required=True, help=f"one of {', '.join(_NAMED_SHAPES)}")
    p.add_argument("--y", required=True)
    p.add_argument("--ambient", type=int, required=True)
    p.add_argument("--points", help="candidate intersection points in the parameter base")

    p = add("zero-locus", cmd_zero_locus,
            "derived zero locus of a polynomial section, compared with the graph intersection")
    p.add_argument("--coords", required=True, help="comma-separated names")
    p.add_argument("--sections", required=True,
                   help="semicolon-separated polynomial expressions")
    p.add_argument("--points", help="classical points to certify at")

    p = add("report", cmd_report, "summary report for a model")
    p.add_argument("model")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func_name](args)
    except ValueError as exc:  # ModelFormatError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"witness: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
