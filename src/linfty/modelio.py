"""Reading and writing model files.

A model file is a JSON document describing a curved structure on a trivial
graded bundle over named affine coordinates:

    {"base": {"dim": m, "coords": ["x", ...]},
     "bundle": {"1": rank, "2": rank, ...},
     "ops": [{"arity": k, "inputs": [[d, i], ...], "output": [d, i],
              "coeff": ...}, ...],
     "metadata": {...}}

Entries carrying "part": "delta" assemble the constant differential; the
rest are the structure operations, curvature included (arity 0, empty
inputs).  A coefficient is either a "num/den" string for a constant or a
sorted list of [exponents, "num/den"] pairs with exponents read against
the base coordinates.  Fiber basis labels and dt markers, when they
deviate from the defaults, ride along in metadata.

The writer emits one canonical form: entries sorted, fractions reduced,
two-space indent, trailing newline.  Serialization after deserialization
therefore reproduces a canonical file byte for byte.  Morphism and
contraction documents reuse the same entry encoding and are tagged with a
"kind" field.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import CurvedAlgebra, LinftyBundle, Morphism, algebra_as_bundle
from .graded import GradedSpace, MultiOp, OpFamily
from .poly import Poly, _exact
from .transfer import Contraction


class ModelFormatError(ValueError):
    """Malformed model document; message carries the offending field."""


def _fail(where: str, msg: str) -> "ModelFormatError":
    return ModelFormatError(f"{where}: {msg}")


# ---------------------------------------------------------------------------
# scalars and coefficients
# ---------------------------------------------------------------------------


def frac_str(q: int | Fraction) -> str:
    if type(q) is not int:
        q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_frac(s, where: str = "coefficient") -> int | Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise _fail(where, f"expected a rational string, got {s!r}")
    try:
        # an integer string is read by int(), which agrees with Fraction's parser
        # wherever both accept it at a twentieth of the cost
        if isinstance(s, int) or s.lstrip("+-").isdigit():
            return int(s)
        return _exact(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(where, f"bad rational {s!r}") from exc


def coeff_to_json(c, coords: tuple[str, ...]):
    if isinstance(c, Poly):
        p = c.pruned()
        if p.is_constant():
            return frac_str(p.constant_value())
        extra = set(p.vars) - set(coords)
        if extra:
            raise ValueError(f"coefficient uses unknown coordinates {sorted(extra)}")
        p = c.with_vars(coords)
        return [[list(e), frac_str(q)] for e, q in sorted(p.terms.items())]
    return frac_str(c)


def coeff_from_json(obj, coords: tuple[str, ...], where: str):
    if isinstance(obj, (str, int)):
        return parse_frac(obj, where)
    if not isinstance(obj, list):
        raise _fail(where, f"expected rational string or term list, got {obj!r}")
    terms = {}
    for n, item in enumerate(obj):
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], list)):
            raise _fail(f"{where}[{n}]", f"expected [exponents, rational], got {item!r}")
        exps, q = item
        if len(exps) != len(coords):
            raise _fail(f"{where}[{n}]",
                        f"{len(exps)} exponents for {len(coords)} coordinates")
        terms[tuple(int(e) for e in exps)] = parse_frac(q, f"{where}[{n}]")
    return Poly(coords, terms)


# ---------------------------------------------------------------------------
# graded spaces
# ---------------------------------------------------------------------------


def space_to_json(space: GradedSpace) -> dict:
    return {str(d): space.dims[d] for d in space.degrees()}


def _default_labels(space: GradedSpace) -> bool:
    return all(space.labels[d] == tuple(f"e{d}_{i}" for i in range(space.dims[d]))
               for d in space.degrees())


def space_metadata(space: GradedSpace) -> dict:
    """Label/dt blocks for metadata, empty when everything is default."""
    meta = {}
    if not _default_labels(space):
        meta["labels"] = {str(d): list(space.labels[d]) for d in space.degrees()}
    if any(any(space.dt[d]) for d in space.degrees()):
        meta["dt"] = {str(d): list(space.dt[d]) for d in space.degrees()}
    return meta


def space_from_json(obj, meta: dict | None = None, where: str = "bundle") -> GradedSpace:
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object of degree: rank, got {obj!r}")
    dims = {}
    for k, v in obj.items():
        try:
            d = int(k)
        except ValueError as exc:
            raise _fail(where, f"degree key {k!r} is not an integer") from exc
        if not isinstance(v, int) or v < 0:
            raise _fail(where, f"rank for degree {k} must be a nonnegative integer")
        dims[d] = v
    meta = meta or {}
    labels = {int(d): row for d, row in meta.get("labels", {}).items()}
    dt = {int(d): row for d, row in meta.get("dt", {}).items()}
    try:
        return GradedSpace.build(dims, labels=labels or None, dt=dt or None)
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


# ---------------------------------------------------------------------------
# operation entry lists
# ---------------------------------------------------------------------------


def _op_entries(op: MultiOp, coords, part: str | None = None) -> list[dict]:
    entries = []
    for tup, vec in op.coeffs.items():
        for okey, c in vec.items():
            e = {"arity": op.arity,
                 "inputs": [list(k) for k in tup],
                 "output": list(okey),
                 "coeff": coeff_to_json(c, coords)}
            if part:
                e["part"] = part
            entries.append(e)
    return entries


def ops_to_entries(delta: MultiOp, fam: OpFamily, coords) -> list[dict]:
    entries = _op_entries(delta, coords, part="delta")
    for k in fam.arities():
        entries.extend(_op_entries(fam.op(k), coords))
    entries.sort(key=lambda e: ("part" not in e, e["arity"], e["inputs"], e["output"]))
    return entries


def _read_key(obj, space: GradedSpace, where: str) -> tuple[int, int]:
    if (not isinstance(obj, list) or len(obj) != 2
            or not all(isinstance(v, int) for v in obj)):
        raise _fail(where, f"expected a [degree, index] pair, got {obj!r}")
    key = (obj[0], obj[1])
    if not space.contains(key):
        raise _fail(where, f"basis key {key} outside bundle ranks")
    return key


def entries_to_ops(entries, space: GradedSpace, coords,
                   where: str = "ops") -> tuple[dict[int, dict], dict[int, dict]]:
    """Split raw entries into delta and family coefficient tables by arity."""
    if not isinstance(entries, list):
        raise _fail(where, "expected a list of operation entries")
    delta_tab: dict[int, dict] = {}
    fam_tab: dict[int, dict] = {}
    for n, e in enumerate(entries):
        ctx = f"{where}[{n}]"
        if not isinstance(e, dict):
            raise _fail(ctx, "expected an object")
        part = e.get("part")
        if part not in (None, "delta"):
            raise _fail(ctx, f"unknown part {part!r}")
        arity = e.get("arity")
        inputs = e.get("inputs")
        if not isinstance(arity, int) or arity < 0:
            raise _fail(ctx, "arity must be a nonnegative integer")
        if not isinstance(inputs, list) or len(inputs) != arity:
            raise _fail(ctx, f"inputs must list exactly {arity} keys")
        if part == "delta" and arity != 1:
            raise _fail(ctx, "differential entries must have arity 1")
        tup = tuple(_read_key(k, space, f"{ctx}.inputs") for k in inputs)
        okey = _read_key(e.get("output"), space, f"{ctx}.output")
        c = coeff_from_json(e.get("coeff"), coords, f"{ctx}.coeff")
        table = delta_tab if part == "delta" else fam_tab
        vec = table.setdefault(arity, {}).setdefault(tup, {})
        if okey in vec:
            raise _fail(ctx, f"duplicate entry for {tup} -> {okey}")
        vec[okey] = c
    for arity, coeffs in [*delta_tab.items(), *fam_tab.items()]:
        for tup in coeffs:
            srt = tuple(sorted(tup))
            if srt != tup:
                raise _fail(where, f"inputs {list(tup)} are not sorted")
    return delta_tab, fam_tab


def _build_op(arity: int, degree: int, space: GradedSpace, coeffs: dict,
              where: str) -> MultiOp:
    try:
        return MultiOp(arity, degree, space, space, coeffs)
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


# ---------------------------------------------------------------------------
# model documents
# ---------------------------------------------------------------------------


def bundle_to_json(bundle: LinftyBundle, metadata: dict | None = None) -> dict:
    meta = dict(metadata or {})
    meta.update(space_metadata(bundle.fiber))
    doc = {"base": {"dim": len(bundle.coords), "coords": list(bundle.coords)},
           "bundle": space_to_json(bundle.fiber),
           "ops": ops_to_entries(bundle.delta, bundle.ops, bundle.coords)}
    if meta:
        doc["metadata"] = {k: meta[k] for k in sorted(meta)}
    return doc


def bundle_from_json(doc) -> tuple[LinftyBundle, dict]:
    if not isinstance(doc, dict):
        raise _fail("document", "expected a JSON object")
    for fld in ("base", "bundle", "ops"):
        if fld not in doc:
            raise _fail("document", f"missing required field {fld!r}")
    base = doc["base"]
    if not isinstance(base, dict) or "coords" not in base:
        raise _fail("base", "expected an object with dim and coords")
    coords = base["coords"]
    if (not isinstance(coords, list)
            or not all(isinstance(c, str) for c in coords)):
        raise _fail("base.coords", "expected a list of names")
    if base.get("dim") != len(coords):
        raise _fail("base.dim", f"dim {base.get('dim')} but {len(coords)} coords")
    meta = doc.get("metadata") or {}
    if not isinstance(meta, dict):
        raise _fail("metadata", "expected an object")
    space = space_from_json(doc["bundle"], meta, "bundle")
    coords = tuple(coords)
    delta_tab, fam_tab = entries_to_ops(doc["ops"], space, coords)
    if set(delta_tab) - {1}:
        raise _fail("ops", "differential entries must have arity 1")
    delta = _build_op(1, 1, space, delta_tab.get(1, {}), "ops")
    fam = OpFamily(1, space, space,
                   {k: _build_op(k, 1, space, tab, "ops")
                    for k, tab in fam_tab.items()})
    try:
        bundle = LinftyBundle(coords, space, delta, fam)
    except ValueError as exc:
        raise _fail("document", str(exc)) from exc
    user_meta = {k: v for k, v in meta.items() if k not in ("labels", "dt")}
    return bundle, user_meta


def algebra_to_json(alg: CurvedAlgebra) -> dict:
    return bundle_to_json(algebra_as_bundle(alg))


# ---------------------------------------------------------------------------
# morphism and contraction documents
# ---------------------------------------------------------------------------


def morphism_to_json(mor: Morphism) -> dict:
    return {"kind": "morphism",
            "src": bundle_to_json(mor.src),
            "dst": bundle_to_json(mor.dst),
            "base_map": [coeff_to_json(p, mor.src.coords) for p in mor.base_map],
            "phi": sorted(
                (e for k in mor.phi.arities()
                 for e in _op_entries(mor.phi.op(k), mor.src.coords)),
                key=lambda e: (e["arity"], e["inputs"], e["output"]))}


def _entries_to_family(entries, src: GradedSpace, dst: GradedSpace, coords,
                       degree: int, where: str) -> OpFamily:
    tables: dict[int, dict] = {}
    if not isinstance(entries, list):
        raise _fail(where, "expected a list of entries")
    for n, e in enumerate(entries):
        ctx = f"{where}[{n}]"
        if not isinstance(e, dict):
            raise _fail(ctx, "expected an object")
        arity = e.get("arity")
        if not isinstance(arity, int) or arity < 1:
            raise _fail(ctx, "arity must be a positive integer")
        inputs = e.get("inputs")
        if not isinstance(inputs, list) or len(inputs) != arity:
            raise _fail(ctx, f"inputs must list exactly {arity} keys")
        tup = tuple(_read_key(k, src, f"{ctx}.inputs") for k in inputs)
        okey = _read_key(e.get("output"), dst, f"{ctx}.output")
        c = coeff_from_json(e.get("coeff"), coords, f"{ctx}.coeff")
        vec = tables.setdefault(arity, {}).setdefault(tup, {})
        if okey in vec:
            raise _fail(ctx, f"duplicate entry for {tup} -> {okey}")
        vec[okey] = c
    ops = {}
    for arity, coeffs in tables.items():
        try:
            ops[arity] = MultiOp(arity, degree, src, dst, coeffs)
        except ValueError as exc:
            raise _fail(where, str(exc)) from exc
    return OpFamily(degree, src, dst, ops)


def morphism_from_json(doc) -> Morphism:
    if not isinstance(doc, dict) or doc.get("kind") != "morphism":
        raise _fail("document", "expected a morphism document (kind: morphism)")
    for fld in ("src", "dst", "base_map", "phi"):
        if fld not in doc:
            raise _fail("document", f"missing required field {fld!r}")
    src, _ = bundle_from_json(doc["src"])
    dst, _ = bundle_from_json(doc["dst"])
    if not isinstance(doc["base_map"], list):
        raise _fail("base_map", "expected a list of coefficients")
    base_map = tuple(coeff_from_json(p, src.coords, f"base_map[{i}]")
                     for i, p in enumerate(doc["base_map"]))
    base_map = tuple(p if isinstance(p, Poly) else Poly.constant(p)
                     for p in base_map)
    phi = _entries_to_family(doc["phi"], src.fiber, dst.fiber, src.coords, 0, "phi")
    try:
        return Morphism(src, dst, base_map, phi)
    except ValueError as exc:
        raise _fail("document", str(exc)) from exc


def contraction_to_json(con: Contraction) -> dict:
    no_coords: tuple[str, ...] = ()
    doc = {"kind": "contraction",
           "space": space_to_json(con.space),
           "h": space_to_json(con.h_space),
           "delta": sorted(_op_entries(con.delta, no_coords),
                           key=lambda e: (e["inputs"], e["output"])),
           "eta": sorted(_op_entries(con.eta, no_coords),
                         key=lambda e: (e["inputs"], e["output"])),
           "iota": sorted(_op_entries(con.iota, no_coords),
                          key=lambda e: (e["inputs"], e["output"]))}
    meta = {}
    sm = space_metadata(con.space)
    if sm:
        meta["space_labels"] = sm
    hm = space_metadata(con.h_space)
    if hm:
        meta["h_labels"] = hm
    if meta:
        doc["metadata"] = {k: meta[k] for k in sorted(meta)}
    return doc


def contraction_from_json(doc) -> Contraction:
    if not isinstance(doc, dict) or doc.get("kind") != "contraction":
        raise _fail("document", "expected a contraction document (kind: contraction)")
    for fld in ("space", "h", "delta", "eta", "iota"):
        if fld not in doc:
            raise _fail("document", f"missing required field {fld!r}")
    meta = doc.get("metadata") or {}
    space = space_from_json(doc["space"], meta.get("space_labels"), "space")
    h = space_from_json(doc["h"], meta.get("h_labels"), "h")
    no_coords: tuple[str, ...] = ()
    delta = _entries_to_family(doc["delta"], space, space, no_coords, 1, "delta").op(1)
    eta = _entries_to_family(doc["eta"], space, space, no_coords, -1, "eta").op(1)
    iota = _entries_to_family(doc["iota"], h, space, no_coords, 0, "iota").op(1)
    try:
        return Contraction.from_basis(space, delta, eta, h, iota)
    except ValueError as exc:
        raise _fail("document", str(exc)) from exc


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_model(path: str) -> tuple[LinftyBundle, dict]:
    return bundle_from_json(load_document(path))


def load_morphism(path: str) -> Morphism:
    return morphism_from_json(load_document(path))


def load_contraction(path: str) -> Contraction:
    return contraction_from_json(load_document(path))
