"""Reading and writing model files.

A model file is a JSON document describing a curved structure on a trivial
graded bundle over named affine coordinates:

    {"base": {"dim": m, "coords": ["x", ...]},
     "bundle": {"1": rank, "2": rank, ...},
     "ops": [{"arity": k, "inputs": [[d, i], ...], "output": [d, i],
              "coeff": ...}, ...],
     "metadata": {...}}

A coefficient is either a "num/den" string for a constant or a sorted list
of [exponents, "num/den"] pairs with exponents read against the base
coordinates.  Fiber basis labels and dt markers, when they deviate from the
defaults, ride along in metadata.  Morphism and contraction documents are
tagged with a "kind" field and store their maps in the same operation
entries.  Each kind admits its own (part, arity) pairs:

- bundle "ops": an entry with "part": "delta" has arity 1 and assembles
  the constant differential; an entry without a part is a structure
  operation of arity >= 0, the curvature being arity 0 with empty inputs;
- morphism "phi": no part, arity >= 1;
- contraction "delta", "eta" and "iota": no part, arity 1.

One reader and one writer serve every kind.  The reader checks each
entry once.  Its one pass over an entry list checks each entry's JSON
shape (part, arity, the [degree, index] pairs) and parses its
coefficient, each distinct coefficient string once per list; parse_frac
reads "[+-]digits" and "[+-]digits/digits" with int() and anything else
with Fraction's parser.  MultiOp.from_entries in graded, which shares
its check with the MultiOp constructor, then tests each key against the
ranks by a degree -> rank lookup, each tuple's canonical order and
repeated odd keys, and each entry's homogeneity and repeats, once, and
reports the position of an entry it refuses.  The reader names an
entry's position (as in "ops[3].coeff[0]" or "ops[3]: input tuple ...
is not canonically sorted") only in the error it raises.  The writer
emits one canonical form: entries sorted by (arity, inputs, output), a
bundle's delta entries first, fractions reduced, two-space indent,
trailing newline.  Serialization after deserialization therefore
reproduces a canonical file byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .algebra import LinftyBundle, Morphism
from .graded import EntryError, GradedSpace, MultiOp, OpFamily
from .poly import Poly, _exact, format_fraction
from .transfer import Contraction


class ModelFormatError(ValueError):
    """Malformed model document; message carries the offending field."""


def _fail(where: str, msg: str) -> "ModelFormatError":
    return ModelFormatError(f"{where}: {msg}")


def _within(where: str, exc: ModelFormatError) -> ModelFormatError:
    """exc, raised against a path relative to where, placed at where."""
    return ModelFormatError(f"{where}{exc}")


# ---------------------------------------------------------------------------
# scalars and coefficients
# ---------------------------------------------------------------------------


def parse_frac(s, where: str = "coefficient") -> int | Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise _fail(where, f"expected a rational string, got {s!r}")
    try:
        if isinstance(s, int):
            return int(s)
        # "[+-]digits" and "[+-]digits/digits" are read by int(), which
        # accepts exactly the digit strings Fraction's parser accepts and
        # refuses the others ("+-3", a superscript digit), at a twentieth
        # of the parser's cost for an integer and half for a fraction
        num, slash, den = s.partition("/")
        if num.lstrip("+-").isdigit():
            if not slash:
                return int(num)
            if den.isdigit():
                return _exact(Fraction(int(num), int(den)))
        return _exact(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(where, f"bad rational {s!r}") from exc


def coeff_to_json(c, coords: tuple[str, ...]):
    if isinstance(c, Poly):
        p = c.pruned()
        if p.is_constant():
            return format_fraction(p.constant_value())
        extra = set(p.vars) - set(coords)
        if extra:
            raise ValueError(f"coefficient uses unknown coordinates {sorted(extra)}")
        p = p.with_vars(coords)
        return [[list(e), format_fraction(q)] for e, q in sorted(p.terms.items())]
    return format_fraction(c)


def coeff_from_json(obj, coords: tuple[str, ...], where: str):
    if isinstance(obj, (str, int)):
        return parse_frac(obj, where)
    if not isinstance(obj, list):
        raise _fail(where, f"expected rational string or term list, got {obj!r}")
    terms = {}
    for n, item in enumerate(obj):
        try:
            if (not isinstance(item, list) or len(item) != 2
                    or not isinstance(item[0], list)):
                raise _fail("", f"expected [exponents, rational], got {item!r}")
            exps, q = item
            if len(exps) != len(coords):
                raise _fail("", f"{len(exps)} exponents for {len(coords)} coordinates")
            if any(type(e) is not int or e < 0 for e in exps):
                raise _fail("", f"exponents must be integers >= 0, got {exps!r}")
            if tuple(exps) in terms:
                raise _fail("", f"exponents {exps!r} repeat those of an earlier term")
            terms[tuple(exps)] = parse_frac(q, "")
        except ModelFormatError as exc:
            raise _within(f"{where}[{n}]", exc) from None
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


def _degree(k: str, where: str) -> int:
    try:
        return int(k)
    except ValueError as exc:
        raise _fail(where, f"degree key {k!r} is not an integer") from exc


def space_from_json(obj, meta, where: str, meta_where: str) -> GradedSpace:
    """The space of ranks obj, labelled by the labels and dt blocks of
    meta, which lives at meta_where in the document."""
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object of degree: rank, got {obj!r}")
    dims = {}
    for k, v in obj.items():
        d = _degree(k, where)
        if type(v) is not int or v < 0:
            raise _fail(where, f"rank for degree {k} must be a nonnegative integer")
        dims[d] = v
    if not isinstance(meta, dict):
        raise _fail(meta_where, "expected an object")
    rows = {}
    for name, kind, noun in (("labels", str, "strings"), ("dt", bool, "booleans")):
        block = meta.get(name, {})
        here = f"{meta_where}.{name}"
        if not isinstance(block, dict):
            raise _fail(here, f"expected an object of degree: list of {noun}, got {block!r}")
        rows[name] = {}
        for k, row in block.items():
            if not isinstance(row, list) or any(type(x) is not kind for x in row):
                raise _fail(f"{here}.{k}", f"expected a list of {noun}, got {row!r}")
            rows[name][_degree(k, here)] = row
    try:
        return GradedSpace.build(dims, labels=rows["labels"] or None, dt=rows["dt"] or None)
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


# ---------------------------------------------------------------------------
# operation entry lists
# ---------------------------------------------------------------------------

# the (part, arity) pairs of each document kind: part -> (least, greatest
# arity), None for an untagged entry or for no greatest arity
_BUNDLE_PARTS = {"delta": (1, 1), None: (0, None)}
_PHI_PARTS = {None: (1, None)}
_CONTRACTION_PARTS = {None: (1, 1)}


def _entries_to_json(ops, coords, part: str | None = None) -> list[dict]:
    """The entries of ops sorted by (arity, inputs, output), each tagged
    with part when one is given."""
    entries = []
    for op in sorted(ops, key=lambda op: op.arity):
        for tup in sorted(op.coeffs):
            vec = op.coeffs[tup]
            for okey in sorted(vec):
                e = {"arity": op.arity,
                     "inputs": [list(k) for k in tup],
                     "output": list(okey),
                     "coeff": coeff_to_json(vec[okey], coords)}
                if part:
                    e["part"] = part
                entries.append(e)
    return entries


def _check_key(obj, where: str) -> None:
    if (type(obj) is not list or len(obj) != 2
            or type(obj[0]) is not int or type(obj[1]) is not int):
        raise _fail(where, f"expected a [degree, index] pair, got {obj!r}")


def _entries_from_json(entries, src: GradedSpace, dst: GradedSpace, coords,
                       degree: int, parts: dict[str | None, tuple[int, int | None]],
                       where: str) -> dict[str | None, OpFamily]:
    """Read an entry list into one family of the given degree from src to
    dst for each part the document kind admits.  One pass reads each
    entry's fields, refusing a wrong JSON shape; MultiOp.from_entries then
    checks keys, order and degrees once per entry.  A coefficient string
    is parsed once per list: its later entries reuse the value."""
    if not isinstance(entries, list):
        raise _fail(where, "expected a list of operation entries")
    # part -> arity -> the (inputs, output, coefficient) read and their positions
    tables: dict[str | None, dict[int, tuple[list, list[int]]]] = {part: {} for part in parts}
    parsed: dict[str, int | Fraction] = {}
    for n, e in enumerate(entries):
        try:
            if not isinstance(e, dict):
                raise _fail("", "expected an object")
            part = e.get("part")
            if not (part is None or isinstance(part, str)) or part not in parts:
                raise _fail("", f"unknown part {part!r}")
            lo, hi = parts[part]
            arity = e.get("arity")
            if type(arity) is not int or arity < lo or hi is not None and arity > hi:
                raise _fail("", f"arity must be {lo}" if lo == hi
                            else f"arity must be an integer >= {lo}")
            inputs = e.get("inputs")
            if not isinstance(inputs, list) or len(inputs) != arity:
                raise _fail("", f"inputs must list exactly {arity} keys")
            for k in inputs:
                _check_key(k, ".inputs")
            tup = tuple(map(tuple, inputs))
            okey = e.get("output")
            _check_key(okey, ".output")
            okey = tuple(okey)
            raw = e.get("coeff")
            if type(raw) is str:
                c = parsed.get(raw)
                if c is None:
                    c = parsed[raw] = parse_frac(raw, ".coeff")
            else:
                c = coeff_from_json(raw, coords, ".coeff")
        except ModelFormatError as exc:
            raise _within(f"{where}[{n}]", exc) from None
        group = tables[part].get(arity)
        if group is None:
            group = tables[part][arity] = [], []
        group[0].append((tup, okey, c))
        group[1].append(n)
    fams = {}
    for part, table in tables.items():
        ops = {}
        for arity, (rows, at) in table.items():
            try:
                ops[arity] = MultiOp.from_entries(arity, degree, src, dst, rows)
            except EntryError as exc:
                here = f"{where}[{at[exc.index]}]"
                if exc.slot:
                    raise _fail(f"{here}.{exc.slot}",
                                f"basis key {exc.key} outside bundle ranks") from None
                raise _fail(here, str(exc)) from None
        fams[part] = OpFamily(degree, src, dst, ops)
    return fams


# ---------------------------------------------------------------------------
# model documents
# ---------------------------------------------------------------------------


def bundle_to_json(bundle: LinftyBundle, metadata: dict | None = None) -> dict:
    meta = dict(metadata or {})
    meta.update(space_metadata(bundle.fiber))
    doc = {"base": {"dim": len(bundle.coords), "coords": list(bundle.coords)},
           "bundle": space_to_json(bundle.fiber),
           "ops": (_entries_to_json([bundle.delta], bundle.coords, "delta")
                   + _entries_to_json(bundle.ops.ops.values(), bundle.coords))}
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
    if type(base.get("dim")) is not int or base["dim"] != len(coords):
        raise _fail("base.dim", f"dim {base.get('dim')} but {len(coords)} coords")
    meta = doc.get("metadata", {})
    space = space_from_json(doc["bundle"], meta, "bundle", "metadata")
    coords = tuple(coords)
    fams = _entries_from_json(doc["ops"], space, space, coords, 1, _BUNDLE_PARTS, "ops")
    try:
        bundle = LinftyBundle(coords, space, fams["delta"].op(1), fams[None])
    except ValueError as exc:
        raise _fail("document", str(exc)) from exc
    user_meta = {k: v for k, v in meta.items() if k not in ("labels", "dt")}
    return bundle, user_meta


# ---------------------------------------------------------------------------
# morphism and contraction documents
# ---------------------------------------------------------------------------


def morphism_to_json(mor: Morphism) -> dict:
    return {"kind": "morphism",
            "src": bundle_to_json(mor.src),
            "dst": bundle_to_json(mor.dst),
            "base_map": [coeff_to_json(p, mor.src.coords) for p in mor.base_map],
            "phi": _entries_to_json(mor.phi.ops.values(), mor.src.coords)}


def morphism_from_json(doc) -> Morphism:
    if not isinstance(doc, dict) or doc.get("kind") != "morphism":
        raise _fail("document", "expected a morphism document (kind: morphism)")
    for fld in ("src", "dst", "base_map", "phi"):
        if fld not in doc:
            raise _fail("document", f"missing required field {fld!r}")
    try:
        src, _ = bundle_from_json(doc["src"])
    except ModelFormatError as exc:
        raise _within("src.", exc) from None
    try:
        dst, _ = bundle_from_json(doc["dst"])
    except ModelFormatError as exc:
        raise _within("dst.", exc) from None
    if not isinstance(doc["base_map"], list):
        raise _fail("base_map", "expected a list of coefficients")
    base_map = tuple(coeff_from_json(p, src.coords, f"base_map[{i}]")
                     for i, p in enumerate(doc["base_map"]))
    phi = _entries_from_json(doc["phi"], src.fiber, dst.fiber, src.coords, 0,
                             _PHI_PARTS, "phi")[None]
    try:
        return Morphism(src, dst, base_map, phi)
    except ValueError as exc:
        raise _fail("document", str(exc)) from exc


def contraction_to_json(con: Contraction) -> dict:
    doc = {"kind": "contraction",
           "space": space_to_json(con.space),
           "h": space_to_json(con.h_space),
           "delta": _entries_to_json([con.delta], ()),
           "eta": _entries_to_json([con.eta], ()),
           "iota": _entries_to_json([con.iota], ())}
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
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise _fail("metadata", "expected an object")
    space = space_from_json(doc["space"], meta.get("space_labels", {}), "space",
                            "metadata.space_labels")
    h = space_from_json(doc["h"], meta.get("h_labels", {}), "h", "metadata.h_labels")
    delta, eta, iota = (
        _entries_from_json(doc[fld], src, space, (), degree, _CONTRACTION_PARTS, fld)[None].op(1)
        for fld, src, degree in (("delta", space, 1), ("eta", space, -1), ("iota", h, 0)))
    try:
        return Contraction.from_basis(space, delta, eta, h, iota)
    except ValueError as exc:
        raise _fail("document", str(exc)) from exc


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------


def dumps(doc: dict) -> str:
    """doc in the canonical layout: the bytes of json.dumps(doc, indent=2)
    plus a trailing newline.  json's indenting encoder is its pure-Python
    one, so the layout is written here, with json's own string escaper
    and json.dumps for every other scalar."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append obj to out, its nested lines starting with newline plus two spaces."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            # json writes a non-string key (a number, bool or None) as a
            # string of its JSON form
            out += (sep, encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key)),
                    ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(obj))


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


def _load(path: str, from_json):
    """from_json of the document at path; a refusal names the file, as
    load_document's own do, so a command reading several files says which
    one is at fault."""
    doc = load_document(path)
    try:
        return from_json(doc)
    except ModelFormatError as exc:
        raise _within(f"{path}: ", exc) from None


def load_model(path: str) -> tuple[LinftyBundle, dict]:
    return _load(path, bundle_from_json)


def load_morphism(path: str) -> Morphism:
    return _load(path, morphism_from_json)


def load_contraction(path: str) -> Contraction:
    return _load(path, contraction_from_json)
