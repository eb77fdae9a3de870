"""Per-layer tracing of `linfty` from outside the package.

`Tracer.install()` wraps the public functions of every loaded `linfty.*`
module, the public methods of its classes, `__post_init__` and the
arithmetic operators, and rebinds each wrapped name in every `linfty.*`
namespace that holds it, so `from .graded import bullet` copies and
aliases such as `inverse as mat_inverse` are traced too.  `uninstall()`
puts every original back.  Nothing under `src/` changes.

A layer is a module.  Each span records its parent; spans are aggregated
in memory per (parent, child) edge rather than kept one by one.  The
layer self time of a span is its duration minus the time of the spans
below it that belong to other layers, and minus the tracer's own
bookkeeping.  A layer's self time sums that over the spans whose parent
lies in another layer, so every traced second lands in exactly one layer.
A function's ``.s`` is the inclusive time of its outermost calls, its
``.self_s`` their layer self time.  Call counts are exact.

Generator functions and the hottest leaf helpers get a wrapper that only
counts calls; their time stays with the caller.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

# operators wrapped in addition to public names
DUNDERS = frozenset({"__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__neg__", "__pow__"})

# called millions of times per pass; a span each would dwarf the work
COUNT_ONLY = frozenset({
    "graded.koszul_sign", "graded.sort_keys_with_sign", "graded.unshuffle_sign",
    "graded.vec_add_into", "graded.vec_merge", "graded.vec_scale",
    "graded.vec_is_zero", "graded.vec_eq",
    "graded.GradedSpace.dim", "graded.GradedSpace.keys", "graded.GradedSpace.contains",
    "graded.GradedSpace.check_key", "graded.GradedSpace.label",
    "graded.GradedSpace.is_dt", "graded.GradedSpace.degrees",
    "graded.MultiOp.evaluate_basis", "graded.MultiOp.evaluate",
    "graded.MultiOp.evaluate_mixed", "graded.MultiOp.is_zero",
    "graded.OpFamily.op", "graded.OpFamily.arities", "graded.OpFamily.is_zero",
    "poly.as_fraction", "poly.Poly.is_zero", "poly.Poly.is_constant",
    "poly.Poly.constant_value", "poly.Poly.with_vars", "poly.Poly.pruned",
    "poly.Poly.total_degree", "poly.Poly.degree_in",
    "modelio.frac_str", "modelio.parse_frac",
})

# extra groups whose outermost calls are timed as one
GROUPS = {
    "poly.arith": {f"poly.Poly.{op}" for op in DUNDERS - {"__post_init__"}},
    "modelio.load": {"modelio.load_model", "modelio.load_morphism",
                     "modelio.load_contraction"},
    "modelio.dump": {"modelio.dumps", "modelio.bundle_to_json", "modelio.algebra_to_json",
                     "modelio.morphism_to_json", "modelio.contraction_to_json"},
}

LINALG_MATRIX_FUNCS = ("rref", "rank", "bareiss_rank", "kernel_basis", "solve",
                       "inverse", "right_inverse")


def op_entries(fam) -> int:
    return sum(len(vec) for op in fam.ops.values() for vec in op.coeffs.values())


def coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return c.bit_length()
    terms = getattr(c, "terms", None)
    if terms is not None:
        return max((coeff_bits(v) for v in terms.values()), default=0)
    return 0


def family_bits(fam) -> int:
    return max((coeff_bits(c) for op in fam.ops.values()
                for vec in op.coeffs.values() for c in vec.values()), default=0)


class Tracer:
    """Span and counter collection for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # a frame is [layer, foreign seconds, key]; calls outside run() land
        # under the sentinel
        self.stack: list[list] = [["", 0.0, ""]]
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.jobs_wall = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = self._make_hooks()

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, fn, key: str, layer: str, groups: tuple[str, ...],
                     pre=None, post=None):
        stack, clock, active = self.stack, self.clock, self.active
        calls, incl, self_s = self.calls, self.incl, self.self_s
        layer_self, edges = self.layer_self, self.edges

        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            parent = stack[-1]
            frame = [layer, 0.0, key]
            stack.append(frame)
            for g in groups:
                active[g] += 1
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                lself = dur - frame[1]
                calls[key] += 1
                edge = edges[(parent[2], key)]
                edge[0] += 1
                edge[1] += dur
                for g in groups:
                    depth = active[g] - 1
                    active[g] = depth
                    if depth == 0:
                        incl[g] += dur
                        self_s[g] += lself
                if parent[0] != layer:
                    layer_self[layer] += lself
                if ok and post is not None:
                    post(args, kwargs, result)
                overhead = clock() - t1
                parent[1] += (dur + overhead) if parent[0] != layer else (frame[1] + overhead)

        return self._finish(wrapper, fn)

    def count_wrapper(self, fn, key: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return self._finish(wrapper, fn)

    @staticmethod
    def _finish(wrapper, fn):
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, fn, key: str, layer: str):
        if key in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self.count_wrapper(fn, key)
        groups = (key,) + tuple(g for g, members in GROUPS.items() if key in members)
        pre, post = self._hooks.get(key, (None, None))
        return self.span_wrapper(fn, key, layer, groups, pre, post)

    # -- hooks: counters measured where the work happens --------------------

    def _make_hooks(self):
        counts, maxes, active = self.counts, self.maxes, self.active

        def tabulate(args, kwargs):
            if not (active["graded.circ"] or active["graded.bullet"]):
                return args, kwargs

            # from_function(cls, arity, degree, source, target, fn)
            fn = kwargs["fn"] if "fn" in kwargs else args[5]

            def counted(tup):
                counts["graded.tuples"] += 1
                return fn(tup)

            if "fn" in kwargs:
                return args, {**kwargs, "fn": counted}
            return args[:5] + (counted,) + args[6:], kwargs

        def product(args, kwargs, fam):
            counts["graded.op_entries"] += op_entries(fam)
            maxes["graded.coeff_bits_max"] = max(maxes["graded.coeff_bits_max"],
                                                 family_bits(fam))

        def witness(args, kwargs, rep):
            if not rep.ok:
                counts["algebra.witnesses"] += 1

        def nilpotency(args, kwargs, order):
            if order is not None and active["transfer.neumann_inverse"]:
                maxes["transfer.neumann_order_max"] = max(
                    maxes["transfer.neumann_order_max"], order)

        def phi(args, kwargs, res):
            counts["transfer.phi_entries"] += op_entries(res.phi)

        def h_rank(args, kwargs, model):
            counts["pathspace.h_rank"] += model.contraction.h_space.total_dim

        def rows(args, kwargs, _):
            a = args[0] if args else kwargs.get("a", ())
            maxes["linalg.max_rows"] = max(maxes["linalg.max_rows"], len(a))

        def points(args, kwargs, found):
            exact, loose = found
            counts["geometry.exact_points"] += len(exact)
            counts["geometry.candidates"] += len(exact) + len(loose)

        def bytes_out(args, kwargs, text):
            counts["modelio.bytes_out"] += len(text)

        hooks = {"graded.MultiOp.from_function": (tabulate, None),
                 "graded.circ": (None, product), "graded.bullet": (None, product),
                 "algebra.check_mc": (None, witness),
                 "algebra.check_morphism": (None, witness),
                 "graded.op_nilpotency_order": (None, nilpotency),
                 "transfer.transfer": (None, phi), "transfer.transfer_trees": (None, phi),
                 "pathspace.build_path_model": (None, h_rank),
                 "geometry.find_classical_points": (None, points),
                 "modelio.dumps": (None, bytes_out)}
        for name in LINALG_MATRIX_FUNCS:
            hooks[f"linalg.{name}"] = (None, rows)
        return hooks

    # -- installing and removing ----------------------------------------------

    def install(self) -> None:
        """Wrap and rebind across every loaded `linfty.*` module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("linfty.") and m is not None]
        replacement: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.split(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacement[id(obj)] = self.wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}", layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                new = replacement.get(id(obj))
                if new is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, new)

    def _wrap_class(self, cls, prefix: str, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            key = f"{prefix}.{attr}"
            if isinstance(val, (staticmethod, classmethod)):
                new = type(val)(self.wrap(val.__func__, key, layer))
            elif inspect.isfunction(val):
                new = self.wrap(val, key, layer)
            else:
                continue
            self._restore.append((cls, attr, val))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- running jobs ------------------------------------------------------------

    def run(self, call):
        """Run call() as one job under a root span of the `cli` layer."""
        root = ["cli", 0.0, "job"]
        self.stack.append(root)
        t0 = self.clock()
        try:
            return call()
        finally:
            wall = self.clock() - t0
            self.stack.pop()
            self.jobs_wall += wall
            self.layer_self["cli"] += wall - root[1]

    # -- reporting ------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, inc, slf, lay = self.calls, self.incl, self.self_s, self.layer_self
        counts, maxes = self.counts, self.maxes
        tuples = counts["graded.tuples"]
        cands = counts["geometry.candidates"]
        out = {
            "graded.bullet.calls": (c["graded.bullet"], "count"),
            "graded.bullet.self_s": (slf["graded.bullet"], "s"),
            "graded.circ.calls": (c["graded.circ"], "count"),
            "graded.circ.self_s": (slf["graded.circ"], "s"),
            "graded.tuples": (tuples, "count"),
            "graded.op_entries": (counts["graded.op_entries"], "count"),
            "graded.fill_ratio": (counts["graded.op_entries"] / tuples if tuples else 0.0,
                                  "ratio"),
            "graded.multiop_built": (c["graded.MultiOp.__post_init__"], "count"),
            "graded.multiop_init_s": (inc["graded.MultiOp.__post_init__"], "s"),
            "graded.sort_keys.calls": (c["graded.sort_keys_with_sign"], "count"),
            "graded.compose_linear.self_s": (slf["graded.MultiOp.compose_linear"], "s"),
            "graded.coeff_bits_max": (maxes["graded.coeff_bits_max"], "bits"),
            "algebra.check_mc.calls": (c["algebra.check_mc"], "count"),
            "algebra.check_mc.s": (inc["algebra.check_mc"], "s"),
            "algebra.check_morphism.s": (inc["algebra.check_morphism"], "s"),
            "algebra.witnesses": (counts["algebra.witnesses"], "count"),
            "transfer.transfer.s": (inc["transfer.transfer"], "s"),
            "transfer.transfer_trees.s": (inc["transfer.transfer_trees"], "s"),
            "transfer.contraction_load.s": (inc["modelio.load_contraction"], "s"),
            "transfer.neumann_order_max": (maxes["transfer.neumann_order_max"], "count"),
            "transfer.phi_entries": (counts["transfer.phi_entries"], "count"),
            "pathspace.build_path_model.s": (inc["pathspace.build_path_model"], "s"),
            "pathspace.path_perturbation.s": (inc["pathspace.path_perturbation"], "s"),
            "pathspace.derived_path_space.s": (inc["pathspace.derived_path_space"], "s"),
            "pathspace.homotopy_fibered_product.s":
                (inc["pathspace.homotopy_fibered_product"], "s"),
            "pathspace.h_rank": (counts["pathspace.h_rank"], "count"),
            "poly.arith.calls": (sum(c[k] for k in GROUPS["poly.arith"]), "count"),
            "poly.arith.self_s": (slf["poly.arith"], "s"),
            "poly.substitute.self_s": (slf["poly.Poly.substitute"], "s"),
            "linalg.rref.calls": (c["linalg.rref"], "count"),
            "linalg.bareiss_rank.calls": (c["linalg.bareiss_rank"], "count"),
            "linalg.max_rows": (maxes["linalg.max_rows"], "count"),
            "geometry.cohomology.s": (inc["geometry.cohomology"], "s"),
            "geometry.find_classical_points.s": (inc["geometry.find_classical_points"], "s"),
            "geometry.point_hit_ratio": (counts["geometry.exact_points"] / cands
                                         if cands else 0.0, "ratio"),
            "modelio.load_s": (inc["modelio.load"], "s"),
            "modelio.dump_s": (inc["modelio.dump"], "s"),
            "modelio.bytes_out": (counts["modelio.bytes_out"], "bytes"),
        }
        for layer in ("cli", "graded", "algebra", "transfer", "pathspace", "geometry",
                      "poly", "linalg", "modelio"):
            out[f"{layer}.self_s"] = (lay[layer], "s")
        return out

    def exact_counts(self) -> dict[str, int]:
        """Every count the trace took; equal across runs of the same jobs."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        out.update({f"max:{k}": v for k, v in self.maxes.items()})
        out.update({f"edge:{p}>{k}": e[0] for (p, k), e in self.edges.items()})
        return dict(sorted(out.items()))

    def edge_table(self) -> list[dict]:
        return [{"parent": p, "span": k, "calls": e[0], "seconds": e[1]}
                for (p, k), e in sorted(self.edges.items())]
