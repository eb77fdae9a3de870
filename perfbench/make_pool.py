"""Generate the frozen job pool in perfbench/pool.

Run from the repository root:  python3 perfbench/make_pool.py

The benchmark never runs this script.  It reads the pool that this script
wrote once, so every commit is measured on byte-identical inputs even when
`linfty.samples` changes.  Each job records the generator and the seed it
came from, its expected exit code, and the reference answer computed by
the code of the commit that generated the pool.  Re-running the script
rewrites the pool and its reference answers; do that only in a change
that redefines the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
from fractions import Fraction

from jobs import MANIFEST, POOL, ROOT, canonical_digest, import_cli, judge, run_calibrated,
                  run_job

import_cli()

from linfty.algebra import (LinftyBundle, Morphism, algebra_as_bundle,  # noqa: E402
                            check_mc, check_morphism, transport_source)
from linfty.geometry import virtual_dimension  # noqa: E402
from linfty.graded import GradedSpace, MultiOp, OpFamily, canonical_tuples  # noqa: E402
from linfty.modelio import (bundle_to_json, contraction_to_json,  # noqa: E402
                            morphism_to_json)
from linfty.poly import Poly  # noqa: E402
from linfty.samples import (break_algebra, nonzero_fraction,  # noqa: E402
                            random_bundle, random_formal_iso, random_mc_algebra,
                            random_morphism_onto, random_transfer_instance)

REL = os.path.join("perfbench", "pool")
# a job slower than this at generation is left out of the pool, so that
# one pass over a draw stays within a few seconds; it is listed in the
# manifest under "excluded"
CEILING_MS = 2000


def write(subdir: str, name: str, doc: dict) -> str:
    os.makedirs(os.path.join(POOL, subdir), exist_ok=True)
    with open(os.path.join(POOL, subdir, name), "w") as fh:
        # compact: the pool is read by machines only
        json.dump(doc, fh, separators=(",", ":"))
    return f"{REL}/{subdir}/{name}"


DAMAGED = {"check": "witness", "exit_code": 1}


def job(jid, group, argv, source, check="digest", exit_code=0, **extra):
    return {"id": jid, "group": group, "argv": argv, "source": source,
            "expect": {"exit": exit_code, "check": check, **extra}}


# ---------------------------------------------------------------------------
# transfer: constant-coefficient instances, amplitude 3-5, max_dim 3-5
# ---------------------------------------------------------------------------


def transfer_jobs() -> list[dict]:
    out = []
    for amp in (3, 4, 5):
        for md in (3, 4, 5):
            for i in range(20):
                seed = 100_000 + 1000 * amp + 100 * md + i
                con, lam = random_transfer_instance(random.Random(seed), amp, md,
                                                    attempts=5000)
                jid = f"t-a{amp}d{md}-{i}"
                model = LinftyBundle((), con.space, con.delta, lam)
                mpath = write("transfer", f"{jid}.model.json", bundle_to_json(model))
                cpath = write("transfer", f"{jid}.con.json", contraction_to_json(con))
                mode = "both" if i % 4 == 3 else "recursive"
                out.append(job(jid, f"a{amp}d{md}-{mode}",
                               ["transfer", mpath, cpath, "--mode", mode],
                               {"generator": "samples.random_transfer_instance",
                                "seed": seed, "amplitude": amp, "max_dim": md}))
    return out


# ---------------------------------------------------------------------------
# certify: check-axioms and check-morphism, amplitude 4-7, max_dim 3-4
# ---------------------------------------------------------------------------


def formal_iso_morphism(rng: random.Random, amp: int, md: int) -> Morphism:
    """A formal isomorphism onto a random algebra, source transported."""
    alg = random_mc_algebra(rng, amp, md)
    psi = random_formal_iso(rng, alg.space, max_arity=3)
    ellp = transport_source(psi, alg.total())
    ops = {}
    for k, op in ellp.ops.items():
        if k == 1:
            op = op.minus(alg.delta)
        if not op.is_zero():
            ops[k] = op
    src = LinftyBundle((), alg.space, alg.delta, OpFamily(1, alg.space, alg.space, ops))
    return Morphism(src, algebra_as_bundle(alg), (), psi)


def damage_morphism(rng: random.Random, mor: Morphism) -> Morphism:
    """Copy of mor with one coefficient of its fiber family changed."""
    space = mor.src.fiber
    for _ in range(200):
        arity = rng.choice([1, 2])
        tups = [t for t in canonical_tuples(space, arity, max_total_degree=space.max_degree)
                if sum(k[0] for k in t) in space.dims]
        tup = rng.choice(tups)
        key = rng.choice([k for k in space.keys() if k[0] == sum(t[0] for t in tup)])
        op = mor.phi.op(arity)
        coeffs = {t: dict(v) for t, v in op.coeffs.items()}
        vec = coeffs.setdefault(tup, {})
        vec[key] = vec.get(key, Fraction(0)) + nonzero_fraction(rng)
        bad = Morphism(mor.src, mor.dst, mor.base_map,
                       mor.phi.with_op(MultiOp(arity, 0, space, space, coeffs)))
        if not check_morphism(bad).ok:
            return bad
    raise RuntimeError("no detectable single-coefficient damage")


def certify_jobs() -> list[dict]:
    out = []
    for amp in (4, 5, 6, 7):
        for md in (3, 4):
            for i in range(9):
                damaged = i % 3 == 2
                kind = "damaged" if damaged else "valid"
                seed = 200_000 + 1000 * amp + 100 * md + i
                rng = random.Random(seed)
                alg = random_mc_algebra(rng, amp, md)
                if damaged:
                    alg = break_algebra(rng, alg)
                    if alg is None:
                        raise RuntimeError(f"seed {seed}: algebra resists damage")
                else:
                    assert check_mc(alg).ok
                jid = f"ax-a{amp}d{md}-{i}"
                path = write("certify", f"{jid}.json", bundle_to_json(algebra_as_bundle(alg)))
                src = {"generator": "samples.random_mc_algebra"
                                    + (" + samples.break_algebra" if damaged else ""),
                       "seed": seed, "amplitude": amp, "max_dim": md}
                out.append(job(jid, f"axioms-a{amp}d{md}-{kind}",
                               ["check-axioms", "--json", path], src,
                               **DAMAGED if damaged else {}))

                seed = 300_000 + 1000 * amp + 100 * md + i
                rng = random.Random(seed)
                mor = formal_iso_morphism(rng, amp, md)
                if damaged:
                    mor = damage_morphism(rng, mor)
                else:
                    assert check_morphism(mor).ok
                jid = f"mor-a{amp}d{md}-{i}"
                path = write("certify", f"{jid}.json", morphism_to_json(mor))
                src = {"generator": "make_pool.formal_iso_morphism"
                                    + (" + make_pool.damage_morphism" if damaged else ""),
                       "seed": seed, "amplitude": amp, "max_dim": md}
                out.append(job(jid, f"morphism-a{amp}d{md}-{kind}",
                               ["check-morphism", "--json", path], src,
                               **DAMAGED if damaged else {}))
    return out


# ---------------------------------------------------------------------------
# polybase: polynomial coefficients through the geometric commands
# ---------------------------------------------------------------------------


def square_bundle() -> LinftyBundle:
    x = Poly.variable("x")
    fiber = GradedSpace.build({1: 1}, labels={1: ["e"]})
    lam0 = MultiOp(0, 1, fiber, fiber, {(): {(1, 0): x ** 2}})
    return LinftyBundle(("x",), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {0: lam0}))


def circle_bundle() -> LinftyBundle:
    x, y = Poly.variable("x"), Poly.variable("y")
    fiber = GradedSpace.build({1: 1})
    lam0 = MultiOp(0, 1, fiber, fiber, {(): {(1, 0): x ** 2 + y ** 2 - 1}})
    return LinftyBundle(("x", "y"), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {0: lam0}))


def amp2_bundle() -> LinftyBundle:
    x1, x2 = Poly.variable("x1"), Poly.variable("x2")
    fiber = GradedSpace.build({1: 2, 2: 1}, labels={1: ["a", "b"], 2: ["c"]})
    lam0 = MultiOp(0, 1, fiber, fiber,
                   {(): {(1, 0): x1 ** 2, (1, 1): -(x1 ** 2) * x2}})
    lam1 = MultiOp(1, 1, fiber, fiber, {((1, 0),): {(2, 0): x2},
                                        ((1, 1),): {(2, 0): Poly.constant(1)}})
    return LinftyBundle(("x1", "x2"), fiber, MultiOp.zero(1, 1, fiber, fiber),
                        OpFamily(1, fiber, fiber, {0: lam0, 1: lam1}))


# classical points of the fixtures; the circle and amp2 also have zeros the
# rational snap cannot certify, so factorize gets their points explicitly
FACTORIZE_POINTS = {
    "circle": ["1,0", "0,1", "-1,0", "3/5,4/5"],
    "amp2": ["0,0", "0,1/2", "0,-1"],
}
TANGENT_POINTS = {
    "square": ["0"],
    "circle": ["1,0", "0,1", "-1,0", "0,-1", "3/5,4/5", "4/5,3/5", "-3/5,4/5",
               "5/13,12/13", "12/13,-5/13"],
    "amp2": ["0,0", "0,1/2", "0,-1", "0,2", "0,-3/2", "0,1/3"],
}
SHAPE_PAIRS = [("axis-x", "axis-y", 2), ("axis-x", "parabola", 2), ("axis-y", "parabola", 2),
               ("axis-x", "axis-x", 2), ("axis-y", "axis-y", 2), ("parabola", "parabola", 2),
               ("axis-x", "axis-y", 3), ("axis-x", "axis-z", 3), ("axis-y", "axis-z", 3),
               ("axis-x", "axis-x", 3), ("axis-z", "axis-z", 3)]


def rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2)))


def lin(name: str, a: Fraction) -> str:
    return f"({name} - ({a}))"


def zero_locus_case(rng: random.Random, m: int) -> tuple[list[str], list[str], list[list[Fraction]]]:
    """Sections in m coordinates whose zeros are known rational points."""
    coords = ["x", "y", "z"][:m]
    a, b = rat(rng), rat(rng)
    if m == 1:
        return coords, [f"{lin('x', a)}*{lin('x', b)}"], [[a], [b]]
    c = rat(rng)
    if m == 2:
        k = rng.randint(-2, 2)
        sections = [lin("x", a), f"{lin('y', b)}*{lin('y', c)} + ({k})*{lin('x', a)}"]
        return coords, sections, [[a, b], [a, c]]
    d = rat(rng)
    sections = [lin("x", a), f"{lin('y', b)} - ({d})*{lin('x', a)}",
                f"{lin('z', c)}*{lin('z', d)}"]
    return coords, sections, [[a, b, c], [a, b, d]]


def polybase_jobs() -> list[dict]:
    out = []
    fixtures = {"square": square_bundle(), "circle": circle_bundle(),
                "amp2": amp2_bundle()}
    paths = {n: write("polybase", f"{n}.json", bundle_to_json(b))
             for n, b in fixtures.items()}
    fixed = {"generator": "fixture"}
    for n, path in paths.items():
        out.append(job(f"ps-{n}", f"ps-{n}", ["path-space", path], fixed))
        argv = ["factorize", "--json", path]
        if n in FACTORIZE_POINTS:
            argv.append("--points=" + ";".join(FACTORIZE_POINTS[n]))
        out.append(job(f"fz-{n}", f"fz-{n}", argv, fixed))
        out.append(job(f"rep-{n}", f"rep-{n}", ["report", "--json", path], fixed))
        for j, pt in enumerate(TANGENT_POINTS[n]):
            out.append(job(f"tc-{n}-{j}", f"tc-{n}-{j}",
                           ["tangent-complex", "--json", path, f"--point={pt}"], fixed))
    for m in (1, 2, 3):
        out.append(job(f"ps-m{m}", f"ps-m{m}", ["path-space", "--manifold", str(m)], fixed))
        out.append(job(f"fz-m{m}", f"fz-m{m}", ["factorize", "--json", "--manifold", str(m)],
                       fixed))
    for x, y, amb in SHAPE_PAIRS:
        jid = f"int-{x}-{y}-{amb}"
        out.append(job(jid, jid, ["intersect", "--json", "--x", x, "--y", y,
                                  "--ambient", str(amb)], fixed))

    for i in range(48):
        seed = 400_000 + i
        rng = random.Random(seed)
        dst_coords = ("a",) if i % 2 == 0 else ("a", "b")
        dst = random_bundle(rng, dst_coords, amplitude=rng.randint(1, 2), max_dim=2,
                            coeff_degree=1)
        f = random_morphism_onto(rng, dst, "p")
        g = random_morphism_onto(rng, dst, "q")
        vdim = (virtual_dimension(f.src) + virtual_dimension(g.src)
                - virtual_dimension(f.dst))
        fpath = write("polybase", f"fp-{i}.f.json", morphism_to_json(f))
        gpath = write("polybase", f"fp-{i}.g.json", morphism_to_json(g))
        out.append(job(f"fp-{i}", f"fp-base{len(dst_coords)}",
                       ["fib-product", "--f", fpath, "--g", gpath],
                       {"generator": "samples.random_bundle + samples.random_morphism_onto",
                        "seed": seed}, check="vdim", vdim=vdim))

    for i in range(66):
        seed = 500_000 + i
        m = 1 + i % 3
        coords, sections, known = zero_locus_case(random.Random(seed), m)
        argv = ["zero-locus", "--json", "--coords", ",".join(coords),
                "--sections", ";".join(sections)]
        if m == 3:
            # the grid search is limited to small bases; certify at the known points
            argv.append("--points=" + ";".join(",".join(str(v) for v in p) for p in known))
        out.append(job(f"zl-{i}", f"zl-m{m}", argv,
                       {"generator": "make_pool.zero_locus_case", "seed": seed,
                        "known_points": [[str(v) for v in p] for p in known]}))
    return out


# ---------------------------------------------------------------------------


def record_references(main, jobs: list[dict], repeats: int = 5) -> None:
    """Run each job, record its reference answer and its median reference time."""
    for jb in jobs:
        times = []
        for _, code, out, crash, seconds in run_calibrated(lambda j: run_job(main, j["argv"]), [jb] * repeats):
            times.append(seconds)
            if crash or code != jb["expect"]["exit"]:
                raise RuntimeError(f"{jb['id']}: exit {code} {crash or out}")
        if jb["expect"]["check"] == "digest":
            jb["expect"]["digest"] = canonical_digest(out)
        verdict, why = judge(jb, code, out, None)
        if verdict != "ok":
            raise RuntimeError(f"{jb['id']}: {why}")
        jb["ref_ms"] = round(statistics.median(times) * 1000, 3)
        print(f"{jb['id']:28s} {jb['ref_ms']:10.3f} ms", flush=True)


def main() -> int:
    os.environ.pop("LINFTY_DEGREE_CAP", None)
    cli = import_cli()
    if os.path.isdir(POOL):
        shutil.rmtree(POOL)
    workloads = {"transfer": transfer_jobs(), "certify": certify_jobs(),
                 "polybase": polybase_jobs()}
    excluded = []
    for name, jobs in workloads.items():
        print(f"== {name}: {len(jobs)} jobs", flush=True)
        record_references(cli.main, jobs)
        excluded += [{"workload": name, "id": j["id"], "argv": j["argv"],
                      "ref_ms": j["ref_ms"]} for j in jobs if j["ref_ms"] > CEILING_MS]
        for j in jobs:
            if j["ref_ms"] > CEILING_MS:
                for arg in j["argv"]:
                    if arg.startswith(REL):
                        os.remove(os.path.join(ROOT, arg))
        jobs[:] = [j for j in jobs if j["ref_ms"] <= CEILING_MS]
    with open(MANIFEST, "w") as fh:
        json.dump({"generated_with": f"python {sys.version.split()[0]}",
                   "ceiling_ms": CEILING_MS, "excluded": excluded,
                   "workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
