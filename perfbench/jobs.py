"""The frozen job pool, the seeded draw from it, timing, and the answer oracle.

A job is one `linfty` command line run in process through
`linfty.cli.main(argv)`.  The pool lives in `pool/manifest.json`; every job
there carries the exit code it must return and how its answer is checked:

- ``digest``: the SHA-256 of the canonical form of its JSON output equals
  the reference recorded when the pool was generated;
- ``witness``: a damaged input; the command exits 1 and its JSON report
  has ``ok`` false and a non-empty witness;
- ``vdim``: a homotopy fibered product; the virtual dimension written into
  the output equals the additive formula computed from the inputs.

Job times are reported in reference seconds.  The host this benchmark was
built on is shared: other tenants slow all Python code on it by up to
about 1.9x, in phases that last from milliseconds to minutes, so raw wall
times of the same job wander by 20-40% between runs.  Each job therefore
runs between two short calibration loops, pure-Python `Fraction`
arithmetic that no `linfty` change can alter, and its wall time is scaled
by CAL_REF_S over their mean: the time the job would take at the speed at
which the loop takes CAL_REF_S.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from collections import defaultdict
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL = os.path.join(ROOT, "perfbench", "pool")
MANIFEST = os.path.join(POOL, "manifest.json")
PAIR_TOLERANCE = 0.15
CAL_TERMS = 400
# the loop's uncontended time on the 2-vCPU host that generated the pool
CAL_REF_S = 0.00105


def import_cli():
    """Import `linfty.cli` from the checkout's own `src/` tree."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import linfty.cli
    if os.path.dirname(os.path.abspath(linfty.cli.__file__)) != os.path.join(src, "linfty"):
        raise ImportError(f"linfty.cli came from {linfty.cli.__file__}, not from {src}")
    return linfty.cli


def load_pool(workload: str) -> list[dict]:
    with open(MANIFEST) as fh:
        doc = json.load(fh)
    if workload not in doc["workloads"]:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"the pool has {', '.join(sorted(doc['workloads']))}")
    return doc["workloads"][workload]


def canonical_digest(text: str) -> str:
    doc = json.loads(text)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def draw(jobs: list[dict], seed: int) -> list[dict]:
    """One job from each pair of cost twins within a group.

    Members of a group are sorted by the reference cost recorded with the
    pool.  Neighbours whose costs differ by at most PAIR_TOLERANCE form a
    pair and the seed picks one of the two; a member without such a twin
    is always taken.  Different seeds therefore run different inputs with
    the same mix of commands and nearly the same cost profile, which keeps
    the heavy-tailed workloads steady from seed to seed.
    """
    rng = random.Random(seed)
    groups: dict[str, list[dict]] = defaultdict(list)
    for job in jobs:
        groups[job["group"]].append(job)
    picked = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda j: (j["ref_ms"], j["id"]))
        i = 0
        while i < len(members):
            pair = members[i:i + 2]
            if len(pair) == 2 and pair[1]["ref_ms"] <= pair[0]["ref_ms"] * (1 + PAIR_TOLERANCE):
                picked.append(rng.choice(pair))
                i += 2
            else:
                picked.append(pair[0])
                i += 1
    return picked


def run_job(main, argv: list[str]) -> tuple[int | None, str, str, float, str | None]:
    """Run one command line; returns (exit code, stdout, stderr, seconds, crash)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a benchmark error
        crash = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds, crash


def calibrate() -> float:
    """Wall time of a fixed pure-Python Fraction loop: the host's speed now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CAL_TERMS):
        acc += Fraction(1, i)
    return time.perf_counter() - t0


def run_calibrated(run, jobs: list[dict]):
    """Run jobs in order with run(job) -> run_job's tuple, each between two
    calibration loops.  Yields (job, exit code, stdout, crash, reference seconds).
    """
    before = calibrate()
    for job in jobs:
        code, out, _err, seconds, crash = run(job)
        after = calibrate()
        yield job, code, out, crash, seconds * 2 * CAL_REF_S / (before + after)
        before = after


def judge(job: dict, code, out: str, crash: str | None) -> tuple[str, str]:
    """Classify a finished job as ("ok" | "fail" | "wrong", reason)."""
    expect = job["expect"]
    if crash is not None:
        return "fail", f"raised {crash}"
    if code != expect["exit"]:
        return "fail", f"exit {code}, expected {expect['exit']}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "wrong", "output is not JSON"
    check = expect["check"]
    if check == "digest":
        got = canonical_digest(out)
        if got != expect["digest"]:
            return "wrong", f"digest {got[:12]} != reference {expect['digest'][:12]}"
    elif check == "witness":
        if doc.get("ok") is not False or not doc.get("witness"):
            return "wrong", "damaged input reported without a witness"
    elif check == "vdim":
        got = (doc.get("metadata") or {}).get("virtual_dimension")
        if got != expect["vdim"]:
            return "wrong", f"virtual dimension {got}, additive formula {expect['vdim']}"
    else:
        raise ValueError(f"unknown check {check!r} for job {job['id']}")
    return "ok", ""
