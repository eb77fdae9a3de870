"""The linfty benchmark: seeded CLI jobs from a frozen pool, in one process.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Jobs go through `linfty.cli.main(argv)`
in process, one at a time: a closed loop with a single client and no extra
threads, pinned to one CPU.  The seed draws one job from each pair of cost
twins in the pool (see `jobs.draw`) and orders every pass.

With ``--trace 0`` the run times set-up (median of fresh interpreters that
import `linfty.cli`), then runs MIN_PASSES passes over the drawn jobs and
further passes over all but the heaviest HEAVY_SHARE of them until
``--seconds`` have elapsed: the heavy jobs are most of a pass's cost, and
the jobs around the median and p90 gain the extra samples.  Each job's
time is its median over its samples, in reference seconds (see `jobs.py`:
wall time scaled by a calibration loop run next to it, which cancels the
host's load).  These per-job times give the end-to-end metrics; a draw
holds at least 100 jobs, so p90 has ten jobs beyond it.

With ``--trace 1`` it runs one pass untraced and the same pass again with
every `linfty` layer traced (see `layers.py`), prints the per-layer
metrics and the tracing overhead, and writes the span edges and exact
counts to ``.perfbench-out/``.  Its length is one pass each way, so that
its counts are exact and repeat run to run.

Every job's answer is checked against the pool's oracle.  The last line of
standard output is one JSON object; the exit code is 1 when any job failed
or answered wrongly, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from jobs import (ROOT, draw, import_cli, judge, load_pool, run_calibrated,  # noqa: E402
                  run_job)

WORKLOADS = ("transfer", "certify", "polybase")
SETUP_REPEATS = 11
MIN_PASSES = 3
HEAVY_SHARE = 0.05
MIN_TAIL = 10
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than MIN_TAIL values beyond."""
    beyond = len(values) - math.ceil(q * len(values))
    if beyond < MIN_TAIL:
        raise ValueError(f"p{round(q * 100)} of {len(values)} values has only "
                         f"{beyond} beyond it; need {MIN_TAIL}")
    return sorted(values)[math.ceil(q * len(values)) - 1]


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median time of a fresh interpreter importing linfty.cli, in reference seconds."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def start(_job):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import linfty.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        return 0, "", "", time.perf_counter() - t0, None

    return statistics.median(ref for *_, ref in run_calibrated(start, [{}] * repeats))


class Tally:
    """Every job's verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, job: dict, code, out: str, crash) -> None:
        verdict, why = judge(job, code, out, crash)
        self.attempted += 1
        if verdict == "fail":
            self.failed += 1
        elif verdict == "wrong":
            self.wrong += 1
        if verdict != "ok" and len(self.problems) < 20:
            self.problems.append(f"{job['id']}: {verdict}: {why}")

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed + self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed + self.wrong, "metrics": metrics}

    def summary(self) -> str:
        n = max(self.attempted, 1)
        return (f"jobs {self.attempted}  fail_frac {self.failed / n:.4f}  "
                f"wrong_frac {self.wrong / n:.4f}")


def run_pass(run, order: list[dict], tally: Tally, samples: dict | None = None) -> float:
    """Run each job once with run(job); returns the summed reference seconds."""
    total = 0.0
    for job, code, out, crash, seconds in run_calibrated(run, order):
        tally.record(job, code, out, crash)
        total += seconds
        if samples is not None:
            samples.setdefault(job["id"], []).append(seconds)
    return total


def plain(cli):
    """Run a job through linfty.cli.main, looked up at call time."""
    return lambda job: run_job(cli.main, job["argv"])


def end_to_end(cli, picked: list[dict], rng: random.Random, seconds: float,
               tally: Tally) -> tuple[dict, str]:
    setup_s = measure_setup()
    by_cost = sorted(picked, key=lambda j: j["ref_ms"])
    light = by_cost[:len(by_cost) - math.ceil(HEAVY_SHARE * len(by_cost))]
    samples: dict[str, list[float]] = {}
    passes = 0
    t0 = time.perf_counter()
    while True:
        batch = picked if passes < MIN_PASSES else light
        run_pass(plain(cli), rng.sample(batch, len(batch)), tally, samples)
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and passes >= MIN_PASSES:
            break
    times = [statistics.median(v) for v in samples.values()]
    metrics = {
        "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
        "job_p90_ms": {"value": percentile(times, 0.9) * 1000, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    note = (f"{passes} passes over {len(picked)} jobs ({passes - MIN_PASSES} without the "
            f"{len(picked) - len(light)} heaviest) in {elapsed:.2f} s")
    return metrics, note


def traced(cli, picked: list[dict], rng: random.Random, tally: Tally,
           label: str) -> tuple[dict, str]:
    from layers import Tracer

    order = rng.sample(picked, len(picked))
    untraced = run_pass(plain(cli), order, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ref = run_pass(lambda job: tracer.run(lambda: plain(cli)(job)), order, tally)
    finally:
        tracer.uninstall()
    overhead = traced_ref / untraced
    # layer times in the same reference seconds as the end-to-end metrics
    scale = traced_ref / tracer.jobs_wall
    metrics = {name: {"value": value * scale if unit == "s" else value, "unit": unit}
               for name, (value, unit) in tracer.metrics().items()}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{label}.json")
    with open(path, "w") as fh:
        json.dump({"jobs": [j["id"] for j in order], "metrics": metrics,
                   "counts": tracer.exact_counts(), "edges": tracer.edge_table()},
                  fh, indent=1)
    note = (f"traced one pass of {len(order)} jobs: {untraced:.2f} s untraced, "
            f"{traced_ref:.2f} s traced, in reference seconds (overhead x{overhead:.2f}); "
            f"spans in {path}")
    return metrics, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("LINFTY_DEGREE_CAP", None)
    # one CPU for the benchmark and the interpreters it starts, so that each
    # calibration loop runs where the job it scales runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        cli = import_cli()
        pool = load_pool(args.workload)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot run here: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    picked = draw(pool, args.seed)
    tally = Tally()
    if args.trace:
        metrics, note = traced(cli, picked, rng, tally, f"{args.workload}-{args.seed}")
    else:
        metrics, note = end_to_end(cli, picked, rng, args.seconds, tally)
    for line in tally.problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {note}; {tally.summary()}")
    result = tally.result(metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
