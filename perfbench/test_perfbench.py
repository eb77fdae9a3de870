"""Tests of the benchmark itself.  Run:  python3 -m pytest -q perfbench"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from jobs import ROOT, draw, import_cli, judge, load_pool, run_job  # noqa: E402
from layers import Tracer  # noqa: E402
from run import percentile  # noqa: E402

cli = import_cli()

import linfty.algebra  # noqa: E402
import linfty.graded  # noqa: E402
import linfty.linalg  # noqa: E402
import linfty.poly  # noqa: E402
import linfty.transfer  # noqa: E402

WORKLOADS = ("transfer", "certify", "polybase")


def cheapest(workload: str, n: int) -> list[dict]:
    return sorted(load_pool(workload), key=lambda j: j["ref_ms"])[:n]


# -- percentiles -----------------------------------------------------------------


def test_p90_of_100_has_ten_beyond():
    values = list(range(1, 101))
    p90 = percentile(values, 0.9)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10


def test_percentile_refuses_thin_tail():
    with pytest.raises(ValueError, match="need 10"):
        percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)
    assert percentile(list(range(20)), 0.5) == 9


# -- self time -----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_subtracts_wrapped_children_of_other_layers():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.tick(4.0)

    def helper():
        clock.tick(0.5)
        leaf_w()

    def outer():
        clock.tick(1.0)
        helper_w()
        clock.tick(2.0)

    leaf_w = tr.span_wrapper(leaf, "poly.leaf", "poly", ("poly.leaf",))
    helper_w = tr.span_wrapper(helper, "graded.helper", "graded", ("graded.helper",))
    outer_w = tr.span_wrapper(outer, "graded.outer", "graded", ("graded.outer",))

    def job():
        clock.tick(0.25)
        outer_w()

    tr.run(job)
    assert tr.incl["graded.outer"] == 7.5
    assert tr.self_s["graded.outer"] == 3.5      # 7.5 minus the poly leaf
    assert tr.self_s["graded.helper"] == 0.5
    assert tr.layer_self == {"graded": 3.5, "poly": 4.0, "cli": 0.25}
    assert tr.jobs_wall == 7.75
    assert tr.edges[("job", "graded.outer")][0] == 1
    assert tr.edges[("graded.helper", "poly.leaf")] == [1, 4.0]


def test_recursive_calls_are_timed_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def fact(n):
        clock.tick(1.0)
        return 1 if n <= 1 else n * fact_w(n - 1)

    fact_w = tr.span_wrapper(fact, "poly.fact", "poly", ("poly.fact",))
    assert tr.run(lambda: fact_w(4)) == 24
    assert tr.calls["poly.fact"] == 4
    assert tr.incl["poly.fact"] == 4.0
    assert tr.layer_self["poly"] == 4.0


# -- rebinding --------------------------------------------------------------------------


def test_install_rebinds_imported_copies_and_restores_them():
    originals = {
        "bullet": linfty.graded.bullet, "circ": linfty.graded.circ,
        "inverse": linfty.linalg.inverse,
        "post_init": linfty.graded.MultiOp.__dict__["__post_init__"],
        "from_function": linfty.graded.MultiOp.__dict__["from_function"],
        "mul": linfty.poly.Poly.__dict__["__mul__"],
    }
    assert linfty.transfer.bullet is originals["bullet"]
    tr = Tracer()
    tr.install()
    try:
        wrapped = linfty.graded.bullet
        assert wrapped is not originals["bullet"]
        assert wrapped.__wrapped__ is originals["bullet"]
        assert linfty.transfer.bullet is wrapped
        assert linfty.algebra.bullet is wrapped
        assert linfty.algebra.circ is linfty.graded.circ is not originals["circ"]
        # an alias under another name is rebound too
        assert linfty.transfer.mat_inverse is linfty.linalg.inverse
        assert linfty.linalg.inverse.__wrapped__ is originals["inverse"]
        assert linfty.graded.MultiOp.__post_init__.__wrapped__ is originals["post_init"]
        assert linfty.poly.Poly.__mul__.__wrapped__ is originals["mul"]
        assert isinstance(linfty.graded.MultiOp.__dict__["from_function"], classmethod)
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    assert linfty.graded.bullet is originals["bullet"]
    assert linfty.transfer.bullet is originals["bullet"]
    assert linfty.algebra.circ is originals["circ"]
    assert linfty.transfer.mat_inverse is originals["inverse"]
    assert linfty.graded.MultiOp.__dict__["__post_init__"] is originals["post_init"]
    assert linfty.graded.MultiOp.__dict__["from_function"] is originals["from_function"]
    assert linfty.poly.Poly.__dict__["__mul__"] is originals["mul"]


def traced_counts(jobs: list[dict]) -> tuple[dict, dict]:
    tr = Tracer()
    tr.install()
    try:
        for job in jobs:
            code, out, _, _, crash = tr.run(lambda: run_job(cli.main, job["argv"]))
            assert judge(job, code, out, crash) == ("ok", "")
    finally:
        tr.uninstall()
    return tr.exact_counts(), tr.metrics()


def test_two_traced_runs_count_the_same():
    jobs = [j for w in WORKLOADS for j in cheapest(w, 4)]
    jobs += [j for j in load_pool("transfer") if "--mode" in j["argv"]
             and j["argv"][-1] == "both"][:1]
    first, metrics = traced_counts(jobs)
    second, _ = traced_counts(jobs)
    assert first == second
    assert metrics["graded.bullet.calls"][0] > 0        # reached through transfer.bullet
    assert metrics["graded.multiop_built"][0] > 0
    assert metrics["graded.tuples"][0] > 0


# -- the expected-exit table and the oracle -----------------------------------------------


def test_expected_exit_table():
    for workload in WORKLOADS:
        for job in load_pool(workload):
            expect = job["expect"]
            if expect["check"] == "witness":
                assert expect["exit"] == 1, job["id"]
                assert job["argv"][0] in ("check-axioms", "check-morphism")
            else:
                assert expect["exit"] == 0, job["id"]
            if job["argv"][0] == "fib-product":
                assert expect["check"] == "vdim"
    certify = load_pool("certify")
    damaged = sum(j["expect"]["check"] == "witness" for j in certify)
    assert damaged * 3 == len(certify)


def test_judge_separates_failures_from_wrong_answers():
    job = {"id": "j", "expect": {"exit": 0, "check": "digest", "digest": "0" * 64}}
    assert judge(job, 0, "{}", "RuntimeError: boom")[0] == "fail"
    assert judge(job, 2, "{}", None)[0] == "fail"
    assert judge(job, 0, "{}", None)[0] == "wrong"
    damaged = {"id": "d", "expect": {"exit": 1, "check": "witness"}}
    assert judge(damaged, 1, json.dumps({"ok": False, "witness": "defect"}), None)[0] == "ok"
    assert judge(damaged, 1, json.dumps({"ok": False, "witness": None}), None)[0] == "wrong"
    assert judge(damaged, 0, json.dumps({"ok": True, "witness": None}), None)[0] == "fail"
    fp = {"id": "f", "expect": {"exit": 0, "check": "vdim", "vdim": 3}}
    assert judge(fp, 0, json.dumps({"metadata": {"virtual_dimension": 3}}), None)[0] == "ok"
    assert judge(fp, 0, json.dumps({"metadata": {"virtual_dimension": 2}}), None)[0] == "wrong"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cheap_jobs_answer_as_recorded(workload):
    for job in cheapest(workload, 6):
        code, out, _, _, crash = run_job(cli.main, job["argv"])
        assert judge(job, code, out, crash) == ("ok", ""), job["id"]


def test_calibration_scales_wall_time_to_reference_seconds(monkeypatch):
    import jobs
    loops = iter([2.0, 4.0, 6.0])
    monkeypatch.setattr(jobs, "calibrate", lambda: next(loops) * jobs.CAL_REF_S)
    fake = [{"id": "a"}, {"id": "b"}]
    got = [round(ref, 9) for *_, ref in
           jobs.run_calibrated(lambda job: (0, "{}", "", 1.5, None), fake)]
    assert got == [0.5, 0.3]        # 1.5 s at 3x and at 5x the reference loop time


# -- the draw ------------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_draw_is_seeded_and_keeps_every_group(workload):
    pool = load_pool(workload)
    first = [j["id"] for j in draw(pool, 7)]
    assert first == [j["id"] for j in draw(pool, 7)]
    assert any([j["id"] for j in draw(pool, s)] != first for s in range(8, 12))
    assert {j["group"] for j in draw(pool, 7)} == {j["group"] for j in pool}


def test_draw_pairs_only_cost_twins():
    pool = [{"id": str(i), "group": "g", "ref_ms": ms}
            for i, ms in enumerate([1.0, 1.1, 5.0, 20.0, 21.0])]
    picks = {tuple(sorted(j["id"] for j in draw(pool, s))) for s in range(40)}
    assert all(len(p) == 3 and "2" in p for p in picks)
    assert len(picks) == 4


# -- BENCHMARK.json ------------------------------------------------------------------------


def test_benchmark_json_names_what_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    _, metrics = traced_counts([])
    assert [m["name"] for m in spec["per_layer"]] == [*metrics, "trace.overhead"]
    for m in spec["per_layer"]:
        if m["name"] in metrics:
            assert m["unit"] == metrics[m["name"]][1], m["name"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb"}
