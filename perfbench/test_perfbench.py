"""Self-tests of the benchmark: `python3 -m pytest perfbench -q` from the checkout root."""

from __future__ import annotations

import copy
import json
import random
import sys
import time

import pytest

import run
import tracer
import workloads
from tracer import CALLS, SELF, Layer
from workloads import REJECT, Job

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(scope="module")
def small_jobs(tmp_path_factory) -> list[Job]:
    """A certified input, a seeded mutant and a small bounds table: a few seconds in all."""
    tmp = tmp_path_factory.mktemp("inputs")
    base = tmp / "standard-1x3.json"
    workloads.write_standard(run.ROOT, run.child_env(), (1, 3), "standard", base)
    mutant = workloads.write_mutants(base, 1, random.Random(7), tmp)[0]
    return [
        Job("certify-1x3", ("verify", "--input", str(base), "--format", "json"),
            workloads.check_certified(4, 4), workloads.CERTIFY),
        Job("mutant-1x3", ("verify", "--input", str(mutant), "--format", "json"),
            workloads.check_rejected, REJECT),
        Job("bounds-small", ("bounds", "--max-s", "2", "--max-t", "1", "--dim-cap", "4"),
            lambda code, out: None if code == 0 and out.startswith("s,t,") else "bad table"),
    ]


@pytest.fixture(scope="module")
def traced_pair(small_jobs, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    env, deadline = run.child_env(), time.perf_counter() + 120
    plain = run.run_pass(small_jobs, env, workdir, deadline)
    traced = run.run_pass(small_jobs, env, workdir, deadline, traced=True)
    stats = [json.loads((workdir / f"{job.name}.stats.json").read_text()) for job in small_jobs]
    return plain, traced, stats


def test_traced_job_matches_untraced(traced_pair):
    plain, traced, stats = traced_pair
    assert [r.code for r in plain] == [0, 1, 0]
    for p, t in zip(plain, traced):
        assert (t.code, t.stdout) == (p.code, p.stdout)
        assert p.failure is None and t.failure is None
    metrics = tracer.per_layer_metrics(stats)
    assert metrics["verifier.verify.calls"] == 2
    assert metrics["verifier.pairs"] == 2 * (4 * 3 // 2)
    assert metrics["lptable.solve_cell.self_s"] > 0
    assert metrics["fbounds.memo_entries"] > 0
    assert set(metrics) == set(tracer.metric_names())


def test_missing_function_is_absent_not_zero(traced_pair):
    rec = tracer.Recorder("gone")
    gone = (Layer("verifier", "facet_rows_removed", (CALLS, SELF)),
            Layer("fbounds", "NoSuchClass.get", (CALLS, SELF)))
    assert tracer.install(rec, gone) == [layer.name for layer in gone]
    assert tracer.per_layer_metrics([{"layers": {}, "counters": {}, "memo": {}}], gone) == {}

    # stats as a version without verifier.facet_rows would write them
    stats = copy.deepcopy(traced_pair[2])
    for s in stats:
        s["layers"].pop("verifier.facet_rows")
    metrics = tracer.per_layer_metrics(stats)
    assert "verifier.facet_rows.self_s" not in metrics
    assert metrics["verifier.verify.self_s"] > 0


def test_wrong_expectation_raises_fail_ratio(small_jobs, monkeypatch):
    certify = small_jobs[0]
    wrong = Job("expects-reject", certify.argv, workloads.check_rejected, REJECT)
    monkeypatch.setattr(run.workloads, "make_jobs", lambda *args: ([certify, wrong], []))
    record = run.run_workload("verify-mixed", 0, 0, False)
    assert (record["failed"], record["attempted"]) == (1, 2)
    failures = [r["failure"] for r in record["passes"][0]]
    assert failures[0] is None and failures[1] == "exit 0, expected 1"


def test_mutants_are_seeded_nondegenerate_and_new():
    factors = (1, 1, 2)
    from simplotope.core import SimplotopeSpec, VertexSimplex, class_of
    from simplotope.standard import standard_triangulation

    spec = SimplotopeSpec(factors)
    base = [[v.idx for v in x.vertices] for x in standard_triangulation(spec)]
    first = workloads.draw_mutants(factors, base, 6, random.Random(3))
    assert first == workloads.draw_mutants(factors, base, 6, random.Random(3))
    members = {frozenset(x) for x in base}
    for m in first:
        changed = [k for k, (a, b) in enumerate(zip(base, m["simplices"])) if a != b]
        assert changed == [m["simplex"]]
        new = m["simplices"][m["simplex"]]
        assert len(set(new) - set(base[m["simplex"]])) == 1
        assert frozenset(new) not in members
        cls = workloads.simplex_class(factors, new)
        x = VertexSimplex(spec, [spec.vertex(v) for v in new])
        assert cls == class_of(x, x.vertices[0]) > 0


def test_pinned_bounds_cover_the_table():
    pinned = workloads.load_bounds_expected()
    assert len(pinned) == 36
    assert pinned[(3, 2)] == ("13943/56", 249) and pinned[(10, 0)] == ("95708", 95708)


def test_benchmark_json_matches_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    per_layer = tracer.metric_names() + ["trace.overhead_ratio", "jobs.certify_s", "jobs.reject_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
