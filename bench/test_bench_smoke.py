"""Smoke test of the repository benchmark (collected by tier-1; seconds, not minutes).

The four workloads run at ``--smoke`` sizes, each in its own subprocess of the
real command, side by side; everything they write goes under ``tmp_path``.
The statistics are checked on synthetic pass durations, where the true rate is
known.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bench import ROOT, inputs, runner
from bench.harness import REFERENCE_CALIB_S, Calibration, PhaseResult
from bench.oracle import Oracle
from bench.trace import Recorder, install

LISTING = runner.catalogue()
END_TO_END = [metric["name"] for metric in LISTING["end_to_end"]]
PER_LAYER = [metric["name"] for metric in LISTING["per_layer"]]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload untraced, plus one traced, at smoke sizes; ``{key: (result, line)}``."""
    workdir = tmp_path_factory.mktemp("bench")
    env = dict(os.environ, REPRO_KERNEL_CACHE=str(workdir / "kernels"))
    jobs = [(name, 0) for name in inputs.WORKLOADS] + [("filter_selective", 1)]
    children = []
    for name, trace in jobs:
        result_file = workdir / f"{name}-{trace}.json"
        command = [
            sys.executable, "-m", "bench", "--workload", name, "--smoke", "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--workdir", str(workdir / f"{name}-{trace}"),
            "--result-file", str(result_file),
        ]
        children.append((name, trace, result_file, subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)))
    runs = {}
    try:
        for name, trace, result_file, child in children:
            stdout, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, f"{name} trace={trace} failed:\n{stdout}\n{stderr}"
            runs[(name, trace)] = (
                json.loads(result_file.read_text(encoding="utf-8")),
                json.loads(stdout.strip().splitlines()[-1]),
            )
    finally:
        for _name, _trace, _file, child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return runs


def test_catalogue_shape():
    assert LISTING["paths"] == ["bench"] and LISTING["command"] == ["python3", "-m", "bench"]
    assert [workload["name"] for workload in LISTING["workloads"]] == list(inputs.WORKLOADS)
    assert len(END_TO_END) == 7 and "setup_s" in END_TO_END
    # Memory holds the issue's 5 %; the timings take the widest bound the driver
    # allows, because it refuses a bound below the spread it measures (README).
    bounds = {metric["name"]: metric["bound"] for metric in LISTING["end_to_end"]}
    assert bounds.pop("peak_rss_mb") == 0.05 and set(bounds.values()) == {0.25}
    assert len(set(END_TO_END + PER_LAYER)) == len(END_TO_END) + len(PER_LAYER)


def test_all_28_end_to_end_values(smoke_runs):
    seen = []
    for name in inputs.WORKLOADS:
        result, line = smoke_runs[(name, 0)]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == END_TO_END
        for metric in LISTING["end_to_end"]:
            entry = line["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"]) and entry["value"] > 0
            seen.append(entry["value"])
        assert result["oracle"]["checked"] >= 32 and result["oracle"]["mismatches"] == 0
        assert result.get("cache_hits", 0) == 0
        for phase in result["phases"].values():
            assert phase["attempted"] == phase["answered"] > 0 and phase["failed"] == 0
    assert len(seen) == 28


def test_rates_come_from_their_own_passes(smoke_runs):
    """No end-to-end value is another one under a second name."""
    for name in inputs.WORKLOADS:
        result, _line = smoke_runs[(name, 0)]
        values = result["end_to_end"]
        assert len({values[key] for key in END_TO_END}) == len(END_TO_END)
        phases = result["phases"]
        for metric, phase in (("throughput_qps", "single"), ("batch_throughput_qps", "batch"),
                              ("topk_throughput_qps", "topk")):
            assert values[metric] == phases[phase]["rate_per_s"]
            assert phases[phase]["passes"] >= 4
        rates = [phases[phase]["wall_rate_per_s"] for phase in ("single", "batch", "topk")]
        assert len(set(rates)) == 3
    serial = smoke_runs[("service_wire", 0)][0]["phases"]["serial"]
    assert serial["invalid"] is False and serial["passes"] >= 4


def test_traced_run_reports_every_layer(smoke_runs):
    result, line = smoke_runs[("filter_selective", 1)]
    assert list(line["metrics"]) == PER_LAYER
    assert all(math.isfinite(entry["value"]) for entry in line["metrics"].values())
    per_layer = result["per_layer"]
    assert result["missing_targets"] == []
    assert per_layer["trace.coverage_pct"] >= 90.0
    assert 0.9 <= per_layer["core.prune_rate"] <= 1.0
    for key in ("db.kernels_us_per_query", "core.plan_us_per_query",
                "serving.engine_us_per_query", "db.branch_extract_us_per_query",
                "obs.overhead_pct", "trace.overhead_pct", "db.store_mb"):
        assert per_layer[key] is not None
    assert os.path.exists(result["trace_file"])


def test_inputs_are_seed_deterministic():
    sizes = inputs.sizes_for("filter_selective", smoke=True)
    graphs_a, pool_a = inputs.engine_inputs(sizes, 3, "filter_selective")
    graphs_b, pool_b = inputs.engine_inputs(sizes, 3, "filter_selective")
    graphs_c, _pool_c = inputs.engine_inputs(sizes, 4, "filter_selective")
    assert all(a == b for a, b in zip(graphs_a, graphs_b))
    for kind in pool_a:
        assert all(
            a.graph == b.graph and a.tau_hat == b.tau_hat
            for a, b in zip(pool_a[kind], pool_b[kind]))
    assert any(a != c for a, c in zip(graphs_a, graphs_c))
    assert [g.num_vertices for g in graphs_a] == [g.num_vertices for g in graphs_c]
    assert inputs.poisson_schedule(3, 500.0, 0.5) == inputs.poisson_schedule(3, 500.0, 0.5)
    assert inputs.poisson_schedule(3, 500.0, 0.5) != inputs.poisson_schedule(4, 500.0, 0.5)
    schedule = inputs.poisson_schedule(3, 500.0, 0.5)
    assert len(schedule) == 250 and schedule == sorted(schedule) and 0 <= schedule[0]
    assert schedule[-1] < 0.5
    assert inputs.zipf_draws(3, 64, 32, 1.6) == inputs.zipf_draws(3, 64, 32, 1.6)


def test_calibrated_median_survives_a_slow_machine():
    """A whole run at two thirds speed: the calibrated rate reads true, the wall clock's not."""
    rng = np.random.default_rng(12)
    ops, true_duration = 1000, 0.2
    phase = PhaseResult("single", ops)
    for _ in range(20):
        machine = rng.uniform(0.6, 0.75)  # never at reference speed during this run
        calib = REFERENCE_CALIB_S / machine
        phase.record(
            true_duration / machine * (1.0 + rng.uniform(0.0, 0.01)),
            [true_duration / machine / ops] * 10,
            speed=Calibration.speed(calib, calib),
        )
    summary = phase.summarise()
    true_rate = ops / true_duration
    assert abs(summary["rate_per_s"] / true_rate - 1.0) < 0.02
    assert abs(summary["wall_rate_per_s"] / true_rate - 1.0) > 0.2 and summary["disturbed"]
    assert abs(summary["latency_p50_ms"] / (true_duration / ops * 1e3) - 1.0) < 0.02


def test_oracle_rejects_a_tampered_answer():
    from repro.db.query import SimilarityQuery

    from bench.oracle import canonical
    from bench.workloads import set_up_engine

    sizes = inputs.sizes_for("scan_dense", smoke=True)
    graphs, pools = inputs.engine_inputs(sizes, 5, "scan_dense")
    pool = pools["single"]
    engine, _answer, _stages = set_up_engine(graphs, sizes, pool[0], Calibration())
    oracle = Oracle(graphs, 5)
    oracle.use(engine.estimator)
    spec = next(
        spec for spec in pool
        if engine.query(SimilarityQuery(spec.graph, spec.tau_hat, spec.gamma)).accepted_ids
    )
    accepted, scores, ranking = canonical(
        engine.query(SimilarityQuery(spec.graph, spec.tau_hat, spec.gamma)))
    assert oracle.agrees((accepted, scores, ranking), spec)
    victim = min(accepted)
    assert not oracle.agrees((accepted - {victim}, scores, ranking), spec)
    nudged = {**scores, victim: math.nextafter(scores[victim], 2.0)}
    assert not oracle.agrees((accepted, nudged, ranking), spec)
    top = canonical(engine.query_topk(SimilarityQuery(spec.graph, spec.tau_hat, spec.gamma), 10))
    assert oracle.agrees(top, spec, 10)
    swapped = [top[2][1], top[2][0]] + top[2][2:]
    assert not oracle.agrees((top[0], top[1], swapped), spec, 10)


def test_a_renamed_target_reads_null_not_a_crash(monkeypatch):
    from bench import trace

    monkeypatch.setattr(trace, "TARGETS", (
        ("core.plan", "repro.core.plan", "ExecutionCore", ("no_such_method",)),
        ("db.kernels", "repro.db.no_such_module", "Store", ("intersection_*",)),
        ("db.branch_extract", "repro.db.query", "SimilarityQuery", ("branches",)),
    ))
    recorder = Recorder()
    installed = install(recorder)
    try:
        assert sorted(installed.missing) == [
            "core.plan:no_such_method", "db.kernels:intersection_*"]
        spans = recorder.spans()
        assert spans.self_seconds("core.plan") is None and spans.self_seconds("db.kernels") is None
        assert spans.self_seconds("db.branch_extract") == 0.0
    finally:
        installed.uninstall()
