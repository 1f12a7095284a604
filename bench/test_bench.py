"""Tests of the benchmark itself: every metric is emitted, and the gate bites.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TINY = dict(seconds=0.05, limit=12, setup_runs=2)


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(name):
    report = run.run(name, 1, trace=False, **TINY)
    metrics = report["metrics"]
    for metric, unit in declared("end_to_end").items():
        assert metrics[metric]["unit"] == unit
        assert metrics[metric]["value"] > 0
    assert metrics["failed_ratio"] == {"value": 0.0, "unit": "ratio", "samples": report["attempted"]}
    assert metrics["setup_s"]["samples"] == 2
    assert report["failures"] == []
    line = run.result_line(report, list(declared("end_to_end")))
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 12 * run.MIN_PASSES


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(name):
    report = run.run(name, 1, trace=True, **TINY)
    assert report["failed"] == 0, report["failures"]
    for metric, unit in declared("per_layer").items():
        assert report["metrics"][metric]["unit"] == unit, metric
    assert report["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_quantile_probes_follow_the_binary_search():
    metrics = run.run("quantile-search", 1, trace=True, **TINY)["metrics"]
    probes = metrics["quantile.probes_per_query"]["value"]
    # Binary search over bounds of hundreds: one solve, and so one validation, per probe.
    assert probes >= 5
    assert metrics["model.calls_per_query"]["value"] >= probes + 1
    assert metrics["quantile.bound_over_answer_p50"]["value"] > 1


def test_corrupted_digest_counts_as_failed():
    report = run.run("mdp-decide", 1, trace=False, expected=(12, "0" * 64), **TINY)
    assert report["digest"]["state"] == "mismatch"
    assert report["metrics"]["failed_ratio"]["value"] > 0
    assert run.result_line(report, ["queries_per_s"])["correct"] is False


def _gated_run(name: str, corrupt) -> run.Gate:
    workdir = os.path.join(run.OUT_DIR, f"test-{os.getpid()}")
    try:
        api, queries, _ = run.setup(name, 1, workdir)
        corrupt(api)
        del queries[20:]
        gate = run.Gate(queries)
        run.timed_loop(queries, gate, 0, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return gate


def test_corrupted_oracle_counts_as_failed():
    def corrupt(api):
        brute = api.gadgets.qsubsetsum_brute
        api.gadgets.qsubsetsum_brute = lambda weights, total: not brute(weights, total)

    gate = _gated_run("mdp-decide", corrupt)
    assert gate.failed >= 10
    assert any("subset-sum" in reason for reason in gate.bad.values())


def test_wrong_quantile_answer_counts_as_failed():
    def corrupt(api):
        query = api.co.quantile_query
        api.co.quantile_query = lambda *args: (query(*args) or 0) + 1

    gate = _gated_run("quantile-search", corrupt)
    assert gate.failed == gate.attempted


def test_wrong_sampler_counts_as_failed():
    def corrupt(api):
        estimate = api.co.estimate

        def skewed(*args):
            report = estimate(*args)
            return type(report)(report.n, report.n - report.hits, report.estimate,
                                report.ci_halfwidth, report.seed)

        api.co.estimate = skewed

    gate = _gated_run("monte-carlo", corrupt)
    assert gate.failed > 0


def test_speed_scale_uses_nearby_calibrations():
    meter = speed.Speedometer()
    meter.times = [0.0, 0.5, 1.0, 10.0]
    meter.durations = [2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S,
                       speed.REFERENCE_S]
    # Within the window of 0.5: the median of 2x, 2x and 4x the reference.
    assert meter.scale(0.5) == 0.5
    # Nothing within the window of 5.5: the calibrations on either side.
    assert meter.scale(5.5) == speed.REFERENCE_S / statistics.median([4 * speed.REFERENCE_S,
                                                                       speed.REFERENCE_S])
    assert meter.scale(10.0) == 1.0


def test_monte_carlo_tolerance():
    assert workloads._mc_within(1000, 2000, Fraction(1, 2))
    assert not workloads._mc_within(1300, 2000, Fraction(1, 2))
    assert workloads._mc_within(2000, 2000, Fraction(1))
    assert not workloads._mc_within(1999, 2000, Fraction(1))


def test_same_seed_same_inputs():
    first = run.run("monte-carlo", 3, trace=False, **TINY)["digest"]
    second = run.run("monte-carlo", 3, trace=False, **TINY)["digest"]
    assert first == second


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mdp-decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
