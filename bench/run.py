"""costodds benchmark: one workload per process, closed loop, one client.

Usage, from the repository root:

    python3 bench/run.py --workload quantile-search --seed 1 --seconds 25 --trace 0

The run imports the package from ``src/`` of the same checkout, builds
the workload's query list from the seed, and issues the queries one at a
time, each after the previous one returned. It goes through the whole
list in passes until ``--seconds`` of query time have passed and at least
``MIN_PASSES`` passes are done. The host's speed drifts by tens of
percent in phases that can outlast a run, so a calibration kernel runs
between queries and every latency is scaled to a reference host speed
(see ``speed.py``); a query's latency is the median of its scaled passes.
Only the calls into the package are timed; after each one, outside the
timer, the answer is checked against an independent oracle, compared
with earlier answers to the same query, and the first ``DIGEST_QUERIES``
answers are hashed and compared with the digest pinned in
``digests.json``.

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run (spans plus a cProfile pass; see ``tracing.py``). The line before it
is a full report: environment, sample counts, digest and failures.
Every wrong or failed answer counts in ``failed``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import json
import math
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS_FILE = os.path.join(BENCH_DIR, "digests.json")

WORKLOADS = ("exact-chains", "mdp-decide", "quantile-search", "monte-carlo")
DEFAULT_SEED = 1
# Never used while the benchmark was tuned; re-check claims on it.
HELD_OUT_SEED = 20261017

# Passes over the query list; each query's latency is its median scaled pass.
MIN_PASSES = 3
DIGEST_QUERIES = 100
# Set-up repetitions; setup_s is their median, each scaled like a query.
SETUP_RUNS = 7
# Calibrations just before and just after each set-up.
SETUP_CALIBRATIONS = 3
# Share of --seconds the traced run's cProfile pass may take.
TRACE_PROFILE_SHARE = 0.25

sys.path.insert(0, BENCH_DIR)

import speed  # noqa: E402


def import_api() -> SimpleNamespace:
    """Import the package afresh, as a new process would."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "costodds" or n.startswith("costodds.")]:
        del sys.modules[name]
    return SimpleNamespace(
        co=importlib.import_module("costodds"),
        gadgets=importlib.import_module("costodds.gadgets"),
        cli=importlib.import_module("costodds.cli"),
    )


def setup(name: str, seed: int, workdir: str) -> tuple[Any, list, float]:
    """Import the package and build the workload; returns the time it took."""
    import workloads

    start = perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    api = import_api()
    queries = workloads.build(name, seed, api, workdir)
    return api, queries, perf_counter() - start


@dataclass
class Gate:
    """Correctness gate over one run; it works outside the timed region.

    A query is bad when it raised, when its oracle check failed the
    first time it ran, when a later run of it answered differently, or
    when it lies in a digest prefix that does not match the pinned one.
    Every execution of a bad query counts as failed.

    Answers are kept as hashes of their fingerprints, and the digest
    prefix is hashed as its answers arrive, so that the gate's memory
    does not grow with the size of exact answers and ``peak_rss_mib``
    stays the program's.
    """

    queries: list
    # index -> sha256 of the first answer's fingerprint
    first: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)
    bad: dict = field(default_factory=dict)
    prefix: int = 0
    prefix_hash: Any = field(default_factory=hashlib.sha256)

    def record(self, index: int, output: Any, error: BaseException | None) -> None:
        self.runs[index] = self.runs.get(index, 0) + 1
        query = self.queries[index]
        if error is not None:
            self.bad.setdefault(index, f"{query.kind}: {type(error).__name__}: {error}")
            return
        try:
            text = query.fingerprint(output)
            key = hashlib.sha256(text.encode()).digest()
            if index not in self.first:
                self.first[index] = key
                if index == self.prefix < DIGEST_QUERIES:
                    line = f"{index}:{text}" if index == 0 else f"\n{index}:{text}"
                    self.prefix_hash.update(line.encode())
                    self.prefix += 1
                query.check(output)
            elif key != self.first[index]:
                self.bad.setdefault(index, f"{query.kind}: answer changed between runs")
        except Exception as exc:  # any oracle failure is a wrong answer, not a crash
            self.bad.setdefault(index, f"{query.kind}: {type(exc).__name__}: {exc}")

    def digest(self) -> tuple[int, str]:
        """(prefix length, sha256) over the answers that the list's first
        queries gave on their first run, in list order."""
        return self.prefix, self.prefix_hash.hexdigest()

    def fail_prefix(self, prefix: int, reason: str) -> None:
        for index in range(prefix):
            self.bad.setdefault(index, reason)

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.runs[i] for i in self.bad)


def timed_call(query: Any, index: int, gate: Gate, hooks: Any = None) -> float:
    """Ask one query, time only the call into the package, then gate the answer."""
    args = query.prepare()
    if hooks is not None:
        hooks.begin(index)
    error = output = None
    start = perf_counter()
    try:
        output = query.run(*args)
    except Exception as exc:  # a raising query is a failed query
        error = exc
    elapsed = perf_counter() - start
    if hooks is not None:
        hooks.end()
    gate.record(index, output, error)
    return elapsed


def timed_loop(queries: list, gate: Gate, seconds: float, passes: int,
               hooks: Any = None) -> list[list[float]]:
    """Run passes over ``queries`` until at least ``passes`` whole passes
    are done and ``seconds`` of query time have passed, or until ``hooks``
    says stop. Returns each query's latencies, in list order."""
    if not queries:
        raise ValueError("empty query list")
    latencies: list[list[float]] = [[] for _ in queries]
    busy = 0.0
    done = 0
    while True:
        for index, query in enumerate(queries):
            if done >= passes and busy >= seconds:
                return latencies
            elapsed = timed_call(query, index, gate, hooks)
            latencies[index].append(elapsed)
            busy += elapsed
            if hooks is not None and hooks.stop(busy):
                return latencies
        done += 1


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(latencies: list[list[float]], gate: Gate, setups: list[float]) -> dict:
    """End-to-end metrics from scaled latencies and set-up times."""
    typical = [statistics.median(runs) for runs in latencies]
    count = len(typical)
    passes = min(len(runs) for runs in latencies)
    # Highest percentile with at least ten samples beyond it, capped at p90.
    share = min(0.9, (count - 10) / count) if count > 10 else 0.5
    return {
        "queries_per_s": {"value": count / sum(typical), "unit": "1/s", "samples": count,
                          "passes": passes,
                          "per_pass": [count / sum(runs[p] for runs in latencies)
                                       for p in range(passes)]},
        "latency_p50_ms": {"value": 1000 * statistics.median(typical), "unit": "ms",
                           "samples": count},
        "latency_p90_ms": {"value": 1000 * percentile(typical, share), "unit": "ms",
                           "samples": count, "percentile": round(100 * share, 2),
                           "beyond": count - math.ceil(share * count)},
        "failed_ratio": {"value": gate.failed / gate.attempted, "unit": "ratio",
                         "samples": gate.attempted},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB", "samples": 1},
    }


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Sampler:
    """Hooks of the untraced run.

    They note when each query starts, run the calibration kernel between
    queries, and repeat the set-up at even steps of query time, so that
    set-ups spread over the whole run. Each repeat rebuilds the same files
    and lists; the timed queries keep the ones built first. ``scaled``
    turns the loop's latencies and the set-up times into reference-speed
    seconds.
    """

    def __init__(self, rebuild: Any, seconds: float, runs: int, first: float,
                 queries: int) -> None:
        self.rebuild = rebuild
        self.runs = runs
        self.step = seconds / runs
        self.speed = speed.Speedometer()
        self.starts: list[list[float]] = [[] for _ in range(queries)]
        self.busy = 0.0
        # (midpoint, seconds) of each set-up; the first just ended.
        self.setups = [(perf_counter() - first / 2, first)]
        self.speed.calibrate(SETUP_CALIBRATIONS)

    def begin(self, index: int) -> None:
        self.starts[index].append(perf_counter())

    def end(self) -> None:
        pass

    def stop(self, busy: float) -> bool:
        self.speed.after_query(busy - self.busy)
        self.busy = busy
        if len(self.setups) < self.runs and busy >= self.step * len(self.setups):
            self.repeat_setup()
        return False

    def repeat_setup(self) -> None:
        self.speed.calibrate(SETUP_CALIBRATIONS)
        seconds = self.rebuild()
        self.setups.append((perf_counter() - seconds / 2, seconds))
        self.speed.calibrate(SETUP_CALIBRATIONS)

    def scaled(self, latencies: list[list[float]]) -> tuple[list[list[float]], list[float]]:
        while len(self.setups) < self.runs:
            self.repeat_setup()
        scale = self.speed.scale
        queries = [[elapsed * scale(start + elapsed / 2) for elapsed, start in zip(runs, starts)]
                   for runs, starts in zip(latencies, self.starts)]
        setups = [seconds * scale(middle) for middle, seconds in self.setups]
        return queries, setups


class _Profiler:
    """Hooks for the cProfile pass: profile only the query calls."""

    def __init__(self, budget: float) -> None:
        self.profile = cProfile.Profile()
        self.budget = budget

    def begin(self, index: int) -> None:
        self.profile.enable()

    def end(self) -> None:
        self.profile.disable()

    def stop(self, busy: float) -> bool:
        return busy >= self.budget


class _SpanHooks:
    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer

    def begin(self, index: int) -> None:
        self.tracer.query = index
        self.tracer.active = True

    def end(self) -> None:
        self.tracer.active = False

    def stop(self, busy: float) -> bool:
        return False


def traced_run(queries: list, gate: Gate, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics: one pass with spans, then cProfile over the list's head.

    In the span pass each query runs untraced and traced back to back, in
    alternating order, so that neither the host's speed drift nor a warm
    second run biases the overhead ratio.
    """
    import tracing

    spec = tracing.load_layers()["layers"]
    tracer = tracing.Tracer()
    tracer.install(spec)
    spans = _SpanHooks(tracer)
    base, traced = [], []
    for index, query in enumerate(queries):
        if index % 2:
            traced.append(timed_call(query, index, gate, spans))
        base.append(timed_call(query, index, gate))
        if not index % 2:
            traced.append(timed_call(query, index, gate, spans))
    tracer.write(spans_path)

    profiler = _Profiler(TRACE_PROFILE_SHARE * seconds)
    profiled = sum(len(runs) for runs in timed_loop(queries, gate, 0, 1, profiler))

    span_layers = [name for name, layer in spec.items() if layer.get("entry_points")]
    leaf_files = {name: layer["profile_files"] for name, layer in spec.items()
                  if layer.get("profile_files")}
    metrics = tracing.span_metrics(tracer.spans, span_layers, len(traced), sum(traced))
    metrics.update(tracing.profile_shares(
        pstats.Stats(profiler.profile), leaf_files, profiled, 1000 * sum(base) / len(base)))
    metrics["trace.overhead_ratio"] = sum(traced) / sum(base)
    return metrics


def commit() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def pinned_digest(name: str, seed: int) -> tuple[int, str] | None:
    try:
        with open(DIGESTS_FILE, encoding="utf-8") as handle:
            pinned = json.load(handle)
    except FileNotFoundError:
        return None
    entry = pinned.get(name, {}).get(str(seed))
    return None if entry is None else (pinned["queries"], entry)


def run(name: str, seed: int, seconds: float, trace: bool, limit: int | None = None,
        setup_runs: int = SETUP_RUNS, expected: tuple[int, str] | None = None) -> dict:
    """One benchmark run; returns the report.

    ``limit`` keeps only the head of the query list (for quick tests);
    ``expected`` overrides the pinned digest.
    """
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        _, queries, first = setup(name, seed, workdir)
        setups = [first]
        host: dict = {}
        if limit is not None:
            del queries[limit:]
        gate = Gate(queries)
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl")
            layer_metrics = traced_run(queries, gate, seconds, spans_path)
            units = declared_metrics(trace=True)
            metrics = {key: {"value": value, "unit": units[key]}
                       for key, value in layer_metrics.items()}
        else:
            sampler = _Sampler(lambda: setup(name, seed, workdir)[2], seconds,
                               setup_runs, first, len(queries))
            measured = timed_loop(queries, gate, seconds, MIN_PASSES, sampler)
            latencies, setups = sampler.scaled(measured)
            metrics = end_to_end(latencies, gate, setups)
            host = sampler.speed.summary()
            host["measured_queries_per_s"] = len(measured) / sum(
                statistics.median(runs) for runs in measured)
            host["measured_setup_runs_s"] = [seconds for _, seconds in sampler.setups]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prefix, digest = gate.digest()
    want = expected if expected is not None else pinned_digest(name, seed)
    if want is None or want[0] != prefix:
        digest_state = "unpinned"
    elif want[1] == digest:
        digest_state = "match"
    else:
        digest_state = "mismatch"
        gate.fail_prefix(prefix, "exact outputs differ from the pinned digest")
    if not trace:
        metrics["failed_ratio"]["value"] = gate.failed / gate.attempted
    kinds: dict[str, int] = {}
    for query in queries:
        kinds[query.kind] = kinds.get(query.kind, 0) + 1
    return {
        "workload": name,
        "trace": trace,
        "environment": environment(seed),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "queries_by_kind": kinds,
        "list_length": len(queries),
        "setup_runs_s": setups,
        "host_speed": host,
        "digest": {"queries": prefix, "sha256": digest, "state": digest_state},
        "failures": sorted(set(gate.bad.values()))[:10],
        "metrics": metrics,
    }


def result_line(report: dict, declared: Iterable[str]) -> dict:
    """The result line: exactly the metrics BENCHMARK.json declares, value and unit."""
    metrics = report["metrics"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {key: {"value": metrics[key]["value"], "unit": metrics[key]["unit"]}
                    for key in declared},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them for the run's kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "costodds", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result_line(report, declared_metrics(bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
