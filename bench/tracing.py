"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds each layer's public entry points, named in
``layers.json``, to wrappers that record spans. A wrapper replaces the
original function in every ``costodds`` module that holds it, so calls
between modules (``quantile`` calling ``solve_max``, ``mdp_solver``
calling ``solve_linear_system``) are recorded too. Spans stay in memory
until ``write`` saves them.

Some layers do their work in functions called far too often to wrap:
Fraction arithmetic (``rational``), ``satisfies`` (``formula``) and
SHA-256 (``mc``). A separate cProfile pass over the same queries gives
their shares; see ``profile_shares``.
"""

from __future__ import annotations

import functools
import json
import os
import pstats
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def load_layers() -> dict:
    with open(LAYERS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    query: int
    note: Any = None


def _note(name: str, args: tuple, result: Any) -> Any:
    """The counter a span keeps from its call, where the layer metrics need one."""
    if name == "solve_linear_system":
        return len(args[0])
    if name == "cost_distribution" and result is not None:
        return dict(result.stats)
    if name == "budget_upper_bound" and result is not None:
        return result.B_bound
    if name == "quantile_query":
        return result
    if name == "estimate" and result is not None:
        return result.n + result.guard_trips
    return None


class Tracer:
    """Span recorder; spans are kept only while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query = -1
        self.active = False

    def install(self, layers: dict) -> None:
        """Wrap every entry point of every layer."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "costodds" or name.startswith("costodds."))
        }
        for layer, spec in layers.items():
            for dotted in spec.get("entry_points", []):
                module_name, _, attr = dotted.rpartition(".")
                original = getattr(modules[module_name], attr)
                wrapper = self._wrap(original, layer, attr)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, fn: Any, layer: str, name: str) -> Any:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.query)
            spans.append(span)
            stack.append(index)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                span.note = _note(name, args, result)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(vars(span), default=str) + "\n")


def span_metrics(spans: list[Span], layers: list[str], queries: int, wall: float) -> dict:
    """Self time, calls and layer counters from the recorded spans.

    A span's self time is its duration minus that of its direct children;
    children of one span never overlap, as the client is single-threaded.
    ``wall`` is the traced loop's total query time.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    self_time = {layer: 0.0 for layer in layers}
    calls = {layer: 0 for layer in layers}
    for span, inner in zip(spans, child_time):
        self_time[span.layer] += span.end - span.start - inner
        calls[span.layer] += 1
    metrics = {}
    for layer in layers:
        metrics[f"{layer}.self_share"] = self_time[layer] / wall
        metrics[f"{layer}.self_ms_per_query"] = 1000 * self_time[layer] / queries
        metrics[f"{layer}.calls_per_query"] = calls[layer] / queries

    levels = [s.note["levels"] for s in spans if s.name == "cost_distribution"]
    bits = [s.note["max_numerator_bits"] for s in spans if s.name == "cost_distribution"]
    metrics["chain_solver.levels_per_query"] = sum(levels) / queries
    metrics["chain_solver.max_numerator_bits"] = max(bits, default=0)

    solves = [s for s in spans if s.name == "solve_linear_system"]
    parent_layer = [spans[s.parent].layer if s.parent >= 0 else "" for s in solves]
    metrics["linalg.max_dim"] = max((s.note for s in solves), default=0)
    metrics["linalg.solves_from_chain"] = parent_layer.count("chain_solver") / queries
    metrics["linalg.solves_from_mdp"] = parent_layer.count("mdp_solver") / queries

    probes = 0
    ratios = []
    bounds = {}
    for span in spans:
        if span.parent < 0 or spans[span.parent].name != "quantile_query":
            continue
        if span.name in ("solve_max", "solve_min"):
            probes += 1
        elif span.name == "budget_upper_bound":
            bounds[span.parent] = span.note
    for index, bound in bounds.items():
        answer = spans[index].note
        if answer is not None and answer >= 1:
            ratios.append(bound / answer)
    quantiles = sum(1 for s in spans if s.name == "quantile_query")
    metrics["quantile.probes_per_query"] = probes / quantiles if quantiles else 0.0
    metrics["quantile.bound_over_answer_p50"] = statistics.median(ratios) if ratios else 0.0

    draws = sum(s.note or 0 for s in spans if s.name == "estimate")
    busy = sum(s.end - s.start for s in spans if s.name == "estimate")
    metrics["mc.draws_per_s"] = draws / busy if busy else 0.0
    return metrics


def _layer_of_file(filename: str, leaf_files: dict[str, list[str]]) -> str | None:
    path = filename.replace(os.sep, "/")
    for layer, suffixes in leaf_files.items():
        if any(path.endswith(suffix) for suffix in suffixes):
            return layer
    return None


def profile_shares(stats: pstats.Stats, leaf_files: dict[str, list[str]], queries: int,
                   ms_per_query: float) -> dict:
    """Leaf-layer metrics from one cProfile pass.

    A function's own time goes to the layer whose files define it; a
    built-in's (``math.gcd``, ``isinstance``, ``_hashlib``) goes to the
    layer of each caller, edge by edge. Shares are of total profiled time;
    milliseconds per query scale a share by the untraced mean latency,
    because cProfile inflates absolute times.
    """
    raw = stats.stats  # type: ignore[attr-defined]
    total = sum(entry[2] for entry in raw.values()) or 1.0
    own = {layer: 0.0 for layer in leaf_files}
    calls = {layer: 0 for layer in leaf_files}
    fraction_calls = satisfies_calls = 0
    sha_time = 0.0
    for (filename, _, funcname), (prim, _, tottime, _, callers) in raw.items():
        layer = _layer_of_file(filename, leaf_files)
        if layer is not None:
            own[layer] += tottime
            calls[layer] += prim
            if filename.endswith("fractions.py"):
                fraction_calls += prim
            if funcname == "satisfies":
                satisfies_calls += prim
            continue
        if filename != "~":
            continue
        for (caller_file, _, _), edge in callers.items():
            caller_layer = _layer_of_file(caller_file, leaf_files)
            if caller_layer is not None:
                own[caller_layer] += edge[2]
            if caller_file.endswith("mc.py") and ("sha256" in funcname or "digest" in funcname):
                sha_time += edge[2]
    metrics = {}
    for layer in leaf_files:
        share = own[layer] / total
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_ms_per_query"] = share * ms_per_query
        metrics[f"{layer}.calls_per_query"] = calls[layer] / queries
    metrics["rational.fraction_calls_per_query"] = fraction_calls / queries
    metrics["formula.satisfies_calls_per_query"] = satisfies_calls / queries
    metrics["mc.sha256_share"] = sha_time / total
    return metrics
