"""Metric tables and the reduction of samples and spans to metrics."""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

from tracer import HOOKS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per-layer metrics that the traced run prints but BENCHMARK.json does not
# list: each reads 0 on a workload that never enters its layer (or, for
# the trace's own metrics, on every healthy run), and every listed
# metric must be positive on every workload.
UNLISTED = {
    "spectral.resample.calls": "count",
    "spectral.resample.self_s": "s",
    "filters.apply.calls": "count",
    "filters.apply.self_s": "s",
    "filters.symbol.calls": "count",
    "filters.symbol.self_s": "s",
    "solver.step.calls": "count",
    "solver.step.ms_p50": "ms",
    "solver.step.ms_p90": "ms",
    "solver.rhs.calls": "count",
    "solver.rhs.self_s": "s",
    "solver.cfl.calls": "count",
    "solver.cfl.self_s": "s",
    "solver.setup_s": "s",
    "solver.checkpoint.write_s": "s",
    "solver.checkpoint.bytes": "B",
    "diagnostics.energy_terms.calls": "count",
    "diagnostics.energy_terms.self_s": "s",
    "diagnostics.record_ms_p50": "ms",
    "inequalities.ratio.calls": "count",
    "inequalities.ratio.self_s": "s",
    "inequalities.runner.self_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.missing_hooks": "count",
}
# every per-layer metric the traced run prints
LAYER_METRICS = {**PER_LAYER, **UNLISTED}


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; nan without samples."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, durations, info sums.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs them, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                                 "durations": [], "info": []})
    for i, (name, start, end, _, info) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child[i]
        row["durations"].append(end - start)
        if info:
            row["info"] = [a + b for a, b in zip(info, row["info"] or [0] * len(info))]
    return dict(table)


def layer_values(table, artifact_bytes: int, missing: int) -> dict[str, float]:
    """One traced child's per-layer metrics (overhead is added later)."""
    out = {}

    def row(name):
        return table.get(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                "durations": [], "info": []})

    for name in (*HOOKS, "spectral.fft"):
        for key, column in ((f"{name}.calls", "calls"), (f"{name}.self_s", "self")):
            if key in LAYER_METRICS:
                out[key] = row(name)[column]
    fields, points, nbytes, flops = row("spectral.fft")["info"] or [0, 0, 0, 0.0]
    out.update({
        "spectral.fft.fields": fields,
        "spectral.fft.points": points,
        "spectral.fft.bytes": nbytes,
        "spectral.fft.gflop": flops / 1e9,
        "solver.setup_s": row("solver.setup")["total"],
        "solver.checkpoint.write_s": row("solver.checkpoint")["total"],
        "solver.checkpoint.bytes": (row("solver.checkpoint")["info"] or [0])[0],
        "cli.artifact_bytes": artifact_bytes,
        "trace.missing_hooks": missing,
    })
    return out


def reduce_layers(per_child: list[dict], tables: list[dict],
                  traced_wall: list[float], plain_wall: list[float]) -> dict:
    """Counts from the first traced child, times as medians over them.

    Step and record durations are pooled over every traced child before
    their percentiles are taken.
    """
    out = {}
    for key in per_child[0]:
        values = [c[key] for c in per_child]
        out[key] = median(values) if LAYER_METRICS.get(key) in ("s", "ms") else values[0]
    steps = [d for t in tables for d in t.get("solver.step", {}).get("durations", [])]
    records = [d for t in tables
               for d in t.get("diagnostics.energy_terms", {}).get("durations", [])]
    out["solver.step.ms_p50"] = 1e3 * percentile(steps, 0.5) if steps else 0.0
    out["solver.step.ms_p90"] = 1e3 * percentile(steps, 0.9) if steps else 0.0
    out["diagnostics.record_ms_p50"] = 1e3 * percentile(records, 0.5) if records else 0.0
    out["trace.overhead_frac"] = median(traced_wall) / median(plain_wall) - 1.0
    return out
