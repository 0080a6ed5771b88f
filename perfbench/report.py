"""Turn workload results into the metrics named in BENCHMARK.json."""

from __future__ import annotations

import statistics

import numpy as np

from .probes import LAYER_BUCKETS, Trace, pct
from .workloads import SEMANTICS, Result


def latency_ms(res: Result, q: float) -> float:
    """The ``q``-th latency percentile: taken per window (see ``Result``),
    median over windows."""
    windows = np.array_split(np.asarray(res.latencies_s), res.windows)
    return statistics.median(pct(w, q) for w in windows if len(w)) * 1e3


def end_to_end(res: Result) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end values of an untraced run, and how each was taken."""
    values = {
        "setup_s": res.setup_s,
        "peak_rss_mb": res.rss_mb,
        "p50_ms": latency_ms(res, 50),
    }
    notes = {
        "setup_s": f"median of {len(res.setup_reps)} cold set-ups at the reference speed; "
        f"{statistics.median(res.setup_wall_s):.4g} s unscaled",
        "p50_ms": f"median over {res.windows} windows, {len(res.latencies_s)} samples; "
        f"p90 {latency_ms(res, 90):.4g} ms, p99 {latency_ms(res, 99):.4g} ms, "
        f"{statistics.median(res.window_rates()):.6g} ops/s",
    }
    return values, notes


def per_layer(base: Result, res: Result, trace: Trace) -> dict[str, float]:
    """Per-layer values of the traced run ``res``; ``base`` is its untraced
    twin, for the tracing overhead.  Layers the workload never reaches are
    left out (the caller reports them as 0)."""
    m: dict[str, float] = {
        "build.net_s": statistics.median(r[1] for r in res.setup_reps),
        "build.lower_s": statistics.median(r[2] for r in res.setup_reps),
    }
    m.update(res.layer)
    sums, samples = trace.sums, trace.samples

    runs = sum(sums[f"{label}.runs"] for label in (*SEMANTICS, "serve"))
    if runs:
        for bucket in LAYER_BUCKETS:
            m[f"plan.layer_s.{bucket}"] = sums[f"layer.{bucket}"] / runs
    for sem in SEMANTICS:
        n = sums[f"{sem}.runs"]
        if n:
            busy = sums[f"{sem}.run_s"]
            m[f"plan.{sem}.busy_s"] = busy / n
            m[f"plan.{sem}.bytes"] = sums[f"{sem}.bytes"] / n
            m[f"plan.{sem}.gbps"] = sums[f"{sem}.bytes"] / busy / 1e9
            m[f"sim.{sem}.overhead_s"] = (res.wrapper_s[sem] - busy) / n
            m[f"{sem}_mvals_s"] = res.values[sem] / res.wrapper_s[sem] / 1e6

    def p50_p99_ms(name: str, key: str) -> None:
        if samples.get(key):
            m[f"{name}.p50"] = pct(samples[key], 50) * 1e3
            m[f"{name}.p99"] = pct(samples[key], 99) * 1e3

    sizes = samples.get("batch_size")
    if sizes:
        m["batch.count"] = len(sizes)
        m["batch.size_mean"] = sum(sizes) / len(sizes)
        m["batch.size_p99"] = pct(sizes, 99)
    p50_p99_ms("batch.queue_wait_ms", "queue_wait_s")
    p50_p99_ms("issue.busy_ms", "issue_s")
    if samples.get("issue_s"):
        m["issue.exec_share"] = sums["serve.run_s"] / sum(samples["issue_s"])
    p50_p99_ms("shard.service_ms", "service_s")
    p50_p99_ms("hop_ms", "hop_s")
    p50_p99_ms("wal.append_ms", "wal_append_s")
    tokens = samples.get("wal_tokens")
    if tokens:
        m["wal.appends"] = len(tokens)
        m["wal.tokens_per_append"] = sum(tokens) / len(tokens)
    # Throughput and the latency tail of the untraced half: worth reading,
    # too noisy on this class of machine to gate on (see README).
    m["ops_s"] = statistics.median(base.window_rates())
    m["lat_ms.p90"] = latency_ms(base, 90)
    m["lat_ms.p99"] = latency_ms(base, 99)
    if base.completed and res.completed:
        m["trace.overhead_frac"] = (res.cpu_s / res.completed) / (base.cpu_s / base.completed) - 1
    m["error_frac"] = (base.failed + res.failed) / max(base.attempted + res.attempted, 1)
    return m
