"""Metric catalogue, small statistics and the result line.

Metric names, units and directions come from ``BENCHMARK.json`` at the
checkout root, so the harness prints exactly what the file declares
and refuses to print a result with any declared metric missing.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from repro.runtime.metrics import percentile

from .probes import SELF_TIME_METRICS

ROOT = Path(__file__).resolve().parent.parent
#: Run artefacts (Chrome traces, TCP replica work dirs); git-ignored.
OUT_DIR = ROOT / ".perfbench"


class BenchmarkFailure(Exception):
    """A correctness or determinism check failed: no result is printed."""


def declared_metrics(traced: bool) -> dict:
    """``name -> unit`` for the metric set a run must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if traced else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def result_line(values: dict, traced: bool, attempted: int, failed: int) -> str:
    units = declared_metrics(traced)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkFailure(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def pct(samples, quantile: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty sample."""
    value = percentile(samples, quantile)
    return 0.0 if value is None else value


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def max_gap(times) -> float:
    """Longest interval between consecutive instants (0 for < 2)."""
    ordered = sorted(times)
    return max((b - a for a, b in zip(ordered, ordered[1:])), default=0.0)


def tx_summary(samples, limit: float) -> dict:
    """End-to-end tx metrics from ``(due, committed_or_None, weight)``.

    Latency percentiles cover every committed tx (``weight`` copies of
    a sample); a tx counts as failed when it did not commit within
    ``limit`` seconds of its due time.
    """
    latencies, due, ok = [], 0, 0
    for due_at, committed_at, weight in samples:
        due += weight
        if committed_at is None:
            continue
        latency = committed_at - due_at
        latencies.extend([latency] * weight)
        if latency <= limit:
            ok += weight
    if due == 0:
        raise BenchmarkFailure("no transaction was due in the counted window")
    return {
        "tx_p50_ms": pct(latencies, 0.5) * 1000.0,
        "tx_p99_ms": pct(latencies, 0.99) * 1000.0,
        "tx_ok_ratio": ok / due,
        "attempted": due,
        "failed": due - ok,
    }


def self_time_metrics(times: dict) -> dict:
    return {metric: times.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}


def counter_metrics(counts: dict) -> dict:
    """Per-layer counters shared by both tiers."""
    verify_calls = counts.get("crypto.verify_calls", 0)
    hmac_checks = counts.get("crypto.hmac_checks", 0)
    return {
        "core.add_vote_calls": counts.get("core.add_vote", 0),
        "core.strength_raises": counts.get("core.strength_raises", 0),
        "crypto.hash_calls": counts.get("crypto.hash_calls", 0),
        "crypto.verify_calls": verify_calls,
        "crypto.verify_memo_hit_ratio": (
            1.0 - hmac_checks / verify_calls if verify_calls else 0.0
        ),
        "crypto.sign_calls": counts.get("crypto.sign_calls", 0),
        "types.txid_calls": counts.get("types.txid_calls", 0),
        "types.block_id_calls": counts.get("types.block_id_calls", 0),
        "protocols.deliver_calls": counts.get("protocols.deliver", 0),
        "rt_net.encode_calls": counts.get("rt_net.encode_calls", 0),
    }
