"""Simulator-tier workloads: one process, no worker pool.

Each repeat builds the cluster from its ``ScenarioSpec`` (set-up),
runs it and collects the campaign metrics (the job a campaign user
waits on), then checks the outputs.  The simulation is deterministic
for a fixed seed, so every repeat must reproduce the same counters and
simulated-time metrics exactly; a difference fails the run.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time

import repro.experiments.runner as runner
from repro.core.resilience import level_for_ratio
from repro.experiments.spec import FaultMix, ScenarioSpec

from .calibrate import Meter
from .probes import Patcher, Recorder, install, self_times, write_trace
from .report import (
    OUT_DIR,
    BenchmarkFailure,
    counter_metrics,
    max_gap,
    median,
    pct,
    self_time_metrics,
    tx_summary,
)

#: Counters only the instrumented repeats see; pinned between them.
PINNED_PROBE_COUNTS = ("crypto.hash_calls", "crypto.verify_calls",
                       "crypto.hmac_checks", "crypto.sign_calls",
                       "types.txid_calls", "types.block_id_calls",
                       "core.add_vote", "core.strength_raises",
                       "protocols.deliver")
#: Strong-commit ratios (x/f) the benchmark reports.
STRONG_RATIOS = (1.5, 2.0)
#: Simulated seconds per metered step.
SLICE_S = 1.0


class SimWorkload:
    """One simulator scenario plus how its transactions are judged."""

    def __init__(self, name: str, spec_fields: dict, tx_limit: float,
                 warmup: float, seconds_per_job: float) -> None:
        self.name = name
        self.spec_fields = spec_fields
        #: Blocks created before this many simulated seconds are left
        #: out of the block-latency percentiles (start-up transient).
        self.warmup = warmup
        #: A run of ``--seconds S`` pools ``S // seconds_per_job``
        #: simulations (at least one), then repeats the first; chosen so
        #: the pooled jobs take about S on a 2-CPU x86-64 host.
        self.seconds_per_job = seconds_per_job
        #: A tx not committed within this many seconds of its due time
        #: counts as failed; load due in the last ``tx_limit + 0.5`` s
        #: is sent but not counted, so every counted tx can meet it.
        self.tx_limit = tx_limit

    def spec(self, seed: int, scale: float = 1.0) -> ScenarioSpec:
        fields = dict(self.spec_fields)
        fields["duration"] = fields["duration"] * scale
        faults = fields.pop("faults", None)
        if faults is not None:
            faults = dict(faults)
            faults["recover_at"] = fields["duration"] / 3.0
            fields["faults"] = FaultMix(**faults)
        return ScenarioSpec(name=self.name, seeds=(seed,), **fields)


# ----------------------------------------------------------------------
# metric extraction (all pure functions of the finished cluster)
# ----------------------------------------------------------------------


def _tx_samples(cluster, horizon: float) -> tuple:
    """Counted ``(due, first honest commit or None, weight)`` samples,
    plus distinct committed txs per second up to the last commit.

    KV txs are keyed by their workload sequence number and due every
    ``1 / rate`` seconds whether or not their target replica was up to
    take them; without a KV workload, each block's synthetic batch is
    due when the block is created.
    """
    kv = cluster.workload
    first: dict = {}
    for replica in cluster.honest_replicas():
        for event in replica.commit_tracker.commit_order:
            block = replica.store.maybe_get(event.block_id)
            if block is None or block.is_genesis():
                continue
            payload = block.payload
            if kv is not None:
                entries = [(tx.sequence, None, 1) for tx in payload.transactions]
            elif payload.batch is not None:
                entries = [(event.block_id, event.created_at, payload.batch.count)]
            else:
                entries = []
            for key, due, weight in entries:
                seen = first.get(key)
                if seen is None or event.committed_at < seen[1]:
                    first[key] = (due, event.committed_at, weight)
    committed = sum(weight for _due, _at, weight in first.values())
    last_commit = max((at for _due, at, _weight in first.values()), default=0.0)
    rate = committed / last_commit if last_commit else 0.0
    if kv is None:
        return [entry for entry in first.values() if entry[0] <= horizon], rate
    interval = 1.0 / kv.rate
    samples = []
    for sequence in range(kv.sequence):
        due = sequence * interval
        if due > horizon:
            break
        seen = first.get(sequence)
        samples.append((due, None if seen is None else seen[1], 1))
    return samples, rate


def _block_latencies(cluster, spec, warmup: float) -> dict:
    """Creation → regular and x-strong commit at every live observer,
    for blocks created between ``warmup`` and the spec's cutoff."""
    f = cluster.config.resolved_f()
    levels = {ratio: level_for_ratio(ratio, f) for ratio in STRONG_RATIOS}
    cutoff = spec.duration * spec.cutoff_fraction
    samples = {"commit": [], **{ratio: [] for ratio in STRONG_RATIOS}}
    for replica in cluster.observer_replicas():
        if replica.crashed:
            continue
        tracker = replica.commit_tracker
        for event in tracker.commit_order:
            if event.height == 0 or not warmup <= event.created_at <= cutoff:
                continue
            samples["commit"].append(event.latency())
            timeline = tracker.timeline_of(event.block_id)
            for ratio, level in levels.items():
                latency = None if timeline is None else timeline.latency_to(level)
                if latency is not None:
                    samples[ratio].append(latency)
    return samples


def _first_commit_times(cluster) -> list:
    first: dict = {}
    for replica in cluster.honest_replicas():
        for event in replica.commit_tracker.commit_order:
            if event.height == 0:
                continue
            seen = first.get(event.height)
            if seen is None or event.committed_at < seen:
                first[event.height] = event.committed_at
    return list(first.values())


def _block_rate(replica) -> float:
    """Committed blocks per second up to the replica's last commit."""
    order = replica.commit_tracker.commit_order
    if len(order) < 2:
        return 0.0
    return (len(order) - 1) / order[-1].committed_at


def _txs_per_block(cluster) -> float:
    reference = cluster.correct_replicas()[0]
    blocks = [reference.store.maybe_get(event.block_id)
              for event in reference.commit_tracker.commit_order[1:]]
    txs = sum(block.payload.tx_count() for block in blocks if block is not None)
    return txs / max(1, len(blocks))


def _catchup_seconds(cluster) -> float:
    """Restart → the restarted replica commits the height its peers had."""
    schedule = cluster.config.recovery_schedule
    if not schedule:
        return 0.0
    replica_id, _crash_at, restart_at = schedule[0]
    target = max(
        (event.height
         for replica in cluster.honest_replicas()
         if replica.replica_id != replica_id
         for event in replica.commit_tracker.commit_order
         if event.committed_at <= restart_at),
        default=0,
    )
    for event in cluster.replicas[replica_id].commit_tracker.commit_order:
        if event.height >= target and event.committed_at >= restart_at:
            return event.committed_at - restart_at
    raise BenchmarkFailure(
        f"replica {replica_id} never caught up to height {target}"
    )


def check_outputs(metrics: dict) -> None:
    if not metrics["safety_ok"]:
        raise BenchmarkFailure(f"safety violated: {metrics.get('safety_error')}")
    if not metrics["invariants"]["ok"]:
        raise BenchmarkFailure(
            f"invariant oracle: {metrics['invariants']['violations'][:3]}"
        )
    if metrics["strong_safety_violations"]:
        raise BenchmarkFailure("Definition-1 strong-commit violation")
    if metrics["commits"] < 2:
        raise BenchmarkFailure("the cluster committed nothing")


def judge(cluster, spec, workload: SimWorkload, metrics: dict) -> dict:
    """Raw samples, pinned counters and layer values of one job."""
    check_outputs(metrics)
    duration = spec.duration
    tx_samples, tx_rate = _tx_samples(
        cluster, duration - workload.tx_limit - 0.5
    )
    live = [replica for replica in cluster.replicas if not replica.crashed]
    commits = metrics["commits"]
    recoveries = metrics.get("recoveries", {})
    breakdown = metrics["latency_breakdown"]
    return {
        "samples": {
            "txs": tx_samples,
            "tx_rate": tx_rate,
            "block_rate": min(_block_rate(replica) for replica in live),
            "latencies": _block_latencies(cluster, spec, workload.warmup),
            "commit_gap": max_gap(_first_commit_times(cluster)),
        },
        "counts": {
            "events": metrics["events"],
            "messages": metrics["messages"]["sent"],
            "bytes": metrics["messages"]["bytes"],
            "commits": commits,
            "rounds": metrics["rounds"],
            "wal_records": recoveries.get("records", 0),
            "sync_requests": metrics["sync"]["requests"],
            "blocks_synced": metrics["sync"]["blocks_synced"],
        },
        "layer": {
            "runtime.txs_per_block": _txs_per_block(cluster),
            "runtime.mempool_wait_ms": 1000.0 * (breakdown["mempool_wait_s"] or 0.0),
            "phase.proposal_to_qc_ms": 1000.0 * (breakdown["proposal_to_qc_s"] or 0.0),
            "phase.qc_to_endorse_ms": 1000.0 * (breakdown["qc_to_endorse_s"] or 0.0),
            "phase.qc_to_commit_ms": 1000.0 * (breakdown["qc_to_commit_s"] or 0.0),
            "net.events": metrics["events"],
            "net.messages_per_commit": metrics["messages"]["sent"] / commits,
            "net.bytes_per_commit": metrics["messages"]["bytes"] / commits,
            "protocols.timeouts": sum(
                replica.metrics.snapshot().get("timeouts_sent", 0)
                for replica in cluster.replicas
            ),
            "protocols.rounds_per_commit": metrics["rounds"] / commits,
            "sync.requests": metrics["sync"]["requests"],
            "sync.blocks_synced": metrics["sync"]["blocks_synced"],
            "sync.catchup_s": _catchup_seconds(cluster),
            "wal.records_per_commit": recoveries.get("records", 0) / commits,
        },
    }


def pooled_metrics(outcomes: list, tx_limit: float) -> tuple:
    """Simulated-time end-to-end metrics over the jobs' pooled samples."""
    samples = [outcome["samples"] for outcome in outcomes]
    txs = tx_summary([tx for sample in samples for tx in sample["txs"]], tx_limit)

    def pooled(key):
        return [x for sample in samples for x in sample["latencies"][key]]
    strong_2 = pooled(2.0)
    values = {
        "tx_p50_ms": txs["tx_p50_ms"],
        "tx_p99_ms": txs["tx_p99_ms"],
        "txs_per_s": statistics.fmean(sample["tx_rate"] for sample in samples),
        "tx_ok_ratio": txs["tx_ok_ratio"],
        "blocks_per_s": statistics.fmean(sample["block_rate"] for sample in samples),
        "commit_p50_ms": 1000.0 * pct(pooled("commit"), 0.5),
        "strong_1.5f_p50_ms": 1000.0 * pct(pooled(1.5), 0.5),
        "strong_2f_p50_ms": 1000.0 * pct(strong_2, 0.5),
        "strong_2f_p99_ms": 1000.0 * pct(strong_2, 0.99),
        "max_commit_gap_s": median([sample["commit_gap"] for sample in samples]),
    }
    return values, txs["attempted"], txs["failed"]


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------


def run_job(workload: SimWorkload, seed: int, scale: float,
            recorder: Recorder | None = None) -> dict:
    """Build, run and collect one cluster; wrappers only with a recorder.

    The simulation advances in ``SLICE_S`` steps of simulated time (the
    event order is the same as one long run) so that the meter can
    rescale each step's wall time to reference speed.
    """
    patcher = Patcher()
    if recorder is not None:
        install(recorder, patcher)
    try:
        gc.collect()
        meter = Meter()
        start = time.perf_counter()
        spec = workload.spec(seed, scale)
        cluster = spec.build(seed)
        cluster.build()
        build_wall = time.perf_counter() - start
        build_s = meter.scaled(build_wall)
        job_s = run_wall = 0.0
        target = min(SLICE_S, spec.duration)
        start = time.perf_counter()
        cluster.run(target)
        while True:
            elapsed = time.perf_counter() - start
            run_wall += elapsed
            job_s += meter.scaled(elapsed)
            if target >= spec.duration:
                break
            target = min(target + SLICE_S, spec.duration)
            start = time.perf_counter()
            cluster.simulator.run_until(target)
        start = time.perf_counter()
        # Through the module, so the analysis probe sees the call.
        metrics = runner.collect_job_metrics(cluster, spec)
        job_s += meter.scaled(time.perf_counter() - start)
    finally:
        patcher.undo()
    outcome = judge(cluster, spec, workload, metrics)
    outcome["build_s"] = build_s
    outcome["job_s"] = job_s
    outcome["build_wall_s"] = build_wall
    outcome["run_wall_s"] = run_wall
    outcome["sim_seconds"] = spec.duration
    return outcome


def _pinned(outcome: dict, tx_limit: float) -> dict:
    values, attempted, failed = pooled_metrics([outcome], tx_limit)
    return {**values, **outcome["counts"], "attempted": attempted, "failed": failed}


def _require_same(first: dict, other: dict, what: str) -> None:
    if first != other:
        diff = {
            key: (first.get(key), other.get(key))
            for key in sorted(set(first) | set(other))
            if first.get(key) != other.get(key)
        }
        raise BenchmarkFailure(f"{what} differ between repeats: {diff}")


def _record_pins(workload: SimWorkload, seed: int, mode: str, pins: dict) -> None:
    """Keep the values every repeat reproduced, for comparison across runs."""
    path = OUT_DIR / "pins" / f"{workload.name}-seed{seed}-{mode}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True))


def sub_seeds(workload: SimWorkload, seed: int, seconds: float) -> list:
    """The independent simulations one run pools, derived from ``seed``.

    Their number follows from ``seconds``, never from a measurement, so
    the pooled simulated-time metrics are a pure function of the
    arguments.
    """
    count = max(1, int(seconds // workload.seconds_per_job))
    return [seed * 100 + index for index in range(count)]


def run_untraced(workload: SimWorkload, seed: int, seconds: float,
                 import_s: float, scale: float = 1.0) -> tuple:
    """Pooled jobs plus one repeat of the first; end-to-end metrics."""
    seeds = sub_seeds(workload, seed, seconds)
    outcomes = [run_job(workload, sub_seed, scale) for sub_seed in seeds]
    repeat = run_job(workload, seeds[0], scale)
    _require_same(_pinned(outcomes[0], workload.tx_limit),
                  _pinned(repeat, workload.tx_limit),
                  "simulated-time metrics and counters")
    _record_pins(workload, seed, "untraced", {
        str(sub_seed): _pinned(outcome, workload.tx_limit)
        for sub_seed, outcome in zip(seeds, outcomes)
    })
    timed = outcomes + [repeat]
    values, attempted, failed = pooled_metrics(outcomes, workload.tx_limit)
    values["setup_s"] = import_s + median([o["build_s"] for o in timed])
    values["sim_speed"] = median([o["sim_seconds"] / o["job_s"] for o in timed])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, attempted, failed


def run_traced(workload: SimWorkload, seed: int, seconds: float,
               scale: float = 1.0) -> tuple:
    """Untraced, counting and span-recording repeats of the first
    sub-seed's job; per-layer metrics from the span-recording one."""
    first = sub_seeds(workload, seed, seconds)[0]
    plain = run_job(workload, first, scale)
    counting = Recorder(spans=False)
    counted = run_job(workload, first, scale, counting)
    recorder = Recorder(spans=True)
    traced = run_job(workload, first, scale, recorder)
    for outcome in (counted, traced):
        _require_same(_pinned(plain, workload.tx_limit),
                      _pinned(outcome, workload.tx_limit),
                      "simulated-time metrics and counters")
    _require_same(
        {key: counting.counts.get(key, 0) for key in PINNED_PROBE_COUNTS},
        {key: recorder.counts.get(key, 0) for key in PINNED_PROBE_COUNTS},
        "probe counters",
    )
    _record_pins(workload, seed, "traced", {
        "job": _pinned(traced, workload.tx_limit),
        "probe_counts": {key: recorder.counts.get(key, 0) for key in PINNED_PROBE_COUNTS},
    })
    dump = recorder.dump()
    write_trace({0: dump}, OUT_DIR / f"{workload.name}.trace.json")
    values = dict(traced["layer"])
    values.update(self_time_metrics(self_times(dump)))
    values.update(counter_metrics(recorder.counts))
    values.update({
        "runtime.build_s": traced["build_wall_s"],
        "runtime.run_s": traced["run_wall_s"],
        "rt_net.bytes_per_commit": 0.0,
        "rt_net.deliver_s": 0.0,
        "rt_net.reply_delay_ms": 0.0,
        "rt_net.send_errors": 0,
        "bench.generator_late_ms": 0.0,
        "bench.trace_overhead_ratio": traced["job_s"] / plain["job_s"],
    })
    _values, attempted, failed = pooled_metrics([traced], workload.tx_limit)
    return values, attempted, failed
