"""TCP-tier workload: replica OS processes driven by one open-loop client.

A run starts the cluster several times (each start is one set-up
sample) and loads each cluster for an equal share of the run.  Replica
processes are spawned by :class:`~repro.rt_net.manager.RuntimeManager`
with ``perfbench/rt_probe`` on their ``PYTHONPATH``; the start-up hook
there writes each replica's committed chain (and, traced, its spans)
when the process exits.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

from repro.experiments.spec import ScenarioSpec
from repro.rt_net.manager import RuntimeManager

from .loadgen import OpenLoopClient
from .probes import self_times, write_trace
from .report import (
    OUT_DIR,
    ROOT,
    BenchmarkFailure,
    counter_metrics,
    max_gap,
    median,
    pct,
    self_time_metrics,
    tx_summary,
)

PROBE_DIR = Path(__file__).resolve().parent / "rt_probe"
#: Cluster starts per untraced run; each is one ``setup_s`` sample.
CYCLES = 3


class TcpWorkload:
    def __init__(self, name: str, spec_fields: dict, rate: float,
                 tx_limit: float) -> None:
        self.name = name
        self.spec_fields = spec_fields
        self.rate = rate
        #: A tx not acknowledged within this many seconds of its due
        #: time counts as failed; the client waits this long after the
        #: last due time before the cluster is stopped.
        self.tx_limit = tx_limit

    def spec(self, seed: int, duration: float) -> ScenarioSpec:
        return ScenarioSpec(name=self.name, seeds=(seed,), duration=duration,
                            **self.spec_fields)


@contextlib.contextmanager
def _replica_env(probe_out: Path, traced: bool):
    """Environment the replica processes inherit from this one."""
    saved = {key: os.environ.get(key)
             for key in ("PYTHONPATH", "PERFBENCH_PROBE_OUT", "PERFBENCH_TRACE")}
    parts = [str(PROBE_DIR), str(ROOT)]
    if saved["PYTHONPATH"]:
        parts.append(saved["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)
    os.environ["PERFBENCH_PROBE_OUT"] = str(probe_out)
    os.environ["PERFBENCH_TRACE"] = "1" if traced else "0"
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def check_tcp_outputs(n: int, f: int, chains: dict, block_txs: dict,
                      acked: list) -> list:
    """Problems with one TCP run's outputs (empty = correct).

    ``chains`` maps replica id to its committed block ids in commit
    order; ``block_txs`` maps replica id to ``{block id: set of tx
    sequences}``; ``acked`` lists the ``(sequence, block id)`` pairs the
    client accepted on f+1 matching replies.
    """
    problems = []
    missing = sorted(set(range(n)) - set(chains))
    if missing:
        problems.append(f"replicas {missing} reported no result")
    ids = sorted(chains)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            left, right = chains[a], chains[b]
            if left[: len(right)] != right[: len(left)]:
                problems.append(f"replicas {a} and {b} committed diverging chains")
    for sequence, block in acked:
        holders = sum(
            1 for rid in ids
            if sequence in block_txs.get(rid, {}).get(block, ())
        )
        if holders < f + 1:
            problems.append(
                f"acked tx {sequence} in block {block[:10]} is in the "
                f"committed chain of only {holders} replicas"
            )
            break
    return problems


def _load_dumps(probe_out: Path, n: int) -> dict:
    dumps = {}
    for replica_id in range(n):
        path = probe_out / f"replica_{replica_id}.json"
        if path.exists():
            dumps[replica_id] = json.loads(path.read_text())
    return dumps


def run_cycle(workload: TcpWorkload, seed: int, window: float, cycle: int,
              traced: bool) -> dict:
    """Start a cluster, load it for ``window`` s, stop it and check it."""
    workdir = OUT_DIR / "rt" / f"{workload.name}-{cycle}"
    shutil.rmtree(workdir, ignore_errors=True)
    probe_out = workdir / "probe"
    spec = workload.spec(seed, duration=window + workload.tx_limit + 5.0)
    f = spec.resolved_f()
    started = time.perf_counter()
    manager = RuntimeManager(spec, seed=seed, workdir=workdir)
    client = None
    try:
        with _replica_env(probe_out, traced):
            manager.start()
        manager.wait_ready()
        endpoints = manager.endpoints()
        client = OpenLoopClient(
            {rid: endpoints[rid] for rid in range(f + 1)}, f,
            workload.rate, window, seed, sequence_base=cycle * 1_000_000,
        )

        async def drive() -> float:
            await client.connect()
            setup = time.perf_counter() - started
            try:
                await client.run(drain=workload.tx_limit)
            finally:
                await client.close()
            return setup
        setup_s = asyncio.run(drive())
    finally:
        report = manager.stop()
        for process in manager.processes.values():
            if process.alive():
                process.popen.kill()
                process.popen.wait(timeout=10)
    cycle = {
        "setup_s": setup_s,
        "window": window,
        "client": client,
        "dumps": _load_dumps(probe_out, spec.n),
        "report": report,
        "n": spec.n,
        "f": f,
    }
    problems = cycle_problems(cycle)
    if problems:
        raise BenchmarkFailure(f"{'; '.join(problems)} (see {workdir})")
    shutil.rmtree(workdir)
    cycle["job_s"] = time.perf_counter() - started - setup_s
    return cycle


def cycle_problems(cycle: dict) -> list:
    """Correctness problems of one finished cycle (empty = correct)."""
    dumps, client, report = cycle["dumps"], cycle["client"], cycle["report"]
    chains = {rid: [entry[1] for entry in dump["commits"]]
              for rid, dump in dumps.items()}
    block_txs = {rid: {entry[1]: set(entry[5]) for entry in dump["commits"]}
                 for rid, dump in dumps.items()}
    acked = [(record.sequence, record.block_hex)
             for record in client.records.values() if record.acked is not None]
    problems = check_tcp_outputs(cycle["n"], cycle["f"], chains, block_txs, acked)
    if len(report.results) < cycle["n"]:
        problems.append(f"only {len(report.results)} replicas wrote results")
    if not report.chains_agree():
        problems.append("replica result chains disagree")
    return problems


def _window_metrics(cycle: dict) -> dict:
    """Commit-side metrics of one cycle, over its load window (wall)."""
    client, dumps = cycle["client"], cycle["dumps"]
    begin = client.wall_start
    end = begin + cycle["window"]
    per_replica, commit_latencies, strong_15, strong_2 = [], [], [], []
    first_commit: dict = {}
    for dump in dumps.values():
        offset = dump["wall_offset"]
        in_window = 0
        for height, _block, created, committed, strong, _txs in dump["commits"]:
            wall = committed + offset
            if begin <= wall <= end:
                in_window += 1
                seen = first_commit.get(height)
                first_commit[height] = wall if seen is None else min(seen, wall)
            if begin <= created + offset <= end:
                commit_latencies.append(committed - created)
                if strong[0] is not None:
                    strong_15.append(strong[0])
                if strong[1] is not None:
                    strong_2.append(strong[1])
        per_replica.append(in_window)
    return {
        "blocks": min(per_replica),
        "commit_latencies": commit_latencies,
        "strong_15": strong_15,
        "strong_2": strong_2,
        "gap": max_gap(first_commit.values()),
    }


def _tx_samples(client) -> list:
    return [(record.due, record.acked, 1) for record in client.records.values()]


def run_untraced(workload: TcpWorkload, seed: int, seconds: float) -> tuple:
    cycles = [run_cycle(workload, seed, seconds / CYCLES, index, traced=False)
              for index in range(CYCLES)]
    windows = [_window_metrics(cycle) for cycle in cycles]
    samples = [s for cycle in cycles for s in _tx_samples(cycle["client"])]
    txs = tx_summary(samples, workload.tx_limit)
    load_seconds = sum(cycle["window"] for cycle in cycles)
    acked = sum(1 for _due, at, _w in samples if at is not None)
    commit_latencies = [x for w in windows for x in w["commit_latencies"]]
    strong_15 = [x for w in windows for x in w["strong_15"]]
    strong_2 = [x for w in windows for x in w["strong_2"]]
    values = {
        "setup_s": median([cycle["setup_s"] for cycle in cycles]),
        "sim_speed": load_seconds / sum(cycle["job_s"] for cycle in cycles),
        "tx_p50_ms": txs["tx_p50_ms"],
        "tx_p99_ms": txs["tx_p99_ms"],
        "txs_per_s": acked / load_seconds,
        "tx_ok_ratio": txs["tx_ok_ratio"],
        "blocks_per_s": sum(w["blocks"] for w in windows) / load_seconds,
        "commit_p50_ms": 1000.0 * pct(commit_latencies, 0.5),
        "strong_1.5f_p50_ms": 1000.0 * pct(strong_15, 0.5),
        "strong_2f_p50_ms": 1000.0 * pct(strong_2, 0.5),
        "strong_2f_p99_ms": 1000.0 * pct(strong_2, 0.99),
        "max_commit_gap_s": median([w["gap"] for w in windows]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return values, txs["attempted"], txs["failed"]


def run_traced(workload: TcpWorkload, seed: int, seconds: float) -> tuple:
    """One untraced and one traced cluster; per-layer metrics."""
    window = seconds / 2.0
    plain = run_cycle(workload, seed, window, 0, traced=False)
    traced = run_cycle(workload, seed, window, 1, traced=True)
    plain_rate = _window_metrics(plain)["blocks"] / window
    traced_rate = _window_metrics(traced)["blocks"] / window
    dumps = traced["dumps"]
    probe_dumps = {rid: dump["probe"] for rid, dump in dumps.items()}
    write_trace(probe_dumps, OUT_DIR / f"{workload.name}.trace.json")
    times: dict = {}
    counts: dict = {}
    reply_delays = []
    for dump in probe_dumps.values():
        for name, value in self_times(dump).items():
            times[name] = times.get(name, 0.0) + value
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
        reply_delays.extend(dump["reply_delays"])
    results = traced["report"].results
    commits = max(len(dump["commits"]) for dump in dumps.values())
    reference = dumps[0]
    tx_count = sum(len(entry[5]) for entry in reference["commits"])
    due_at = {tx.sequence: traced["client"].wall_start + due
              for due, tx in traced["client"].schedule}
    waits = [
        created + reference["wall_offset"] - due_at[sequence]
        for _h, _b, created, _c, _s, sequences in reference["commits"]
        for sequence in sequences if sequence in due_at
    ]
    breakdown = reference["breakdown"]
    values = self_time_metrics(times)
    values.update(counter_metrics(counts))
    values.update({
        "runtime.build_s": 0.0,
        "runtime.run_s": 0.0,
        "runtime.txs_per_block": tx_count / max(1, len(reference["commits"])),
        "runtime.mempool_wait_ms": 1000.0 * (statistics.fmean(waits) if waits else 0.0),
        "phase.proposal_to_qc_ms": 1000.0 * (breakdown["proposal_to_qc_s"] or 0.0),
        "phase.qc_to_endorse_ms": 1000.0 * (breakdown["qc_to_endorse_s"] or 0.0),
        "phase.qc_to_commit_ms": 1000.0 * (breakdown["qc_to_commit_s"] or 0.0),
        "net.events": 0,
        "net.messages_per_commit": sum(
            r.get("frames_sent", 0) for r in results.values()) / commits,
        "net.bytes_per_commit": 0.0,
        "protocols.timeouts": sum(
            r["metrics"].get("timeouts_sent", 0) for r in results.values()),
        "protocols.rounds_per_commit": reference["rounds"] / max(1, len(reference["commits"])),
        "sync.requests": sum(
            r["metrics"].get("sync.requests_sent", 0) for r in results.values()),
        "sync.blocks_synced": sum(
            r["metrics"].get("sync.blocks_synced", 0) for r in results.values()),
        "sync.catchup_s": 0.0,
        "wal.records_per_commit": 0.0,
        "rt_net.bytes_per_commit": counts.get("rt_net.bytes", 0) / commits,
        "rt_net.deliver_s": times.get("protocols.deliver", 0.0),
        "rt_net.reply_delay_ms": 1000.0 * median(reply_delays),
        "rt_net.send_errors": sum(r.get("send_errors", 0) for r in results.values()),
        "bench.generator_late_ms": 1000.0 * pct(traced["client"].lateness(), 0.99),
        "bench.trace_overhead_ratio": plain_rate / traced_rate,
    })
    txs = tx_summary(_tx_samples(traced["client"]), workload.tx_limit)
    return values, txs["attempted"], txs["failed"]
