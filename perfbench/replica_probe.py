"""What a TCP replica process writes for the benchmark when it exits.

Untraced, the probe only captures the replica object when it is built
and, at exit, writes its committed chain (heights, block ids, creation
and commit times, strong-commit latencies, the client txs each block
carries) and the phase breakdown.  Traced, it also installs the span
and counter probes of :mod:`perfbench.probes` and writes their record.
"""

from __future__ import annotations

import atexit
import json
import time
from pathlib import Path

from .probes import Patcher, Recorder, install

#: Strong-commit ratios the benchmark reports (x/f).
STRONG_RATIOS = (1.5, 2.0)


def start(out_dir: str, traced: bool) -> None:
    from repro.protocols.base import BaseReplica

    recorder = Recorder(spans=True) if traced else None
    patcher = Patcher()
    if recorder is not None:
        install(recorder, patcher, tcp=True)
    replicas = []

    def capture(init):
        def capturing_init(self, config, context):
            init(self, config, context)
            replicas.append(self)
        return capturing_init
    patcher.method(BaseReplica, "__init__", capture)

    def write() -> None:
        patcher.undo()
        for replica in replicas:
            _write_replica(Path(out_dir), replica, recorder)
    atexit.register(write)


def _write_replica(out_dir: Path, replica, recorder) -> None:
    from repro.core.resilience import level_for_ratio
    from repro.obs import breakdown_from_cluster

    tracker = replica.commit_tracker
    levels = [level_for_ratio(ratio, replica.config.f) for ratio in STRONG_RATIOS]
    commits = []
    for event in tracker.commit_order:
        if event.height == 0:
            continue
        block = replica.store.maybe_get(event.block_id)
        sequences = (
            [tx.sequence for tx in block.payload.transactions]
            if block is not None else []
        )
        timeline = tracker.timeline_of(event.block_id)
        strong = [
            None if timeline is None else timeline.latency_to(level)
            for level in levels
        ]
        commits.append([event.height, event.block_id.hex(), event.created_at,
                        event.committed_at, strong, sequences])
    data = {
        "replica_id": replica.replica_id,
        # Adds to replica clock readings to give time.time() values.
        "wall_offset": time.time() - replica.context.now,
        "rounds": replica.current_round,
        "commits": commits,
        "breakdown": breakdown_from_cluster(replica),
        "probe": None if recorder is None else recorder.dump(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"replica_{replica.replica_id}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    tmp.replace(path)
