"""The benchmark's workloads, all at shipped protocol defaults.

Signature verification, block sync and ``observers="all"`` stay on in
every workload; only the deployment (size, topology, load, faults)
differs.  Why each workload exists is recorded in ``BENCHMARK.json``;
which layers each one stresses is in ``perfbench/layers.json``.
"""

from __future__ import annotations

from .sim import SimWorkload
from .tcp import TcpWorkload

WORKLOADS = {
    # Figure 7a: n=100 over the symmetric 3-region topology, δ=100 ms,
    # 4 ms jitter, saturated 450 KB synthetic blocks on 125 MB/s
    # uplinks, no faults; the 3 s round timeout is the one
    # scenarios/fig7a_symmetric.toml uses.  A regular commit needs
    # ~1.4 s here, so the per-tx limit is 2 s rather than the KV
    # workloads' 1 s.
    "sim_geo_n100": SimWorkload(
        "sim_geo_n100",
        {
            "protocol": "sft-diembft", "n": 100, "topology": "symmetric",
            "delta": 0.100, "jitter": 0.004,
            "bandwidth_bytes_per_sec": 125_000_000.0,
            "block_batch_count": 1000, "block_batch_bytes": 450_000,
            "round_timeout": 3.0, "duration": 20.0,
        },
        tx_limit=2.0, warmup=2.0, seconds_per_job=5.0,
    ),
    # n=16, uniform 10 ms ± 2 ms; open-loop KVWorkload at 2000 tx/s in
    # simulated time, batch 256.  Replica 15 crashes a third of the way
    # in and restarts 2 s later from its WAL, rejoining by block sync.
    "sim_kv_crash_n16": SimWorkload(
        "sim_kv_crash_n16",
        {
            "protocol": "sft-diembft", "n": 16, "topology": "uniform",
            "uniform_delay": 0.010, "jitter": 0.002,
            "workload_rate": 2000.0, "batch_size": 256, "duration": 9.0,
            "faults": {"recover": 1, "downtime": 2.0},
        },
        tx_limit=1.0, warmup=0.5, seconds_per_job=6.5,
    ),
    # n=4 OS processes over localhost TCP, no injected delay; one
    # asyncio client sends 500 tx/s open loop to f+1 = 2 replicas.
    # Leaders wait 10 ms for extra votes before forming each QC (the
    # paper's Section 4.2 knob): unpaced, the four replicas and the
    # client saturate both CPUs and every latency and rate follows the
    # host's drifting core speed (blocks/s 113-226 across ten runs,
    # spread 0.27); paced, the same metrics spread about 0.06.
    "tcp_kv_n4": TcpWorkload(
        "tcp_kv_n4",
        {"protocol": "sft-diembft", "n": 4, "batch_size": 256,
         "qc_extra_wait": 0.010},
        rate=500.0, tx_limit=1.0,
    ),
}
