"""Declarative experiment configuration.

:class:`ExperimentConfig` captures one simulated deployment — protocol,
replica count, geo topology, network behaviour, and protocol knobs —
and :func:`build_cluster` turns it into a ready-to-run
:class:`~repro.runtime.cluster.Cluster`.

The defaults mirror the paper's evaluation: ``n = 100`` (``f = 33``),
1000-transaction / 450 KB blocks, round-robin leaders.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator
from repro.net.topology import (
    AsymmetricTopology,
    RegionTopology,
    SymmetricTopology,
    Topology,
    UniformTopology,
)
from repro.protocols.base import ProtocolParams, ReplicaConfig
from repro.protocols.streamlet.replica import StreamletConfig

PROTOCOLS = ("diembft", "sft-diembft", "fbft", "streamlet", "sft-streamlet")
STREAMLET_PROTOCOLS = ("streamlet", "sft-streamlet")


@dataclass(slots=True, kw_only=True)
class ClusterParams(ProtocolParams):
    """The deployment around the protocol knobs, declared once.

    :class:`ExperimentConfig` and
    :class:`~repro.experiments.spec.ScenarioSpec` both inherit every
    field here (each may override a default), so resolving a spec into
    a config — and a config into per-replica
    :class:`~repro.protocols.base.ReplicaConfig` objects — copies
    fields by name instead of by hand.

    ``topology`` is ``"uniform"``, ``"symmetric"``, ``"asymmetric"``
    (Figure 6), or ``"regions"`` (custom ``region_sizes`` with a flat
    cross-region delay of ``delta``); ``delta`` is the inter-region
    delay δ.  ``observers`` selects which replicas pay for
    endorsement/strength bookkeeping: ``"all"``, an integer stride
    (every k-th replica), or an explicit iterable of ids.
    """

    protocol: str = "sft-diembft"
    n: int = 100
    f: int | None = None
    # Topology (Figure 6).
    topology: str = "symmetric"
    delta: float = 0.100
    region_sizes: tuple = ()
    intra_delay: float = 0.001
    ab_delay: float = 0.020
    uniform_delay: float = 0.010
    # Network behaviour.
    jitter: float = 0.002
    bandwidth_bytes_per_sec: float = 0.0
    processing_delay: float = 0.0
    gst: float = 0.0
    pre_gst_delay: float = 0.0
    # At-least-once delivery faults (default off, byte-identical when
    # off): per-unicast duplication probability and the extra-delay
    # window that lets messages overtake each other.
    duplicate_rate: float = 0.0
    reorder_window: float = 0.0
    # Streamlet's lock-step slot; None derives it from the topology.
    streamlet_round_duration: float | None = None
    # Real-transaction KV workload at this many txs/sec feeding
    # per-replica mempools; 0 keeps the synthetic-payload path
    # byte-for-byte.
    workload_rate: float = 0.0
    workload_payload_bytes: int = 64
    # Run control.
    duration: float = 60.0
    observers: object = "all"

    def resolved_f(self) -> int:
        return self.f if self.f is not None else (self.n - 1) // 3

    def with_overrides(self, **kwargs):
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    def observer_ids(self) -> tuple:
        if self.observers == "all":
            return tuple(range(self.n))
        if isinstance(self.observers, int):
            stride = max(1, self.observers)
            return tuple(range(0, self.n, stride))
        return tuple(self.observers)

    def max_delay(self) -> float:
        """The worst one-hop network delay the resolved topology can
        produce (Streamlet's Δ).  Only the active topology's knobs
        count: a uniform topology ignores ``delta`` / ``ab_delay``."""
        candidates = [self.intra_delay]
        if self.topology == "uniform":
            candidates.append(self.uniform_delay)
        else:
            candidates.extend([self.delta, self.ab_delay])
        return max(candidates)

    def per_round(self) -> float:
        """A round's nominal pacing: Streamlet's fixed ``2Δ`` slot, or
        the DiemBFT-family base timeout."""
        if self.protocol in STREAMLET_PROTOCOLS:
            if self.streamlet_round_duration is not None:
                return self.streamlet_round_duration
            return 2.0 * (self.max_delay() + self.jitter) + 0.005
        return self.round_timeout


@dataclass(slots=True, kw_only=True)
class ExperimentConfig(ClusterParams):
    """One simulated experiment: the deployment, one seed, and the
    resolved fault schedules.

    ``partition_schedule`` holds ``(groups, start, end)`` entries —
    each partitions the replica set into ``groups`` during the
    ``[start, end)`` window and heals afterwards (late delivery, see
    :meth:`repro.net.network.Network.add_partition`).
    """

    seed: int = 1
    crash_schedule: tuple = ()  # (replica_id, time) pairs
    # (replica_id, crash_time, restart_time) triples; non-empty turns
    # on the durable WAL disk and the restart machinery.
    recovery_schedule: tuple = ()
    partition_schedule: tuple = ()  # (groups, start, end) entries

    # ------------------------------------------------------------------
    # derived pieces
    # ------------------------------------------------------------------

    def build_topology(self) -> Topology:
        if self.topology == "uniform":
            return UniformTopology(self.n, delay=self.uniform_delay)
        if self.topology == "symmetric":
            return SymmetricTopology(
                self.n, delta=self.delta, intra_delay=self.intra_delay
            )
        if self.topology == "asymmetric":
            if self.n != 100:
                raise ValueError(
                    "the asymmetric topology is defined for n=100 (45/45/10)"
                )
            return AsymmetricTopology(
                delta=self.delta,
                ab_delay=self.ab_delay,
                intra_delay=self.intra_delay,
            )
        if self.topology == "regions":
            sizes = tuple(self.region_sizes)
            if sum(sizes) != self.n:
                raise ValueError(
                    f"region_sizes {sizes} must sum to n={self.n}"
                )
            inter = {
                (i, j): self.delta
                for i in range(len(sizes))
                for j in range(i + 1, len(sizes))
            }
            return RegionTopology(sizes, inter, intra_delay=self.intra_delay)
        raise ValueError(f"unknown topology {self.topology!r}")

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(
            jitter=self.jitter,
            seed=self.seed,
            gst=self.gst,
            pre_gst_delay=self.pre_gst_delay,
            bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec,
            processing_delay=self.processing_delay,
            duplicate_rate=self.duplicate_rate,
            reorder_window=self.reorder_window,
        )

    def replica_config(self, replica_id: int) -> ReplicaConfig:
        params = {
            param.name: getattr(self, param.name)
            for param in fields(ProtocolParams)
        }
        params.update(
            n=self.n,
            f=self.resolved_f(),
            observer=replica_id in set(self.observer_ids()),
        )
        if self.protocol in STREAMLET_PROTOCOLS:
            return StreamletConfig(round_duration=self.per_round(), **params)
        return ReplicaConfig(**params)


def build_cluster(config: ExperimentConfig, replica_overrides: dict | None = None):
    """Construct a :class:`~repro.runtime.cluster.Cluster` from ``config``.

    This is the single factory path: every runnable cluster — honest,
    Byzantine (via ``replica_overrides``), partitioned (via
    ``config.partition_schedule``) — comes through here, whether the
    caller is a test, an example, the CLI, or the campaign engine.
    """
    from repro.crypto.registry import KeyRegistry
    from repro.runtime.cluster import Cluster

    if config.protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {config.protocol!r}; expected one of {PROTOCOLS}"
        )
    simulator = Simulator()
    topology = config.build_topology()
    network = Network(simulator, topology, config.network_config())
    registry = KeyRegistry(config.n)
    return Cluster(
        config=config,
        simulator=simulator,
        topology=topology,
        network=network,
        registry=registry,
        replica_overrides=replica_overrides,
    )
