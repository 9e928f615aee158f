"""The chain-based BFT SMR prototype (Figure 1) and replica plumbing.

Every protocol replica is an event-driven state machine: some transport
calls :meth:`BaseReplica.deliver` and some clock fires timers via
:meth:`BaseReplica.on_timer`.  Concrete protocols fill in the
protocol-specific rules — proposing, voting, locking, committing, and
round synchronization — exactly the holes the paper's prototype leaves
open.

Replicas are deliberately transport-agnostic.  All interaction with the
outside world goes through :class:`ReplicaContext`, which is assembled
from two narrow structural interfaces:

* :class:`Transport` — message egress (``send`` / ``multicast``) plus
  endpoint detachment for crash faults;
* :class:`Clock` — the time source (``now``) and timer scheduling
  (``set_timer`` / ``cancel_timer``).

The deterministic simulator provides one implementation pair
(:class:`repro.net.sim.SimTransport` / :class:`repro.net.sim.SimClock`)
and the real-network runtime another
(:class:`repro.rt_net.transport.TcpTransport` /
:class:`repro.rt_net.transport.WallClock`), so the identical protocol
code runs under exhaustive simulation or real asyncio TCP sockets.
Protocol code must only ever call ``ctx.send`` / ``ctx.multicast`` /
``ctx.set_timer`` / ``ctx.cancel_timer`` / ``ctx.now`` (plus the key
material accessors) — never reach into a concrete transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.crypto.registry import KeyRegistry
from repro.types.messages import (
    CheckpointMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
    SyncRequestMsg,
    SyncResponseMsg,
)


@runtime_checkable
class Transport(Protocol):
    """Message egress as seen by a replica.

    Implementations route by replica id.  ``send`` and ``multicast``
    are fire-and-forget: delivery latency, ordering, and loss semantics
    belong to the implementation (the simulated network models partial
    synchrony; the TCP transport gives per-connection FIFO delivery).
    """

    def send(self, src: int, dst: int, message) -> None: ...

    def multicast(self, src: int, message, include_self: bool = False) -> None: ...

    def unregister(self, replica_id: int) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """Time source and timer scheduling as seen by a replica.

    ``now`` is seconds as a float; the epoch is implementation-defined
    (simulated time starts at 0, the wall clock at process start), so
    protocol code must only ever compare or subtract timestamps.
    ``set_timer`` returns an opaque handle accepted by
    ``cancel_timer``; cancelling an already-fired or already-cancelled
    timer is a no-op.
    """

    @property
    def now(self) -> float: ...

    def set_timer(self, delay: float, callback, *args): ...

    def cancel_timer(self, handle) -> None: ...


@dataclass(slots=True, kw_only=True)
class ProtocolParams:
    """Every protocol knob a replica reads, declared once.

    :class:`ReplicaConfig` adds the per-replica identity on top, and
    :class:`~repro.runtime.config.ClusterParams` (the base of
    ``ExperimentConfig`` and ``ScenarioSpec``) adds the deployment; both
    inherit these fields, so a new knob is declared here and nowhere
    else.  Knobs:

    * ``round_timeout`` / ``timeout_multiplier`` / ``max_timeout`` —
      pacemaker timer policy;
    * ``qc_extra_wait`` — Section 4.2: leaders delay QC formation this
      many seconds after reaching ``2f + 1`` votes to fold in straggler
      votes (0 disables);
    * ``generalized_intervals`` / ``interval_window`` — Section 3.4
      strong-vote mode;
    * ``naive_accounting`` — count every indirect vote as an
      endorsement, ignoring markers (the flawed scheme Appendix C
      refutes; only the fuzzer's invariant oracle turns this on);
    * ``verify_signatures`` — validate every signature on receipt
      (on for tests; large benches may disable for speed);
    * ``drop_stale_messages`` — discard messages from rounds the
      replica has already left;
    * ``block_batch_count`` / ``block_batch_bytes`` — synthetic payload
      shape (the paper's ~1000 txns / ~450 KB per block);
    * ``sync_enabled`` — the block-sync / catch-up subprotocol
      (:mod:`repro.sync`): fetch missing certified ancestor chains
      from peers and recover QCs from timeout-attached votes.  Off
      preserves the pre-sync behaviour byte-for-byte (determinism
      differentials, bench baselines);
    * ``batch_size`` / ``max_batch_bytes`` — mempool drain caps when a
      real-transaction workload is attached: at most ``batch_size``
      transactions and (when non-zero) ``max_batch_bytes`` payload
      bytes per proposed block;
    * ``pipelined_proposals`` — mempool drain discipline.  Off is
      stop-and-wait re-proposal: a leader's payload repeats the
      unacknowledged front of its queue until commit feedback drains
      it.  On marks drained transactions in flight so consecutive
      proposals ship fresh batches — a leader proposes round ``r+1``'s
      transactions without waiting for round ``r``'s commit;
    * ``linear_votes`` — Linear-PBFT-style vote collection: votes go
      point-to-point to the round collector, which multicasts the
      aggregated QC (:class:`~repro.types.messages.QCMsg`), making the
      vote phase O(n) instead of all-to-all.  Off preserves the
      pre-feature message flow byte-for-byte, same discipline as
      ``sync_enabled``;
    * ``checkpoint_interval`` — the PBFT checkpoint subprotocol
      (:mod:`repro.sync.checkpoint`): every this-many commits each
      replica signs a digest of its executed kvstore state; ``2f + 1``
      matching digests form a stable checkpoint that truncates history
      below it and lets far-behind replicas join via snapshot transfer
      instead of full replay.  0 (the default) disables it entirely,
      preserving pre-feature runs byte-for-byte;
    * ``trace_level`` — structured lifecycle tracing (:mod:`repro.obs`):
      ``"off"`` (default, byte-identical runs), ``"spans"`` (the
      ``proposed → qc_formed → endorsed → committed`` span chain plus
      sync/checkpoint request spans into the cluster-wide trace log),
      or ``"full"`` (spans plus one event per delivered message);
    * ``flight_recorder`` — the always-on per-replica ring of recent
      trace events, dumped to a JSON artifact when the invariant
      oracle reports a violation.  Memory-only: it never affects
      behaviour, messages, or metrics output.
    """

    round_timeout: float = 1.0
    timeout_multiplier: float = 1.5
    max_timeout: float = 8.0
    qc_extra_wait: float = 0.0
    generalized_intervals: bool = False
    interval_window: int | None = None
    naive_accounting: bool = False
    verify_signatures: bool = True
    drop_stale_messages: bool = True
    block_batch_count: int = 1000
    block_batch_bytes: int = 450_000
    sync_enabled: bool = True
    batch_size: int = 256
    max_batch_bytes: int = 0
    pipelined_proposals: bool = False
    linear_votes: bool = False
    checkpoint_interval: int = 0
    trace_level: str = "off"
    flight_recorder: bool = True


@dataclass(slots=True, kw_only=True)
class ReplicaConfig(ProtocolParams):
    """Static per-replica configuration: the protocol knobs plus identity.

    ``f`` is the assumed Byzantine bound with ``n = 3f + 1`` replicas
    (quorums have ``2f + 1``); ``observer`` says whether this replica
    pays for endorsement / strength bookkeeping (metrics) — protocol
    behaviour is unaffected.
    """

    n: int
    f: int
    observer: bool = True

    def quorum(self) -> int:
        return 2 * self.f + 1

    def leader_of(self, round_number: int) -> int:
        """The paper's leader election: round-robin rotation."""
        return round_number % self.n

    def per_round(self) -> float:
        """A round's nominal pacing: the base pacemaker timeout."""
        return self.round_timeout


class ReplicaContext:
    """Everything a replica may do to the outside world.

    Binds one replica id to a :class:`Transport` and a :class:`Clock`
    (plus the key registry and optional trace/WAL attachments), so
    protocol code never touches global state or a concrete transport
    implementation; this is also the seam fault-injection tests use.
    The full replica-facing surface is ``send`` / ``multicast`` /
    ``set_timer`` / ``cancel_timer`` / ``now`` / ``detach`` and the
    key material (``registry`` / ``signing_key``).
    """

    def __init__(
        self,
        replica_id: int,
        transport: Transport,
        clock: Clock,
        registry: KeyRegistry,
        trace=None,
        durable=None,
    ) -> None:
        self.replica_id = replica_id
        self.transport = transport
        self.clock = clock
        self.registry = registry
        self.signing_key = registry.signing_key(replica_id)
        #: Cluster-wide span log (repro.obs.TraceLog) when tracing is
        #: enabled; None otherwise.
        self.trace = trace
        #: This replica's DurableState WAL record when the cluster has
        #: a crash-recovery schedule; None otherwise (the default), in
        #: which case no WAL work happens and runs replay byte-identically.
        self.durable = durable

    @property
    def now(self) -> float:
        return self.clock.now

    def send(self, dst: int, message) -> None:
        """Queue ``message`` for delivery to replica ``dst``."""
        self.transport.send(self.replica_id, dst, message)

    def multicast(self, message, include_self: bool = True) -> None:
        """Queue ``message`` for delivery to every replica."""
        self.transport.multicast(self.replica_id, message, include_self=include_self)

    def set_timer(self, delay: float, callback, *args):
        """Run ``callback(*args)`` after ``delay`` seconds; returns a handle."""
        return self.clock.set_timer(delay, callback, *args)

    def cancel_timer(self, handle) -> None:
        """Cancel a pending timer from :meth:`set_timer` (no-op when fired)."""
        if handle is not None:
            self.clock.cancel_timer(handle)

    def detach(self) -> None:
        """Remove this replica's transport endpoint (crash faults)."""
        self.transport.unregister(self.replica_id)


class BaseReplica:
    """Common lifecycle for every protocol replica."""

    #: Whether a reborn instance reloads its WAL.  The scripted
    #: ``amnesia`` behaviour sets this False to demonstrate that the
    #: durable voting record is load-bearing (the amnesia differential).
    wal_restore = True

    def __init__(self, config: ReplicaConfig, context: ReplicaContext) -> None:
        self.config = config
        self.context = context
        self.replica_id = context.replica_id
        self.crashed = False
        self.crash_at: float | None = None
        #: DurableState write-ahead record (crash-recovery runs only).
        self.wal = getattr(context, "durable", None)
        self.sync = None  # SyncManager, attached by _init_sync()
        self.checkpoint = None  # CheckpointManager, via _init_checkpoint()
        from repro.obs import FlightRecorder, MetricsRegistry, Tracer

        self.metrics = MetricsRegistry()
        span_log = (
            getattr(context, "trace", None)
            if config.trace_level != "off" else None
        )
        flight = FlightRecorder() if config.flight_recorder else None
        #: None iff both the span log and the flight ring are off —
        #: every emit site guards on this single attribute, so disabled
        #: runs stay byte-identical and effectively free.
        self.tracer = (
            Tracer(context.replica_id, span_log=span_log, flight=flight,
                   level=config.trace_level)
            if span_log is not None or flight is not None
            else None
        )

    def _init_sync(self) -> None:
        """Attach the block-sync manager (subclasses call after the
        block store exists; no-op when ``sync_enabled`` is off)."""
        if self.config.sync_enabled:
            from repro.sync import SyncManager

            self.sync = SyncManager(self)

    def _init_checkpoint(self) -> None:
        """Attach the checkpoint manager (subclasses call after the
        block store and commit tracker exist; no-op when
        ``checkpoint_interval`` is 0)."""
        if self.config.checkpoint_interval > 0:
            from repro.sync import CheckpointManager

            self.checkpoint = CheckpointManager(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Called once when the simulation begins."""
        raise NotImplementedError

    def crash(self) -> None:
        """Benign (crash) fault: the replica stops entirely."""
        self.crashed = True
        self.context.detach()

    def restore_from_wal(self, state) -> None:
        """Reload safety-critical voting state after a restart.

        Called by :meth:`~repro.runtime.cluster.Cluster.restart_replica`
        on the *replacement* instance, before :meth:`start`.  Protocol
        families override; the base implementation only counts the
        restore so the recovery metrics section sees it.
        """
        state.note_restore()

    def rejoin_after_restart(self) -> None:
        """Called once after a restarted replica's :meth:`start`; the
        protocol families override to kick off block-sync / snapshot
        catch-up from the WAL's highest known certificate."""

    def deliver(self, src: int, message) -> None:
        """Network entry point; dispatches to ``on_message``.

        Sync traffic is intercepted here, before protocol dispatch:
        the catch-up subprotocol is family-agnostic plumbing (it only
        reads/extends the block store), so neither DiemBFT's collector
        logic nor Streamlet's echo layer ever sees it.
        """
        if self.crashed:
            return
        tracer = self.tracer
        if tracer is not None and tracer.full:
            tracer.emit(
                self.context.now, "deliver",
                detail=f"{type(message).__name__} from {src}",
            )
        if isinstance(message, SyncRequestMsg):
            self._on_sync_request(src, message)
            return
        if isinstance(message, SyncResponseMsg):
            self._on_sync_response(src, message)
            self._poll_checkpoint()
            return
        if self.checkpoint is not None:
            if isinstance(message, CheckpointMsg):
                self.checkpoint.on_checkpoint(src, message)
                self._poll_checkpoint()
                return
            if isinstance(message, SnapshotRequestMsg):
                self.checkpoint.serve_snapshot(src, message)
                return
            if isinstance(message, SnapshotResponseMsg):
                self.checkpoint.on_snapshot_response(src, message)
                self._poll_checkpoint()
                return
        self.on_message(src, message)
        self._poll_checkpoint()

    # ------------------------------------------------------------------
    # sync plumbing (shared by both protocol families)
    # ------------------------------------------------------------------

    def _on_sync_request(self, src: int, msg) -> None:
        """Serve a peer's catch-up request (adversary seam: a
        response-withholding behaviour overrides this to drop it)."""
        if self.sync is not None:
            self.sync.serve(src, msg)

    def _on_sync_response(self, src: int, msg) -> None:
        if self.sync is None:
            return
        inserted, tip_qc = self.sync.accept(src, msg)
        if tip_qc is not None:
            self._process_qc(tip_qc, self.context.now)
        if inserted:
            self._handle_inserted_blocks(inserted)

    def _process_qc(self, qc, now: float) -> None:
        """Provided by the protocol families (QC ingestion path)."""
        raise NotImplementedError

    def _handle_inserted_blocks(self, inserted) -> None:
        """Provided by the protocol families (post-insertion path)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpoint plumbing (shared by both protocol families)
    # ------------------------------------------------------------------

    def _poll_checkpoint(self) -> None:
        """Let the checkpoint manager observe newly committed blocks.

        Every commit is triggered by some delivered message (votes,
        QCs, proposals, sync responses), so polling after delivery
        sees each one; with checkpointing off this is a no-op check.
        """
        if self.checkpoint is not None and not self.crashed:
            self.checkpoint.poll(self.context.now)

    def _on_truncated(self, pruned) -> None:
        """History below a stable checkpoint was pruned; clear memo
        state keyed by the dropped block ids.  Protocol families extend
        this with their own per-block structures."""
        self.commit_tracker.forget_pruned(pruned)

    # ------------------------------------------------------------------
    # protocol-specific holes (Figure 1)
    # ------------------------------------------------------------------

    def on_message(self, src: int, message) -> None:
        raise NotImplementedError

    def on_timer(self, tag) -> None:
        raise NotImplementedError
