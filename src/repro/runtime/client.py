"""Client workload: transactions, mempools, and a load generator.

The paper's evaluation keeps leaders saturated ("sufficiently many
transactions are generated ... so that any leader always has enough
transactions").  Large benchmarks therefore use synthetic
:class:`~repro.types.transaction.TxBatch` payloads; the classes here
provide *real* transaction flow for the examples and the end-to-end
tests: clients submit :class:`~repro.types.transaction.Transaction`
objects to replica mempools, leaders drain them into block payloads,
and commit events acknowledge them.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.types.transaction import Payload, Transaction


class Mempool:
    """FIFO pool of pending client transactions for one replica.

    Drains are capped by ``max_block_transactions`` and, when non-zero,
    ``max_block_bytes`` (a payload always takes at least one
    transaction so a jumbo entry cannot wedge the queue).

    ``pipelined`` selects the drain discipline.  Off is stop-and-wait
    re-proposal: every drain copies the unacknowledged front of the
    queue, so a leader re-ships the same batch until commit feedback
    removes it.  On marks drained transactions *in flight* for
    ``inflight_timeout`` seconds and skips them in later drains, so
    consecutive proposals carry fresh batches — the pipelining that
    lets a leader propose round ``r+1``'s transactions before round
    ``r`` commits.  Transactions whose proposal went nowhere (failed
    round, crashed leader) become eligible again when the timeout
    lapses; nothing is lost either way because entries only leave the
    pool on commit.
    """

    def __init__(
        self,
        max_block_transactions: int = 1000,
        max_block_bytes: int = 0,
        pipelined: bool = False,
        inflight_timeout: float = 1.0,
    ) -> None:
        self.max_block_transactions = max_block_transactions
        self.max_block_bytes = max_block_bytes
        self.pipelined = pipelined
        self.inflight_timeout = inflight_timeout
        self._pending: OrderedDict = OrderedDict()
        self._in_flight: dict = {}  # txid -> eligibility deadline
        self.submitted = 0

    @classmethod
    def for_replica(cls, config) -> "Mempool":
        """The mempool a replica with this ``ReplicaConfig`` drains:
        its batch caps and drain discipline, with in-flight entries
        outliving a full 3-chain commit plus feedback lag (eight
        rounds) before re-qualifying for proposals."""
        return cls(
            max_block_transactions=config.batch_size,
            max_block_bytes=config.max_batch_bytes,
            pipelined=config.pipelined_proposals,
            inflight_timeout=8.0 * config.per_round(),
        )

    def submit(self, transaction: Transaction) -> None:
        self._pending[transaction.txid()] = transaction
        self.submitted += 1

    def pending_count(self) -> int:
        return len(self._pending)

    def remove_committed(self, transactions) -> None:
        """Drop transactions that made it into a committed block."""
        for transaction in transactions:
            txid = transaction.txid()
            self._pending.pop(txid, None)
            self._in_flight.pop(txid, None)

    def make_payload(self, now: float) -> Payload:
        """Drain up to a block's worth of transactions into a payload.

        Transactions stay pending until committed (leaders of failed
        rounds must not lose them), so this *copies* the front of the
        queue rather than popping it.
        """
        in_flight = self._in_flight
        if self.pipelined and in_flight:
            expired = [
                txid for txid, deadline in in_flight.items() if deadline <= now
            ]
            for txid in expired:
                del in_flight[txid]
        front = []
        size = 0
        max_bytes = self.max_block_bytes
        for txid, transaction in self._pending.items():
            if self.pipelined and txid in in_flight:
                continue
            tx_size = transaction.size_bytes()
            if front and max_bytes and size + tx_size > max_bytes:
                break
            front.append((txid, transaction))
            size += tx_size
            if len(front) >= self.max_block_transactions:
                break
        if self.pipelined:
            deadline = now + self.inflight_timeout
            for txid, _transaction in front:
                in_flight[txid] = deadline
        return Payload(
            transactions=tuple(transaction for _txid, transaction in front)
        )


class CommitFeedback:
    """Drains committed transactions out of replica mempools.

    Polls each replica's commit log on a simulated-time interval and
    calls :meth:`Mempool.remove_committed` so leaders stop re-proposing
    transactions that already made it into the chain.
    """

    def __init__(self, cluster, mempools: dict, interval: float = 0.05):
        self.cluster = cluster
        self.mempools = mempools
        self.interval = interval
        self._cursors = {replica.replica_id: 0 for replica in cluster.replicas}

    def watch(self, replica_id: int, mempool: Mempool) -> None:
        """Drain ``mempool`` from the start of ``replica_id``'s commit
        log (a restarted replica's log starts over)."""
        self.mempools[replica_id] = mempool
        self._cursors[replica_id] = 0

    def start(self) -> None:
        self.cluster.simulator.schedule_at(self.interval, self._tick)

    def _tick(self) -> None:
        for replica in self.cluster.replicas:
            if replica.crashed:
                continue
            mempool = self.mempools.get(replica.replica_id)
            if mempool is None:
                continue
            commit_order = replica.commit_tracker.commit_order
            cursor = self._cursors[replica.replica_id]
            while cursor < len(commit_order):
                event = commit_order[cursor]
                cursor += 1
                block = replica.store.maybe_get(event.block_id)
                if block is not None and block.payload.transactions:
                    mempool.remove_committed(block.payload.transactions)
            self._cursors[replica.replica_id] = cursor
        self.cluster.simulator.schedule_in(self.interval, self._tick)


class ClientWorkload:
    """Open-loop transaction generator over a cluster.

    Submits ``rate`` transactions per second round-robin across
    replicas' mempools and rewires each replica's ``payload_source`` to
    drain its mempool.  Commit acknowledgement (end-to-end transaction
    latency) is measured against the *first* honest replica to commit
    the transaction's block.
    """

    def __init__(self, cluster, rate: float = 2000.0, payload_bytes: int = 64):
        self.cluster = cluster
        self.rate = rate
        self.payload_bytes = payload_bytes
        self.mempools: dict[int, Mempool] = {}
        self.sequence = 0
        self._interval = 1.0 / rate if rate > 0 else 0.0
        for replica in cluster.replicas:
            mempool = Mempool()
            self.mempools[replica.replica_id] = mempool
            replica.payload_source = mempool.make_payload

    def start(self) -> None:
        if self._interval > 0:
            self.cluster.simulator.schedule_at(0.0, self._tick)

    def _tick(self) -> None:
        simulator = self.cluster.simulator
        transaction = Transaction(
            client_id=0,
            sequence=self.sequence,
            payload=b"x" * self.payload_bytes,
            submitted_at=simulator.now,
        )
        self.sequence += 1
        target = self.sequence % len(self.cluster.replicas)
        replica = self.cluster.replicas[target]
        if not replica.crashed:
            self.mempools[target].submit(transaction)
        simulator.schedule_in(self._interval, self._tick)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def end_to_end_latencies(self) -> list:
        """Submit-to-first-commit latency for every acknowledged txn."""
        first_commit: dict = {}
        for replica in self.cluster.honest_replicas():
            for event in replica.commit_tracker.commit_order:
                block = replica.store.maybe_get(event.block_id)
                if block is None:
                    continue
                for transaction in block.payload.transactions:
                    txid = transaction.txid()
                    seen = first_commit.get(txid)
                    if seen is None or event.committed_at < seen[0]:
                        first_commit[txid] = (
                            event.committed_at,
                            transaction.submitted_at,
                        )
        return [commit - submit for commit, submit in first_commit.values()]
