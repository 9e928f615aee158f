"""The Streamlet replica (Figure 10).

Streamlet trades performance for simplicity:

* **lock-step rounds** of duration ``2Δ`` (Δ = assumed maximum network
  delay after GST) — the pacemaker is a fixed-interval clock, no
  timeout messages;
* the leader proposes extending **the longest certified chain** it
  knows;
* replicas vote (by **multicast**, not to a collector) for the first
  round-``r`` proposal iff it extends one of the longest certified
  chains they have seen;
* every replica aggregates votes and forms QCs locally;
* an **echo mechanism** re-multicasts every previously unseen message,
  giving the O(n³) per-round message complexity the paper cites;
* **commit rule**: three adjacent certified blocks at consecutive
  rounds commit the *middle* block and its ancestors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.commit_rules import CommitTracker
from repro.protocols.base import BaseReplica, ReplicaConfig, ReplicaContext
from repro.types.block import Block, BlockId
from repro.types.chain import BlockStore
from repro.types.messages import EchoMsg, ProposalMsg, QCMsg, VoteMsg
from repro.types.quorum_cert import QuorumCertificate
from repro.types.transaction import Payload, TxBatch
from repro.types.vote import Vote
from repro.types.block import make_genesis


#: Re-multicast every previously unseen message (the echo mechanism
#: behind Streamlet's O(n³) per-round message complexity).
ECHO_ENABLED = True


@dataclass(slots=True, kw_only=True)
class StreamletConfig(ReplicaConfig):
    """Streamlet adds the lock-step round duration (``2Δ``)."""

    round_duration: float = 0.5

    def per_round(self) -> float:
        """A round's nominal pacing: the fixed lock-step slot."""
        return self.round_duration


class StreamletReplica(BaseReplica):
    """One Streamlet replica on the simulated network."""

    def __init__(self, config: StreamletConfig, context: ReplicaContext) -> None:
        super().__init__(config, context)
        genesis, genesis_qc = make_genesis()
        self.genesis = genesis
        self.store = BlockStore(genesis, genesis_qc)
        self.store.record_qc(genesis_qc)
        self.current_round = 0
        self.commit_tracker = self._make_commit_tracker()
        self.commit_tracker.tracer = self.tracer
        self.payload_source = self._default_payload
        self._voted_rounds: set[int] = set()
        self._collected_votes: dict[BlockId, dict[int, object]] = {}
        self._vote_block_info: dict[BlockId, tuple] = {}
        self._formed_qcs: set[BlockId] = set()
        self._qcs_processed: set[BlockId] = set()
        self._pending_qcs: dict[BlockId, QuorumCertificate] = {}
        self._orphan_proposals: dict[BlockId, ProposalMsg] = {}
        self._seen_message_keys: set = set()
        # WAL highest certified QC stashed by restore_from_wal; fed
        # through _process_qc by rejoin_after_restart().
        self._wal_qc_high = None
        # Pre-crash longest certified chain height (0 = fresh boot):
        # the voting floor enforced by _maybe_vote after a restart.
        self._wal_certified_floor = 0
        # Statistics: registry-backed counters; the property shims below
        # keep the legacy attribute API (+= sites, test assertions).
        self._c_blocks_proposed = self.metrics.counter("blocks_proposed")
        self._c_votes_sent = self.metrics.counter("votes_sent")
        self._c_invalid_messages = self.metrics.counter("invalid_messages")
        self._init_sync()
        self._init_checkpoint()

    # ------------------------------------------------------------------
    # registry-backed statistics (legacy attribute API preserved)
    # ------------------------------------------------------------------

    @property
    def blocks_proposed(self) -> int:
        return self._c_blocks_proposed.value

    @blocks_proposed.setter
    def blocks_proposed(self, value: int) -> None:
        self._c_blocks_proposed.value = value

    @property
    def votes_sent(self) -> int:
        return self._c_votes_sent.value

    @votes_sent.setter
    def votes_sent(self, value: int) -> None:
        self._c_votes_sent.value = value

    @property
    def invalid_messages(self) -> int:
        return self._c_invalid_messages.value

    @invalid_messages.setter
    def invalid_messages(self, value: int) -> None:
        self._c_invalid_messages.value = value

    # ------------------------------------------------------------------
    # construction hooks (overridden by SFT-Streamlet)
    # ------------------------------------------------------------------

    def _make_commit_tracker(self) -> CommitTracker:
        return CommitTracker(self.store, self.config.f, rule="streamlet")

    def _make_vote(self, block: Block):
        vote = Vote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=self.replica_id,
        )
        return self._sign_vote(vote)

    def _sign_vote(self, vote):
        signature = self.context.signing_key.sign(vote.signing_payload())
        return replace(vote, signature=signature)

    def _after_vote(self, block: Block) -> None:
        """Hook: called after voting for ``block``."""

    def _on_new_certification(self, qc: QuorumCertificate, now: float) -> None:
        self.commit_tracker.on_new_qc(qc, now)

    def _ingest_vote_for_endorsement(self, vote, now: float) -> None:
        """Hook: SFT-Streamlet feeds every observed vote to its tracker."""

    # ------------------------------------------------------------------
    # lifecycle: lock-step rounds
    # ------------------------------------------------------------------

    def start(self) -> None:
        now = self.context.now
        if now <= 0.0:
            self._enter_round(1)
            return
        # Crash-recovery restart: the cluster-wide lock-step clock kept
        # ticking while this replica was down, so rejoin at the *next*
        # round boundary rather than restarting from round 1.  Until
        # then current_round stays 0, which refuses every vote.
        period = self.config.round_duration
        boundary = int(now / period) + 1
        self.context.set_timer(
            boundary * period - now, self._enter_round, boundary + 1
        )

    def restore_from_wal(self, state) -> None:
        """Reload the durable voting record after a restart.

        The restored ``_voted_rounds`` set is the amnesia-safety core:
        Streamlet's one-vote-per-round guard consults it directly, so
        the reborn replica refuses every round its pre-crash
        incarnation already voted in.
        """
        super().restore_from_wal(state)
        self._voted_rounds |= state.voted_rounds()
        if state.qc_high is not None:
            self._wal_qc_high = state.qc_high
        # The lock analog: Streamlet's longest-chain voting rule is
        # only safe across a restart if the reborn replica remembers
        # how long the longest certified chain already was.  Its fresh
        # store knows only genesis; without this floor it would help
        # certify a second chain from scratch — no round is ever voted
        # twice, yet conflicting heights commit (the property fuzzer
        # found exactly that with three simultaneous restarts).
        self._wal_certified_floor = state.certified_height

    def rejoin_after_restart(self) -> None:
        """Kick off catch-up from the WAL's highest certified QC: its
        block is unknown to the fresh store, so ``_process_qc`` routes
        it to the block-sync / snapshot rejoin path."""
        qc, self._wal_qc_high = self._wal_qc_high, None
        if qc is not None:
            self._process_qc(qc, self.context.now)

    def _default_payload(self, now: float) -> Payload:
        return Payload(
            batch=TxBatch(
                count=self.config.block_batch_count,
                size_bytes=self.config.block_batch_bytes,
                created_at=now,
                tag=self.replica_id,
            )
        )

    def _enter_round(self, round_number: int) -> None:
        if self.crashed:
            return
        self.current_round = round_number
        if self.tracer is not None:
            self.tracer.emit(
                self.context.now, "round", round=round_number, detail="clock"
            )
        if self.sync is not None:
            # Lock-step rounds advance on the clock, so a replica whose
            # certified tip trails the round number is stale.
            self.sync.note_round_lag(
                round_number, self.store.highest_certified_block().round
            )
        if self.config.leader_of(round_number) == self.replica_id:
            self._propose(round_number)
        self.context.set_timer(
            self.config.round_duration, self._enter_round, round_number + 1
        )

    def _propose(self, round_number: int) -> None:
        parent = self._choose_parent()
        parent_qc = self.store.qc_for(parent.id())
        if parent_qc is None:
            return  # cannot justify the extension; skip the slot
        proposal = self._signed_proposal(parent, parent_qc, round_number)
        self.blocks_proposed += 1
        tracer = self.tracer
        if tracer is not None:
            block = proposal.block
            txs = block.payload.transactions
            tracer.emit(
                block.created_at, "propose", round=round_number,
                height=block.height, block=block.id().short(),
                value=sum(block.created_at - tx.submitted_at for tx in txs),
                count=len(txs),
            )
        self.context.multicast(proposal, include_self=True)

    def _signed_proposal(
        self, parent: Block, parent_qc, round_number: int, commit_log: tuple = ()
    ) -> ProposalMsg:
        """Build and sign a proposal extending ``parent`` (also the seam
        adversarial leader behaviours construct their blocks through)."""
        block = Block(
            parent_id=parent.id(),
            qc=parent_qc,
            round=round_number,
            height=parent.height + 1,
            proposer=self.replica_id,
            payload=self.payload_source(self.context.now),
            created_at=self.context.now,
            commit_log=commit_log,
        )
        proposal = ProposalMsg(
            sender=self.replica_id, round=round_number, block=block
        )
        signature = self.context.signing_key.sign(proposal.signing_payload())
        return replace(proposal, signature=signature)

    def _choose_parent(self) -> Block:
        """Tip of the longest certified chain (deterministic tiebreak)."""
        tips = self.store.longest_certified_tips()
        if not tips:
            return self.genesis
        return max(tips, key=lambda block: (block.round, block.id().hex()))

    # ------------------------------------------------------------------
    # message handling (+ echo)
    # ------------------------------------------------------------------

    def on_message(self, src: int, message) -> None:
        if isinstance(message, EchoMsg):
            # Unwrap; authenticity comes from the inner signature.
            self._handle_protocol_message(message.origin, message.inner, echoed=True)
        else:
            self._handle_protocol_message(src, message, echoed=False)

    def on_timer(self, tag) -> None:
        del tag

    def _message_key(self, message):
        if isinstance(message, ProposalMsg):
            return ("proposal", message.block.id())
        if isinstance(message, VoteMsg):
            return ("vote", message.vote.block_id, message.vote.voter)
        if isinstance(message, QCMsg):
            return ("qc", message.qc.block_id)
        return None

    def _should_echo(self, message) -> bool:
        """Echo policy: the linear-mode message flow must stay O(n).

        Votes travel point-to-point to the collector under
        ``linear_votes`` (echoing them would rebuild the all-to-all
        phase), and an aggregated-QC broadcast is never echoed — the
        collector already fanned it out to everyone.
        """
        if isinstance(message, QCMsg):
            return False
        if self.config.linear_votes and isinstance(message, VoteMsg):
            return False
        return True

    def _handle_protocol_message(self, src: int, message, echoed: bool) -> None:
        key = self._message_key(message)
        if key is not None:
            if key in self._seen_message_keys:
                return
            self._seen_message_keys.add(key)
            if ECHO_ENABLED and self._should_echo(message):
                self.context.multicast(
                    EchoMsg(sender=self.replica_id, inner=message, origin=src),
                    include_self=False,
                )
        if isinstance(message, ProposalMsg):
            self._on_proposal(src, message, echoed)
        elif isinstance(message, VoteMsg):
            self._on_vote(message)
        elif isinstance(message, QCMsg):
            self._on_qc_msg(message)

    # ------------------------------------------------------------------
    # proposals and voting
    # ------------------------------------------------------------------

    def _on_proposal(self, src: int, msg: ProposalMsg, echoed: bool) -> None:
        del echoed
        if not self._validate_proposal(src, msg):
            self.invalid_messages += 1
            return
        block = msg.block
        self._orphan_proposals.setdefault(block.id(), msg)
        inserted = self.store.add_block(block)
        if inserted:
            self._handle_inserted_blocks(inserted)
        elif self.sync is not None and block.parent_id not in self.store:
            self.sync.note_missing(block.parent_id)

    def _validate_proposal(self, src: int, msg: ProposalMsg) -> bool:
        block = msg.block
        if block.is_genesis() or block.qc is None:
            return False
        if block.round != msg.round or block.proposer != msg.sender:
            return False
        if self.config.leader_of(msg.round) != msg.sender:
            return False
        if block.qc.block_id != block.parent_id:
            return False
        del src  # echoes legitimately relay with src != sender
        if self.config.verify_signatures:
            if msg.signature is None or not self.context.registry.verify(
                msg.signing_payload(), msg.signature
            ):
                return False
            if not block.qc.validate(self.context.registry, self.config.quorum()):
                return False
        return True

    def _handle_inserted_blocks(self, inserted) -> None:
        now = self.context.now
        for block in inserted:
            if block.qc is not None:
                self._process_qc(block.qc, now)
            pending_qc = self._pending_qcs.pop(block.id(), None)
            if pending_qc is not None:
                self._process_qc(pending_qc, now)
        for block in inserted:
            msg = self._orphan_proposals.pop(block.id(), None)
            if msg is not None:
                self._maybe_vote(msg)

    def _maybe_vote(self, msg: ProposalMsg) -> None:
        block = msg.block
        round_number = block.round
        if round_number != self.current_round:
            return
        if round_number in self._voted_rounds:
            return
        if self.wal is not None and self.wal.has_voted(round_number):
            # Amnesia safety, belt-and-braces: the WAL is authoritative
            # about past votes even if the volatile set lags it.
            return
        parent = self.store.maybe_get(block.parent_id)
        if parent is None:
            return
        # Voting rule: the proposal must extend one of the longest
        # certified chains this replica has seen.
        if not self.store.is_certified(parent.id()):
            return
        if parent.height != self.store.certified_chain_height():
            return
        if parent.height < self._wal_certified_floor:
            # Restart safety: the pre-crash incarnation had certified
            # a chain this tall.  Until catch-up restores the store to
            # at least that height, voting for a shorter extension
            # could certify a conflicting branch from scratch.
            return
        vote = self._make_vote(block)
        self._voted_rounds.add(round_number)
        self.votes_sent += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.context.now, "vote", round=round_number,
                height=block.height, block=block.id().short(),
            )
        self._after_vote(block)
        if self.wal is not None:
            # fsync the vote before it leaves the replica
            self.wal.record_vote(round_number, block.id(), vote)
        vote_msg = VoteMsg(sender=self.replica_id, vote=vote)
        if self.config.linear_votes:
            # Linear collection: one point-to-point vote to the next
            # round's leader (the collector), which aggregates and
            # re-broadcasts the certificate — O(n) per vote phase
            # instead of the multicast-plus-echo all-to-all.
            collector = self.config.leader_of(round_number + 1)
            self.context.send(collector, vote_msg)
        else:
            self.context.multicast(vote_msg, include_self=True)

    # ------------------------------------------------------------------
    # vote aggregation (every replica collects)
    # ------------------------------------------------------------------

    def _on_vote(self, msg: VoteMsg) -> None:
        vote = msg.vote
        if not 0 <= vote.voter < self.config.n:
            self.invalid_messages += 1
            return
        if self.config.verify_signatures:
            if vote.signature is None or not self.context.registry.verify(
                vote.signing_payload(), vote.signature
            ):
                self.invalid_messages += 1
                return
        if (
            self.config.linear_votes
            and self.config.leader_of(vote.block_round + 1) != self.replica_id
        ):
            return  # not the collector for this round
        self._ingest_vote_for_endorsement(vote, self.context.now)
        block_id = vote.block_id
        if block_id in self._formed_qcs:
            return
        bucket = self._collected_votes.setdefault(block_id, {})
        bucket[vote.voter] = vote
        self._vote_block_info[block_id] = (vote.block_round, vote.height)
        if len(bucket) >= self.config.quorum():
            self._form_qc(block_id)

    def _form_qc(self, block_id: BlockId) -> None:
        bucket = self._collected_votes.pop(block_id, None)
        if bucket is None:
            return
        round_number, height = self._vote_block_info.pop(block_id)
        votes = tuple(bucket[voter] for voter in sorted(bucket))
        qc = QuorumCertificate(
            block_id=block_id, round=round_number, height=height, votes=votes
        )
        self._formed_qcs.add(block_id)
        if self.tracer is not None:
            # Streamlet forms the QC the instant the quorum completes,
            # so collection and formation share a timestamp.
            self.tracer.emit(
                self.context.now, "votes_collected", round=round_number,
                height=height, block=block_id.short(), count=len(votes),
            )
            self.tracer.emit(
                self.context.now, "qc_formed", round=round_number,
                height=height, block=block_id.short(), count=len(votes),
            )
        self._process_qc(qc, self.context.now)
        if (
            self.config.linear_votes
            and self.config.leader_of(round_number + 1) == self.replica_id
        ):
            self.context.multicast(
                QCMsg(sender=self.replica_id, qc=qc), include_self=False
            )

    def _on_qc_msg(self, msg: QCMsg) -> None:
        """Ingest a collector's aggregated-QC broadcast (linear mode)."""
        qc = msg.qc
        if qc.is_genesis():
            return
        if self.config.verify_signatures and not qc.validate(
            self.context.registry, self.config.quorum()
        ):
            self.invalid_messages += 1
            return
        self._formed_qcs.add(qc.block_id)
        self._collected_votes.pop(qc.block_id, None)
        self._vote_block_info.pop(qc.block_id, None)
        self._process_qc(qc, self.context.now)

    def _process_qc(self, qc: QuorumCertificate, now: float) -> None:
        if qc.block_id in self.store:
            if qc.block_id not in self._qcs_processed:
                self._qcs_processed.add(qc.block_id)
                self.store.record_qc(qc)
                if self.wal is not None:
                    # Streamlet has no qc_high; persist the highest
                    # certified QC as the restart catch-up anchor, and
                    # the longest certified chain height as the voting
                    # floor a reborn instance must respect.
                    self.wal.record_qc_high(qc)
                    self.wal.record_certified_height(
                        self.store.certified_chain_height()
                    )
                tracer = self.tracer
                if tracer is None:
                    self._on_new_certification(qc, now)
                else:
                    tracer.emit(
                        now, "qc", round=qc.round, height=qc.height,
                        block=qc.block_id.short(), count=len(qc.votes),
                    )
                    commits_before = len(self.commit_tracker.commit_order)
                    self._on_new_certification(qc, now)
                    for event in self.commit_tracker.commit_order[commits_before:]:
                        tracer.emit(
                            now, "commit", round=event.round,
                            height=event.height, block=event.block_id.short(),
                        )
        else:
            self._pending_qcs.setdefault(qc.block_id, qc)
            if self.sync is not None and not qc.is_genesis():
                self.sync.note_missing(qc.block_id)

    # ------------------------------------------------------------------
    # checkpoint truncation
    # ------------------------------------------------------------------

    def _on_truncated(self, pruned) -> None:
        super()._on_truncated(pruned)
        for block_id in pruned:
            self._collected_votes.pop(block_id, None)
            self._vote_block_info.pop(block_id, None)
            self._formed_qcs.discard(block_id)
            self._qcs_processed.discard(block_id)
            self._pending_qcs.pop(block_id, None)
            self._orphan_proposals.pop(block_id, None)
            self._seen_message_keys.discard(("proposal", block_id))
            self._seen_message_keys.discard(("qc", block_id))
        self._seen_message_keys = {
            key
            for key in self._seen_message_keys
            if not (key[0] == "vote" and key[1] in pruned)
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def committed_blocks(self) -> list:
        return list(self.commit_tracker.commit_order)

    def committed_tx_count(self) -> int:
        total = 0
        for event in self.commit_tracker.commit_order:
            block = self.store.maybe_get(event.block_id)
            if block is not None:
                total += block.payload.tx_count()
        return total
