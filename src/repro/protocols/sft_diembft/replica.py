"""The SFT-DiemBFT replica (Figure 4, plus the Section 3.4 extension).

Changes relative to plain DiemBFT, exactly the paper's list:

* **Local state** — per fork, the highest voted block
  (:class:`~repro.core.strong_vote.VotingHistory` maintains the voted
  tips).
* **Strong-vote / strong-QC** — votes carry a ``marker`` (or, in
  generalized mode, the interval set ``I``); QCs therefore aggregate
  strong-votes.
* **Endorsements** — tracked incrementally by
  :class:`~repro.core.endorsement.EndorsementTracker` as strong-QCs
  are learned from proposals, vote aggregation, and timeout messages.
* **Strong commit rule** — the strong 3-chain rule, evaluated by the
  shared :class:`~repro.core.commit_rules.CommitTracker`.

Endorsement bookkeeping is metrics-plumbing only: messages and votes
do not depend on it, so non-observer replicas skip it (``observer``
flag) without changing the protocol — this mirrors the paper's remark
that SFT adds only "marginal bookkeeping overhead".

For light clients (Section 5), observer leaders embed a commit log of
strong-commit level updates in their proposals; see
:mod:`repro.lightclient.proofs`.

Block-sync (``sync_enabled``) is inherited from the DiemBFT base:
synced ancestor chains enter through ``_handle_inserted_blocks``, so
their embedded strong-QCs feed the endorsement tracker exactly as
live-delivered ones do.
"""

from __future__ import annotations

from repro.core.commit_rules import CommitTracker
from repro.core.endorsement import EndorsementTracker
from repro.core.strong_vote import VotingHistory
from repro.protocols.base import ReplicaConfig, ReplicaContext
from repro.protocols.diembft.replica import DiemBFTReplica
from repro.types.block import Block
from repro.types.quorum_cert import QuorumCertificate
from repro.types.vote import StrongVote


class SFTDiemBFTReplica(DiemBFTReplica):
    """DiemBFT with strong-votes, endorsements, and strong commits."""

    def __init__(self, config: ReplicaConfig, context: ReplicaContext) -> None:
        self.endorsement: EndorsementTracker | None = None
        super().__init__(config, context)
        self.voting_history = VotingHistory(self.store, mode="round")
        self._commit_log_cursor = 0

    # ------------------------------------------------------------------
    # construction hooks
    # ------------------------------------------------------------------

    def _make_commit_tracker(self) -> CommitTracker:
        if self.config.observer:
            self.endorsement = EndorsementTracker(
                self.store,
                mode="round",
                naive=self.config.naive_accounting,
            )
        return CommitTracker(
            self.store,
            self.config.f,
            rule="diembft",
            endorsement=self.endorsement,
        )

    def _make_vote(self, block: Block) -> StrongVote:
        """Strong-vote: marker (or interval set) from the voting history."""
        if self.config.generalized_intervals:
            intervals = self.voting_history.intervals_for(
                block, window=self.config.interval_window
            ).pairs()
            marker = self.voting_history.marker_for(block)
        else:
            intervals = ()
            marker = self.voting_history.marker_for(block)
        vote = StrongVote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=self.replica_id,
            marker=marker,
            intervals=intervals,
        )
        return self._sign_vote(vote)

    def _after_vote(self, block: Block) -> None:
        self.voting_history.record_vote(block)
        if self.wal is not None:
            # fsync the voted-tip set alongside the vote itself: the
            # marker computation after a restart depends on it.
            self.wal.record_tips(
                self.voting_history.tip_keys(),
                self.voting_history.highest_voted_round,
            )

    def restore_from_wal(self, state) -> None:
        super().restore_from_wal(state)
        self.voting_history.restore(
            state.voted_tips, state.highest_voted_round
        )

    def _on_truncated(self, pruned) -> None:
        super()._on_truncated(pruned)
        self.voting_history.forget_pruned(pruned)
        if self.endorsement is not None:
            self.endorsement.forget_pruned(pruned)

    def _on_new_certification(self, qc: QuorumCertificate, now: float) -> None:
        # Feed endorsements before the commit check so that a 3-chain
        # completed by this QC is immediately evaluated with fresh counts.
        if self.endorsement is not None:
            self.endorsement.add_strong_qc(qc, now)
        self.commit_tracker.on_new_qc(qc, now)

    # ------------------------------------------------------------------
    # light-client commit log (Section 5)
    # ------------------------------------------------------------------

    def _proposal_commit_log(self) -> tuple:
        """Strong-commit updates since this replica's last proposal."""
        if self.endorsement is None:
            return ()
        events = self.commit_tracker.strong_events
        entries = tuple(
            (event.block_id.value, event.level)
            for event in events[self._commit_log_cursor:]
        )
        self._commit_log_cursor = len(events)
        return entries

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def strength_of(self, block_id) -> int:
        return self.commit_tracker.strength_of(block_id)

    def endorser_count(self, block_id) -> int:
        if self.endorsement is None:
            return 0
        return self.endorsement.count(block_id)
