"""The SFT-Streamlet replica (Figure 11).

Differences from SFT-DiemBFT (Appendix D):

* the marker records the largest **height** (not round) of any voted
  conflicting block;
* endorsement is parameterized: a strong-vote for ``B'``
  *k-endorses* ``B`` iff ``B = B'`` or (``B'`` extends ``B`` and
  ``marker < k``);
* the strong commit rule ``x``-strong commits the height-``k`` middle
  block of a consecutive-round 3-chain when all three blocks have at
  least ``x + f + 1`` ``k``-endorsers.

Because every replica observes every vote (all-to-all + echo),
observers feed raw strong-votes into the endorsement tracker as they
arrive, and strong-commit strength is re-evaluated after each local QC
ingestion (``k``-endorser counts have no fixed threshold to listen on).

Appendix D.4's observation — reverting an SFT-Streamlet strong commit
requires the adversary to *sustain* corruption for about ``h`` rounds
to regrow a competitive certified chain, versus a single round in
SFT-DiemBFT — is exercised by benchmark E8 and the adversarial tests.

Block-sync (``sync_enabled``) is inherited from the Streamlet base;
synced blocks re-enter ``_handle_inserted_blocks`` so their embedded
strong-QCs reach the endorsement tracker like live ones.
"""

from __future__ import annotations

from repro.core.commit_rules import CommitTracker
from repro.core.endorsement import EndorsementTracker
from repro.core.strong_vote import VotingHistory
from repro.protocols.base import ReplicaContext
from repro.protocols.streamlet.replica import StreamletConfig, StreamletReplica
from repro.types.block import Block
from repro.types.quorum_cert import QuorumCertificate
from repro.types.vote import StrongVote


class SFTStreamletReplica(StreamletReplica):
    """Streamlet with height-marker strong-votes and k-endorsements."""

    def __init__(self, config: StreamletConfig, context: ReplicaContext) -> None:
        self.endorsement: EndorsementTracker | None = None
        super().__init__(config, context)
        self.voting_history = VotingHistory(self.store, mode="height")

    def _make_commit_tracker(self) -> CommitTracker:
        if self.config.observer:
            self.endorsement = EndorsementTracker(
                self.store,
                mode="height",
                naive=self.config.naive_accounting,
            )
        return CommitTracker(
            self.store,
            self.config.f,
            rule="streamlet",
            endorsement=self.endorsement,
        )

    def _make_vote(self, block: Block) -> StrongVote:
        if self.config.generalized_intervals:
            intervals = self.voting_history.intervals_for(
                block, window=self.config.interval_window
            ).pairs()
        else:
            intervals = ()
        vote = StrongVote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=self.replica_id,
            marker=self.voting_history.marker_for(block),
            intervals=intervals,
        )
        return self._sign_vote(vote)

    def _after_vote(self, block: Block) -> None:
        self.voting_history.record_vote(block)
        if self.wal is not None:
            # fsync the voted-tip set alongside the vote itself: the
            # height-marker computation after a restart depends on it.
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

    def _ingest_vote_for_endorsement(self, vote, now: float) -> None:
        if self.endorsement is not None:
            self.endorsement.add_vote(vote, now)
            # k-endorser counts changed; re-check registered 3-chains.
            self.commit_tracker.evaluate_strong_commits(now)

    def _on_new_certification(self, qc: QuorumCertificate, now: float) -> None:
        if self.endorsement is not None:
            self.endorsement.add_strong_qc(qc, now)
        self.commit_tracker.on_new_qc(qc, now)
        if self.endorsement is not None:
            self.commit_tracker.evaluate_strong_commits(now)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def strength_of(self, block_id) -> int:
        return self.commit_tracker.strength_of(block_id)
