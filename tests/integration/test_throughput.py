"""Throughput pipeline end-to-end: batching, pipelining, linear votes.

Covers the full transaction path (KV workload → mempools → batched
proposals → commit feedback), the pipelined drain discipline's
duplicate suppression, the O(n²) → O(n) vote-traffic change under
linear vote collection, determinism across worker counts with every
new flag on, and — the other direction — that with every flag off the
committed campaign and bench baselines replay byte-identically.
"""

import json
import multiprocessing
from pathlib import Path

from repro.experiments import Campaign, CampaignRunner, FaultMix, ScenarioSpec, run_job
from repro.experiments.campaign import Job

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS_DIR = ROOT / "scenarios"


def _workload_spec(**overrides):
    defaults = dict(
        name="tput",
        protocol="sft-diembft",
        n=4,
        topology="uniform",
        uniform_delay=0.01,
        jitter=0.002,
        duration=4.0,
        round_timeout=0.5,
        seeds=(1,),
        workload_rate=500.0,
        workload_payload_bytes=64,
        batch_size=64,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _run(spec):
    return run_job(Job(job_id=f"t/{spec.name}", spec=spec, seed=spec.seeds[0]))


class TestBatchedWorkload:
    def test_workload_commits_real_transactions(self):
        entry = _run(_workload_spec())
        metrics = entry["metrics"]
        txs = metrics["txs"]
        assert txs["submitted"] > 0
        assert 0 < txs["committed_unique"] <= txs["submitted"]
        assert txs["per_sec"] > 0
        assert txs["e2e_p50_s"] is not None
        assert txs["e2e_p50_s"] <= txs["e2e_p99_s"]
        assert metrics["regular_latency_p50_s"] <= metrics["regular_latency_p99_s"]
        assert metrics["invariants"]["ok"]

    def test_batch_size_caps_block_payloads(self):
        # A tiny batch cap under a fast workload forces a backlog: no
        # committed block may carry more than batch_size transactions.
        spec = _workload_spec(name="tput-cap", batch_size=8, workload_rate=1000.0)
        cluster = spec.build(spec.seeds[0]).run()
        reference = cluster.correct_replicas()[0]
        sizes = [
            len(reference.store.maybe_get(event.block_id).payload.transactions)
            for event in reference.commit_tracker.commit_order
        ]
        assert max(sizes) == 8

    def test_workload_off_reports_zero_txs(self):
        spec = _workload_spec(name="tput-off", workload_rate=0.0, duration=2.0)
        entry = _run(spec)
        txs = entry["metrics"]["txs"]
        assert txs == {
            "submitted": 0,
            "committed_unique": 0,
            "duplicates": 0,
            "per_sec": 0.0,
            "e2e_p50_s": None,
            "e2e_p99_s": None,
        }


class TestWorkloadAcrossRestart:
    def test_reborn_replica_proposes_txs_routed_to_it(self):
        # Replica 3 crashes at 1.0 s and restarts from its WAL at 1.5 s
        # while the workload keeps routing every fourth tx to it.  The
        # reborn instance must drain a mempool of its own, or none of
        # those txs is ever proposed.
        spec = _workload_spec(
            name="tput-restart", duration=6.0, workload_rate=200.0,
            faults=FaultMix(recover=1, recover_at=1.0, downtime=0.5),
        )
        cluster = spec.build(spec.seeds[0]).run()
        assert cluster.restarts == 1
        reference = cluster.replicas[0]
        routed_after_restart = {
            transaction.txid()
            for event in reference.commit_tracker.commit_order
            for transaction in reference.store.maybe_get(
                event.block_id
            ).payload.transactions
            if transaction.client_id == 3 and transaction.submitted_at > 1.5
        }
        # 200 tx/s over 4.5 s, a quarter of them routed to replica 3.
        assert len(routed_after_restart) > 100


class TestPipelinedProposals:
    def test_pipelining_suppresses_duplicate_proposals(self):
        # Stop-and-wait re-proposes the same front until commit
        # feedback clears it, wasting block space on duplicates;
        # the pipelined drain keeps consecutive proposals disjoint.
        base = _workload_spec(
            name="tput-pipe", workload_rate=1000.0, batch_size=32
        )
        reproposal = _run(base)["metrics"]["txs"]
        pipelined = _run(base.with_overrides(pipelined_proposals=True))[
            "metrics"
        ]["txs"]
        assert reproposal["duplicates"] > pipelined["duplicates"]
        assert pipelined["committed_unique"] > 0


class TestLinearVoteCollection:
    def test_vote_traffic_drops_from_quadratic_to_linear_at_n32(self):
        # Streamlet broadcasts votes (n per voter ⇒ n² per round);
        # linear collection sends each vote to one collector and fans
        # the certificate back out as n QCMsgs ⇒ O(n) per round.
        spec = ScenarioSpec(
            name="linear32",
            protocol="streamlet",
            n=32,
            topology="uniform",
            uniform_delay=0.01,
            streamlet_round_duration=0.1,
            duration=1.2,
            verify_signatures=False,
            seeds=(1,),
        )
        broadcast = _run(spec)["metrics"]
        linear = _run(spec.with_overrides(linear_votes=True))["metrics"]
        assert linear["commits"] == broadcast["commits"] > 0
        votes_linear = linear["messages"]["by_type"]["VoteMsg"]
        votes_broadcast = broadcast["messages"]["by_type"]["VoteMsg"]
        # n=32: broadcast is ~32× linear; leave slack for timeouts.
        assert votes_broadcast > 8 * (
            votes_linear + linear["messages"]["by_type"]["QCMsg"]
        )
        assert "QCMsg" not in broadcast["messages"]["by_type"]


class TestThroughputDeterminism:
    def test_worker_count_invariant_with_all_flags_on(self):
        campaign = Campaign(
            _workload_spec(
                name="tput-det",
                protocol="sft-streamlet",
                n=7,
                duration=3.0,
                pipelined_proposals=True,
                linear_votes=True,
                seeds=(1, 2),
            ),
            matrix={"protocol": ["sft-diembft", "sft-streamlet"]},
        )
        jobs = campaign.expand()
        serial = CampaignRunner(jobs, workers=1, name="t").run()
        workers = min(2, multiprocessing.cpu_count())
        parallel = CampaignRunner(jobs, workers=workers, name="t").run()
        assert json.dumps(
            [entry["metrics"] for entry in serial["jobs"]], sort_keys=True
        ) == json.dumps(
            [entry["metrics"] for entry in parallel["jobs"]], sort_keys=True
        )
        for entry in serial["jobs"]:
            assert entry["metrics"]["txs"]["committed_unique"] > 0


class TestFlagsOffBaselines:
    """Default-off discipline: no flag ⇒ byte-identical replays."""

    def test_smoke_campaign_replays_committed_baseline(self):
        campaign = Campaign.from_file(SCENARIOS_DIR / "smoke.toml")
        report = CampaignRunner(
            campaign.expand(), workers=1, name=campaign.name
        ).run()
        baseline = json.loads(
            (SCENARIOS_DIR / "baselines" / "smoke_campaign.json").read_text()
        )
        assert json.dumps(
            [entry["metrics"] for entry in report["jobs"]], sort_keys=True
        ) == json.dumps(
            [entry["metrics"] for entry in baseline["jobs"]], sort_keys=True
        )

    def test_smoke_bench_cases_match_committed_ci_baseline(self):
        # Deterministic counters (events/commits/messages) of the two
        # cheapest smoke-suite cases must replay the committed CI
        # baseline exactly; wall clocks are hardware-bound and ignored.
        from repro.perf import smoke_suite, suite_jobs

        cases = [
            case
            for case in smoke_suite()
            if case.name in ("happy_n4", "fuzz_smoke_seed7")
        ]
        assert len(cases) == 2
        baseline = json.loads((ROOT / "BENCH_ci_baseline.json").read_text())
        by_name = {entry["name"]: entry for entry in baseline["benchmarks"]}
        for case, job in zip(cases, suite_jobs(cases)):
            entry = run_job(job)
            base = by_name[case.name]
            assert entry["metrics"]["events"] == base["events"], case.name
            assert entry["metrics"]["commits"] == base["commits"], case.name
            assert (
                entry["metrics"]["messages"]["sent"] == base["messages_sent"]
            ), case.name
