"""Real-network runtime: transport round-trips and the sim-vs-TCP oracle.

The headline test runs one :class:`ScenarioSpec` under both tiers —
the deterministic simulator and a real 4-process asyncio TCP cluster —
and requires the committed chains to be literally identical on the
common prefix.  Block ids are content hashes over deterministic fields
only, so the simulator acts as a full correctness oracle for the
networked runtime, not just a statistical reference.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.experiments.spec import load_scenario, spec_to_mapping
from repro.rt_net.clients import ClientFleet
from repro.rt_net.differential import common_prefix_len, run_differential
from repro.rt_net.manager import (
    RuntimeManager,
    _free_ports,
    unsupported_features,
)
from repro.rt_net.replica_proc import ReplicaHost
from repro.rt_net.transport import TcpTransport, WallClock
from repro.types.block import Block
from repro.types.messages import ClientReplyMsg, ClientRequestMsg
from repro.types.quorum_cert import QuorumCertificate
from repro.types.transaction import Payload, Transaction
from repro.types.vote import Vote

SCENARIO = "scenarios/rt_smoke.toml"


class TestWallClock:
    def test_now_advances_and_timers_fire(self):
        async def scenario():
            clock = WallClock(asyncio.get_event_loop())
            fired = []
            clock.set_timer(0.01, fired.append, "a")
            handle = clock.set_timer(0.01, fired.append, "b")
            clock.cancel_timer(handle)
            before = clock.now
            await asyncio.sleep(0.05)
            assert clock.now > before
            return fired

        assert asyncio.run(scenario()) == ["a"]


class TestTcpTransport:
    def test_peer_roundtrip_and_multicast(self):
        async def scenario():
            host = "127.0.0.1"
            ports = _free_ports(2, host)
            peers = {rid: (host, port) for rid, port in enumerate(ports)}
            inboxes = {0: [], 1: []}
            transports = [
                TcpTransport(
                    rid, peers,
                    on_message=lambda src, msg, rid=rid: inboxes[rid].append(
                        (src, msg)
                    ),
                )
                for rid in (0, 1)
            ]
            for transport in transports:
                await transport.start()
            try:
                message = ClientReplyMsg(sender=0, height=3, round=7)
                transports[0].send(0, 1, message)
                transports[1].multicast(1, message, include_self=True)
                deadline = asyncio.get_event_loop().time() + 5.0
                while (
                    (not inboxes[1] or len(inboxes[0]) < 1
                     or len(inboxes[1]) < 2)
                    and asyncio.get_event_loop().time() < deadline
                ):
                    await asyncio.sleep(0.01)
            finally:
                for transport in transports:
                    await transport.stop()
            return inboxes, message

        inboxes, message = asyncio.run(scenario())
        # 0 → 1 point-to-point, then 1's multicast reaching 0 and itself.
        assert (0, message) in inboxes[1]
        assert (1, message) in inboxes[0]
        assert (1, message) in inboxes[1]

    def test_queued_send_survives_late_listener(self):
        """Sends enqueued before the peer listens arrive after it does."""

        async def scenario():
            host = "127.0.0.1"
            ports = _free_ports(2, host)
            peers = {rid: (host, port) for rid, port in enumerate(ports)}
            received = []
            sender = TcpTransport(0, peers, on_message=lambda *a: None)
            await sender.start()
            message = ClientReplyMsg(sender=0, height=1, round=1)
            sender.send(0, 1, message)  # nobody listening yet
            await asyncio.sleep(0.2)
            receiver = TcpTransport(
                1, peers,
                on_message=lambda src, msg: received.append((src, msg)),
            )
            await receiver.start()
            deadline = asyncio.get_event_loop().time() + 5.0
            while not received and asyncio.get_event_loop().time() < deadline:
                await asyncio.sleep(0.01)
            await sender.stop()
            await receiver.stop()
            return received, message

        received, message = asyncio.run(scenario())
        assert received == [(0, message)]


class TestReplicaHostReplies:
    """Commit replies are event-driven: one loop pass after the commit."""

    @pytest.fixture
    def host(self, tmp_path):
        spec = load_scenario(SCENARIO)
        config = {
            "spec": spec_to_mapping(spec),
            "epoch": time.time(),
            "ports": {rid: 1 for rid in range(spec.n)},  # never opened
            "result_path": str(tmp_path / "result.json"),
        }
        host = ReplicaHost(config, 0)
        yield host
        host.loop.close()
        asyncio.set_event_loop(None)

    @staticmethod
    def _one_pass(loop) -> None:
        loop.call_soon(loop.stop)
        loop.run_forever()

    @staticmethod
    def _timers(loop) -> list:
        return [handle for handle in loop._scheduled if not handle.cancelled()]

    def _commit_chain(self, host, transaction):
        """Certify a 3-chain whose head carries ``transaction``."""
        store = host.replica.store
        quorum = host.replica.config.quorum()
        parent = store.root_block()
        blocks = []
        for round_number in (1, 2, 3):
            carried = () if blocks else (transaction,)
            block = Block(
                parent_id=parent.id(), qc=store.qc_for(parent.id()),
                round=round_number, height=parent.height + 1,
                proposer=0, payload=Payload(transactions=carried),
            )
            store.add_block(block)
            votes = tuple(
                Vote(block_id=block.id(), block_round=round_number,
                     height=block.height, voter=voter)
                for voter in range(quorum)
            )
            qc = QuorumCertificate(block_id=block.id(), round=round_number,
                                   height=block.height, votes=votes)
            store.record_qc(qc)
            blocks.append(block)
            parent = block
        return blocks, host.replica.commit_tracker.on_new_qc(qc, now=1.0)

    def test_routed_tx_gets_one_reply_after_one_loop_pass(self, host):
        sent = []
        host.transport.send_to_client = lambda cid, msg: sent.append((cid, msg))
        transaction = Transaction(client_id=7, sequence=1, payload=b"k=v")
        request = ClientRequestMsg(sender=7, transaction=transaction)
        host._on_client_message(7, request)
        assert host.mempool.pending_count() == 1
        assert self._timers(host.loop) == []

        blocks, newly = self._commit_chain(host, transaction)
        assert blocks[0].id() in [event.block_id for event in newly]
        assert sent == []  # nothing leaves from inside the commit path

        self._one_pass(host.loop)
        assert len(sent) == 1
        client_id, reply = sent[0]
        assert client_id == 7 and reply.txid == transaction.txid()
        assert reply.block_id == blocks[0].id() and reply.sender == 0
        assert host.replies_sent == 1
        assert host.mempool.pending_count() == 0
        assert host.committed[-1][2] == blocks[0].id().hex()

        # No periodic timer: an idle pass sends nothing, schedules nothing.
        self._one_pass(host.loop)
        assert len(sent) == 1
        assert self._timers(host.loop) == []


class TestRuntimeManager:
    def test_rejects_faulty_specs(self):
        faulty = load_scenario(SCENARIO).with_overrides(**{"faults.crash": 1})
        assert unsupported_features(faulty)
        with pytest.raises(ValueError):
            RuntimeManager(faulty)


class TestDifferential:
    """One spec, both tiers, identical committed chains."""

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        spec = load_scenario(SCENARIO)
        return run_differential(
            spec,
            tcp_duration=3.0,
            workdir=tmp_path_factory.mktemp("rt-diff"),
        )

    def test_chains_identical_on_common_prefix(self, result):
        assert result.ok(), result.problems()
        reference = result.tcp_reference()
        agreed = common_prefix_len(result.sim, reference)
        assert agreed == min(len(result.sim), len(reference))
        assert agreed >= 10, "prefix too short to be meaningful"

    def test_every_tcp_replica_committed(self, result):
        assert result.report.min_commits() >= 1
        assert result.report.chains_agree()


class TestClientFleet:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        spec = load_scenario(SCENARIO)
        manager = RuntimeManager(spec, workdir=tmp_path_factory.mktemp("rt-run"))
        try:
            manager.start()
            manager.wait_ready()
            fleet = ClientFleet(
                manager.endpoints(),
                f=spec.to_experiment_config(manager.seed).resolved_f(),
                num_clients=2,
                seed=manager.seed,
            )
            asyncio.run(fleet.run(2.0))
            report = manager.stop()
        finally:
            manager.cleanup()
        return fleet, report

    def test_requests_acknowledged_at_f_plus_1(self, run):
        fleet, report = run
        assert fleet.total_submitted() > 0
        assert fleet.total_acked() > 0
        assert report.total_replies() >= fleet.total_acked()
        assert report.chains_agree()

    def test_replicas_shut_down_cleanly(self, run):
        """SIGTERM stops the transport before the loop: no task is left
        pending and nothing touches the closed loop."""
        _fleet, report = run
        assert len(report.log_paths) == report.spec.n
        for replica_id, path in report.log_paths.items():
            log = path.read_text()
            assert "stopped with" in log, (replica_id, log)
            for marker in ("Traceback", "Task was destroyed"):
                assert marker not in log, (replica_id, log)
