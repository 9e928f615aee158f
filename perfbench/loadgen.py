"""Open-loop KV load generator for the TCP tier.

One asyncio thread opens one connection to each of ``f + 1`` replicas
(two at n=4, no more than the host's CPU count), sends every
transaction of a seeded Poisson schedule to all of them, and multiplexes the
``ClientReplyMsg`` stream by txid.  A transaction is acknowledged once
``f + 1`` distinct replicas report the same ``(txid, block_id)``.

Latency is timed from each transaction's *due* time, not from when the
generator got round to sending it, so a stall delays every later
request's clock too; how late the generator itself ran is reported
separately.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.app.kvstore import KVCommand
from repro.rt_net.codec import CodecError, FrameDecoder, encode_frame
from repro.types.messages import ClientReplyMsg, ClientRequestMsg

#: Client id announced in the hello frame; replicas route replies by it.
CLIENT_ID = 1
_KEY_SPACE = 256


def poisson_schedule(rng: random.Random, rate: float, window: float) -> list:
    """Due offsets (seconds from load start) of a Poisson arrival process."""
    due, t = [], rng.expovariate(rate)
    while t < window:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def kv_command(rng: random.Random, sequence: int, payload_bytes: int = 64):
    """The same set/transfer/del mix the simulator-tier workload sends."""
    roll = rng.random()
    key = f"k{rng.randrange(_KEY_SPACE)}"
    if roll < 0.85:
        pad = "x" * max(0, payload_bytes - len(key) - 12)
        return KVCommand(op="set", key=key, value=f"{sequence}:{pad}")
    if roll < 0.95:
        other = f"k{rng.randrange(_KEY_SPACE)}"
        return KVCommand(op="transfer", key=key, key2=other, amount=1)
    return KVCommand(op="del", key=key)


class TxRecord:
    __slots__ = ("sequence", "due", "sent", "acked", "block_hex", "reporters")

    def __init__(self, sequence: int, due: float) -> None:
        self.sequence = sequence
        self.due = due
        self.sent = None
        self.acked = None
        self.block_hex = None
        #: block_id hex -> replica ids that reported the tx in that block.
        self.reporters: dict = {}


class OpenLoopClient:
    """Sends a fixed schedule to ``endpoints`` and records the acks."""

    def __init__(self, endpoints: dict, f: int, rate: float, window: float,
                 seed: int, sequence_base: int = 0) -> None:
        self.endpoints = dict(endpoints)
        self.f = f
        rng = random.Random(f"perfbench-tcp:{seed}:{sequence_base}")
        self.schedule = []
        for offset, due in enumerate(poisson_schedule(rng, rate, window)):
            sequence = sequence_base + offset
            transaction = kv_command(rng, sequence).to_transaction(
                client_id=CLIENT_ID, sequence=sequence
            )
            self.schedule.append((due, transaction))
        self.records: dict = {}
        self._writers: dict = {}
        self._readers: list = []
        self._start = 0.0
        #: ``time.time()`` when the schedule started (due offset 0).
        self.wall_start = 0.0

    async def connect(self) -> None:
        hello = encode_frame({"kind": "client", "id": CLIENT_ID})
        for replica_id, (host, port) in sorted(self.endpoints.items()):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(hello)
            await writer.drain()
            self._writers[replica_id] = writer
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def run(self, drain: float) -> None:
        """Send the schedule, then wait up to ``drain`` s for late acks."""
        loop = asyncio.get_running_loop()
        frames = [
            (due, transaction.sequence, transaction.txid(),
             encode_frame(ClientRequestMsg(sender=CLIENT_ID,
                                           transaction=transaction)))
            for due, transaction in self.schedule
        ]
        self._start = loop.time()
        self.wall_start = time.time()
        for due, sequence, txid, frame in frames:
            delay = self._start + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            record = TxRecord(sequence, due)
            self.records[txid] = record
            for writer in self._writers.values():
                writer.write(frame)
            record.sent = loop.time() - self._start
        deadline = loop.time() + drain
        while loop.time() < deadline and any(
            record.acked is None for record in self.records.values()
        ):
            await asyncio.sleep(0.02)

    async def close(self) -> None:
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for writer in self._writers.values():
            writer.close()
        for writer in self._writers.values():
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read(self, reader) -> None:
        loop = asyncio.get_running_loop()
        decoder = FrameDecoder()
        while True:
            data = await reader.read(65536)
            if not data:
                return
            try:
                messages = decoder.feed(data)
            except CodecError:
                return
            for message in messages:
                if isinstance(message, ClientReplyMsg):
                    self._on_reply(message, loop.time() - self._start)

    def _on_reply(self, reply, now: float) -> None:
        record = self.records.get(reply.txid)
        if record is None:
            return
        block_hex = reply.block_id.hex()
        group = record.reporters.setdefault(block_hex, set())
        group.add(reply.sender)
        if record.acked is None and len(group) >= self.f + 1:
            record.acked = now
            record.block_hex = block_hex

    def lateness(self) -> list:
        """Seconds each send ran behind its due time."""
        return [
            record.sent - record.due
            for record in self.records.values() if record.sent is not None
        ]
