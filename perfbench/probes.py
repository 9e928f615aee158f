"""Spans and counters recorded from outside the program.

Every probe wraps one public function or method of a ``repro`` layer:
a *span* probe records ``(name, start, end, parent)`` for each call and
counts it; a *count* probe only counts.  Spans live in flat arrays in
memory and are turned into self times (a span's duration minus the
time its direct children cover) and a Chrome trace only when the run
ends.  Wrappers are installed before a cluster is built, so bound
methods captured during construction are the wrapped ones, and are
removed again afterwards; nothing under ``src/`` is edited.

The same probe set runs in the simulator process and, through
``perfbench/rt_probe/sitecustomize.py``, inside every TCP replica
process; ``repro`` is imported only when probes are installed, so the
start-up hook of an untraced replica loads nothing extra.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: The span whose summed self time each per-layer time metric reports.
SELF_TIME_METRICS = {
    "core.add_vote_s": "core.add_vote",
    "core.commit_rules_s": "core.commit_rules",
    "crypto.hash_s": "crypto.hash",
    "crypto.verify_s": "crypto.verify",
    "types.txid_s": "types.txid",
    "runtime.mempool_remove_s": "runtime.mempool_remove",
    "runtime.make_payload_s": "runtime.make_payload",
    "obs.flight_s": "obs.flight",
    "net.run_self_s": "net",
    "protocols.deliver_s": "protocols.deliver",
    "analysis.collect_s": "analysis.collect",
    "analysis.invariants_s": "analysis.invariants",
    "app.execute_s": "app.execute",
    "rt_net.encode_s": "rt_net.encode",
    "rt_net.decode_s": "rt_net.decode",
}


class Recorder:
    """Flat span arrays plus exact counters for one process."""

    def __init__(self, spans: bool = True) -> None:
        self.spans = spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        #: block id -> perf_counter time of its local commit (TCP only).
        self.commit_wall: dict = {}
        self.reply_delays: list[float] = []

    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def span_wrapper(self, name: str, fn, counter: str | None = None):
        """``fn`` wrapped to record one span (and count) per call."""
        counts = self.counts
        key = counter or name
        if not self.spans:
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        name_id = self.name_id(name)
        names, parents = self.span_name, self.parent
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            counts[key] += 1
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return spanned

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def dump(self) -> dict:
        """Plain-data form (what a replica process writes at exit)."""
        return {
            "names": list(self.names),
            "span_name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
            "reply_delays": list(self.reply_delays),
        }


def self_times(dump: dict) -> dict:
    """Self time per span name: duration minus direct children's time."""
    names, parents = dump["span_name"], dump["parent"]
    starts, ends = dump["start"], dump["end"]
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    totals = [0.0] * len(dump["names"])
    for index, name_id in enumerate(names):
        totals[name_id] += durations[index] - covered[index]
    return dict(zip(dump["names"], totals))


# ----------------------------------------------------------------------
# installing the probes
# ----------------------------------------------------------------------


class Patcher:
    """Replaces attributes and puts every original back on ``undo``."""

    def __init__(self) -> None:
        self._saved: list = []

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def function(self, module, name: str, make_wrapper,
                 skip_modules: tuple = ()) -> None:
        """Wrap a module function in every ``repro`` module that bound it.

        ``from x import f`` copies the reference, so each importing
        module's binding is replaced too.  ``skip_modules`` keeps the
        original in the named modules (e.g. a function's own module,
        when its internal calls must not count twice).
        """
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for module_name, loaded in list(sys.modules.items()):
            if loaded is None or not module_name.startswith("repro"):
                continue
            if module_name in skip_modules:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._saved.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def install(recorder: Recorder, patcher: Patcher, tcp: bool = False) -> None:
    """Wrap the public entry points of every layer.

    Span probes (timed): ``EndorsementTracker.add_vote`` and the
    listeners registered through ``add_listener`` plus
    ``CommitTracker.on_new_qc``/``evaluate_strong_commits`` (core);
    ``hash_fields``/``hash_bytes`` and ``KeyRegistry.verify*``
    (crypto); ``Transaction.txid`` (types); ``Mempool.make_payload`` /
    ``remove_committed`` (runtime);
    ``Tracer.emit`` (obs); ``Simulator.run_until`` and
    ``Network.send``/``multicast`` (net); ``BaseReplica.deliver``
    (protocols); ``collect_job_metrics`` and
    ``check_cluster_invariants`` (analysis); ``LedgerExecutor.sync``
    (app); ``encode_message``/``decode_message`` (rt_net, TCP only).
    """
    import repro.analysis.invariants as invariants
    import repro.crypto.hashing as hashing
    import repro.experiments.runner as runner
    from repro.app.kvstore import LedgerExecutor
    from repro.core.commit_rules import CommitTracker
    from repro.core.endorsement import EndorsementTracker
    from repro.core.resilience import StrengthTimeline
    from repro.crypto.registry import KeyRegistry
    from repro.crypto.signatures import SigningKey, VerifyingKey
    from repro.net.network import Network
    from repro.net.simulator import Simulator
    from repro.obs.trace import Tracer
    from repro.protocols.base import BaseReplica
    from repro.runtime.client import Mempool
    from repro.types.block import Block
    from repro.types.transaction import Transaction

    span = recorder.span_wrapper
    counts = recorder.counts

    def spans(name, counter=None):
        return lambda fn: span(name, fn, counter)

    # core
    patcher.method(EndorsementTracker, "add_vote", spans("core.add_vote"))
    for method in ("on_new_qc", "evaluate_strong_commits"):
        patcher.method(CommitTracker, method, spans("core.commit_rules"))

    def listener_hook(add_listener):
        def traced_add_listener(self, listener):
            return add_listener(self, span("core.commit_rules", listener,
                                           "core.listener_calls"))
        return traced_add_listener
    patcher.method(EndorsementTracker, "add_listener", listener_hook)

    def raise_hook(raise_to):
        def counted_raise(self, level, now):
            raised = raise_to(self, level, now)
            if raised:
                counts["core.strength_raises"] += 1
            return raised
        return counted_raise
    patcher.method(StrengthTimeline, "raise_to", raise_hook)

    # crypto: hash_fields hashes through hash_bytes, so its own module
    # keeps the unwrapped hash_bytes and each digest counts once.
    patcher.function(hashing, "hash_fields", spans("crypto.hash", "crypto.hash_calls"))
    patcher.function(hashing, "hash_bytes", spans("crypto.hash", "crypto.hash_calls"),
                     skip_modules=("repro.crypto.hashing",))
    patcher.method(KeyRegistry, "verify", spans("crypto.verify", "crypto.verify_calls"))
    patcher.method(KeyRegistry, "verify_quorum", spans("crypto.verify", "crypto.quorum_calls"))

    def qc_hook(verify_qc_votes):
        traced = span("crypto.verify", verify_qc_votes, "crypto.qc_calls")

        def verify_votes(self, votes, quorum):
            counts["crypto.verify_calls"] += len(votes)
            return traced(self, votes, quorum)
        return verify_votes
    patcher.method(KeyRegistry, "verify_qc_votes", qc_hook)
    # A memo miss is the only path that computes an HMAC.
    for method in ("verify", "expected_mac"):
        patcher.method(VerifyingKey, method,
                       lambda fn: recorder.count_wrapper("crypto.hmac_checks", fn))
    patcher.method(SigningKey, "sign",
                   lambda fn: recorder.count_wrapper("crypto.sign_calls", fn))

    # types
    patcher.method(Transaction, "txid", spans("types.txid", "types.txid_calls"))
    patcher.method(Block, "id", lambda fn: recorder.count_wrapper("types.block_id_calls", fn))

    # runtime
    patcher.method(Mempool, "make_payload", spans("runtime.make_payload"))
    patcher.method(Mempool, "remove_committed", spans("runtime.mempool_remove"))

    # obs, net, protocols
    patcher.method(Tracer, "emit", spans("obs.flight"))
    patcher.method(Simulator, "run_until", spans("net"))
    patcher.method(Network, "send", spans("net"))
    patcher.method(Network, "multicast", spans("net"))
    patcher.method(BaseReplica, "deliver", spans("protocols.deliver"))

    # analysis, app
    patcher.function(runner, "collect_job_metrics", spans("analysis.collect"))
    patcher.function(invariants, "check_cluster_invariants", spans("analysis.invariants"))
    patcher.method(LedgerExecutor, "sync", spans("app.execute"))
    patcher.method(LedgerExecutor, "sync_next", spans("app.execute"))

    if tcp:
        _install_rt_net(recorder, patcher, CommitTracker)


def _install_rt_net(recorder: Recorder, patcher: Patcher, CommitTracker) -> None:
    import repro.rt_net.codec as codec
    from repro.rt_net.transport import TcpTransport
    from repro.types.messages import ClientReplyMsg

    counts = recorder.counts
    commit_wall = recorder.commit_wall
    clock = time.perf_counter

    def encode_hook(encode_message):
        traced = recorder.span_wrapper("rt_net.encode", encode_message,
                                       "rt_net.encode_calls")

        def encode(message):
            body = traced(message)
            counts["rt_net.bytes"] += len(body) + 4
            return body
        return encode
    patcher.function(codec, "encode_message", encode_hook)
    patcher.function(codec, "decode_message",
                     lambda fn: recorder.span_wrapper("rt_net.decode", fn,
                                                      "rt_net.decode_calls"))

    def commit_hook(on_new_qc):
        def on_new_qc_timed(self, qc, now):
            events = on_new_qc(self, qc, now)
            if events:
                stamp = clock()
                for event in events:
                    commit_wall.setdefault(event.block_id, stamp)
            return events
        return on_new_qc_timed
    patcher.method(CommitTracker, "on_new_qc", commit_hook)

    def reply_hook(send_to_client):
        def send_reply(self, client_id, message):
            if isinstance(message, ClientReplyMsg):
                committed = commit_wall.get(message.block_id)
                if committed is not None:
                    recorder.reply_delays.append(clock() - committed)
            return send_to_client(self, client_id, message)
        return send_reply
    patcher.method(TcpTransport, "send_to_client", reply_hook)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------

#: Spans written to the trace file per run.  Self times always use the
#: full in-memory record; the file keeps the earliest spans (a prefix in
#: start order, so every written span's parent is written too).
TRACE_FILE_SPANS = 100_000


def chrome_trace(dumps: dict) -> dict:
    """``{pid: dump}`` as Chrome trace-event JSON (``X`` spans)."""
    origin = min(
        (dump["start"][0] for dump in dumps.values() if dump["start"]),
        default=0.0,
    )
    events = []
    total = sum(len(dump["start"]) for dump in dumps.values())
    budget = TRACE_FILE_SPANS
    for pid, dump in sorted(dumps.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"process {pid}"}})
        names = dump["names"]
        keep = min(budget, len(dump["start"]))
        budget -= keep
        for index in range(keep):
            name = names[dump["span_name"][index]]
            start = dump["start"][index]
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((dump["end"][index] - start) * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {"id": index, "parent": dump["parent"][index]},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans_recorded": total,
                      "spans_written": min(total, TRACE_FILE_SPANS)},
    }


def write_trace(dumps: dict, path) -> None:
    """Write and schema-check the Chrome trace of one traced run."""
    from repro.obs import validate_chrome_trace

    trace = chrome_trace(dumps)
    problems = validate_chrome_trace(trace)
    if problems:
        raise ValueError(f"invalid Chrome trace: {problems[:5]}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace, separators=(",", ":")))
