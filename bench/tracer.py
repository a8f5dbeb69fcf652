"""Outside-in span tracer for the twinfs layers.

The tracer patches the public functions and methods of each twinfs module,
plus the device core's stencil-refresh and persistence steps, from outside
the program and records one span per call: name, start, end and parent span. A span carries at most a block id and a byte count, never
payload bytes. Spans stay in memory until the run ends; a span's self time is
its duration minus the time its child spans cover.

Hot, cheap lookups (page cache, memo table, block store) get counters instead
of spans, so their time stays with the calling layer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from collections import Counter

FIELDS = ("name", "start_ns", "end_ns", "parent", "block", "bytes")


class Spans:
    """Span records as parallel arrays: name index, start and end ns, parent
    span index, block id and byte count (-1 where absent)."""

    def __init__(self, names=None):
        self.names: list[str] = list(names or [])
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.block = array("q")
        self.nbytes = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def columns(self):
        return (self.name, self.start, self.end, self.parent, self.block, self.nbytes)

    def to_bytes(self, extra: dict | None = None) -> bytes:
        """A JSON header line (fields, names, count), then each column's raw array."""
        header = dict(extra or {}, fields=FIELDS, names=self.names, count=len(self))
        return b"".join([json.dumps(header).encode(), b"\n"] + [c.tobytes() for c in self.columns()])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Spans":
        line_end = raw.index(b"\n")
        header = json.loads(raw[:line_end])
        spans = cls(header["names"])
        offset = line_end + 1
        for column in spans.columns():
            size = column.itemsize * header["count"]
            column.frombytes(raw[offset : offset + size])
            offset += size
        return spans


class Tracer:
    """Records spans (and counters) through patched twinfs functions."""

    def __init__(self):
        self.on = False
        self.spans = Spans()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, fn, name, block_of=None, bytes_of=None):
        """Wrap fn so that each call, while tracing is on, records a span.

        Spans of one process are recorded from one thread at a time.
        """
        tracer = self
        spans = self.spans
        clock = time.perf_counter_ns
        fixed = None if callable(name) else spans.name_id(name)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            index = len(spans.start)
            spans.name.append(fixed if fixed is not None else spans.name_id(name(args)))
            spans.parent.append(stack[-1] if stack else -1)
            spans.block.append(block_of(args) if block_of is not None else -1)
            spans.nbytes.append(-1)
            spans.end.append(0)
            stack.append(index)
            spans.start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans.end[index] = clock()
                stack.pop()
                if bytes_of is not None:
                    spans.nbytes[index] = bytes_of(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, count):
        """Wrap fn so that each call, while tracing is on, updates counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            count(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def summarize(spans: Spans, window=None) -> dict[str, Counter]:
    """Per span name: self seconds, calls and bytes, for spans that start in window.

    Self time is a span's duration minus the time its direct children cover.
    """
    start, end, parent = spans.start, spans.end, spans.parent
    child_ns = [0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    self_ns, calls, nbytes = Counter(), Counter(), Counter()
    lo, hi = window if window is not None else (float("-inf"), float("inf"))
    for i, name in enumerate(spans.name):
        if lo <= start[i] < hi:
            self_ns[name] += end[i] - start[i] - child_ns[i]
            calls[name] += 1
            if spans.nbytes[i] > 0:
                nbytes[name] += spans.nbytes[i]
    names = spans.names
    return {
        "self_s": Counter({names[k]: v / 1e9 for k, v in self_ns.items()}),
        "calls": Counter({names[k]: v for k, v in calls.items()}),
        "bytes": Counter({names[k]: v for k, v in nbytes.items()}),
    }


def _arg_len(i):
    return lambda args, result: len(args[i])


def _result_len(args, result):
    return len(result) if isinstance(result, (bytes, bytearray)) else -1


def _hit(key):
    def count(counts, args, result):
        counts[key + ".calls"] += 1
        if result is not None:
            counts[key + ".hits"] += 1

    return count


def _incr(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


def instrument(tracer: Tracer) -> None:
    """Patch every twinfs layer boundary. Call before the system is built."""
    from twinfs import blockstore, device_core, local_twin, minifs, replica, stencil, transport, wire

    span = tracer.span
    patch = tracer.patch

    dc = device_core.DeviceCore
    for method in ("open", "read", "write", "lseek", "fstat", "fsync", "close", "select_validate"):
        patch(dc, method, lambda f, m=method: span(f, "device_core.api." + m))
    patch(device_core.MetadataGate, "__call__", lambda f: span(f, "device_core.gate"))
    patch(device_core.PageCache, "get", lambda f: tracer.counter(f, _hit("cache")))
    patch(device_core.MemoTable, "get", lambda f: tracer.counter(f, _hit("memo")))

    bs = blockstore.BlockStore
    patch(bs, "read_block", lambda f: tracer.counter(f, _incr("blockstore.reads")))
    patch(bs, "write_block", lambda f: tracer.counter(f, _incr("blockstore.writes")))

    def checkpointed(key):
        def make(f):
            def wrapper(self, cp):
                if tracer.on:
                    tracer.counts["blockstore.checkpoint_blocks"] += len(cp.saved)
                    tracer.counts[key] += 1
                return f(self, cp)

            return wrapper

        return make

    patch(bs, "discard", checkpointed("blockstore.discards"))
    patch(bs, "rollback", checkpointed("blockstore.rollbacks"))

    ch = local_twin.SyncChannel
    patch(ch, "delegate", lambda f: span(f, "local_twin.delegate"))
    patch(ch, "meta_call", lambda f: span(f, "local_twin.meta_call"))
    patch(local_twin.LocalTwin, "execute", lambda f: span(f, "local_twin.execute"))
    acc = local_twin.ChannelAccessor
    patch(acc, "read_meta", lambda f: span(f, "local_twin.accessor", block_of=lambda a: a[1]))
    patch(acc, "write_meta", lambda f: span(f, "local_twin.accessor", block_of=lambda a: a[1]))

    def twin_of(args):
        local = isinstance(args[0].acc, local_twin.ChannelAccessor)
        return "minifs.exec.local" if local else "minifs.exec.replica"

    eng = minifs.Engine
    patch(eng, "exec_fileop", lambda f: span(f, twin_of))
    patch(eng, "free_block_count", lambda f: span(f, "minifs.free_count"))

    def count_local_alloc(counts, args, result):
        if isinstance(args[0].acc, local_twin.ChannelAccessor):
            counts["minifs.allocs"] += 1

    patch(eng, "allocate_block", lambda f: tracer.counter(f, count_local_alloc))

    # The device's post-validation stencil maintenance, in both stencil modes.
    patch(dc, "_refresh_stencils", lambda f: span(f, "stencil.refresh"))
    patch(stencil, "build_stencils", lambda f: span(f, "stencil.build"))
    patch(stencil, "refresh", lambda f: span(f, "stencil.refresh"))
    patch(stencil, "serve_block_read", lambda f: span(f, "stencil.serve", block_of=lambda a: a[1]))
    patch(stencil, "apply_block_write", lambda f: span(f, "stencil.serve", block_of=lambda a: a[1]))
    patch(stencil, "scrub_ranges", lambda f: span(f, "stencil.scrub"))
    patch(stencil, "exclude_range", lambda f: span(f, "stencil.other", block_of=lambda a: a[1]))
    patch(stencil, "metadata_digest", lambda f: span(f, "stencil.other"))

    for cls in (transport.LoopbackTransport, transport.TcpTransport, transport.DelayedTransport):
        patch(cls, "send", lambda f: span(f, "transport.send", bytes_of=_arg_len(1)))
    for cls in (transport.LoopbackTransport, transport.TcpTransport):
        patch(cls, "recv", lambda f: span(f, "transport.recv", bytes_of=_result_len))
    # The delay shim's own time is the simulated round trip it sleeps out.
    patch(transport.DelayedTransport, "recv", lambda f: span(f, "transport.net_wait"))
    # The outermost transport sees each message once: count them there.
    patch(transport.RecordingTransport, "send", lambda f: span(f, "transport.send.net", bytes_of=_arg_len(1)))
    patch(transport.RecordingTransport, "recv", lambda f: span(f, "transport.recv.net", bytes_of=_result_len))

    for fn in (
        "encode_frame", "decode_frame", "fragment_message", "reassemble_message",
        "encode_fileop", "decode_fileop", "encode_trace", "decode_trace",
        "encode_outcome", "decode_outcome_at", "decode_outcome", "encode_net", "decode_net",
        "encode_hello", "decode_hello", "encode_stencil_delta", "decode_stencil_delta",
        "encode_error", "decode_error",
    ):
        patch(wire, fn, lambda f: span(f, "wire.codec"))

    rs = replica.ReplicaSession
    patch(rs, "handle_message", lambda f: span(f, "replica.handle", bytes_of=_arg_len(1)))
    patch(rs, "replay_fileop", lambda f: span(f, "replica.replay"))

    # The device's persistence path runs on every op, its sink inside; the
    # replica journal's fsync is the program's only one.
    patch(dc, "_persist_store", lambda f: span(f, "durability.save_store"))
    patch(dc, "_persist_meta", lambda f: span(f, "durability.save_meta"))
    patch(os, "fsync", lambda f: span(f, "durability.fsync"))
