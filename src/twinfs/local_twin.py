"""The untrusted local twin: the filesystem engine run outside trust.

The twin receives delegated FileOps over the 4KB channel, executes them with
the shared engine, and reaches metadata through its block cache and channel
round trips that the device core's stencil gate answers. Attack behaviors
wrap the twin and transform its honest output; the trusted core is never
touched.
"""

from __future__ import annotations

from twinfs import wire
from twinfs.blockstore import BLOCK_SIZE
from twinfs.minifs import (
    AccessorRejected,
    Engine,
    FileOp,
    MetadataAccessor,
    OpOutcome,
    Status,
)


class SyncChannel:
    """In-process stand-in for the fixed-size shared-memory window.

    Each crossing carries one whole message. Every frame of it is encoded to
    its full 4096 bytes and offered to the taps before the far side decodes
    it, so confidentiality scans observe exactly what an off-core
    eavesdropper would.
    """

    def __init__(self, gate, twin):
        self.gate = gate  # callable(request frames) -> reply frames
        self.twin = twin
        self.taps: list = []

    def _cross(self, frames) -> list[wire.Frame]:
        out = []
        for frame in frames:
            raw = wire.encode_frame(frame)
            for tap in self.taps:
                tap(raw)
            out.append(wire.decode_frame(raw))
        return out

    def delegate(self, frames) -> list[wire.Frame]:
        """Device -> twin: deliver a FileOp, run the twin, return its TRACE."""
        return self._cross(self.twin.execute(self, self._cross(frames)))

    def meta_call(self, frames) -> list[wire.Frame]:
        """Twin -> device gate round trip for metadata blocks."""
        return self._cross(self.gate(self._cross(frames)))


class ChannelAccessor(MetadataAccessor):
    """Metadata reads/writes expressed as channel frames through the gate.

    Reads come from the twin's block cache, which holds each block as the
    gate last served it, and go to the gate on a miss. A write goes to the
    gate, which merges it: the cache keeps the written bytes only when the
    gate answers that it serves exactly them, and drops the block otherwise.
    """

    def __init__(self, channel: SyncChannel, seq: int, cache: dict[int, bytes]):
        self.channel = channel
        self.seq = seq
        self.cache = cache

    def read_meta(self, block_id: int) -> bytes:
        data = self.cache.get(block_id)
        if data is None:
            data = self.cache[block_id] = self._gate_read(block_id)
        return data

    def _gate_read(self, block_id: int) -> bytes:
        req = wire.Frame(
            wire.FrameKind.META_READ_REQ,
            self.seq,
            wire.FRAG_HEADER.pack(0) + block_id.to_bytes(4, "little"),
        )
        frames = self.channel.meta_call([req])
        if frames and frames[0].kind == wire.FrameKind.REJECT:
            raise AccessorRejected("block %d" % block_id)
        data = wire.reassemble_message(frames)
        if len(data) != BLOCK_SIZE:
            raise wire.DecodeError("metadata block is %d bytes" % len(data))
        return data

    def write_meta(self, block_id: int, data: bytes) -> None:
        self.cache.pop(block_id, None)
        blob = block_id.to_bytes(4, "little") + bytes(data)
        frames = wire.fragment_message(wire.FrameKind.META_WRITE_REQ, self.seq, blob)
        resps = self.channel.meta_call(frames)
        if any(resp.kind == wire.FrameKind.REJECT for resp in resps):
            raise AccessorRejected("block %d" % block_id)
        if wire.reassemble_message(resps) == wire.META_WRITE_KEPT:
            self.cache[block_id] = bytes(data)


class EvilBehavior:
    """Pure transformation of the twin's honest behavior (attack seam)."""

    def on_outcome(self, op: FileOp, outcome: OpOutcome) -> OpOutcome:
        return outcome

    def after_engine(self, op: FileOp, accessor: ChannelAccessor, twin: "LocalTwin") -> None:
        pass

    def on_frames(self, op: FileOp, frames: list[wire.Frame], twin: "LocalTwin"):
        return frames


class LocalTwin:
    """Runs the shared engine against gate-served metadata.

    The twin keeps one metadata block cache across FileOps, as a file
    system outside the TEE keeps its buffer cache. Before a FileOp the
    device may send an INVALIDATE frame naming the cached blocks whose
    served view has changed since; the twin drops them. The device resets
    the engine and the cache together when it rolls ops back.
    """

    def __init__(self, behavior: EvilBehavior | None = None):
        self.behavior = behavior or EvilBehavior()
        self.engine: Engine | None = None
        self.cache: dict[int, bytes] = {}

    def reset_engine(self) -> None:
        self.engine = None
        self.cache.clear()

    def execute(self, channel: SyncChannel, frames) -> list[wire.Frame]:
        if frames[0].kind == wire.FrameKind.INVALIDATE:
            for bid in wire.decode_block_ids(wire.reassemble_message(frames[:1])):
                self.cache.pop(bid, None)
            frames = frames[1:]
        blob = wire.reassemble_message(frames)
        op = wire.decode_fileop(blob, seq=frames[0].seq)
        accessor = ChannelAccessor(channel, op.seq, self.cache)
        if self.engine is None:
            self.engine = Engine(accessor)
        else:
            self.engine.acc = accessor
        try:
            outcome = self.engine.exec_fileop(op)
        except AccessorRejected:
            outcome = OpOutcome(status=Status.REJECTED)
        try:
            self.behavior.after_engine(op, accessor, self)
        except AccessorRejected:
            outcome = OpOutcome(status=Status.REJECTED)
        outcome = self.behavior.on_outcome(op, outcome)
        out_frames = wire.fragment_message(
            wire.FrameKind.TRACE, op.seq, wire.encode_outcome(op.op, outcome)
        )
        return self.behavior.on_frames(op, out_frames, self)
