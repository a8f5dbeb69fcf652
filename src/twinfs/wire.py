"""Bit-exact encodings for the two trust boundaries.

The device <-> untrusted-twin channel simulates a fixed 4KB shared-memory
window: every frame is exactly 4096 bytes. The device <-> replica network
protocol uses length-prefixed stream messages. Everything is little-endian.
Byte layouts are documented with golden vectors in PROTOCOL.md.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from enum import IntEnum

from twinfs.minifs import (
    BlockRequest,
    FileOp,
    OpCode,
    OpOutcome,
    Promote,
    ReqKind,
    SegKind,
    Segment,
    Status,
    TOKEN_LEN,
)

FRAME_SIZE = 4096
FRAME_HEADER = struct.Struct("<BQH")  # kind, seq, payload length
FRAME_PAYLOAD_MAX = FRAME_SIZE - FRAME_HEADER.size  # 4085
FRAG_HEADER = struct.Struct("<H")  # offset of this chunk in the message
FRAG_CHUNK_MAX = FRAME_PAYLOAD_MAX - FRAG_HEADER.size  # 4083
MESSAGE_FRAMES_MAX = 64  # the most frames of one message the device accepts

_FILEOP = struct.Struct("<BIIQ16s")  # op, fd, flags, count, name_token
_TRACE_HEAD = struct.Struct("<BII")  # flags, status, entry count
_ENTRY = struct.Struct("<BI")  # request kind, block
_SEGMENT = struct.Struct("<BIHH")  # flags, target, offset, length
_PROMOTE = struct.Struct("<IHI")  # inode, inline length, destination block
_NET_HEAD = struct.Struct("<IBQ")  # length prefix, kind, seq
_U8 = struct.Struct("<B")  # a single byte, read so that a short buffer is a struct.error
READ_CHUNK_MAX = 64 * 1024  # the most bytes one sock_read call is asked for

OUTCOME_OK_TO_COMMIT = 0x01
SEG_FRESH = 0x80


class DecodeError(Exception):
    """Bytes from an untrusted party that do not follow their layout."""


class ChannelClosed(Exception):
    pass


def decoder(fn):
    """The one conversion point for untrusted bytes. fn reads with struct and the
    enums only, so a short buffer or an out-of-range field leaves here as a
    DecodeError; fn itself checks a slice that comes up short and trailing bytes."""

    @functools.wraps(fn)
    def read(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (struct.error, ValueError) as exc:
            raise DecodeError("%s: %s" % (fn.__name__, exc)) from None

    return read


class FrameKind(IntEnum):
    FILEOP = 1
    TRACE = 2
    META_READ_REQ = 3
    META_READ_RESP = 4
    META_WRITE_REQ = 5
    META_WRITE_RESP = 6
    REJECT = 7


class NetKind(IntEnum):
    HELLO = 1
    FILEOP = 2
    TRACE_RESP = 3
    COMMIT = 4
    ABORT = 5
    ACK = 6
    ERROR = 7


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    seq: int
    payload: bytes


@decoder  # the twin hands over Frame objects: a kind or seq the header cannot hold
def encode_frame(frame: Frame) -> bytes:
    if len(frame.payload) > FRAME_PAYLOAD_MAX:
        raise DecodeError("payload exceeds %d bytes" % FRAME_PAYLOAD_MAX)
    head = FRAME_HEADER.pack(frame.kind, frame.seq, len(frame.payload))
    return head + frame.payload + bytes(FRAME_SIZE - len(head) - len(frame.payload))


@decoder
def decode_frame(raw: bytes) -> Frame:
    if len(raw) != FRAME_SIZE:
        raise DecodeError("frame must be exactly %d bytes" % FRAME_SIZE)
    kind, seq, length = FRAME_HEADER.unpack_from(raw, 0)
    if length > FRAME_PAYLOAD_MAX:
        raise DecodeError("dishonest payload length %d" % length)
    body = bytes(raw[FRAME_HEADER.size : FRAME_HEADER.size + length])
    return Frame(FrameKind(kind), seq, body)


def fragment_message(kind: FrameKind, seq: int, blob: bytes) -> list[Frame]:
    """Split a message into channel frames.

    Each frame's payload is a 2-byte offset header plus a chunk; the message
    ends at the first chunk shorter than the maximum, so exact multiples of
    the chunk size get a trailing empty fragment.
    """
    frames = []
    offset = 0
    while True:
        chunk = blob[offset : offset + FRAG_CHUNK_MAX]
        frames.append(Frame(kind, seq, FRAG_HEADER.pack(offset & 0xFFFF) + chunk))
        offset += len(chunk)
        if len(chunk) < FRAG_CHUNK_MAX:
            return frames


@decoder
def reassemble_message(frames) -> bytes:
    """Join the chunks of one message, which ends at its first short chunk."""
    if not frames:
        raise DecodeError("message without frames")
    parts = []
    expect = 0
    for i, frame in enumerate(frames):
        (offset,) = FRAG_HEADER.unpack_from(frame.payload, 0)
        if offset != expect & 0xFFFF:
            raise DecodeError("fragment offset %d, expected %d" % (offset, expect))
        chunk = frame.payload[FRAG_HEADER.size :]
        if (len(chunk) < FRAG_CHUNK_MAX) != (i == len(frames) - 1):
            raise DecodeError("message does not end at its first short chunk")
        parts.append(chunk)
        expect += len(chunk)
    return b"".join(parts)


def accept_message(frames, kind: FrameKind, seq: int) -> bytes:
    """The device's framing rule for what the twin sends across the channel.

    Returns the body of one whole message of `kind` for op `seq`, sent in at
    most MESSAGE_FRAMES_MAX frames; raises DecodeError for anything else.
    """
    if len(frames) > MESSAGE_FRAMES_MAX:
        raise DecodeError("message of %d frames" % len(frames))
    if any(frame.kind != kind or frame.seq != seq for frame in frames):
        raise DecodeError("frame of another kind or op in a %s message for seq %d" % (kind, seq))
    return reassemble_message(frames)


# -- FileOp ---------------------------------------------------------------


def encode_fileop(op: FileOp) -> bytes:
    name = op.name_tokens[0] if op.name_tokens else bytes(TOKEN_LEN)
    body = _FILEOP.pack(op.op, op.fd, op.flags, op.count, name)
    if op.op == OpCode.OPEN:
        extras = op.name_tokens[1:]
        body += bytes([len(extras)]) + b"".join(extras)
    return body


@decoder
def decode_fileop(raw: bytes, seq: int = 0) -> FileOp:
    opcode, fd, flags, count, name = _FILEOP.unpack_from(raw, 0)
    opcode = OpCode(opcode)
    tokens: tuple[bytes, ...] = ()
    offset = _FILEOP.size
    if opcode == OpCode.OPEN:
        (n_extra,) = _U8.unpack_from(raw, offset)
        offset += 1
        tokens = (name,) + tuple(
            bytes(raw[offset + i * TOKEN_LEN : offset + (i + 1) * TOKEN_LEN])
            for i in range(n_extra)
        )
        offset += n_extra * TOKEN_LEN
    # One check for both: path tokens that came up short, and trailing bytes.
    if len(raw) != offset:
        raise DecodeError("fileop body of %d bytes, expected %d" % (len(raw), offset))
    return FileOp(op=opcode, fd=fd, flags=flags, count=count, name_tokens=tokens, seq=seq)


# -- traces and outcomes ----------------------------------------------------


def encode_trace(trace, ok_to_commit: bool = False, status: Status = Status.OK) -> bytes:
    flags = OUTCOME_OK_TO_COMMIT if ok_to_commit else 0
    parts = [_TRACE_HEAD.pack(flags, status, len(trace))]
    for req in trace:
        parts.append(_ENTRY.pack(req.kind, req.block))
    return b"".join(parts)


@decoder
def decode_trace(raw: bytes) -> tuple[list[BlockRequest], bool, Status]:
    flags, status, count = _TRACE_HEAD.unpack_from(raw, 0)
    offset = _TRACE_HEAD.size
    trace = []
    for _ in range(count):
        kind, block = _ENTRY.unpack_from(raw, offset)
        trace.append(BlockRequest(ReqKind(kind), block))
        offset += _ENTRY.size
    return trace, bool(flags & OUTCOME_OK_TO_COMMIT), Status(status)


def _encode_segments(segments) -> bytes:
    parts = [struct.pack("<H", len(segments))]
    for seg in segments:
        flags = int(seg.kind) | (SEG_FRESH if seg.fresh else 0)
        parts.append(_SEGMENT.pack(flags, seg.target, seg.offset, seg.length))
    return b"".join(parts)


def _decode_segments(raw: bytes, offset: int) -> tuple[tuple[Segment, ...], int]:
    (count,) = struct.unpack_from("<H", raw, offset)
    offset += 2
    segments = []
    for _ in range(count):
        flags, target, seg_off, length = _SEGMENT.unpack_from(raw, offset)
        kind = SegKind(flags & 0x7F)
        segments.append(Segment(kind, target, seg_off, length, bool(flags & SEG_FRESH)))
        offset += _SEGMENT.size
    return tuple(segments), offset


def encode_outcome(op_code: OpCode, outcome: OpOutcome, ok_to_commit: bool = False) -> bytes:
    """Canonical twin-response encoding, shared by channel and network."""
    body = encode_trace(outcome.trace, ok_to_commit, outcome.status)
    if op_code == OpCode.OPEN:
        body += struct.pack("<IQ", outcome.inode, outcome.size)
    elif op_code == OpCode.READ:
        body += _encode_segments(outcome.segments) + struct.pack(
            "<QQ", outcome.position, outcome.size
        )
    elif op_code == OpCode.WRITE:
        body += _encode_segments(outcome.segments)
        if outcome.promote is None:
            body += b"\x00"
        else:
            body += b"\x01" + _PROMOTE.pack(
                outcome.promote.inode, outcome.promote.length, outcome.promote.dst_block
            )
        body += struct.pack("<QQ", outcome.position, outcome.size)
    elif op_code == OpCode.LSEEK:
        body += struct.pack("<Q", outcome.position)
    elif op_code == OpCode.FSTAT:
        body += struct.pack("<Q", outcome.size)
    return body


@decoder
def decode_outcome_at(op_code: OpCode, raw: bytes) -> tuple[OpOutcome, bool, int]:
    """Decode an outcome, returning the offset where trailing data begins."""
    trace, ok, status = decode_trace(raw)
    offset = _TRACE_HEAD.size + len(trace) * _ENTRY.size
    outcome = OpOutcome(status=status, trace=trace)
    if op_code == OpCode.OPEN:
        outcome.inode, outcome.size = struct.unpack_from("<IQ", raw, offset)
        offset += 12
    elif op_code == OpCode.READ:
        outcome.segments, offset = _decode_segments(raw, offset)
        outcome.position, outcome.size = struct.unpack_from("<QQ", raw, offset)
        offset += 16
    elif op_code == OpCode.WRITE:
        outcome.segments, offset = _decode_segments(raw, offset)
        (has_promote,) = _U8.unpack_from(raw, offset)
        offset += 1
        if has_promote:
            ino, length, dst = _PROMOTE.unpack_from(raw, offset)
            outcome.promote = Promote(ino, length, dst)
            offset += _PROMOTE.size
        outcome.position, outcome.size = struct.unpack_from("<QQ", raw, offset)
        offset += 16
    elif op_code == OpCode.LSEEK:
        (outcome.position,) = struct.unpack_from("<Q", raw, offset)
        offset += 8
    elif op_code == OpCode.FSTAT:
        (outcome.size,) = struct.unpack_from("<Q", raw, offset)
        offset += 8
    return outcome, ok, offset


def decode_outcome(op_code: OpCode, raw: bytes) -> tuple[OpOutcome, bool]:
    outcome, ok, offset = decode_outcome_at(op_code, raw)
    if offset != len(raw):
        raise DecodeError("trailing bytes after outcome body")
    return outcome, ok


# -- network messages --------------------------------------------------------


def encode_net(kind: NetKind, seq: int, body: bytes = b"") -> bytes:
    return _NET_HEAD.pack(1 + 8 + len(body), kind, seq) + body


@decoder
def decode_net(raw: bytes) -> tuple[NetKind, int, bytes]:
    length, kind, seq = _NET_HEAD.unpack_from(raw, 0)
    if length != len(raw) - 4:
        raise DecodeError("net length prefix %d does not match body" % length)
    return NetKind(kind), seq, bytes(raw[_NET_HEAD.size :])


# The largest length prefix of a device -> replica message: a FILEOP for an
# OPEN whose path has 255 tokens after the first.
NET_REQUEST_MAX = _NET_HEAD.size - 4 + _FILEOP.size + _U8.size + 255 * TOKEN_LEN


def read_net_message(sock_read, limit: int | None = None) -> bytes:
    """Read one length-prefixed message via sock_read(n) -> bytes, asking
    for at most READ_CHUNK_MAX bytes per call whatever the prefix claims;
    a prefix above `limit` is refused before its body is read."""
    prefix = _read_exact(sock_read, 4)
    (length,) = struct.unpack("<I", prefix)
    if length < 9:
        raise DecodeError("net message shorter than its header")
    if limit is not None and length > limit:
        raise DecodeError("net message of %d bytes, above %d" % (length, limit))
    return prefix + _read_exact(sock_read, length)


def _read_exact(sock_read, n: int) -> bytes:
    parts = []
    while n:
        chunk = sock_read(min(n, READ_CHUNK_MAX))
        if not chunk:
            raise ChannelClosed("peer closed mid-message")
        parts.append(chunk)
        n -= len(chunk)
    return b"".join(parts)


HELLO_VERSION = 1
HELLO_FLAG_CLOUD_STENCILS = 0x01
_HELLO = struct.Struct("<BB16s")


def encode_hello(device_id: bytes, cloud_stencils: bool = False) -> bytes:
    flags = HELLO_FLAG_CLOUD_STENCILS if cloud_stencils else 0
    return _HELLO.pack(HELLO_VERSION, flags, device_id)


@decoder
def decode_hello(body: bytes) -> tuple[int, bool, bytes]:
    version, flags, device_id = _HELLO.unpack(body)
    return version, bool(flags & HELLO_FLAG_CLOUD_STENCILS), device_id


# -- stencil deltas (cloud-generated stencil mode) ---------------------------


STENCIL_CLASS_MAX = 3  # classes 0-3: unused, metadata, data, mixed


def encode_stencil_delta(entries) -> bytes:
    """entries: iterable of (block_id, class_code, metadata_ranges)."""
    parts = [struct.pack("<H", len(entries))]
    for bid, cls, ranges in entries:
        parts.append(struct.pack("<IBB", bid, cls, len(ranges)))
        for start, end in ranges:
            parts.append(struct.pack("<HH", start, end))
    return b"".join(parts)


@decoder
def decode_stencil_delta(raw: bytes, offset: int = 0):
    (count,) = struct.unpack_from("<H", raw, offset)
    offset += 2
    entries = []
    for _ in range(count):
        bid, cls, nranges = struct.unpack_from("<IBB", raw, offset)
        if cls > STENCIL_CLASS_MAX:
            raise DecodeError("unknown stencil class %d" % cls)
        offset += 6
        ranges = []
        for _ in range(nranges):
            start, end = struct.unpack_from("<HH", raw, offset)
            ranges.append((start, end))
            offset += 4
        entries.append((bid, cls, tuple(ranges)))
    return entries, offset


def encode_error(code: int, message: str) -> bytes:
    return struct.pack("<I", code) + message.encode("utf-8")


@decoder
def decode_error(body: bytes) -> tuple[int, str]:
    (code,) = struct.unpack_from("<I", body, 0)
    return code, body[4:].decode("utf-8", "replace")
