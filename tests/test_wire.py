import ast
import re
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfs import wire
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
)

PROTOCOL = Path(__file__).resolve().parent.parent / "PROTOCOL.md"


tokens = st.binary(min_size=16, max_size=16)


def fileops():
    def build(op, fd, flags, count, toks):
        if op == OpCode.OPEN:
            return FileOp(op, fd, flags, count, tuple(toks) or (bytes(16),))
        return FileOp(op, fd, flags, count)

    return st.builds(
        build,
        st.sampled_from(list(OpCode)),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**64 - 1),
        st.lists(tokens, min_size=0, max_size=4),
    )


def traces():
    return st.lists(
        st.builds(BlockRequest, st.sampled_from(list(ReqKind)), st.integers(0, 2**32 - 1)),
        max_size=30,
    )


def segments():
    return st.tuples(
        st.sampled_from(list(SegKind)),
        st.integers(0, 2**32 - 1),
        st.integers(0, 4095),
        st.integers(0, 4096),
        st.booleans(),
    ).map(lambda t: Segment(*t))


def outcomes(op_code):
    base = st.builds(
        OpOutcome,
        status=st.sampled_from(list(Status)),
        trace=traces(),
        segments=st.lists(segments(), max_size=6).map(tuple),
        inode=st.integers(0, 2**32 - 1),
        size=st.integers(0, 2**40),
        position=st.integers(0, 2**40),
        promote=st.one_of(
            st.none(),
            st.builds(
                Promote,
                st.integers(0, 2**32 - 1),
                st.integers(0, 64),
                st.integers(0, 2**32 - 1),
            ),
        ),
    )

    def canonical(out: OpOutcome) -> OpOutcome:
        # Fields the encoding does not carry for this op must be default.
        if op_code != OpCode.OPEN:
            out.inode = 0
        if op_code not in (OpCode.OPEN, OpCode.READ, OpCode.WRITE, OpCode.FSTAT):
            out.size = 0
        if op_code not in (OpCode.READ, OpCode.WRITE, OpCode.LSEEK):
            out.position = 0
        if op_code not in (OpCode.READ, OpCode.WRITE):
            out.segments = ()
        if op_code != OpCode.WRITE:
            out.promote = None
        return out

    return base.map(canonical)


class TestFileOpCodec:
    @settings(max_examples=300, deadline=None)
    @given(fileops())
    def test_round_trip_identity(self, op):
        raw = wire.encode_fileop(op)
        decoded = wire.decode_fileop(raw, seq=op.seq)
        assert decoded == op

    def test_write_layout(self):
        raw = wire.encode_fileop(FileOp(OpCode.WRITE, 3, 0, 4096))
        assert raw[0] == OpCode.WRITE
        assert raw[1:5] == (3).to_bytes(4, "little")
        assert raw[9:17] == (4096).to_bytes(8, "little")
        assert len(raw) == 33

    def test_truncated_buffer(self):
        raw = wire.encode_fileop(FileOp(OpCode.READ, 1, 0, 10))
        with pytest.raises(wire.DecodeError):
            wire.decode_fileop(raw[:-1])

    def test_unknown_op_byte(self):
        raw = bytearray(wire.encode_fileop(FileOp(OpCode.READ, 1, 0, 10)))
        raw[0] = 200
        with pytest.raises(wire.DecodeError):
            wire.decode_fileop(bytes(raw))


class TestTraceCodec:
    def test_empty_trace_is_nine_bytes(self):
        raw = wire.encode_trace([])
        assert len(raw) == 9
        assert wire.decode_trace(raw) == ([], False, Status.OK)

    def test_single_read_entry(self):
        raw = wire.encode_trace([BlockRequest(ReqKind.READ, 21)])
        assert raw[9] == 0  # read kind byte
        assert raw[10:14] == bytes([0x15, 0, 0, 0])

    @settings(max_examples=200, deadline=None)
    @given(traces(), st.booleans(), st.sampled_from(list(Status)))
    def test_round_trip(self, trace, ok, status):
        raw = wire.encode_trace(trace, ok, status)
        assert wire.decode_trace(raw) == (trace, ok, status)
        assert len(raw) == 9 + 5 * len(trace)


class TestOutcomeCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(OpCode)).flatmap(
        lambda oc: st.tuples(st.just(oc), outcomes(oc), st.booleans())
    ))
    def test_round_trip(self, case):
        op_code, outcome, ok = case
        raw = wire.encode_outcome(op_code, outcome, ok)
        decoded, got_ok = wire.decode_outcome(op_code, raw)
        assert got_ok == ok
        assert decoded == outcome

    def test_trailing_bytes_rejected(self):
        raw = wire.encode_outcome(OpCode.FSYNC, OpOutcome())
        with pytest.raises(wire.DecodeError):
            wire.decode_outcome(OpCode.FSYNC, raw + b"x")


class TestFrames:
    def test_every_frame_is_4096_bytes(self):
        for blob_len in (0, 1, 4083, 4084, 4096, 9000):
            frames = wire.fragment_message(wire.FrameKind.TRACE, 1, bytes(blob_len))
            for frame in frames:
                assert len(wire.encode_frame(frame)) == wire.FRAME_SIZE

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=12000), st.integers(0, 2**64 - 1))
    def test_fragment_reassemble_identity(self, blob, seq):
        frames = wire.fragment_message(wire.FrameKind.META_READ_RESP, seq, blob)
        encoded = [wire.encode_frame(f) for f in frames]
        decoded = [wire.decode_frame(raw) for raw in encoded]
        assert wire.reassemble_message(decoded) == blob
        assert all(f.seq == seq for f in decoded)

    @pytest.mark.parametrize("header", [{"seq": -1}, {"seq": 2**64}, {"kind": 256}, {"kind": -1}])
    def test_header_out_of_range_is_decode_error(self, header):
        frame = wire.Frame(**{"kind": wire.FrameKind.TRACE, "seq": 0, "payload": b"", **header})
        with pytest.raises(wire.DecodeError):
            wire.encode_frame(frame)

    def test_block_response_spans_two_frames(self):
        frames = wire.fragment_message(wire.FrameKind.META_READ_RESP, 0, bytes(4096))
        assert len(frames) == 2

    def test_giant_trace_spans_multiple_frames(self):
        trace = [BlockRequest(ReqKind.WRITE, i) for i in range(2000)]
        blob = wire.encode_trace(trace)
        assert len(blob) == 9 + 5 * 2000
        frames = wire.fragment_message(wire.FrameKind.TRACE, 7, blob)
        assert len(frames) == -(-len(blob) // wire.FRAG_CHUNK_MAX)  # 3 frames
        raws = [wire.encode_frame(f) for f in frames]
        assert all(len(r) == wire.FRAME_SIZE for r in raws)
        back = wire.reassemble_message([wire.decode_frame(r) for r in raws])
        assert wire.decode_trace(back)[0] == trace

    def test_frame_padding_is_zero(self):
        frame = wire.Frame(wire.FrameKind.REJECT, 9, b"\x00\x00abc")
        raw = wire.encode_frame(frame)
        assert raw[11 + 5 :] == bytes(4096 - 16)

    def test_message_ends_at_its_first_short_chunk(self):
        frames = wire.fragment_message(wire.FrameKind.TRACE, 1, bytes(5000))
        with pytest.raises(wire.DecodeError):
            wire.reassemble_message(frames + wire.fragment_message(wire.FrameKind.TRACE, 1, b""))
        full = wire.Frame(wire.FrameKind.TRACE, 1, wire.FRAG_HEADER.pack(0) + bytes(wire.FRAG_CHUNK_MAX))
        with pytest.raises(wire.DecodeError):
            wire.reassemble_message([full])
        with pytest.raises(wire.DecodeError):
            wire.reassemble_message([])

    def test_accept_message_takes_one_whole_message_of_one_op(self):
        kind = wire.FrameKind.TRACE
        frames = wire.fragment_message(kind, 7, bytes(9000))
        assert wire.accept_message(frames, kind, 7) == bytes(9000)
        with pytest.raises(wire.DecodeError):
            wire.accept_message(frames, kind, 8)
        with pytest.raises(wire.DecodeError):
            wire.accept_message(frames[:1] + [replace(frames[1], kind=wire.FrameKind.REJECT)], kind, 7)
        longest = wire.MESSAGE_FRAMES_MAX * wire.FRAG_CHUNK_MAX - 1
        assert len(wire.accept_message(wire.fragment_message(kind, 7, bytes(longest)), kind, 7)) == longest
        with pytest.raises(wire.DecodeError):
            wire.accept_message(wire.fragment_message(kind, 7, bytes(longest + 1)), kind, 7)


class TestNetCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(wire.NetKind)),
        st.integers(0, 2**64 - 1),
        st.binary(max_size=200),
    )
    def test_round_trip(self, kind, seq, body):
        raw = wire.encode_net(kind, seq, body)
        assert wire.decode_net(raw) == (kind, seq, body)

    def test_stream_reader(self):
        messages = [
            wire.encode_net(wire.NetKind.COMMIT, 1),
            wire.encode_net(wire.NetKind.ACK, 1, b"ok"),
        ]
        stream = b"".join(messages)
        cursor = [0]

        def read(n):
            out = stream[cursor[0] : cursor[0] + n]
            cursor[0] += len(out)
            return out

        assert wire.read_net_message(read) == messages[0]
        assert wire.read_net_message(read) == messages[1]

    def test_stream_reader_asks_for_at_most_64_kib_per_call(self):
        """A length prefix claims 4 GiB; the reader asks for it in bounded pieces."""
        stream = b"\xff\xff\xff\xff" + bytes(3 * 64 * 1024 + 5)
        cursor, asked = [0], []

        def read(n):
            asked.append(n)
            out = stream[cursor[0] : cursor[0] + n]
            cursor[0] += len(out)
            return out

        with pytest.raises(wire.ChannelClosed):
            wire.read_net_message(read)
        assert asked[0] == 4 and max(asked) == 64 * 1024
        assert cursor[0] == len(stream)

    def test_stream_reader_limit_is_the_largest_device_request(self):
        """The largest device -> replica message is an OPEN of a 256-token path;
        a reader given that limit takes it and refuses one byte more unread."""
        op = FileOp(OpCode.OPEN, 0, 0, 0, tuple(bytes([n]) * 16 for n in range(256)), 1)
        largest = wire.encode_net(wire.NetKind.FILEOP, 1, wire.encode_fileop(op))
        assert len(largest) - 4 == wire.NET_REQUEST_MAX
        over = struct.pack("<I", wire.NET_REQUEST_MAX + 1) + largest[4:] + b"\x00"
        for raw, taken in ((largest, True), (over, False)):
            cursor = [0]

            def read(n):
                out = raw[cursor[0] : cursor[0] + n]
                cursor[0] += len(out)
                return out

            if taken:
                assert wire.read_net_message(read, wire.NET_REQUEST_MAX) == largest
            else:
                with pytest.raises(wire.DecodeError, match="above"):
                    wire.read_net_message(read, wire.NET_REQUEST_MAX)
                assert cursor[0] == 4

    def test_hello_round_trip(self):
        body = wire.encode_hello(b"\x01" * 16, cloud_stencils=True)
        assert wire.decode_hello(body) == (wire.HELLO_VERSION, True, b"\x01" * 16)

    def test_stencil_delta_round_trip(self):
        entries = [(4, 2, ()), (3, 3, ((0, 192), (256, 4096)))]
        raw = wire.encode_stencil_delta(entries)
        decoded, offset = wire.decode_stencil_delta(raw)
        assert decoded == entries
        assert offset == len(raw)

    @pytest.mark.parametrize("cls", [4, 7, 255])
    def test_stencil_delta_rejects_unknown_class(self, cls):
        raw = wire.encode_stencil_delta([(4, 2, ()), (5, cls, ())])
        with pytest.raises(wire.DecodeError, match="stencil class"):
            wire.decode_stencil_delta(raw)


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=200), st.lists(st.binary(max_size=40), max_size=3), st.integers(0, 210))
def test_decoders_refuse_arbitrary_bytes_with_decode_error(raw, payloads, offset):
    """A decoder given bytes from an untrusted party raises DecodeError or nothing."""
    frame = raw.ljust(wire.FRAME_SIZE, b"\x00")

    def read_stream():
        rest = [raw]

        def read(n):
            out, rest[0] = rest[0][:n], rest[0][n:]
            return out

        try:
            wire.decode_net(wire.read_net_message(read))
        except wire.ChannelClosed:  # the peer sent raw and closed mid-message
            pass

    calls = [
        read_stream,
        lambda: wire.decode_frame(raw),
        lambda: wire.decode_frame(frame),
        lambda: wire.reassemble_message([wire.Frame(wire.FrameKind.TRACE, 0, p) for p in payloads]),
        lambda: wire.decode_fileop(raw),
        lambda: wire.decode_trace(raw),
        lambda: wire.decode_net(raw),
        lambda: wire.decode_hello(raw),
        lambda: wire.decode_stencil_delta(raw),
        lambda: wire.decode_stencil_delta(raw, offset),
        lambda: wire.decode_error(raw),
        lambda: wire.decode_block_ids(raw),
    ]
    calls += [lambda op=op: wire.decode_outcome(op, raw) for op in OpCode]
    calls += [lambda op=op: wire.decode_outcome_at(op, raw) for op in OpCode]
    for call in calls:
        try:
            call()
        except wire.DecodeError:
            pass


def _handlers(tree, skip=None):
    """Every except handler in tree, outside any function named skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            continue
        if isinstance(node, ast.ExceptHandler):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _catches(handler, names) -> bool:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(t is not None and ast.unparse(t) in names for t in types)


def test_one_decode_error_type():
    """DecodeError is the one decode-error type of src/twinfs: no LengthMismatch,
    and struct.error or IndexError is handled only in wire.decoder, the one
    point that turns a short or out-of-range read into a DecodeError."""
    names = {"struct.error", "error", "IndexError"}
    src = Path(wire.__file__).resolve().parent
    strays = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        strays += [
            "%s:%d class LengthMismatch" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "LengthMismatch"
        ]
        skip = "decoder" if path.name == "wire.py" else None
        strays += [
            "%s:%d except %s" % (path.name, h.lineno, ast.unparse(h.type))
            for h in _handlers(tree, skip)
            if _catches(h, names)
        ]
        if path.name == "wire.py":
            assert any(_catches(h, names) for h in _handlers(tree)), "wire.decoder is gone"
    assert strays == []


def _protocol_vectors():
    text = PROTOCOL.read_text()
    return re.findall(r"```hex-(\w+)\n([0-9a-f\n]+)```", text)


class TestGoldenVectors:
    """PROTOCOL.md hex vectors decode bit-exactly, via independent parsing."""

    def test_vectors_present(self):
        kinds = [k for k, _ in _protocol_vectors()]
        assert kinds.count("fileop") >= 2
        assert kinds.count("trace") >= 2
        assert "net" in kinds and "frame" in kinds and "outcome" in kinds

    def test_fileop_vectors(self):
        vectors = [bytes.fromhex(v.strip()) for k, v in _protocol_vectors() if k == "fileop"]
        write = vectors[0]
        # independent field extraction, no codec involved
        assert write[0] == 3  # WRITE
        assert struct.unpack_from("<I", write, 1)[0] == 3
        assert struct.unpack_from("<Q", write, 9)[0] == 4096
        decoded = wire.decode_fileop(write)
        assert decoded == FileOp(OpCode.WRITE, 3, 0, 4096)

        opened = vectors[1]
        assert opened[0] == 1  # OPEN
        token = opened[17:33]
        assert token == bytes.fromhex("00112233445566778899aabbccddeeff")
        decoded = wire.decode_fileop(opened)
        assert decoded.op == OpCode.OPEN and decoded.name_tokens == (token,)

    def test_trace_vectors(self):
        vectors = [bytes.fromhex(v.strip()) for k, v in _protocol_vectors() if k == "trace"]
        empty, read21 = vectors[0], vectors[1]
        assert len(empty) == 9 and empty == bytes(9)
        assert wire.decode_trace(empty) == ([], False, Status.OK)
        assert struct.unpack_from("<I", read21, 5)[0] == 1  # one entry
        assert read21[9] == 0 and struct.unpack_from("<I", read21, 10)[0] == 21
        assert wire.decode_trace(read21)[0] == [BlockRequest(ReqKind.READ, 21)]

    def test_outcome_vector(self):
        raw = bytes.fromhex(
            next(v for k, v in _protocol_vectors() if k == "outcome").strip()
        )
        outcome, ok = wire.decode_outcome(OpCode.WRITE, raw)
        assert ok is True
        assert outcome.trace == [BlockRequest(ReqKind.WRITE, 42)]
        assert outcome.segments == (Segment(SegKind.BLOCK, 42, 0, 4096, fresh=True),)
        assert outcome.position == 4096 and outcome.size == 4096
        assert outcome.promote is None

    def test_net_vectors(self):
        vectors = [bytes.fromhex(v.strip()) for k, v in _protocol_vectors() if k == "net"]
        commit = vectors[0]
        assert struct.unpack_from("<I", commit, 0)[0] == len(commit) - 4
        kind, seq, body = wire.decode_net(commit)
        assert (kind, seq, body) == (wire.NetKind.COMMIT, 7, b"")
        fileop_msg = vectors[1]
        kind, seq, body = wire.decode_net(fileop_msg)
        assert kind == wire.NetKind.FILEOP and seq == 9
        assert wire.decode_fileop(body) == FileOp(OpCode.WRITE, 3, 0, 4096)

    def test_frame_vector(self):
        raw = bytes.fromhex(next(v for k, v in _protocol_vectors() if k == "frame").strip())
        # The vector is the frame prefix; pad to full size and decode.
        frame = wire.decode_frame(raw + bytes(wire.FRAME_SIZE - len(raw)))
        assert frame.kind == wire.FrameKind.META_READ_REQ
        assert frame.seq == 5
        assert frame.payload[2:6] == (42).to_bytes(4, "little")

    def test_invalidate_and_kept_write_vectors(self):
        frames = [bytes.fromhex(v.strip()) for k, v in _protocol_vectors() if k == "frame"]
        invalidate, kept = frames[1], frames[2]
        # independent field extraction, no codec involved
        assert invalidate[0] == 8 and struct.unpack_from("<QH", invalidate, 1) == (5, 10)
        assert struct.unpack_from("<H2I", invalidate, 11) == (0, 3, 42)
        assert kept[0] == 6 and kept[11:] == b"\x00\x00\x01"
        pad = lambda raw: raw + bytes(wire.FRAME_SIZE - len(raw))
        frame = wire.decode_frame(pad(invalidate))
        assert frame.kind == wire.FrameKind.INVALIDATE and frame.seq == 5
        assert wire.decode_block_ids(wire.reassemble_message([frame])) == (3, 42)
        frame = wire.decode_frame(pad(kept))
        assert frame.kind == wire.FrameKind.META_WRITE_RESP
        assert wire.reassemble_message([frame]) == wire.META_WRITE_KEPT

    def test_invalidate_frame_holds_its_maximum(self):
        ids = list(range(wire.INVALIDATE_MAX))
        frames = wire.fragment_message(wire.FrameKind.INVALIDATE, 1, wire.encode_block_ids(ids))
        assert len(frames) == 1
        assert wire.decode_block_ids(wire.reassemble_message(frames)) == tuple(ids)
        more = wire.encode_block_ids(ids + [0])
        assert len(wire.fragment_message(wire.FrameKind.INVALIDATE, 1, more)) == 2
