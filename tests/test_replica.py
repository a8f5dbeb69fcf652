import hashlib
import hmac
import struct
import tempfile
import zlib
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twinfs import journal, wire
from twinfs.blockstore import BLOCK_SIZE
from twinfs.minifs import FileOp, OpCode, OpFlag, Status, mkfs
from twinfs.replica import ERR_BAD_MESSAGE, ERR_BAD_STATE, BadImageError, ReplicaServer, ReplicaSession


def token(name):
    return hmac.new(b"key", name.encode(), hashlib.sha256).digest()[:16]


def fresh_session(state_dir=None, total=256, inodes=32):
    return ReplicaSession.bootstrap(mkfs(total, inodes).metadata_image, state_dir=state_dir)


def op_open(seq, fd, name, flags=OpFlag.CREATE):
    return FileOp(OpCode.OPEN, fd, flags, 0, (token(name),), seq)


def op_write(seq, fd, count):
    return FileOp(OpCode.WRITE, fd, 0, count, (), seq)


class TestBootstrap:
    def test_fresh_image_accepted(self):
        session = fresh_session()
        assert session.expected_seq == 1
        # data region scan: the fresh export has no nonzero data byte
        sb = session.sb
        for bid in range(sb.data_start, sb.total_blocks):
            assert session._read_durable(bid) == bytes(BLOCK_SIZE)

    def test_corrupt_image_rejected(self):
        from twinfs.minifs import BadMagicError

        with pytest.raises(BadMagicError):
            ReplicaSession.bootstrap(b"\x00" * BLOCK_SIZE)

    def test_inline_data_rejected(self):
        result = mkfs(64, 32)
        image = bytearray(result.metadata_image)
        # forge a file inode carrying inline bytes
        from twinfs.minifs import Inode, MODE_FILE

        forged = Inode(mode=MODE_FILE, inline_len=8, size=8, inline=b"X" * 8 + bytes(56))
        base = 3 * BLOCK_SIZE + 128
        image[base : base + 128] = forged.pack()
        with pytest.raises(BadImageError):
            ReplicaSession.bootstrap(bytes(image))

    def test_replica_footprint_is_metadata_sized(self):
        # 4 GiB geometry: the export is the metadata prefix only.
        result = mkfs(1048576, 8192)
        assert result.metadata_image_bytes == 290 * BLOCK_SIZE
        assert result.metadata_image_bytes / result.full_image_bytes < 0.016
        session = ReplicaSession.bootstrap(result.metadata_image)
        assert session.sb.total_blocks == 1048576


class TestReplayAndCommit:
    def test_replay_returns_trace_and_ok(self):
        session = fresh_session()
        outcome, ok = session.replay_fileop(op_open(1, 0, "f"))
        assert ok and outcome.status == Status.OK
        outcome, ok = session.replay_fileop(op_write(2, 0, 4096))
        assert ok and [r.block for r in outcome.trace] == [session.sb.data_start]

    def test_seq_gap_rejected(self):
        session = fresh_session()
        outcome, ok = session.replay_fileop(op_open(5, 0, "f"))
        assert not ok and outcome.status == Status.SEQ_GAP

    def test_staged_invisible_to_durable_until_commit(self):
        session = fresh_session()
        before = session.durable_digest()
        session.replay_fileop(op_open(1, 0, "f"))
        assert session.durable_digest() == before
        assert session.commit(1)
        assert session.durable_digest() != before

    def test_pipelined_replay_sees_staged_state(self):
        session = fresh_session()
        session.replay_fileop(op_open(1, 0, "f"))
        outcome, ok = session.replay_fileop(op_write(2, 0, 100))
        assert ok and outcome.status == Status.OK  # sees the staged open

    def test_commit_is_cumulative(self):
        sessions = [fresh_session(), fresh_session()]
        for session in sessions:
            for op in (op_open(1, 0, "f"), op_write(2, 0, 100), op_write(3, 0, 100)):
                session.replay_fileop(op)
        one_by_one, cumulative = sessions
        assert one_by_one.commit(1) and one_by_one.commit(2)
        assert not cumulative.commit(4)  # past the last staged op
        assert cumulative.commit(2)
        assert cumulative.last_committed == 2
        assert [seq for seq, _ in cumulative.staged] == [3]
        assert cumulative.durable_digest() == one_by_one.durable_digest()
        assert cumulative.commit(3) and not cumulative.commit(4)

    def test_commit_idempotent(self):
        session = fresh_session()
        session.replay_fileop(op_open(1, 0, "f"))
        assert session.commit(1)
        digest = session.durable_digest()
        assert session.commit(1)  # duplicate after reconnect
        assert session.durable_digest() == digest

    def test_unknown_txn(self):
        session = fresh_session()
        assert not session.commit(9)

    def test_abort_drops_staged_and_rewinds(self):
        session = fresh_session()
        before = session.durable_digest()
        session.replay_fileop(op_open(1, 0, "f"))
        assert session.abort(1)
        assert session.durable_digest() == before
        assert session.expected_seq == 1
        # the fd the aborted op opened is gone
        outcome, ok = session.replay_fileop(op_write(1, 0, 100))
        assert ok and outcome.status == Status.BAD_FD

    def test_only_an_abort_that_drops_an_op_clears_the_fd_table(self):
        session = fresh_session()
        session.replay_fileop(op_open(1, 0, "f"))
        assert session.abort(2)  # a recovery abort that drops nothing
        outcome, ok = session.replay_fileop(op_write(2, 0, 100))
        assert ok and outcome.status == Status.OK
        assert session.abort(2)
        # As at the device's reset local twin: the surviving OPEN's fd is gone too.
        outcome, ok = session.replay_fileop(op_write(2, 0, 100))
        assert ok and outcome.status == Status.BAD_FD

    def test_abort_cascades_to_later_staged(self):
        session = fresh_session()
        session.replay_fileop(op_open(1, 0, "f"))
        session.replay_fileop(op_write(2, 0, 4096))
        session.replay_fileop(op_write(3, 0, 4096))
        assert session.abort(2)
        assert [s for s, _ in session.staged] == [1]
        assert session.expected_seq == 2

    def test_zero_data_property_after_writes(self):
        session = fresh_session()
        session.replay_fileop(op_open(1, 0, "f"))
        session.replay_fileop(op_write(2, 0, 9000))
        session.commit(1)
        session.commit(2)
        sb = session.sb
        # data-region blocks referenced by files hold nothing at the replica
        ino = session.engine.fds[0].inode
        inode = session.engine._read_inode(ino)
        for bid in inode.direct:
            if bid:
                assert not any(session.read_meta(bid))

    def test_committed_blocks_leave_the_view(self):
        # 200 ops committed one behind the next staged one, then an abort of
        # two staged ops: no step changes what the view reads, and with
        # nothing staged the state bytes hold each committed block once.
        session = fresh_session()
        total = session.sb.total_blocks

        def image():
            return [session.read_meta(bid) for bid in range(total)]

        def stage(seq):
            fd = (seq - 1) % 8
            op = op_open(seq, fd, "f%d" % fd) if seq <= 8 else op_write(seq, fd, 300 + seq * 7)
            outcome, ok = session.replay_fileop(op)
            assert ok and outcome.status == Status.OK, seq

        stage(1)
        for seq in range(2, 201):
            stage(seq)
            before = image()
            assert session.commit(seq - 1)
            assert image() == before, seq
        assert session.commit(200)
        assert set(session.view) == set()
        assert list(session.state_bytes()) == list(session.committed.values())
        before = image()
        stage(201)
        stage(202)
        assert image() != before
        assert session.abort(201)
        assert image() == before
        assert set(session.view) == set()
        assert list(session.state_bytes()) == list(session.committed.values())


    def test_state_bytes_yield_each_staged_block_once(self):
        session = fresh_session()
        for op in (op_open(1, 0, "a"), op_write(2, 0, 5000)):
            outcome, ok = session.replay_fileop(op)
            assert ok and outcome.status == Status.OK
        held = list(session.state_bytes())
        assert session.view
        for bid, data in session.view.items():
            assert held.count(data) == 1, bid


class TestReplayDeterminism:
    def test_committed_log_reproduces_durable_image(self):
        ops = [
            op_open(1, 0, "a"),
            op_write(2, 0, 5000),
            op_open(3, 1, "b"),
            op_write(4, 1, 30),
            FileOp(OpCode.CLOSE, 0, 0, 0, (), 5),
        ]
        first = fresh_session()
        for op in ops:
            first.replay_fileop(op)
            first.commit(op.seq)
        second = fresh_session()
        for op in ops:
            second.replay_fileop(op)
            second.commit(op.seq)
        assert first.durable_digest() == second.durable_digest()


class TestJournalPersistence:
    def test_staged_survives_restart_for_commit_resend(self, tmp_path):
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state)
        session.replay_fileop(op_open(1, 0, "f"))
        staged_digest_source = session.durable_digest()
        session.close()
        # restart: the staged delta is still there, the resent commit applies
        revived = ReplicaSession.load(state)
        assert [s for s, _ in revived.staged] == [1]
        assert revived.durable_digest() == staged_digest_source
        assert revived.commit(1)
        assert revived.last_committed == 1

    def test_committed_survives_restart(self, tmp_path):
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state)
        session.replay_fileop(op_open(1, 0, "f"))
        session.commit(1)
        digest = session.durable_digest()
        session.close()
        revived = ReplicaSession.load(state)
        assert revived.durable_digest() == digest
        assert revived.expected_seq == 2

    def test_abort_survives_restart(self, tmp_path):
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state)
        session.replay_fileop(op_open(1, 0, "f"))
        session.abort(1)
        session.close()
        revived = ReplicaSession.load(state)
        assert revived.staged == []
        assert revived.expected_seq == 1

    def test_load_equals_the_live_session_after_every_record(self, tmp_path):
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state)

        def fields(s):
            return s.staged, s.view, s.committed, s.expected_seq, s.last_committed

        steps = [
            lambda: session.replay_fileop(op_open(1, 0, "f")),
            lambda: session.replay_fileop(op_write(2, 0, 5000)),
            lambda: session.replay_fileop(op_open(3, 1, "g")),
            lambda: session.commit(2),
            lambda: session.replay_fileop(op_write(4, 1, 9000)),
            lambda: session.replay_fileop(op_write(5, 0, 300)),
            lambda: session.abort(5),
            lambda: session.abort(6),  # drops nothing: writes no record
            lambda: session.replay_fileop(op_open(5, 0, "f")),
            lambda: session.replay_fileop(op_write(6, 0, 70)),
            lambda: session.abort(4),
            lambda: session.replay_fileop(op_open(4, 2, "h")),
            session.compact,
            lambda: session.commit(4),
        ]
        for step, run in enumerate(steps):
            run()
            assert fields(ReplicaSession.load(state)) == fields(session), step

    def test_compaction_preserves_digest(self, tmp_path):
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state)
        session.replay_fileop(op_open(1, 0, "f"))
        session.commit(1)
        session.replay_fileop(op_write(2, 0, 100))  # left staged
        digest = session.durable_digest()
        session.compact()
        assert session.durable_digest() == digest
        session.close()
        revived = ReplicaSession.load(state)
        assert revived.durable_digest() == digest
        assert [s for s, _ in revived.staged] == [2]

    # The journal ends with a 17-byte COMMIT 1 and an 8217-byte STAGED 2
    # (an 8-byte frame, a 9-byte head and two block entries); each cut
    # tears one of the two.
    @pytest.mark.parametrize("cut", [1, 3, 100, 4100, 8210, 8216, 8218, 8226, 8233])
    def test_torn_tail_is_dropped_and_appends_replay(self, tmp_path, cut):
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state)
        session.replay_fileop(op_open(1, 0, "f"))
        session.commit(1)
        session.replay_fileop(op_open(2, 1, "g"))
        session.close()
        journal = tmp_path / "rep" / "journal.bin"
        journal.write_bytes(journal.read_bytes()[:-cut])
        revived = ReplicaSession.load(state)
        blocks = range(revived.sb.total_blocks)
        assert all(len(revived.read_meta(bid)) == BLOCK_SIZE for bid in blocks)
        assert revived.expected_seq == 2  # STAGED 2 was never answered
        revived.replay_fileop(op_open(2, 2, "h"))
        revived.close()
        again = ReplicaSession.load(state)
        assert again.expected_seq == 3
        assert [again.read_meta(bid) for bid in blocks] == [revived.read_meta(bid) for bid in blocks]

    def test_reload_after_compaction_keeps_the_committed_seq(self, tmp_path):
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state)
        for op in (op_open(1, 0, "f"), op_write(2, 0, 100)):
            session.replay_fileop(op)
            assert session.commit(op.seq)
        digest = session.durable_digest()
        session.compact()
        revived = ReplicaSession.load(state)
        assert (revived.expected_seq, revived.last_committed) == (3, 2)
        assert revived.durable_digest() == digest
        # A COMMIT resent after the restart is still acknowledged.
        ack = revived.handle_message(wire.encode_net(wire.NetKind.COMMIT, 2))
        assert wire.decode_net(ack)[0] == wire.NetKind.ACK
        fileop = wire.encode_fileop(op_open(3, 1, "g"))
        kind, seq, body = wire.decode_net(
            revived.handle_message(wire.encode_net(wire.NetKind.FILEOP, 3, fileop))
        )
        assert (kind, seq) == (wire.NetKind.TRACE_RESP, 3)
        outcome, ok = wire.decode_outcome(OpCode.OPEN, body)
        assert ok and outcome.status == Status.OK

    def test_flipped_byte_in_a_staged_block_drops_it_and_what_follows(self, tmp_path):
        state, path = staged_commit_staged(tmp_path)
        raw = bytearray(path.read_bytes())
        staged_1 = record_offsets(raw)[1]
        raw[staged_1 + journal.HEAD.size + 9 + 4 + 100] ^= 0x01  # inside its first block
        path.write_bytes(bytes(raw))
        revived = ReplicaSession.load(state)
        assert (revived.expected_seq, revived.last_committed, revived.staged) == (1, 0, [])
        assert revived.durable_digest() == fresh_session().durable_digest()
        assert path.stat().st_size == staged_1

    def test_record_of_unknown_kind_ends_the_replay(self, tmp_path):
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state)
        session.replay_fileop(op_open(1, 0, "f"))
        path = tmp_path / "rep" / "journal.bin"
        end = path.stat().st_size
        journal.append(str(path), struct.pack("<BQ", 9, 1))
        journal.append(str(path), struct.pack("<BQ", 2, 1))  # COMMIT 1, after it
        revived = ReplicaSession.load(state)
        assert [s for s, _ in revived.staged] == [1]
        assert (revived.expected_seq, revived.last_committed) == (2, 0)
        assert path.stat().st_size == end

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=48),
        st.builds(
            lambda kind, seq, tail: struct.pack("<BQ", kind, seq) + tail,
            st.integers(0, 255), st.integers(0, 2**64 - 1), st.binary(max_size=16),
        ),
    ))
    @example(struct.pack("<BQ", 1, 0))  # STAGED of a committed seq
    def test_arbitrary_record_body_loads_the_state_before_it(self, body):
        """A record whose CRC holds but whose body is no record the replica
        wrote is refused: the journal loads as it was before the record."""
        kind, seq = struct.unpack_from("<BQ", body.ljust(9, b"\xff"))
        # An empty STAGED record of the next seq is one an op without writes leaves.
        assume(not (len(body) == 9 and kind == 1 and seq == 2))
        with tempfile.TemporaryDirectory() as state:
            session = fresh_session(state_dir=state)
            session.replay_fileop(op_open(1, 0, "f"))
            session.commit(1)

            def fingerprint(s):
                return s.durable_digest(), s.last_committed, s.expected_seq, s.staged, s.view

            before = fingerprint(ReplicaSession.load(state))
            journal.append(state + "/journal.bin", body)
            assert fingerprint(ReplicaSession.load(state)) == before

    def test_journal_compacts_itself(self, tmp_path, monkeypatch):
        # A commit compacts exactly when the records after the checkpoint
        # are longer than the geometry's image (256 KiB at 64 blocks).
        state = str(tmp_path / "rep")
        session = fresh_session(state_dir=state, total=64)
        image = 64 * BLOCK_SIZE
        path = tmp_path / "rep" / "journal.bin"

        def records():
            """Bytes of the records after the checkpoint."""
            raw = path.read_bytes()
            return len(raw) - journal.HEAD.size - journal.HEAD.unpack_from(raw)[0]

        outgrown, compact = [], session.compact
        monkeypatch.setattr(session, "compact", lambda: (outgrown.append(records()), compact()))
        session.replay_fileop(op_open(1, 0, "f"))
        session.commit(1)
        for seq in range(2, 201):
            session.replay_fileop(op_write(seq, 0, 100))
            assert session.commit(seq)
            assert records() <= image, seq
        assert outgrown and all(size > image for size in outgrown)
        revived = ReplicaSession.load(state)
        assert revived.durable_digest() == session.durable_digest()
        assert (revived.expected_seq, revived.last_committed) == (201, 200)

    def test_last_record_torn_at_every_offset(self, tmp_path):
        state, path = staged_commit_staged(tmp_path)
        whole = path.read_bytes()
        start = record_offsets(whole)[-1]  # STAGED 2
        committed = ReplicaSession.load(state).committed
        for cut in range(start, len(whole)):
            path.write_bytes(whole[:cut])
            revived = ReplicaSession.load(state)
            assert (revived.expected_seq, revived.last_committed, revived.staged) == (2, 1, []), cut
            assert revived.committed == committed
            assert path.stat().st_size == start  # the torn tail is gone

    @pytest.mark.parametrize(
        "damage",
        ["parent-format", "empty", "corrupt-checkpoint", "staged-first", "no-superblock", "bad-geometry"],
    )
    def test_journal_without_a_leading_checkpoint_is_refused(self, tmp_path, damage):
        state, path = staged_commit_staged(tmp_path)
        raw = path.read_bytes()
        if damage == "parent-format":
            # The old layout: a raw base image beside unframed records.
            (tmp_path / "rep" / "base.img").write_bytes(mkfs(256, 32).metadata_image)
            raw = struct.pack("<BQI", 1, 1, 1) + struct.pack("<I", 2) + bytes(BLOCK_SIZE)
            raw += struct.pack("<BQI", 2, 1, 0)
        elif damage == "empty":
            raw = b""
        elif damage == "corrupt-checkpoint":
            raw = raw[:20] + bytes([raw[20] ^ 0x01]) + raw[21:]
        elif damage in ("no-superblock", "bad-geometry"):
            # A CRC-valid CHECKPOINT whose block 0 is not a superblock.
            body = struct.pack("<BQ", 4, 0)
            if damage == "bad-geometry":
                sb = replace(mkfs(256, 32).superblock, bitmap_block=2)
                body += journal.pack_blocks([(0, sb.pack().ljust(BLOCK_SIZE, b"\0"))])
            raw = journal.HEAD.pack(len(body), zlib.crc32(body)) + body
        else:
            raw = raw[record_offsets(raw)[1] :]
        path.write_bytes(raw)
        with pytest.raises(BadImageError):
            ReplicaSession.load(state)
        assert path.read_bytes() == raw


def staged_commit_staged(tmp_path):
    """A journal of CHECKPOINT, STAGED 1, COMMIT 1 and STAGED 2."""
    state = str(tmp_path / "rep")
    session = fresh_session(state_dir=state)
    session.replay_fileop(op_open(1, 0, "f"))
    session.commit(1)
    session.replay_fileop(op_open(2, 1, "g"))
    return state, tmp_path / "rep" / "journal.bin"


def record_offsets(raw):
    """Where each framed record of a journal starts."""
    offsets, at = [], 0
    while at < len(raw):
        offsets.append(at)
        at += journal.HEAD.size + journal.HEAD.unpack_from(raw, at)[0]
    return offsets


class TestMessageHandling:
    def test_hello_ack_carries_digest(self):
        session = fresh_session()
        raw = session.handle_message(
            wire.encode_net(wire.NetKind.HELLO, 0, wire.encode_hello(b"\x01" * 16))
        )
        kind, seq, body = wire.decode_net(raw)
        assert kind == wire.NetKind.ACK
        assert body[:32].hex() == session.durable_digest()

    def test_fileop_commit_ack_flow(self):
        session = fresh_session()
        raw = session.handle_message(
            wire.encode_net(wire.NetKind.FILEOP, 1, wire.encode_fileop(op_open(1, 0, "f")))
        )
        kind, seq, body = wire.decode_net(raw)
        assert kind == wire.NetKind.TRACE_RESP and seq == 1
        outcome, ok = wire.decode_outcome(OpCode.OPEN, body)
        assert ok and outcome.status == Status.OK
        raw = session.handle_message(wire.encode_net(wire.NetKind.COMMIT, 1))
        assert wire.decode_net(raw)[0] == wire.NetKind.ACK

    def test_commit_unknown_txn_is_error(self):
        session = fresh_session()
        raw = session.handle_message(wire.encode_net(wire.NetKind.COMMIT, 42))
        kind, _, body = wire.decode_net(raw)
        assert kind == wire.NetKind.ERROR

    def test_malformed_message_answers_bad_message(self):
        session = fresh_session()
        good = wire.encode_fileop(op_open(1, 0, "f"))
        malformed = (
            wire.encode_net(wire.NetKind.FILEOP, 1, good[:-5]),
            wire.encode_net(wire.NetKind.HELLO, 0, b"\x01"),
            wire.encode_net(wire.NetKind.ACK, 0)[:4] + bytes([99]) + bytes(8),  # unknown kind
        )
        for raw in malformed:
            kind, _, body = wire.decode_net(session.handle_message(raw))
            assert kind == wire.NetKind.ERROR
            assert wire.decode_error(body)[0] == ERR_BAD_MESSAGE
        raw = session.handle_message(wire.encode_net(wire.NetKind.FILEOP, 1, good))
        assert wire.decode_net(raw)[:2] == (wire.NetKind.TRACE_RESP, 1)


class TestServer:
    def test_sessions_isolated_by_device(self, tmp_path):
        import socket

        server = ReplicaServer(("127.0.0.1", 0), state_root=str(tmp_path))
        server.register_image(mkfs(64, 32).metadata_image)
        server.serve_in_thread()
        try:
            digests = []
            for device in (b"\x01" * 16, b"\x02" * 16):
                with socket.create_connection(server.server_address) as sock:
                    sock.sendall(
                        wire.encode_net(wire.NetKind.HELLO, 0, wire.encode_hello(device))
                    )
                    raw = wire.read_net_message(sock.recv)
                    digests.append(wire.decode_net(raw)[2][:32])
                    if device[0] == 1:
                        sock.sendall(
                            wire.encode_net(
                                wire.NetKind.FILEOP, 1, wire.encode_fileop(op_open(1, 0, "f"))
                            )
                        )
                        wire.read_net_message(sock.recv)
                        sock.sendall(wire.encode_net(wire.NetKind.COMMIT, 1))
                        wire.read_net_message(sock.recv)
            # device 2 bootstrapped fresh, unaffected by device 1's commit
            session1 = server.session_for(b"\x01" * 16)
            session2 = server.session_for(b"\x02" * 16)
            assert session1.last_committed == 1
            assert session2.last_committed == 0
        finally:
            server.shutdown()

    def test_both_ends_send_without_delay(self):
        import socket

        from twinfs.transport import TcpTransport

        accepted = []

        class Recording(ReplicaServer):
            def process_request(self, request, client_address):
                accepted.append(request)
                super().process_request(request, client_address)

        server = Recording(("127.0.0.1", 0))
        server.register_image(mkfs(64, 32).metadata_image)
        server.serve_in_thread()
        transport = TcpTransport(*server.server_address)
        try:
            hello = wire.encode_hello(b"\x04" * 16)
            transport.send(wire.encode_net(wire.NetKind.HELLO, 0, hello))
            assert wire.decode_net(transport.recv())[0] == wire.NetKind.ACK
            for sock in (transport._sock, accepted[0]):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        finally:
            transport.close()
            server.shutdown()
            server.server_close()

    def test_huge_length_prefix_does_not_take_the_server_down(self):
        import socket

        server = ReplicaServer(("127.0.0.1", 0))
        server.register_image(mkfs(64, 32).metadata_image)
        server.serve_in_thread()
        try:
            with socket.create_connection(server.server_address, timeout=10) as sock:
                sock.sendall(b"\xff\xff\xff\xff")  # a 4 GiB message: refused unread
                kind, seq, body = wire.decode_net(wire.read_net_message(sock.recv))
                assert (kind, seq, wire.decode_error(body)[0]) == (wire.NetKind.ERROR, 0, ERR_BAD_MESSAGE)
                assert sock.recv(1) == b""
            with socket.create_connection(server.server_address, timeout=10) as sock:
                sock.sendall(wire.encode_net(wire.NetKind.HELLO, 0, wire.encode_hello(b"\x05" * 16)))
                kind, _, body = wire.decode_net(wire.read_net_message(sock.recv))
            assert kind == wire.NetKind.ACK and len(body) == 32
        finally:
            server.shutdown()
            server.server_close()

    def test_prefix_shorter_than_a_header_answers_and_closes(self):
        import socket

        from twinfs.harness import build_system

        server = ReplicaServer(("127.0.0.1", 0))
        server.register_image(mkfs(256, 32).metadata_image)
        server.serve_in_thread()
        try:
            with socket.create_connection(server.server_address, timeout=10) as sock:
                sock.sendall(b"\x01\x00\x00\x00")  # a 1-byte message: the framing is lost
                kind, seq, body = wire.decode_net(wire.read_net_message(sock.recv))
                assert (kind, seq, wire.decode_error(body)[0]) == (wire.NetKind.ERROR, 0, ERR_BAD_MESSAGE)
                assert sock.recv(1) == b""
            # An honest device on a second connection still converges.
            system = build_system(total_blocks=256, inode_count=32, replica_addr=server.server_address)
            dev = system.device
            fd = dev.open("f", OpFlag.CREATE)
            dev.write(fd, b"x" * 5000)
            dev.fsync(fd)
            dev.close(fd)
            dev.shutdown()
            session = server.session_for(dev.device_id)
            assert dev.device_metadata_digest() == session.durable_digest()
        finally:
            server.shutdown()
            server.server_close()

    def test_stalled_message_is_closed_and_an_idle_peer_kept(self):
        """A message unfinished read_timeout after its first byte is closed
        without a reply; a connection idle between messages for longer is
        kept; an honest device on another connection converges."""
        import socket
        import time

        from twinfs.harness import build_system

        server = ReplicaServer(("127.0.0.1", 0))
        server.read_timeout = 0.5
        server.register_image(mkfs(256, 32).metadata_image)
        server.serve_in_thread()
        hello = wire.encode_net(wire.NetKind.HELLO, 0, wire.encode_hello(b"\x06" * 16))
        connect = lambda: socket.create_connection(server.server_address, timeout=10)
        try:
            with connect() as idle, connect() as stalled:
                start = time.monotonic()
                stalled.sendall(hello[:10])
                assert stalled.recv(1) == b""
                assert server.read_timeout <= time.monotonic() - start < 5
                system = build_system(total_blocks=256, inode_count=32, replica_addr=server.server_address)
                dev = system.device
                fd = dev.open("f", OpFlag.CREATE)
                dev.write(fd, b"x" * 5000)
                dev.fsync(fd)
                dev.close(fd)
                dev.shutdown()
                assert dev.device_metadata_digest() == server.session_for(dev.device_id).durable_digest()
                idle.sendall(hello)
                assert wire.decode_net(wire.read_net_message(idle.recv))[0] == wire.NetKind.ACK
        finally:
            server.shutdown()
            server.server_close()

    def test_session_that_cannot_load_is_refused_and_closed(self, tmp_path):
        import socket

        from twinfs.device_core import DeviceError
        from twinfs.harness import build_system

        def serve():
            server = ReplicaServer(("127.0.0.1", 0), state_root=str(tmp_path))
            server.register_image(mkfs(256, 32).metadata_image)
            server.serve_in_thread()
            return server

        def device(server):
            return build_system(total_blocks=256, inode_count=32, replica_addr=server.server_address, seed=3).device

        server = serve()
        try:
            device_id = device(server).device_id
        finally:
            server.shutdown()
            server.server_close()
        # The replica restarts over a journal that no longer loads.
        (tmp_path / device_id.hex() / "journal.bin").write_bytes(bytes(64))
        server = serve()
        try:
            with pytest.raises(DeviceError, match="replica error 3: journal.bin"):
                device(server)
            with socket.create_connection(server.server_address, timeout=10) as sock:
                sock.sendall(wire.encode_net(wire.NetKind.HELLO, 0, wire.encode_hello(device_id)))
                kind, seq, body = wire.decode_net(wire.read_net_message(sock.recv))
                assert (kind, seq, wire.decode_error(body)[0]) == (wire.NetKind.ERROR, 0, ERR_BAD_STATE)
                assert sock.recv(1) == b""
        finally:
            server.shutdown()
            server.server_close()

    def test_malformed_message_keeps_connection(self):
        import socket

        server = ReplicaServer(("127.0.0.1", 0))
        server.register_image(mkfs(64, 32).metadata_image)
        server.serve_in_thread()
        try:
            with socket.create_connection(server.server_address, timeout=10) as sock:

                def ask(raw):
                    sock.sendall(raw)
                    return wire.decode_net(wire.read_net_message(sock.recv))

                def refused(raw):
                    kind, _, body = ask(raw)
                    return kind == wire.NetKind.ERROR and wire.decode_error(body)[0] == ERR_BAD_MESSAGE

                hello = wire.encode_hello(b"\x03" * 16)
                good = wire.encode_fileop(op_open(1, 0, "f"))
                assert refused(wire.encode_net(wire.NetKind.HELLO, 0, hello[:-1]))
                assert ask(wire.encode_net(wire.NetKind.HELLO, 0, hello))[0] == wire.NetKind.ACK
                assert refused(wire.encode_net(wire.NetKind.FILEOP, 1, good[:-5]))
                raw = wire.encode_net(wire.NetKind.FILEOP, 1, good)
                assert ask(raw)[:2] == (wire.NetKind.TRACE_RESP, 1)
        finally:
            server.shutdown()
            server.server_close()
