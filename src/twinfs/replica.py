"""The cloud good twin: a metadata-only replica that replays FileOps.

The replica never holds file data. It executes each delegated operation
against its own metadata copy, answers with the resulting block-request
trace plus an ok-to-commit, and makes the staged metadata deltas durable only
when the device sends the final commit (two-phase commit), which commits
every staged op through its seq. Staged deltas are journaled so a commit
resent after a crash can still be applied; replay of op N+1 proceeds against
N's staged state, and aborting N cascades to every later staged transaction.
Like the journal, a session holds redo state only: the new bytes of each
block a staged op wrote.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import threading
import time

from twinfs import journal, stencil, wire
from twinfs.blockstore import BLOCK_SIZE, ZERO_BLOCK
from twinfs.minifs import (
    BadMagicError,
    CorruptSuperblockError,
    Engine,
    INODE_SIZE,
    Inode,
    MODE_FILE,
    MetadataAccessor,
    OpOutcome,
    Status,
    Superblock,
)

ERR_UNKNOWN_TXN = 1
ERR_BAD_MESSAGE = 2
ERR_BAD_STATE = 3
ERR_STAGED_FULL = 4

# The most ops a session stages: twice the most an honest device leaves
# staged, its 64 ops in flight plus 64 validated ones awaiting their group
# commit. A peer that never commits is refused there.
STAGED_MAX = 256

_J_STAGED = 1
_J_COMMIT = 2
_J_ABORT = 3
_J_CHECKPOINT = 4
_J_HEAD = struct.Struct("<BQ")  # kind, seq; block entries follow


class BadImageError(Exception):
    pass


class StagedFull(Exception):
    """A FILEOP arrived with STAGED_MAX ops staged."""


class ReplicaSession(MetadataAccessor):
    """One device's metadata replica plus its 2PC staging journal, kept in
    `journal.bin` under a state directory (PROTOCOL.md, "Durable logs").

    The session is its engine's accessor: the engine reads the view over the
    committed blocks, and its writes go to the view and to the delta of the
    op being replayed."""

    def __init__(self, state_dir: str | None = None):
        self._log = journal.Log(os.path.join(state_dir, "journal.bin")) if state_dir else None
        self.sb: Superblock | None = None
        # Committed non-zero blocks; every other block is zeros.
        self.committed: dict[int, bytes] = {}
        # Staged blocks: the newest staged bytes of each block a staged delta names.
        self.view: dict[int, bytes] = {}
        # (seq, delta) in seq order; a delta maps each block the op wrote to its new bytes.
        self.staged: list[tuple[int, dict[int, bytes]]] = []
        self._delta: dict[int, bytes] = {}
        self.expected_seq = 1
        self.last_committed = 0
        self.cloud_stencils = False
        # Cloud-stencil mode: the map of the current view, and the blocks it
        # reclassified since the last TRACE_RESP.
        self._last_stencil: stencil.StencilMap | None = None
        self._unsent: set[int] = set()
        self.engine: Engine | None = None
        # Whether the last message answered was refused for good: a server
        # closes the connection after that reply.
        self.refused = False

    # -- bootstrap and durable state -------------------------------------

    @classmethod
    def bootstrap(cls, metadata_image: bytes, state_dir: str | None = None) -> "ReplicaSession":
        session = cls(state_dir)
        session.sb = Superblock.unpack(metadata_image[:BLOCK_SIZE])
        if len(metadata_image) % BLOCK_SIZE:
            raise BadImageError("metadata image is not whole blocks")
        for at in range(0, len(metadata_image), BLOCK_SIZE):
            block = bytes(metadata_image[at : at + BLOCK_SIZE])
            if block != ZERO_BLOCK:
                session.committed[at // BLOCK_SIZE] = block
        session._assert_zero_data()
        if state_dir:
            os.makedirs(state_dir, exist_ok=True)
            session.compact()
        session.engine = Engine(session)
        return session

    @classmethod
    def load(cls, state_dir: str) -> "ReplicaSession":
        session = cls()  # no journal yet: replayed commits append nothing
        log = journal.Log(os.path.join(state_dir, "journal.bin"))
        if not log.load(session._replay):
            raise BadImageError("journal.bin does not start with an intact checkpoint")
        session._log = log
        session.engine = Engine(session)
        return session

    def _assert_zero_data(self) -> None:
        sb = self.sb
        if any(bid >= sb.data_start for bid in self.committed):
            raise BadImageError("metadata image carries nonzero data-region bytes")
        # File inodes with inline content must arrive with the window erased;
        # directory inline windows hold entries, which are metadata.
        for index in range(sb.inode_count):
            tbid, off = sb.inode_location(index)
            inode = Inode.unpack(self._read_durable(tbid)[off : off + INODE_SIZE])
            if inode.mode == MODE_FILE and any(inode.inline):
                raise BadImageError("metadata image carries inline file bytes")

    @wire.decoder
    def _replay(self, body: bytes) -> bool:
        """Apply one journal record at load; False or DecodeError for one that
        does not parse or does not follow the records before it."""
        kind, seq = _J_HEAD.unpack_from(body)
        blocks = journal.unpack_blocks(body[_J_HEAD.size :])
        if (kind == _J_CHECKPOINT) != (self.sb is None) or (kind == _J_STAGED and seq != self.expected_seq):
            return False
        if kind == _J_CHECKPOINT:
            try:
                self.sb = Superblock.unpack(blocks.get(0, ZERO_BLOCK))
            except (BadMagicError, CorruptSuperblockError):
                return False
            self.committed = blocks
            self.last_committed, self.expected_seq = seq, seq + 1
            return True
        if kind == _J_STAGED:
            self.view.update(blocks)
            self._stage(seq, blocks)
            return True
        if kind == _J_COMMIT:
            return self.commit(seq)
        return kind == _J_ABORT and self.abort(seq)

    def compact(self) -> None:
        """Rewrite the journal as a checkpoint plus the staged records."""
        if self._log:
            checkpoint = _J_HEAD.pack(_J_CHECKPOINT, self.last_committed) + journal.pack_blocks(
                sorted(self.committed.items())
            )
            self._log.rewrite(checkpoint, [self._staged_record(seq, delta) for seq, delta in self.staged])

    def close(self) -> None:
        """Nothing to release: each journal write opens and closes the file."""

    # -- metadata views ----------------------------------------------------

    def read_meta(self, block_id: int) -> bytes:
        if block_id in self.view:
            return self.view[block_id]
        return self._read_durable(block_id)

    def write_meta(self, block_id: int, data: bytes) -> None:
        self.view[block_id] = self._delta[block_id] = bytes(data)

    def _read_durable(self, block_id: int) -> bytes:
        return self.committed.get(block_id, ZERO_BLOCK)

    def durable_digest(self) -> str:
        return stencil.metadata_digest(self._read_durable, self.sb.total_blocks)

    def state_bytes(self):
        """Every durable and staged block held by the replica, each once
        (taint scans): the view holds the newest staged bytes only."""
        yield from self.committed.values()
        for _, delta in self.staged:
            yield from delta.values()

    # -- 2PC operations ------------------------------------------------------

    def replay_fileop(self, op) -> tuple[OpOutcome, bool]:
        """Execute one delegated op against staged state; stage its delta.
        Raises StagedFull with STAGED_MAX ops staged."""
        if len(self.staged) >= STAGED_MAX:
            raise StagedFull("%d ops staged, none committed" % len(self.staged))
        if op.seq != self.expected_seq:
            return OpOutcome(status=Status.SEQ_GAP), False
        self._delta = {}
        outcome = self.engine.exec_fileop(op)
        self._stage(op.seq, self._delta)
        return outcome, True

    def _stage(self, seq: int, delta) -> None:
        self.staged.append((seq, delta))
        if self._log:
            self._log.append(self._staged_record(seq, delta), sync=True)
        self.expected_seq = seq + 1

    @staticmethod
    def _staged_record(seq: int, delta) -> bytes:
        return _J_HEAD.pack(_J_STAGED, seq) + journal.pack_blocks(sorted(delta.items()))

    def commit(self, seq: int) -> bool:
        """Make every staged delta through `seq` durable with one journal record.
        Idempotent for committed seqs; False for a seq past the last staged one."""
        if seq <= self.last_committed:
            return True
        if not self.staged or self.staged[-1][0] < seq:
            return False
        if self._log:
            self._log.append(_J_HEAD.pack(_J_COMMIT, seq), sync=True)
        while self.staged and self.staged[0][0] <= seq:
            for bid, new in self.staged.pop(0)[1].items():
                if new == ZERO_BLOCK:
                    self.committed.pop(bid, None)
                else:
                    self.committed[bid] = new
        self._rebuild_view()
        self.last_committed = seq
        if self._log and self._log.outgrown(self.sb.total_blocks):
            self.compact()
        return True

    def abort(self, seq: int) -> bool:
        """Drop staged deltas >= seq; cascades forward.

        Dropping an op also clears the engine's fd table, as the device
        resets its local twin's: it reopens each fd at both twins before
        using it again. An abort that drops nothing keeps the table."""
        if seq <= self.last_committed:
            return False
        keep = sum(1 for s, _ in self.staged if s < seq)
        if keep == len(self.staged):
            # Recovery abort of an op that never arrived: nothing to drop.
            return True
        if self._log:
            self._log.append(_J_HEAD.pack(_J_ABORT, seq), sync=True)
        dropped = set().union(*(delta for _, delta in self.staged[keep:]))
        del self.staged[keep:]
        self._rebuild_view()
        if self.engine is not None:  # None while the journal loads
            self.engine.fds.clear()
        self.expected_seq = seq
        if self.cloud_stencils:
            self._restencil(dropped)
        return True

    def _rebuild_view(self) -> None:
        """Redo the surviving staged deltas, oldest first, over the committed map."""
        self.view = {}
        for _, delta in self.staged:
            self.view.update(delta)

    def _restencil(self, dirtied) -> None:
        """Refresh the cloud-stencil map from the blocks the view just changed."""
        self._last_stencil = stencil.refresh(self._last_stencil, dirtied, self.read_meta)
        self._unsent |= self._last_stencil.changed

    def _stencil_delta(self) -> bytes:
        """Entries for the blocks reclassified since the last TRACE_RESP.

        An ABORT's reclassifications count too, even where a later op moved
        a block back to its class at that reply: the device rolled its map
        back to before the aborted op, not to that reply.
        """
        smap = self._last_stencil
        entries = [smap.entry(bid) for bid in sorted(self._unsent)]
        self._unsent = set()
        return wire.encode_stencil_delta(entries)

    # -- message handling -----------------------------------------------------

    def handle_message(self, raw: bytes) -> bytes:
        """Answer one message; one that does not decode gets ERROR
        ERR_BAD_MESSAGE, and a FILEOP past the staged cap ERROR
        ERR_STAGED_FULL, which sets `refused`."""
        seq = 0
        self.refused = False
        try:
            kind, seq, body = wire.decode_net(raw)
            return self._answer(kind, seq, body)
        except wire.DecodeError as exc:
            return _error(seq, ERR_BAD_MESSAGE, str(exc))
        except StagedFull as exc:
            self.refused = True
            return _error(seq, ERR_STAGED_FULL, str(exc))

    def _answer(self, kind: wire.NetKind, seq: int, body: bytes) -> bytes:
        if kind == wire.NetKind.HELLO:
            _, cloud_stencils, _ = wire.decode_hello(body)
            self.cloud_stencils = cloud_stencils
            ack = bytes.fromhex(self.durable_digest())
            self._last_stencil = None
            self._unsent = set()
            if cloud_stencils:
                smap = self._last_stencil = stencil.build_stencils(self.read_meta)
                ack += wire.encode_stencil_delta([smap.entry(bid) for bid in sorted(smap.classes)])
            return wire.encode_net(wire.NetKind.ACK, seq, ack)
        if kind == wire.NetKind.FILEOP:
            op = wire.decode_fileop(body, seq=seq)
            outcome, ok = self.replay_fileop(op)
            resp = wire.encode_outcome(op.op, outcome, ok_to_commit=ok)
            if ok and self.cloud_stencils:
                self._restencil(self.staged[-1][1])
                resp += self._stencil_delta()
            return wire.encode_net(wire.NetKind.TRACE_RESP, seq, resp)
        if kind in (wire.NetKind.COMMIT, wire.NetKind.ABORT):
            done = self.commit(seq) if kind == wire.NetKind.COMMIT else self.abort(seq)
            if done:
                return wire.encode_net(wire.NetKind.ACK, seq)
            return _error(seq, ERR_UNKNOWN_TXN, "unknown txn")
        return _error(seq, ERR_BAD_MESSAGE, "unexpected kind")


def _error(seq: int, code: int, message: str) -> bytes:
    return wire.encode_net(wire.NetKind.ERROR, seq, wire.encode_error(code, message))


class _Handler(socketserver.BaseRequestHandler):
    """One device connection. A peer may idle between messages for as long
    as it likes, but holds the handler to at most `wire.NET_REQUEST_MAX`
    bytes a message and `server.read_timeout` seconds from a message's first
    byte to its last; past either bound it is closed. So is a connection
    whose session refuses a FILEOP past the staged cap, after that reply."""

    def setup(self):
        # Replies are small writes the device waits on; send them at once.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._deadline: float | None = None

    def _recv(self, n: int) -> bytes:
        chunk = self.request.recv(n)
        if self._deadline is None:  # the message has begun
            self._deadline = time.monotonic() + self.server.read_timeout
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("message unfinished after %s s" % self.server.read_timeout)
        self.request.settimeout(left)
        return chunk

    def handle(self):
        server: ReplicaServer = self.server  # type: ignore[assignment]
        session: ReplicaSession | None = None
        try:
            while True:
                raw = None
                try:
                    raw = wire.read_net_message(self._recv, wire.NET_REQUEST_MAX)
                    self._deadline = None
                    self.request.settimeout(None)
                    if session is None:
                        kind, _, body = wire.decode_net(raw)
                        if kind != wire.NetKind.HELLO:
                            break
                        try:
                            session = server.session_for(wire.decode_hello(body)[2])
                        except BadImageError as exc:
                            self.request.sendall(_error(0, ERR_BAD_STATE, str(exc)))
                            return
                except wire.DecodeError as exc:
                    self.request.sendall(_error(0, ERR_BAD_MESSAGE, str(exc)))
                    if raw is None:
                        return  # the framing is lost: close the connection
                    continue
                with server.lock_for(session):
                    self.request.sendall(session.handle_message(raw))
                    if session.refused:
                        return
        except (wire.ChannelClosed, ConnectionError, OSError):
            pass


class ReplicaServer(socketserver.ThreadingTCPServer):
    """Network service hosting one metadata-only session per device."""

    allow_reuse_address = True
    daemon_threads = True
    read_timeout = 10.0  # seconds a peer has to finish a message it has begun

    def __init__(self, listen_addr: tuple[str, int], state_root: str | None = None):
        super().__init__(listen_addr, _Handler)
        self.state_root = state_root
        self._sessions: dict[bytes, ReplicaSession] = {}
        self._locks: dict[int, threading.Lock] = {}
        self._registry_lock = threading.Lock()

    def session_for(self, device_id: bytes) -> ReplicaSession:
        with self._registry_lock:
            session = self._sessions.get(device_id)
            if session is None:
                state_dir = None
                if self.state_root:
                    state_dir = os.path.join(self.state_root, device_id.hex())
                if state_dir and os.path.exists(os.path.join(state_dir, "journal.bin")):
                    session = ReplicaSession.load(state_dir)
                else:
                    session = ReplicaSession.bootstrap(self._initial_image(), state_dir)
                self._sessions[device_id] = session
                self._locks[id(session)] = threading.Lock()
            return session

    def lock_for(self, session: ReplicaSession) -> threading.Lock:
        return self._locks[id(session)]

    def register_image(self, metadata_image: bytes) -> None:
        self._default_image = metadata_image

    def _initial_image(self) -> bytes:
        image = getattr(self, "_default_image", None)
        if image is None:
            raise BadImageError("no metadata image registered and none on disk")
        return image

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread
