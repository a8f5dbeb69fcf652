"""The trusted device core.

Serves POSIX-like file APIs to one client out of a secure fd table, page
cache and block store. Cache misses are delegated to two filesystem twins:
the untrusted local engine behind the stencil-gated channel, and the
metadata-only cloud replica. Only operations both twins agree on survive;
everything executed speculatively from local advice is checkpointed and
rolled back on dissension. Writes, closes and opens of a validated path
(creating or truncating ones too) are asynchronous (the client never waits
for the network), reads are
synchronous unless the fd was opened with the UNTRUSTED flag, and fstat is
answered locally from the device's own size of the file.
"""

from __future__ import annotations

import hmac
import hashlib
import json
import os
import struct
import uuid
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field, replace

from twinfs import journal, stencil, wire
from twinfs.blockstore import BLOCK_SIZE, BlockStore, Checkpoint, OutOfRangeError, ZERO_BLOCK
from twinfs.local_twin import LocalTwin, SyncChannel
from twinfs.minifs import (
    FileOp,
    INLINE_MAX,
    INODE_SIZE,
    Inode,
    MAX_FILE_SIZE,
    OpCode,
    OpFlag,
    OpOutcome,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    SegKind,
    Status,
    Superblock,
    TOKEN_LEN,
)
from twinfs.transport import OfflineError

# Delegated ops awaiting their verdict; a new op first consumes the oldest
# replies, so unread replies and held checkpoints stay bounded.
MAX_IN_FLIGHT = 64


class DeviceError(Exception):
    pass


class NoSuchFileError(DeviceError):
    pass


class NoSpaceError(DeviceError):
    pass


class BadFdError(DeviceError):
    pass


class VerificationFailedError(DeviceError):
    """Twins disagreed; the operation was rolled back."""


class CrashSignal(BaseException):
    """Raised by a crash hook to cut execution at a protocol step."""

    def __init__(self, point: str, seq: int):
        super().__init__(point)
        self.point = point
        self.seq = seq


_STATUS_ERRORS = {
    Status.NO_SUCH_FILE: NoSuchFileError,
    Status.NO_SPACE: NoSpaceError,
    Status.BAD_FD: BadFdError,
    Status.INVALID: DeviceError,
}


def _raise_status(status: Status):
    raise _STATUS_ERRORS.get(status, DeviceError)(status.name)


TRUSTED = "trusted"
UNTRUSTED = "untrusted"

MATCH = "match"
MISMATCH = "mismatch"
LOCAL_REJECT = "local_reject"
CLOUD_REJECT = "cloud_reject"


@dataclass(frozen=True)
class Verdict:
    kind: str
    divergence: int | None = None
    detail: str | None = None  # why the replica refused, from its ERROR reply

    @property
    def is_match(self) -> bool:
        return self.kind == MATCH

    def __str__(self) -> str:
        return self.kind if self.detail is None else "%s (%s)" % (self.kind, self.detail)


def verify_traces(local, cloud) -> Verdict:
    """Element-wise comparison of two block-request traces."""
    for index, (a, b) in enumerate(zip(local, cloud)):
        if a.kind != b.kind or a.block != b.block:
            return Verdict(MISMATCH, index)
    if len(local) != len(cloud):
        return Verdict(MISMATCH, min(len(local), len(cloud)))
    return Verdict(MATCH)


@dataclass
class CacheEntry:
    page: bytearray
    block: int | None = None
    inline: bool = False
    trust: str = TRUSTED
    dirty: bool = False
    valid: list[tuple[int, int]] | None = None  # None = whole page valid


class PageCache:
    """Secure page cache: (file inode, page index) -> page bytes.

    Untrusted and dirty entries are pinned: they are never evicted and never
    flushed. Clean trusted entries evict LRU, reporting their block mapping
    so it can be memoized.
    """

    def __init__(self, capacity: int, on_evict=None):
        self.capacity = capacity
        self.entries: OrderedDict[tuple[int, int], CacheEntry] = OrderedDict()
        self.on_evict = on_evict

    def get(self, key) -> CacheEntry | None:
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
        return entry

    def put(self, key, entry: CacheEntry) -> None:
        self.entries[key] = entry
        self.entries.move_to_end(key)
        self._evict(self.capacity)

    def _evict(self, target: int) -> None:
        """Evict clean trusted entries, LRU first, until at most `target` remain."""
        for key in list(self.entries):
            if len(self.entries) <= target:
                return
            entry = self.entries[key]
            if entry.dirty or entry.trust != TRUSTED:
                continue
            del self.entries[key]
            if self.on_evict:
                self.on_evict(key, entry)

    def over_capacity(self) -> bool:
        return len(self.entries) > self.capacity

    def drop_file(self, inode: int) -> None:
        for key in [k for k in self.entries if k[0] == inode]:
            del self.entries[key]

    def clear_all(self) -> None:
        """Test hook: evict every evictable entry (memoizing mappings)."""
        self._evict(0)


class MemoTable:
    """Validated mappings: (file, page) -> block, so repeat reads skip the
    twins, and path tokens -> inode, so reopens need not wait for a verdict.
    """

    def __init__(self):
        self.entries: dict[tuple, int] = {}

    def put(self, key, block: int) -> None:
        self.entries[key] = block

    def get(self, key) -> int | None:
        return self.entries.get(key)

    def invalidate_file(self, inode: int) -> None:
        for key in [k for k in self.entries if k[0] == inode]:
            del self.entries[key]


@dataclass
class FdEntry:
    inode: int
    pos: int
    twin_pos: int
    flags: int
    tokens: tuple[bytes, ...]
    twin_unknown: bool = False
    closed: bool = False
    failed: bool = False
    last_error: Status | None = None


@dataclass
class PendingOp:
    seq: int
    op: FileOp
    fd: int | None
    file_inode: int | None
    pos_before: int
    checkpoint: Checkpoint
    dirtied: set[int] = field(default_factory=set)
    marked: set[int] = field(default_factory=set)  # unused blocks the gate made metadata
    local: OpOutcome | None = None
    # The local twin's TRACE bytes with the ok-to-commit bit set: the start
    # of the TRACE_RESP body of a replica that agrees with it.
    agreed: bytes | None = None
    cloud: OpOutcome | None = None
    local_violation: str | None = None
    pages: list[tuple[int, int]] = field(default_factory=list)
    # The stencil entry each block changed since this op began had then.
    map_undo: dict[int, tuple] = field(default_factory=dict)
    verdict: Verdict | None = None
    error: Status | None = None
    # A truncating open of the file was accepted behind this op, so its
    # pages and blocks are the old file's: its verdict marks neither.
    truncated: bool = False


@dataclass(eq=False)  # _hello finds its own record by identity
class Expect:
    """One reply the device awaits from the replica, in send order: a
    TRACE_RESP to a FILEOP, an ACK to a HELLO, COMMIT or ABORT."""

    kind: wire.NetKind  # the request's
    seq: int
    pending: PendingOp | None = None


@dataclass
class Metrics:
    sent: Counter = field(default_factory=Counter)  # requests, by wire.NetKind
    matches: int = 0
    mismatches: int = 0
    rejects_served: int = 0

    @property
    def fileops_sent(self) -> int:
        return self.sent[wire.NetKind.FILEOP]

    @property
    def rpc_total(self) -> int:
        return sum(self.sent.values())


@dataclass
class DeviceConfig:
    cache_pages: int = 64
    emergency_bytes: int = 65536
    stencil_source: str = "device"  # or "cloud"
    crash_hook = None

    def __post_init__(self):
        if self.stencil_source not in ("device", "cloud"):
            raise ValueError("stencil_source must be 'device' or 'cloud'")


class MemoryDurability:
    """Durable-state sink kept in process memory (benchmarks and unit tests).

    Each saved delta is merged into one map of the non-zero blocks at once:
    a process crash loses the memory too, so no save needs a commit point.
    """

    def __init__(self):
        self.blocks: dict[int, bytes] | None = None
        self.meta: dict | None = None

    def save_store(self, snapshot, total_blocks: int) -> None:
        if self.blocks is None:
            self.blocks = {}
        for bid, data in snapshot.items():
            if data == ZERO_BLOCK:
                self.blocks.pop(bid, None)
            else:
                self.blocks[bid] = data

    def save_meta(self, meta: dict) -> None:
        self.meta = json.loads(json.dumps(meta))

    def load(self):
        return None if self.blocks is None else dict(self.blocks), self.meta


class FileDurability:
    """Durable-state sink backed by a state directory.

    `store.log` is a `journal.Log` (PROTOCOL.md, "Device"). A store save
    appends a BLOCKS record; a metadata save appends a STATE record, fsynced,
    which commits the BLOCKS records before it. Loading truncates the log
    after the last STATE record it keeps. Once the log has outgrown the
    store's image, a metadata save rewrites it as a CHECKPOINT record of the
    store and that STATE record. The first store save of a sink that was not
    loaded rewrites the log as a CHECKPOINT of what it saves.
    """

    CHECKPOINT, BLOCKS, STATE = b"C", b"B", b"S"  # the kind byte that starts a record body
    _GEOMETRY = struct.Struct("<I")  # a CHECKPOINT's total_blocks

    def __init__(self, state_dir: str):
        os.makedirs(state_dir, exist_ok=True)
        self._log = journal.Log(os.path.join(state_dir, "store.log"))

    def _checkpoint(self, blocks, total_blocks: int) -> bytes:
        live = sorted((bid, data) for bid, data in blocks.items() if data != ZERO_BLOCK)
        return self.CHECKPOINT + self._GEOMETRY.pack(total_blocks) + journal.pack_blocks(live)

    def save_store(self, snapshot, total_blocks: int) -> None:
        if not self._log.size:  # neither loaded nor saved: replace the directory's log
            self._log.rewrite(self._checkpoint(snapshot, total_blocks))
        elif snapshot:
            self._log.append(self.BLOCKS + journal.pack_blocks(snapshot.items()))

    def save_meta(self, meta: dict) -> None:
        body = self.STATE + json.dumps(meta).encode()
        self._log.append(body, sync=True)
        total = meta["total_blocks"]
        if self._log.outgrown(total):
            self._log.rewrite(self._checkpoint(self.load()[0], total), [body])

    def load(self):
        """The blocks and metadata that the last STATE record kept commits;
        (None, None) for a directory without a `store.log`, and DeviceError,
        with the log left as it is, for one that does not start with an
        intact CHECKPOINT record (such as the older layout beside a base image)."""
        if not os.path.exists(self._log.path):
            return None, None
        store, held, state = None, {}, {}

        @wire.decoder
        def parse(body: bytes) -> bool | None:
            nonlocal store
            kind, rest = body[:1], body[1:]
            if (kind == self.CHECKPOINT) != (store is None):
                return False
            if kind == self.CHECKPOINT:
                (total,) = self._GEOMETRY.unpack_from(rest)
                blocks = journal.unpack_blocks(rest[self._GEOMETRY.size :])
                if any(bid >= total for bid in blocks):
                    return False
                store = BlockStore(total, blocks)  # a geometry of 0 raises ValueError
                return True
            if kind == self.BLOCKS:
                blocks = journal.unpack_blocks(rest)
                if any(bid >= store.total_blocks for bid in blocks):
                    return False
                held.update(blocks)
                return None  # kept only once a STATE record commits it
            try:
                meta = json.loads(rest) if kind == self.STATE else None
            except (ValueError, RecursionError):  # not JSON, or nested too deep to parse
                return False
            if not _sound_state(meta, store.total_blocks):
                return False
            for bid, data in held.items():
                store.write_block(bid, data)
            held.clear()
            state["meta"] = meta
            return True

        if not self._log.load(parse):
            raise DeviceError("store.log does not start with an intact checkpoint")
        return store.snapshot(), state.get("meta")


def _count(value) -> bool:
    return type(value) is int and value >= 0  # a bool or 16.0 is no count


def _hex(value, size: int = 16) -> bool:
    return isinstance(value, str) and len(value) == 2 * size and all(c in "0123456789abcdef" for c in value)


def _sound_state(meta, total_blocks: int) -> bool:
    """Whether a STATE record is a store of `total_blocks` whose other fields
    `DeviceCore` reads are absent or of the type and shape `_persist_meta`
    writes."""
    total = meta.get("total_blocks") if isinstance(meta, dict) else None
    if not _count(total) or total != total_blocks:
        return False
    checks = {
        "batch": _count,
        "device_id": _hex,
        "prf_key": _hex,
        "emergency": lambda value: value is None or _sound_emergency(value, total_blocks),
    }
    return all(check(meta[name]) for name, check in checks.items() if name in meta)


def _sound_emergency(emergency, total_blocks: int) -> bool:
    """The extent `_create_emergency` lays out: an in-range block per page,
    and segments of `_EMERGENCY_SEGMENT_PAGES` pages but the last."""
    if not isinstance(emergency, dict):
        return False
    blocks, segments = emergency.get("blocks"), emergency.get("segments")
    if not (isinstance(blocks, list) and isinstance(segments, list)):
        return False
    if not all(isinstance(s, dict) and isinstance(s.get("tokens"), list) for s in segments):
        return False
    full = DeviceCore._EMERGENCY_SEGMENT_PAGES
    sizes = [min(full, len(blocks) - page) * BLOCK_SIZE for page in range(0, len(blocks), full)]
    return (
        _count(emergency.get("size")) and emergency["size"] == len(blocks) * BLOCK_SIZE
        and all(_count(bid) and bid < total_blocks for bid in blocks)
        and [s.get("size") for s in segments] == sizes
        and all(_count(s.get("inode")) and all(_hex(t, TOKEN_LEN) for t in s["tokens"]) for s in segments)
    )


class MetadataGate:
    """Answers the twin's channel requests through the stencil.

    Reads reveal metadata and redact data; writes merge metadata bytes and
    preserve data bytes; requests for pure data blocks are rejected. Every
    block a gated write touches is checkpointed first so a later dissension
    rolls the whole operation back.
    """

    def __init__(self, device: "DeviceCore"):
        self.device = device
        self.current: PendingOp | None = None

    def __call__(self, frames: list[wire.Frame]) -> list[wire.Frame]:
        """Answer one request message of the current op; REJECT a malformed one."""
        device = self.device
        seq = self.current.seq
        kind = frames[0].kind if frames else None
        try:
            blob = wire.accept_message(frames, kind, seq)
        except wire.DecodeError:
            blob = b""
        bid = int.from_bytes(blob[:4], "little")
        if kind == wire.FrameKind.META_READ_REQ and len(blob) == 4:
            if bid >= device.store.total_blocks:
                return wire.fragment_message(wire.FrameKind.META_READ_RESP, seq, ZERO_BLOCK)
            try:
                data = stencil.serve_block_read(device.smap, bid, device.store.read_block(bid))
            except stencil.BlockRejected:
                return self._reject(seq, bid)
            device.twin_cached.add(bid)
            return wire.fragment_message(wire.FrameKind.META_READ_RESP, seq, data)
        if kind != wire.FrameKind.META_WRITE_REQ or len(blob) != 4 + BLOCK_SIZE:
            return self._reject(seq, bid)
        if bid >= device.store.total_blocks:
            return self._reject(seq, bid)
        try:
            merged = stencil.apply_block_write(device.smap, bid, blob[4:], device.store.read_block(bid))
        except stencil.BlockRejected:
            return self._reject(seq, bid)
        self.current.checkpoint.add(bid)
        self.current.dirtied.add(bid)
        device.stencil_dirty.add(bid)
        if device.smap.classify(bid) == stencil.CLASS_UNUSED:
            # A freshly allocated metadata block (directory growth) must
            # read back what the twin wrote; the post-validation refresh
            # settles its real class, and a rollback restores the old map.
            device._note_map({bid: device.smap.entry(bid)})
            device.smap.classes[bid] = stencil.CLASS_METADATA
            self.current.marked.add(bid)
        device.store.write_block(bid, merged)
        # The twin keeps its bytes only if the gate serves exactly them; either
        # way it holds no older view of the block that would need dropping.
        kept = stencil.serve_block_read(device.smap, bid, merged) == blob[4:]
        device.view_changed.discard(bid)
        if kept:
            device.twin_cached.add(bid)
        else:
            device.twin_cached.discard(bid)
        status = wire.META_WRITE_KEPT if kept else b"\x00"
        return [wire.Frame(wire.FrameKind.META_WRITE_RESP, seq, wire.FRAG_HEADER.pack(0) + status)]

    def _reject(self, seq: int, bid: int) -> list[wire.Frame]:
        self.device.metrics.rejects_served += 1
        self.current.local_violation = "the gate rejected a request for block %d" % bid
        payload = wire.FRAG_HEADER.pack(0) + bid.to_bytes(4, "little") + b"\x01"
        return [wire.Frame(wire.FrameKind.REJECT, seq, payload)]


class DeviceCore:
    """One client session's trusted core."""

    def __init__(
        self,
        store: BlockStore,
        transport,
        twin: LocalTwin,
        config: DeviceConfig | None = None,
        durability=None,
        meta: dict | None = None,
    ):
        self.store = store
        self.transport = transport
        self.config = config or DeviceConfig()
        self.durability = durability
        self.metrics = Metrics()
        self.sb = Superblock.unpack(store.read_block(0))
        self.memo = MemoTable()
        self.cache = PageCache(self.config.cache_pages, on_evict=self._memoize_evicted)
        self.fds: dict[int, FdEntry] = {}
        self.file_sizes: dict[int, int] = {}
        self.pending: deque[PendingOp] = deque()
        # Seqs validated since the last group commit, in seq order.
        self._validated: list[int] = []
        # A failed op that no open fd is left to report: a pipelined CLOSE,
        # or an op whose fd was closed behind it.
        self._orphan_failed = False
        self._expected: deque[Expect] = deque()
        self.offline_queue: list[tuple] = []
        self.gate = MetadataGate(self)
        self.twin = twin
        self.channel = SyncChannel(self.gate, twin)
        self.smap = stencil.build_stencils(store.read_block)
        # Blocks whose bytes or map entry changed since the last refresh. A
        # scrub's zeroing is left out: it never touches what the map is read from.
        self.stencil_dirty: set[int] = set()
        # The blocks the twin's cache holds as the gate served them, and the
        # blocks whose served view may have changed since the twin's last op:
        # the store records byte changes into it, _note_map map changes.
        self.twin_cached: set[int] = set()
        self.view_changed: set[int] = set()
        store.touched = self.view_changed
        twin.reset_engine()  # it may hold blocks of another core's store

        meta = meta or {}
        self.device_id = bytes.fromhex(meta["device_id"]) if meta.get("device_id") else uuid.uuid4().bytes
        self.prf_key = bytes.fromhex(meta["prf_key"]) if meta.get("prf_key") else os.urandom(16)
        # The last seq of the last group commit, 0 before the first; every
        # seq up to it is committed.
        self.batch = meta.get("batch", 0)
        self.next_seq = self.batch + 1
        self.emergency: dict | None = meta.get("emergency")
        self.last_replica_digest = ""
        if self.emergency:
            self._memoize_emergency()
        if not self.offline:
            self._hello()
            if self.config.emergency_bytes and not self.emergency:
                self._create_emergency()

    def _memoize_emergency(self) -> None:
        cursor = 0
        for segment in self.emergency["segments"]:
            for page in range(segment["size"] // BLOCK_SIZE):
                self.memo.entries[(segment["inode"], page)] = self.emergency["blocks"][cursor]
                cursor += 1

    # -- construction helpers ------------------------------------------------

    @classmethod
    def load(cls, durability, transport, twin, config=None) -> "DeviceCore":
        snapshot, meta = durability.load()
        if meta is None or snapshot is None:
            raise DeviceError("no durable device state to load")
        store = BlockStore(meta["total_blocks"], snapshot)
        store.mark_saved()
        return cls(store, transport, twin, config, durability, meta)

    @property
    def offline(self) -> bool:
        return bool(getattr(self.transport, "severed", False))

    def size_of(self, inode: int) -> int:
        size = self.file_sizes.get(inode)
        if size is None:
            size = self._inode_size(inode)
            self.file_sizes[inode] = size
        return size

    def obfuscate(self, path: str) -> tuple[bytes, ...]:
        """Keyed PRF per path component; deterministic so twins can walk paths."""
        parts = [p for p in path.split("/") if p]
        return tuple(
            hmac.new(self.prf_key, p.encode("utf-8"), hashlib.sha256).digest()[:TOKEN_LEN]
            for p in parts
        )

    def device_metadata_digest(self) -> str:
        return stencil.metadata_digest(self.store.read_block, self.store.total_blocks)

    # -- durable state ---------------------------------------------------------

    def _persist_meta(self) -> None:
        if self.durability is not None:
            self.durability.save_meta({
                "device_id": self.device_id.hex(),
                "prf_key": self.prf_key.hex(),
                "batch": self.batch,
                "emergency": self.emergency,
                "total_blocks": self.store.total_blocks,
            })

    def _persist_store(self, ids=None) -> None:
        if self.durability is not None:
            self.durability.save_store(self.store.take_unsaved(ids), self.store.total_blocks)

    def persist(self, ids=None) -> None:
        """Save the store (only `ids`, if given) and commit it."""
        self._persist_store(ids)
        self._persist_meta()

    def _crash_hook(self, point: str, seq: int) -> None:
        hook = self.config.crash_hook
        if hook is not None:
            hook(point, seq)

    # -- network plumbing -------------------------------------------------------

    def _request(self, kind: wire.NetKind, seq: int, body: bytes = b"", pending=None) -> Expect:
        """Send a request; its reply is awaited in send order."""
        self.transport.send(wire.encode_net(kind, seq, body))
        self.metrics.sent[kind] += 1
        expect = Expect(kind, seq, pending)
        self._expected.append(expect)
        return expect

    def _hello(self) -> None:
        hello = wire.encode_hello(self.device_id, self.config.stencil_source == "cloud")
        expect = self._request(wire.NetKind.HELLO, 0, hello)
        while expect in self._expected:
            self._consume_next()

    def _consume_next(self) -> None:
        """Take the oldest awaited reply: a TRACE_RESP to a FILEOP, an ACK to the
        rest, of the request's seq. Any other is a refusal: a verdict or a DeviceError."""
        expect = self._expected.popleft()
        want = wire.NetKind.TRACE_RESP if expect.kind == wire.NetKind.FILEOP else wire.NetKind.ACK
        try:
            kind, seq, body = wire.decode_net(self.transport.recv())
        except wire.DecodeError:
            kind, seq, body = None, None, b""
        accepted = (kind, seq) == (want, expect.seq)
        if expect.kind == wire.NetKind.FILEOP:
            if expect.pending.verdict is None:
                # A resolved op was rolled back behind an earlier failure. An
                # ABORT needs no answer: it cascades and takes a seq never sent.
                self._handle_trace_resp(expect.pending, body if accepted else None, _refusal(kind, body))
        elif not accepted:
            reason = _refusal(kind, body) or "%s reply for seq %s" % (getattr(kind, "name", "malformed"), seq)
            request = expect.kind.name.lower()
            raise DeviceError("replica refused %s of seq %d: %s" % (request, expect.seq, reason))
        elif expect.kind == wire.NetKind.HELLO:
            self._handle_hello_ack(body)
        if self._validated and not self.pending:
            self._group_commit()

    def _handle_hello_ack(self, body: bytes) -> None:
        """Take the replica's 32-byte digest and, in cloud-stencil mode, the
        stencil map dump after it: the body holds these and nothing else."""
        cloud = self.config.stencil_source == "cloud"
        try:
            entries, end = wire.decode_stencil_delta(body, 32) if cloud else ((), 32)
            if len(body) != end:
                raise wire.DecodeError("%d bytes, expected %d" % (len(body), end))
        except wire.DecodeError as exc:
            raise DeviceError("malformed stencil map or digest in hello ack: %s" % exc)
        self.last_replica_digest = body[:32].hex()
        if cloud:
            self.smap = stencil.StencilMap.of_entries(self.store.total_blocks, entries)
            self.view_changed |= self.twin_cached  # the new map may serve any block anew

    def fetch_replica_digest(self) -> str:
        """Ask the replica for its durable metadata digest (rides a HELLO)."""
        self.drain_all()
        self._hello()
        return self.last_replica_digest

    # -- delegation pipeline -----------------------------------------------------

    def _alloc_fd(self) -> int:
        # A number that an op in flight names stays taken, so that a failure
        # of an op whose fd was closed is never charged to a new fd.
        used = set(self.fds).union(p.op.fd for p in self.pending)
        fd = 0
        while fd in used:
            fd += 1
        return fd

    def _delegate(self, op: FileOp, fd: int | None, file_inode: int | None, pos_before: int) -> PendingOp:
        if self.offline:
            raise OfflineError("cloud unreachable")
        if len(self._validated) >= MAX_IN_FLIGHT:
            self.drain_ops()  # the group commit runs once nothing is in flight
        while len(self.pending) >= MAX_IN_FLIGHT:
            self._consume_next()
        if self.offline_queue:
            self._flush_offline_queue()
        seq = self.next_seq
        self.next_seq += 1
        op = replace(op, seq=seq)
        pending = PendingOp(
            seq=seq,
            op=op,
            fd=fd,
            file_inode=file_inode,
            pos_before=pos_before,
            checkpoint=self.store.checkpoint(()),
        )
        self._crash_hook("before_delegate", seq)
        self._request(wire.NetKind.FILEOP, seq, wire.encode_fileop(op), pending)
        self.pending.append(pending)
        self._crash_hook("after_replay_staged", seq)
        self._run_local(pending)
        if pending.local is not None and pending.local.status == Status.OK:
            self._speculate(pending)
        return pending

    def _run_local(self, pending: PendingOp) -> None:
        self.gate.current = pending
        try:
            frames = self._invalidate(pending.seq) + wire.fragment_message(
                wire.FrameKind.FILEOP, pending.seq, wire.encode_fileop(pending.op)
            )
            blob = wire.accept_message(self.channel.delegate(frames), wire.FrameKind.TRACE, pending.seq)
            pending.local, _ = wire.decode_outcome(pending.op.op, blob)
            pending.agreed = bytes((blob[0] | wire.OUTCOME_OK_TO_COMMIT,)) + blob[1:]
        except wire.DecodeError as exc:
            pending.local_violation = str(exc)
        finally:
            self.gate.current = None

    def _invalidate(self, seq: int) -> list[wire.Frame]:
        """The INVALIDATE frame naming the blocks the twin caches whose
        served view may have changed since its last op, or no frame.

        Ids too many for one frame drop the twin's whole cache instead, the
        direct way a rollback does; its engine keeps its fds, which the op
        about to run may use.
        """
        stale = sorted(self.view_changed & self.twin_cached)
        self.view_changed.clear()
        if not stale:
            return []
        if len(stale) > wire.INVALIDATE_MAX:
            self.twin.cache.clear()
            self.twin_cached.clear()
            return []
        self.twin_cached.difference_update(stale)
        return wire.fragment_message(wire.FrameKind.INVALIDATE, seq, wire.encode_block_ids(stale))

    # -- speculative execution ----------------------------------------------------

    def _speculate(self, pending: PendingOp) -> None:
        """Execute the local twin's advised data movement, checkpointed."""
        local = pending.local
        op = pending.op
        if op.op != OpCode.WRITE or local.status != Status.OK:
            return
        targets = [seg.target for seg in local.segments if seg.kind == SegKind.BLOCK]
        if local.promote is not None:
            targets.append(local.promote.dst_block)
        if not all(self._may_hold_payload(bid) for bid in targets):
            pending.local_violation = "payload advised into a block outside the data region"
            return
        inodes = [seg.target for seg in local.segments if seg.kind == SegKind.INLINE]
        if local.promote is not None:
            inodes.append(local.promote.inode)
        if any(i != pending.file_inode for i in inodes):
            pending.local_violation = "inline payload advised into another inode"
            return
        cursor = pending.pos_before
        for seg in local.segments:
            start = cursor % BLOCK_SIZE
            if seg.kind == SegKind.BLOCK and (seg.offset != start or start + seg.length > BLOCK_SIZE):
                pending.local_violation = "payload advised at another offset than the write's"
                return
            cursor += seg.length
        inode = pending.file_inode
        cp = pending.checkpoint
        for req in local.trace:
            if 0 <= req.block < self.store.total_blocks:
                cp.add(req.block)
        if local.promote is not None:
            self._apply_promote(pending, local.promote)
        cursor = pending.pos_before
        for seg in local.segments:
            chunk = self._payload_from_cache(inode, cursor, seg.length)
            if seg.kind == SegKind.BLOCK:
                cp.add(seg.target)
                base = bytearray(ZERO_BLOCK) if seg.fresh else bytearray(self.store.read_block(seg.target))
                base[seg.offset : seg.offset + seg.length] = chunk
                self.store.write_block(seg.target, bytes(base))
                self.stencil_dirty.add(seg.target)
                self._fill_cache_page(
                    inode, cursor // BLOCK_SIZE, bytes(base), block=seg.target, pending=pending
                )
            elif seg.kind == SegKind.INLINE:
                self._write_inline(pending, seg.target, seg.offset, chunk)
            cursor += seg.length

    def _may_hold_payload(self, bid: int) -> bool:
        """Client payload lands only in data or unused blocks past the layout."""
        in_data_region = self.sb.data_start <= bid < self.store.total_blocks
        return in_data_region and self.smap.classify(bid) in (stencil.CLASS_DATA, stencil.CLASS_UNUSED)

    def _apply_promote(self, pending: PendingOp, promote) -> None:
        tbid, start, end = self.sb.inline_window(promote.inode)
        pending.checkpoint.add(tbid)
        pending.checkpoint.add(promote.dst_block)
        window = self.store.read_block(tbid)[start : start + promote.length]
        block = bytearray(ZERO_BLOCK)
        block[: promote.length] = window
        self.store.write_block(promote.dst_block, bytes(block))
        self.stencil_dirty.add(promote.dst_block)

    def _write_inline(self, pending: PendingOp, inode: int, offset: int, chunk: bytes) -> None:
        tbid, start, end = self.sb.inline_window(inode)
        if start + offset + len(chunk) > end:
            return
        pending.checkpoint.add(tbid)
        raw = bytearray(self.store.read_block(tbid))
        raw[start + offset : start + offset + len(chunk)] = chunk
        self.store.write_block(tbid, bytes(raw))
        # The window now holds payload; gate it out before validation catches
        # up, or the next op's inode write would clobber (and leak) it.
        self._note_map({tbid: self.smap.entry(tbid)})
        stencil.exclude_range(self.smap, tbid, start, end)
        self.stencil_dirty.add(tbid)
        page = bytearray(BLOCK_SIZE)
        page[: end - start] = self.store.read_block(tbid)[start:end]
        self._fill_cache_page(pending.file_inode, 0, bytes(page), inline=True, pending=pending)

    def _payload_from_cache(self, inode: int, offset: int, length: int) -> bytes:
        page = offset // BLOCK_SIZE
        start = offset % BLOCK_SIZE
        entry = self.cache.get((inode, page))
        if entry is None:
            return bytes(length)
        return bytes(entry.page[start : start + length])

    def _fill_cache_page(
        self,
        inode: int,
        page: int,
        content: bytes,
        block: int | None = None,
        inline: bool = False,
        pending: PendingOp | None = None,
        trust: str = TRUSTED,
    ) -> None:
        key = (inode, page)
        entry = self.cache.get(key)
        if entry is None:
            entry = CacheEntry(page=bytearray(content))
            self.cache.put(key, entry)
        else:
            entry.page[:] = content
        entry.block = block
        entry.inline = inline
        entry.trust = trust
        entry.dirty = False
        entry.valid = None
        if pending is not None and key not in pending.pages:
            pending.pages.append(key)

    def _stage_payload(self, inode: int, pos: int, data: bytes) -> None:
        """Copy client payload into dirty cache pages."""
        cursor = 0
        while cursor < len(data):
            offset = pos + cursor
            page = offset // BLOCK_SIZE
            start = offset % BLOCK_SIZE
            take = min(len(data) - cursor, BLOCK_SIZE - start)
            key = (inode, page)
            entry = self.cache.get(key)
            if entry is None:
                entry = CacheEntry(page=bytearray(BLOCK_SIZE), valid=[])
                self.cache.put(key, entry)
            entry.page[start : start + take] = data[cursor : cursor + take]
            entry.dirty = True
            entry.trust = TRUSTED
            if entry.valid is not None:
                entry.valid.append((start, start + take))
            cursor += take

    # -- verdicts -------------------------------------------------------------------

    def _judge(
        self, pending: PendingOp, body: bytes | None, refusal: str | None
    ) -> tuple[Verdict, OpOutcome | None, list | None]:
        """The verdict on an op's TRACE_RESP body, None for a refusal `refusal`
        may explain, with the replica's outcome and stencil delta in it.

        A body that starts with the local twin's TRACE bytes, ok-to-commit
        set, holds the twin's outcome: only any other body is decoded and
        compared with it.
        """
        try:
            if body is None:
                raise wire.DecodeError("replica refused seq %d" % pending.seq)
            agreed = pending.agreed
            if agreed is not None and body.startswith(agreed):
                cloud, ok, offset = pending.local, True, len(agreed)
            else:
                cloud, ok, offset = wire.decode_outcome_at(pending.op.op, body)
            delta = None
            if self.config.stencil_source == "cloud" and offset < len(body):
                delta, offset = wire.decode_stencil_delta(body, offset)
            if offset != len(body):
                raise wire.DecodeError("trailing bytes after the outcome")
        except wire.DecodeError:
            return Verdict(CLOUD_REJECT, detail=refusal), None, None
        local = pending.local
        if pending.local_violation or local is None or local.status == Status.REJECTED:
            verdict = Verdict(LOCAL_REJECT)
        elif cloud.status == Status.SEQ_GAP or not ok:
            verdict = Verdict(CLOUD_REJECT)
        elif cloud is local:
            verdict = Verdict(MATCH)
        else:
            verdict = verify_traces(local.trace, cloud.trace)
            if verdict.is_match and local != cloud:
                verdict = Verdict(MISMATCH, -1)
        return verdict, cloud, delta

    def _handle_trace_resp(self, pending: PendingOp, body: bytes | None, refusal: str | None) -> None:
        verdict, pending.cloud, delta = self._judge(pending, body, refusal)
        if verdict.is_match:
            self.metrics.matches += 1
            self._apply_match(pending, pending.cloud, delta)
        else:
            self.metrics.mismatches += 1
            self._fail_pending(pending, verdict, pending.cloud)

    def _apply_match(self, pending: PendingOp, cloud: OpOutcome, delta) -> None:
        pending.verdict = Verdict(MATCH)
        self.pending.remove(pending)
        self.store.discard(pending.checkpoint)
        if cloud.status != Status.OK:
            # Twins agree the op fails. Any metadata they wrote before failing
            # is identical on both sides, so the transaction still commits;
            # only the client payload never made it to storage.
            if not pending.truncated:
                self._taint_pages(pending)
            pending.error = cloud.status
            self._record_fd_error(pending, cloud.status)
            if pending.file_inode is not None:
                # undo the optimistic size/position advance of a failed write
                size = self._inode_size(pending.file_inode)
                self.file_sizes[pending.file_inode] = size
                for entry in self.fds.values():
                    if entry.inode == pending.file_inode:
                        entry.pos = min(entry.pos, size)
                        entry.twin_pos = -1
        else:
            self._memo_update(pending, cloud)
            if pending.dirtied:
                self._refresh_stencils(delta, pending.marked)
            for key in () if pending.truncated else pending.pages:
                entry = self.cache.entries.get(key)
                if entry is not None:
                    entry.trust = TRUSTED
        self._validated.append(pending.seq)

    def _group_commit(self) -> None:
        """Save and commit every op validated since the last group commit.

        It runs once no op is in flight, so the store holds validated bytes
        only. The metadata save is the commit point: it makes the store save
        durable and names the batch's last seq, whose COMMIT commits the
        whole batch (PROTOCOL.md, "Device") and is what recovery resends.
        """
        last, self._validated = self._validated[-1], []
        self._persist_store()
        self._crash_hook("after_device_exec", last)
        self.batch = last
        self._persist_meta()
        self._crash_hook("after_device_commit", last)
        self._request(wire.NetKind.COMMIT, last)
        self._crash_hook("after_replica_commit", last)

    def _memo_update(self, pending: PendingOp, cloud: OpOutcome) -> None:
        op = pending.op
        if op.op == OpCode.OPEN:
            # twinfs never unlinks or renames, so the binding never changes.
            self.memo.put(op.name_tokens, cloud.inode)
            return
        if op.op not in (OpCode.READ, OpCode.WRITE) or pending.truncated:
            return
        cursor = pending.pos_before
        for seg in cloud.segments:
            if seg.kind == SegKind.BLOCK:
                self.memo.put((pending.file_inode, cursor // BLOCK_SIZE), seg.target)
            cursor += seg.length

    def _refresh_stencils(self, delta, marked=(), undo=None) -> None:
        """Bring the map up to date: from the replica's delta in cloud mode,
        else from the blocks touched since the last refresh.

        After a local-stencil rollback, `undo` holds the entries the
        rolled-back op began with: the restored bytes date from then, so
        they are scrubbed against those entries.
        """
        if self.config.stencil_source == "cloud":
            self.stencil_dirty.clear()
            entries = list(delta or ())
            # Blocks the op's gate writes marked as metadata stay unused
            # unless the replica's delta says otherwise.
            named = {bid for bid, _, _ in entries}
            entries += [(bid, stencil.CLASS_UNUSED, ()) for bid in sorted(marked) if bid not in named]
            if entries:
                before = {bid: self.smap.entry(bid) for bid, _, _ in entries}
                self.smap.apply_delta(entries)
                self._note_map(before)
                # A later rollback must keep this op's changes.
                for p in self.pending:
                    for bid in before:
                        p.map_undo.pop(bid, None)
                self._scrub(before)
            return
        if self.stencil_dirty:
            dirty, self.stencil_dirty = self.stencil_dirty, set()
            self.smap = stencil.refresh(self.smap, dirty, self.store.read_block)
            self._note_map(self.smap.before)
            self._scrub({**self.smap.before, **(undo or {})})

    def _note_map(self, before) -> None:
        """Record the blocks whose map entry changes, given the entries they
        had: for the twin's cache, and for every pending op the first entry
        each had."""
        self.view_changed.update(before)
        for p in self.pending:
            for bid, entry in before.items():
                p.map_undo.setdefault(bid, entry)

    def _scrub(self, before) -> None:
        """Zero the bytes the map turned from data into metadata, given the
        entries the blocks had before.

        Only data-region blocks and the inline windows of table blocks can
        hold payload, so nothing else is zeroed: not the layout, and not the
        inode heads the map is classified from.
        """
        old = stencil.StencilMap.of_entries(self.smap.total_blocks, before.values())
        sb = self.sb
        for bid, start, end in stencil.scrub_ranges(old, self.smap):
            if sb.data_start <= bid < self.store.total_blocks:
                spans = [(start, end)]
            elif sb.inode_table_start <= bid < sb.data_start:
                windows = range(INODE_SIZE - INLINE_MAX, BLOCK_SIZE, INODE_SIZE)
                spans = [(max(start, w), min(end, w + INLINE_MAX)) for w in windows]
            else:
                continue
            raw = self.store.read_block(bid)
            patched = bytearray(raw)
            for s, e in spans:
                if s < e:
                    patched[s:e] = bytes(e - s)
            if patched != raw:
                self.store.write_block(bid, bytes(patched))

    def _taint_pages(self, pending: PendingOp) -> None:
        for key in pending.pages:
            # A speculated page is clean and trusted, so an eviction before
            # the verdict may have memoized the block the twin advised.
            self.memo.entries.pop(key, None)
            entry = self.cache.entries.get(key)
            if entry is not None:
                entry.trust = UNTRUSTED
                entry.dirty = True

    def _record_fd_error(self, pending: PendingOp, status: Status) -> None:
        if pending.fd is not None and pending.fd in self.fds:
            self.fds[pending.fd].last_error = status

    def _fail_pending(self, pending: PendingOp, verdict: Verdict, cloud: OpOutcome | None) -> None:
        """Mismatch path: roll back this op and everything stacked on it."""
        restored: set[int] = set()
        # Every op in flight is `pending` or stacked on it. Newest first, so
        # each block ends at its pre-image from before `pending`.
        for p in reversed(list(self.pending)):
            restored.update(p.checkpoint.saved)
            self.store.rollback(p.checkpoint)
            self._taint_pages(p)
            p.verdict = verdict if p is pending else Verdict(CLOUD_REJECT)
            self.pending.remove(p)
            self._mark_failed(p)
        if self.config.stencil_source == "cloud":
            # The map as the op began with it, keeping the deltas of ops
            # validated since. Earlier pending ops already hold these blocks
            # in their own undo entries.
            self.smap.apply_delta(pending.map_undo.values())
        else:
            self.stencil_dirty |= restored
            self._refresh_stencils(None, undo=pending.map_undo)
        if not self.offline:
            self._request(wire.NetKind.ABORT, pending.seq)
        self.next_seq = pending.seq
        # The local twin may have installed state for aborted ops; force a
        # fresh engine and cache, and lazy reopen/reseek of every surviving fd.
        self.twin.reset_engine()
        self.twin_cached.clear()
        for entry in self.fds.values():
            entry.twin_unknown = True
            entry.twin_pos = -1
            size = self._inode_size(entry.inode)
            self.file_sizes[entry.inode] = size
            entry.pos = min(entry.pos, size)

    def _inode_size(self, inode: int) -> int:
        tbid, off = self.sb.inode_location(inode)
        raw = self.store.read_block(tbid)
        return Inode.unpack(raw[off : off + INODE_SIZE]).size

    def _mark_failed(self, pending: PendingOp) -> None:
        if pending.fd is not None and pending.fd in self.fds:
            self.fds[pending.fd].failed = True
        elif pending.fd is not None or pending.op.op == OpCode.CLOSE:
            # An op whose fd was closed behind it, or a CLOSE: no fd is left
            # to report it. An OPEN without an fd is waited for by open().
            self._orphan_failed = True

    def _take_failure(self, entry: FdEntry) -> bool:
        """Whether an op on this fd, or one no fd reports, failed since the
        last call that reported a failure; clears both."""
        failed = entry.failed or self._orphan_failed
        entry.failed = self._orphan_failed = False
        return failed

    # -- draining ---------------------------------------------------------------

    def _drain_through(self, pending: PendingOp) -> None:
        while pending.verdict is None:
            if not self._expected:
                raise DeviceError("response expected but none outstanding")
            self._consume_next()
        if not pending.verdict.is_match:
            # The caller raises for its op, which an earlier failure rolled back.
            self._orphan_failed = False

    def drain_ops(self) -> None:
        """Resolve every outstanding delegated operation (not commit acks)."""
        while any(e.kind == wire.NetKind.FILEOP for e in self._expected):
            self._consume_next()

    def drain_all(self) -> None:
        while self._expected:
            self._consume_next()

    # -- fd helpers -----------------------------------------------------------------

    def _fd(self, fd: int) -> FdEntry:
        try:
            entry = self.fds[fd]
        except KeyError:
            raise BadFdError("fd %d is not open" % fd)
        if entry.closed:
            raise BadFdError("fd %d was closed" % fd)
        return entry

    def _realign_twins(self, fd: int, entry: FdEntry) -> None:
        if entry.twin_unknown:
            op = FileOp(OpCode.OPEN, fd, entry.flags & ~(OpFlag.CREATE | OpFlag.TRUNC), 0, entry.tokens)
            self._delegate(op, fd, entry.inode, 0)
            entry.twin_unknown = False
            entry.twin_pos = 0
        if entry.twin_pos != entry.pos:
            op = FileOp(OpCode.LSEEK, fd, SEEK_SET, entry.pos)
            self._delegate(op, fd, entry.inode, entry.pos)
            entry.twin_pos = entry.pos

    # -- client API --------------------------------------------------------------------

    def open(self, path: str, flags: int = 0) -> int:
        tokens = self.obfuscate(path)
        if not tokens:
            raise NoSuchFileError("empty path")
        if self.offline:
            return self._open_offline(path, tokens, flags)
        fd = self._alloc_fd()
        op = FileOp(OpCode.OPEN, fd, flags, 0, tokens)
        truncating = bool(flags & OpFlag.TRUNC)
        inode = self.memo.get(tokens)
        if inode is None:
            pending = self._delegate(op, None, None, 0)
        else:
            # A validated path names the same inode for good: go on once the
            # local twin agrees, and let the verdict arrive like a write's.
            self.fds[fd] = FdEntry(inode=inode, pos=0, twin_pos=0, flags=flags, tokens=tokens)
            pending = self._delegate(op, fd, inode, 0)
            local = pending.local
            if (
                local is not None
                and local.status == Status.OK
                and local.inode == inode
                and not pending.local_violation
                and not (truncating and local.size)
            ):
                if truncating:
                    self._drop_truncated(inode)
                self.file_sizes[inode] = 0 if truncating else self._inode_size(inode)
                return fd
            del self.fds[fd]
        self._drain_through(pending)
        if not pending.verdict.is_match:
            raise VerificationFailedError("open diverged: %s" % pending.verdict)
        if pending.error is not None:
            _raise_status(pending.error)
        cloud = pending.cloud
        self.fds[fd] = FdEntry(
            inode=cloud.inode, pos=0, twin_pos=0, flags=flags, tokens=tokens
        )
        if truncating:
            self._drop_truncated(cloud.inode)
        self.file_sizes[cloud.inode] = cloud.size
        return fd

    def _drop_truncated(self, inode: int) -> None:
        """Forget the blocks and pages of a file an accepted TRUNC open
        emptied. An op on the file still in flight (delegated before the
        open) speaks of the old file: its verdict must not bring them back.
        """
        self.memo.invalidate_file(inode)
        self.cache.drop_file(inode)
        for p in self.pending:
            if p.file_inode == inode and p.op.op in (OpCode.READ, OpCode.WRITE):
                p.truncated = True

    def _open_offline(self, path: str, tokens, flags: int) -> int:
        if flags & (OpFlag.CREATE | OpFlag.TRUNC):
            raise OfflineError("cannot create or truncate while disconnected")
        inode, size = self._memoized_file(tokens)
        if inode is None:
            raise OfflineError("file not fully memoized; open requires the cloud")
        fd = self._alloc_fd()
        self.fds[fd] = FdEntry(
            inode=inode, pos=0, twin_pos=0, flags=flags,
            tokens=tokens, twin_unknown=True,
        )
        self.file_sizes[inode] = size
        return fd

    def _memoized_file(self, tokens) -> tuple[int | None, int]:
        if self.emergency:
            for segment in self.emergency["segments"]:
                if tokens == tuple(bytes.fromhex(t) for t in segment["tokens"]):
                    return segment["inode"], segment["size"]
        return None, 0

    def read(self, fd: int, length: int) -> tuple[bytes, str]:
        entry = self._fd(fd)
        n = min(length, max(self.size_of(entry.inode) - entry.pos, 0))
        if n <= 0:
            return b"", TRUSTED
        served = self._read_cached(entry, n)
        if served is not None:
            data, trust = served
            entry.pos += len(data)
            return data, trust
        if self.offline:
            raise OfflineError("read needs the twins and the device is disconnected")
        self._realign_twins(fd, entry)
        op = FileOp(OpCode.READ, fd, 0, length)
        pending = self._delegate(op, fd, entry.inode, entry.pos)
        if entry.flags & OpFlag.UNTRUSTED:
            if pending.local is None or pending.local.status != Status.OK:
                self._drain_through(pending)
                raise VerificationFailedError("local twin failed the read")
            data = self._materialize(pending, pending.local, trust=UNTRUSTED)
            entry.pos = entry.pos + len(data)
            entry.twin_pos = pending.local.position
            return data, UNTRUSTED
        self._drain_through(pending)
        if not pending.verdict.is_match:
            raise VerificationFailedError("read diverged: %s" % pending.verdict)
        if pending.error is not None:
            _raise_status(pending.error)
        cloud = pending.cloud
        data = self._materialize(pending, cloud, trust=TRUSTED)
        entry.pos = cloud.position
        entry.twin_pos = cloud.position
        self.file_sizes[entry.inode] = cloud.size
        return data, TRUSTED

    def _read_cached(self, entry: FdEntry, n: int) -> tuple[bytes, str] | None:
        """Serve from page cache, falling back to memoized blocks; else None."""
        parts = []
        trust = TRUSTED
        cursor = entry.pos
        end = entry.pos + n
        while cursor < end:
            page = cursor // BLOCK_SIZE
            start = cursor % BLOCK_SIZE
            take = min(end - cursor, BLOCK_SIZE - start)
            key = (entry.inode, page)
            cached = self.cache.get(key)
            if cached is not None:
                if cached.valid is not None and not _covers(cached.valid, start, start + take):
                    return None
                parts.append(bytes(cached.page[start : start + take]))
                if cached.trust == UNTRUSTED:
                    trust = UNTRUSTED
                cursor += take
                continue
            block = self.memo.get(key)
            if block is None:
                return None
            content = self.store.read_block(block)
            self._fill_cache_page(entry.inode, page, content, block=block)
            parts.append(content[start : start + take])
            cursor += take
        return b"".join(parts), trust

    def _materialize(self, pending: PendingOp, outcome: OpOutcome, trust: str) -> bytes:
        parts = []
        cursor = pending.pos_before
        for seg in outcome.segments:
            if seg.kind == SegKind.BLOCK:
                if not 0 <= seg.target < self.store.total_blocks:
                    raise VerificationFailedError("advised block out of range")
                content = self.store.read_block(seg.target)
                parts.append(content[seg.offset : seg.offset + seg.length])
                self._fill_cache_page(
                    pending.file_inode,
                    cursor // BLOCK_SIZE,
                    content,
                    block=seg.target,
                    pending=pending,
                    trust=trust,
                )
            elif seg.kind == SegKind.INLINE:
                tbid, start, wend = self.sb.inline_window(seg.target)
                window = self.store.read_block(tbid)[start:wend]
                parts.append(window[seg.offset : seg.offset + seg.length])
                page = bytearray(BLOCK_SIZE)
                page[: wend - start] = window
                self._fill_cache_page(
                    pending.file_inode, 0, bytes(page), inline=True, pending=pending, trust=trust
                )
            else:
                parts.append(bytes(seg.length))
            cursor += seg.length
        return b"".join(parts)

    def write(self, fd: int, data: bytes) -> int:
        entry = self._fd(fd)
        if not data:
            return 0
        if entry.pos + len(data) > MAX_FILE_SIZE:
            raise NoSpaceError("write would exceed the maximum file size")
        self._stage_payload(entry.inode, entry.pos, data)
        if self.offline:
            if self.cache.over_capacity():
                raise NoSpaceError("offline write buffer exceeded cache capacity")
            self.offline_queue.append(("write", fd, entry.pos, len(data)))
            entry.pos += len(data)
            self.file_sizes[entry.inode] = max(self.size_of(entry.inode), entry.pos)
            return len(data)
        self._delegate_write(fd, entry, len(data))
        self.file_sizes[entry.inode] = max(self.size_of(entry.inode), entry.pos)
        return len(data)

    def _delegate_write(self, fd: int, entry: FdEntry, length: int) -> None:
        """Delegate a WRITE of `length` staged bytes at entry.pos, pinning its pages."""
        self._realign_twins(fd, entry)
        pos = entry.pos
        pending = self._delegate(FileOp(OpCode.WRITE, fd, 0, length), fd, entry.inode, pos)
        for page in range(pos // BLOCK_SIZE, (pos + length - 1) // BLOCK_SIZE + 1):
            if (entry.inode, page) not in pending.pages:
                pending.pages.append((entry.inode, page))
        entry.pos += length
        entry.twin_pos = entry.pos

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        entry = self._fd(fd)
        size = self.size_of(entry.inode)
        base = {SEEK_SET: 0, SEEK_CUR: entry.pos, SEEK_END: size}.get(whence)
        if base is None:
            raise DeviceError("bad whence %r" % whence)
        entry.pos = min(max(base + offset, 0), size)
        return entry.pos

    def fstat(self, fd: int) -> int:
        """The device is each file's only writer, so its own size answers:
        validated, or as speculative as the writes in flight (whose failure
        the next barrier reports)."""
        return self.size_of(self._fd(fd).inode)

    def fsync(self, fd: int) -> None:
        entry = self._fd(fd)
        if self.offline:
            if any(p.fd == fd for p in self.pending) or any(q[1] == fd for q in self.offline_queue):
                raise OfflineError("pending validations cannot resolve while disconnected")
            return
        if self.offline_queue:
            self._flush_offline_queue()
        self.drain_ops()
        if self._take_failure(entry):
            raise VerificationFailedError("a delegated operation diverged")
        if entry.last_error is not None:
            status = entry.last_error
            entry.last_error = None
            _raise_status(status)

    def select_validate(self, fd: int) -> str:
        """Validation barrier: resolve every pending verdict for this fd."""
        entry = self._fd(fd)
        if self.offline and any(p.fd == fd for p in self.pending):
            raise OfflineError("pending validations cannot resolve while disconnected")
        self.drain_ops()
        if self._take_failure(entry):
            return "AnyMismatch"
        return "AllMatch"

    def close(self, fd: int) -> None:
        entry = self._fd(fd)
        if self.offline:
            if entry.twin_unknown:
                del self.fds[fd]
                return
            # fd stays reserved until the buffered ops flush at reconnect.
            entry.closed = True
            self.offline_queue.append(("close", fd))
            return
        failed = self._take_failure(entry)
        self._delegate_close(fd)
        if failed:
            raise VerificationFailedError("a delegated operation diverged")

    def _delegate_close(self, fd: int) -> None:
        """Drop fd, closing it at both twins without waiting for the verdict.

        A CLOSE that diverges rolls back like any pipelined op. The next
        fsync, select_validate, close or shutdown reports it, unless an op
        rolled back behind it fails its own caller first.
        """
        if not self.fds[fd].twin_unknown:
            self._delegate(FileOp(OpCode.CLOSE, fd, 0, 0), None, None, 0)
        del self.fds[fd]

    # -- emergency file -------------------------------------------------------------

    EMERGENCY_PATH = "__twinfs_emergency__"
    _EMERGENCY_SEGMENT_PAGES = 12  # single-file block limit

    def _create_emergency(self) -> None:
        """Pre-allocate the emergency extent, spanning files as needed."""
        pages = -(-self.config.emergency_bytes // BLOCK_SIZE)
        size = pages * BLOCK_SIZE
        blocks: list[int] = []
        segments: list[dict] = []
        chunk = bytes(BLOCK_SIZE)
        remaining = pages
        index = 0
        while remaining > 0:
            seg_pages = min(remaining, self._EMERGENCY_SEGMENT_PAGES)
            path = "%s/s%d" % (self.EMERGENCY_PATH, index)
            fd = self.open(path, OpFlag.CREATE)
            inode = self.fds[fd].inode
            for _ in range(seg_pages):
                self.write(fd, chunk)
            self.fsync(fd)
            self.close(fd)
            for page in range(seg_pages):
                block = self.memo.entries.get((inode, page))
                if block is None:
                    raise DeviceError("emergency pre-allocation failed to memoize")
                blocks.append(block)
            segments.append(
                {
                    "inode": inode,
                    "size": seg_pages * BLOCK_SIZE,
                    "tokens": [t.hex() for t in self.obfuscate(path)],
                }
            )
            remaining -= seg_pages
            index += 1
        self.emergency = {"size": size, "blocks": blocks, "segments": segments}
        self._memoize_emergency()
        self._persist_meta()

    def _emergency_span(self, offset: int, length: int) -> list[tuple[int, int, int]]:
        if self.emergency is None:
            raise DeviceError("no emergency file configured")
        if offset < 0 or offset + length > self.emergency["size"]:
            raise OutOfRangeError("beyond the pre-allocated emergency extent")
        spans = []
        cursor = offset
        end = offset + length
        while cursor < end:
            page = cursor // BLOCK_SIZE
            start = cursor % BLOCK_SIZE
            take = min(end - cursor, BLOCK_SIZE - start)
            spans.append((self.emergency["blocks"][page], start, take))
            cursor += take
        return spans

    def emergency_write(self, offset: int, data: bytes) -> int:
        """Durable write with zero network traffic at any connectivity state.

        Only the blocks it writes are saved: ops still in flight have
        unvalidated bytes in the store.
        """
        cursor = offset
        taken = 0
        per_seg = self._EMERGENCY_SEGMENT_PAGES
        segments = self.emergency["segments"]
        written = set()
        for block, start, take in self._emergency_span(offset, len(data)):
            raw = bytearray(self.store.read_block(block))
            raw[start : start + take] = data[taken : taken + take]
            self.store.write_block(block, bytes(raw))
            written.add(block)
            self.stencil_dirty.add(block)
            page = cursor // BLOCK_SIZE
            key = (segments[page // per_seg]["inode"], page % per_seg)
            cached = self.cache.entries.get(key)
            if cached is not None:
                cached.page[:] = raw
                cached.dirty = False
                cached.trust = TRUSTED
                cached.valid = None
            cursor += take
            taken += take
        self.persist(written)
        return len(data)

    def emergency_read(self, offset: int, length: int) -> bytes:
        parts = []
        for block, start, take in self._emergency_span(offset, length):
            parts.append(self.store.read_block(block)[start : start + take])
        return b"".join(parts)

    # -- disconnection and recovery ----------------------------------------------------

    def reconnect_recover(self) -> None:
        """Resend the last group commit's COMMIT, abort every op after it,
        and flush buffered operations."""
        if self.offline:
            raise OfflineError("transport still severed")
        self._hello()
        if self.batch:
            self._request(wire.NetKind.COMMIT, self.batch)
        self._request(wire.NetKind.ABORT, self.next_seq)
        self.drain_all()
        if self.offline_queue:
            self._flush_offline_queue()

    def _flush_offline_queue(self) -> None:
        # Only offline calls queue, so the delegations below find it empty.
        queued, self.offline_queue = self.offline_queue, []
        for item in queued:
            if item[0] == "write":
                _, fd, pos, length = item
                entry = self.fds.get(fd)
                if entry is None:
                    continue
                saved = entry.pos
                entry.pos = pos
                self._delegate_write(fd, entry, length)
                entry.pos = max(saved, pos + length)
            elif item[0] == "close" and item[1] in self.fds:
                self._delegate_close(item[1])

    def shutdown(self) -> None:
        if not self.offline:
            try:
                self.drain_all()
            except OfflineError:
                pass
        self.persist()
        if self._orphan_failed:
            self._orphan_failed = False
            raise VerificationFailedError("a delegated operation diverged")

    def _memoize_evicted(self, key, entry: CacheEntry) -> None:
        if entry.block is not None and entry.trust == TRUSTED and not entry.dirty:
            self.memo.put(key, entry.block)


def _refusal(kind: wire.NetKind | None, body: bytes) -> str | None:
    """The code and message of a replica's ERROR reply; None for any other
    reply, or for an ERROR body that does not decode."""
    if kind != wire.NetKind.ERROR:
        return None
    try:
        return "replica error %d: %s" % wire.decode_error(body)
    except wire.DecodeError:
        return None


def _covers(ranges, start: int, end: int) -> bool:
    cursor = start
    for s, e in sorted(ranges):
        if s > cursor:
            break
        cursor = max(cursor, e)
        if cursor >= end:
            return True
    return cursor >= end
