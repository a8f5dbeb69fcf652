"""Deterministic mini-filesystem run identically by both twins.

The engine touches on-disk state only through a MetadataAccessor and never
sees file-data bytes. Every file operation yields the ordered user-data
block requests it implies plus placement segments that tell the block layer
where payload bytes live; metadata reads/writes happen through the accessor
as side effects and are not part of the returned trace.

On-disk layout (all little-endian):

  block 0                superblock (8 x u32, rest zero)
  bitmap_block ..        block bitmap, one bit per block, bit set = in use
  inode_bitmap_block ..  inode bitmap
  inode_table_start ..   inode table, 128 bytes per inode
  data_start ..          data region

An inode is 128 bytes: mode(u16) inline_len(u16) size(u32) direct(12 x u32)
8 pad bytes, then a 64-byte inline region at the tail. Directory entries are
24 bytes: inode(u32) name_token(16s) valid(u8) 3 pad bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum, IntFlag

from twinfs.blockstore import BLOCK_SIZE, ZERO_BLOCK

MAGIC = 0x54574E46  # "TWNF"
INODE_SIZE = 128
INLINE_MAX = 64
DIRECT_COUNT = 12
DIRENT_SIZE = 24
MAX_FILE_SIZE = DIRECT_COUNT * BLOCK_SIZE
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE
DIRENTS_PER_BLOCK = BLOCK_SIZE // DIRENT_SIZE
BITS_PER_BLOCK = BLOCK_SIZE * 8
TOKEN_LEN = 16

_SB = struct.Struct("<8I")
_INODE_HEAD = struct.Struct("<HHI12I")
_DIRENT = struct.Struct("<I16sB3x")

MODE_FREE = 0
MODE_FILE = 1
MODE_DIR = 2


class TooSmallError(Exception):
    pass


class BadMagicError(Exception):
    pass


class CorruptSuperblockError(Exception):
    pass


class AccessorRejected(Exception):
    """The metadata gate refused a block request (evil-twin misbehavior signal)."""


class OpCode(IntEnum):
    OPEN = 1
    READ = 2
    WRITE = 3
    FSYNC = 4
    CLOSE = 5
    LSEEK = 6
    FSTAT = 7


class OpFlag(IntFlag):
    NONE = 0
    UNTRUSTED = 1
    CREATE = 2
    TRUNC = 4


SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class Status(IntEnum):
    OK = 0
    NO_SUCH_FILE = 1
    NO_SPACE = 2
    BAD_FD = 3
    INVALID = 4
    REJECTED = 5
    SEQ_GAP = 6


class ReqKind(IntEnum):
    READ = 0
    WRITE = 1


class SegKind(IntEnum):
    BLOCK = 0
    INLINE = 1
    HOLE = 2


@dataclass(frozen=True)
class BlockRequest:
    kind: ReqKind
    block: int


@dataclass(frozen=True)
class Segment:
    """Where a contiguous run of file bytes lives.

    BLOCK: target is a block id, offset is within the block.
    INLINE: target is an inode index, offset is within its inline region.
    HOLE: reads as zeros (no backing storage).
    fresh marks a block allocated by this very operation, whose bytes outside
    the segment must be zero-filled by the block layer.
    """

    kind: SegKind
    target: int
    offset: int
    length: int
    fresh: bool = False


@dataclass(frozen=True)
class Promote:
    """Inline-to-block conversion: move old inline bytes into dst_block."""

    inode: int
    length: int
    dst_block: int


@dataclass(frozen=True)
class FileOp:
    """One delegated file-API invocation, sent identically to both twins."""

    op: OpCode
    fd: int
    flags: int
    count: int
    name_tokens: tuple[bytes, ...] = ()
    seq: int = 0


@dataclass
class OpOutcome:
    """What one twin advises for a FileOp: trace plus placement results."""

    status: Status = Status.OK
    trace: list[BlockRequest] = field(default_factory=list)
    segments: tuple[Segment, ...] = ()
    inode: int = 0
    size: int = 0
    position: int = 0
    promote: Promote | None = None


@dataclass
class Superblock:
    magic: int
    total_blocks: int
    inode_count: int
    bitmap_block: int
    inode_bitmap_block: int
    inode_table_start: int
    inode_table_blocks: int
    data_start: int

    def pack(self) -> bytes:
        raw = _SB.pack(
            self.magic,
            self.total_blocks,
            self.inode_count,
            self.bitmap_block,
            self.inode_bitmap_block,
            self.inode_table_start,
            self.inode_table_blocks,
            self.data_start,
        )
        return raw + bytes(BLOCK_SIZE - len(raw))

    @classmethod
    def unpack(cls, block: bytes) -> "Superblock":
        fields = _SB.unpack_from(block, 0)
        sb = cls(*fields)
        if sb.magic != MAGIC:
            raise BadMagicError("bad filesystem magic 0x%08x" % sb.magic)
        sb.validate()
        return sb

    def validate(self) -> None:
        bbm = _bitmap_blocks(self.total_blocks)
        ibm = _bitmap_blocks(self.inode_count)
        ok = (
            self.bitmap_block == 1
            and self.inode_bitmap_block == 1 + bbm
            and self.inode_table_start == self.inode_bitmap_block + ibm
            and self.inode_table_blocks
            == _ceil_div(self.inode_count * INODE_SIZE, BLOCK_SIZE)
            and self.data_start == self.inode_table_start + self.inode_table_blocks
            and self.data_start <= self.total_blocks
            and self.inode_count >= 1
        )
        if not ok:
            raise CorruptSuperblockError("superblock regions inconsistent")

    @property
    def bitmap_blocks(self) -> int:
        return _bitmap_blocks(self.total_blocks)

    @property
    def inode_bitmap_blocks(self) -> int:
        return _bitmap_blocks(self.inode_count)

    def inode_location(self, index: int) -> tuple[int, int]:
        """(block id, byte offset) of inode `index` in the table."""
        return (
            self.inode_table_start + index // INODES_PER_BLOCK,
            (index % INODES_PER_BLOCK) * INODE_SIZE,
        )

    def inline_window(self, index: int) -> tuple[int, int, int]:
        """(block id, start, end) of inode `index`'s 64-byte inline region."""
        bid, off = self.inode_location(index)
        return bid, off + INODE_SIZE - INLINE_MAX, off + INODE_SIZE


@dataclass
class Inode:
    mode: int = MODE_FREE
    inline_len: int = 0
    size: int = 0
    direct: list[int] = field(default_factory=lambda: [0] * DIRECT_COUNT)
    inline: bytes = bytes(INLINE_MAX)

    def pack(self) -> bytes:
        head = _INODE_HEAD.pack(self.mode, self.inline_len, self.size, *self.direct)
        return head + bytes(INODE_SIZE - INLINE_MAX - len(head)) + self.inline

    @classmethod
    def unpack(cls, raw: bytes) -> "Inode":
        fields = _INODE_HEAD.unpack_from(raw, 0)
        return cls(
            mode=fields[0],
            inline_len=fields[1],
            size=fields[2],
            direct=list(fields[3:15]),
            inline=bytes(raw[INODE_SIZE - INLINE_MAX : INODE_SIZE]),
        )

    def has_blocks(self) -> bool:
        return any(self.direct)


@dataclass(frozen=True)
class DirEntry:
    inode_no: int
    name_token: bytes
    valid: bool = True

    def pack(self) -> bytes:
        return _DIRENT.pack(self.inode_no, self.name_token, 1 if self.valid else 0)

    @classmethod
    def unpack(cls, raw: bytes) -> "DirEntry":
        ino, token, valid = _DIRENT.unpack_from(raw, 0)
        return cls(ino, token, bool(valid))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _bitmap_blocks(bits: int) -> int:
    return _ceil_div(bits, BITS_PER_BLOCK)


class MetadataAccessor:
    """Interface through which the engine touches all on-disk state."""

    def read_meta(self, block_id: int) -> bytes:
        raise NotImplementedError

    def write_meta(self, block_id: int, data: bytes) -> None:
        raise NotImplementedError


class ImageAccessor(MetadataAccessor):
    """Accessor over a sparse in-memory image (base bytes + overlay)."""

    def __init__(self, total_blocks: int, base: bytes = b"", overlay=None):
        self.total_blocks = total_blocks
        self._base = base
        self.overlay: dict[int, bytes] = overlay if overlay is not None else {}

    def read_meta(self, block_id: int) -> bytes:
        if block_id in self.overlay:
            return self.overlay[block_id]
        start = block_id * BLOCK_SIZE
        if start < len(self._base):
            return bytes(self._base[start : start + BLOCK_SIZE])
        return ZERO_BLOCK

    def write_meta(self, block_id: int, data: bytes) -> None:
        self.overlay[block_id] = bytes(data)


@dataclass
class MkfsResult:
    superblock: Superblock
    full_blocks: dict[int, bytes]
    metadata_image: bytes

    @property
    def full_image_bytes(self) -> int:
        return self.superblock.total_blocks * BLOCK_SIZE

    @property
    def metadata_image_bytes(self) -> int:
        return len(self.metadata_image)


def mkfs(total_blocks: int, inode_count: int) -> MkfsResult:
    """Build a fresh filesystem: full image plus the metadata-only export.

    The metadata-only export is the truncated prefix of the image up to
    data_start; the superblock inside it describes the full geometry and the
    data region is implicitly zero.
    """
    if inode_count < 1 or inode_count % INODES_PER_BLOCK:
        raise TooSmallError("inode_count must be a positive multiple of %d" % INODES_PER_BLOCK)
    bbm = _bitmap_blocks(total_blocks)
    ibm = _bitmap_blocks(inode_count)
    itb = _ceil_div(inode_count * INODE_SIZE, BLOCK_SIZE)
    data_start = 1 + bbm + ibm + itb
    if total_blocks < data_start + 1:
        raise TooSmallError(
            "need at least %d blocks for this layout" % (data_start + 1)
        )
    sb = Superblock(
        magic=MAGIC,
        total_blocks=total_blocks,
        inode_count=inode_count,
        bitmap_block=1,
        inode_bitmap_block=1 + bbm,
        inode_table_start=1 + bbm + ibm,
        inode_table_blocks=itb,
        data_start=data_start,
    )
    blocks: dict[int, bytes] = {0: sb.pack()}

    # Block bitmap: layout blocks 0..data_start-1 are in use.
    bitmap = bytearray(bbm * BLOCK_SIZE)
    for bid in range(data_start):
        bitmap[bid // 8] |= 1 << (bid % 8)
    for i in range(bbm):
        blocks[1 + i] = bytes(bitmap[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])

    # Inode bitmap: root directory occupies inode 0.
    ibitmap = bytearray(ibm * BLOCK_SIZE)
    ibitmap[0] |= 1
    for i in range(ibm):
        blocks[sb.inode_bitmap_block + i] = bytes(
            ibitmap[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
        )

    root_block = bytearray(BLOCK_SIZE)
    root_block[0:INODE_SIZE] = Inode(mode=MODE_DIR).pack()
    blocks[sb.inode_table_start] = bytes(root_block)

    meta = bytearray(data_start * BLOCK_SIZE)
    for bid, data in blocks.items():
        meta[bid * BLOCK_SIZE : (bid + 1) * BLOCK_SIZE] = data
    return MkfsResult(sb, blocks, bytes(meta))


class NoSuchFile(Exception):
    pass


class NoSpace(Exception):
    pass


class BadFd(Exception):
    pass


@dataclass
class FdState:
    inode: int
    pos: int


class Engine:
    """Filesystem logic shared by the local twin and the cloud replica.

    Stateless apart from the fd table: every operation re-reads metadata
    through the accessor, so rolling back the backing store rolls back the
    engine too. Identical metadata plus an identical op stream yields
    byte-identical traces on both twins.
    """

    def __init__(self, accessor: MetadataAccessor):
        self.acc = accessor
        self.sb = Superblock.unpack(accessor.read_meta(0))
        self.fds: dict[int, FdState] = {}

    # -- inode and bitmap plumbing -------------------------------------

    def _read_inode(self, index: int) -> Inode:
        bid, off = self.sb.inode_location(index)
        raw = self.acc.read_meta(bid)
        return Inode.unpack(raw[off : off + INODE_SIZE])

    def _write_inode(self, index: int, inode: Inode) -> None:
        bid, off = self.sb.inode_location(index)
        raw = bytearray(self.acc.read_meta(bid))
        raw[off : off + INODE_SIZE] = inode.pack()
        self.acc.write_meta(bid, bytes(raw))

    def _bit_scan(self, start_block: int, nblocks: int, limit: int) -> int:
        """First clear bit across a bitmap region, or -1."""
        for i in range(nblocks):
            raw = self.acc.read_meta(start_block + i)
            base = i * BITS_PER_BLOCK
            for byte_index, byte in enumerate(raw):
                if byte == 0xFF:
                    continue
                for bit in range(8):
                    idx = base + byte_index * 8 + bit
                    if idx >= limit:
                        return -1
                    if not byte & (1 << bit):
                        return idx
        return -1

    def _bit_set(self, start_block: int, index: int) -> None:
        bid = start_block + index // BITS_PER_BLOCK
        raw = bytearray(self.acc.read_meta(bid))
        raw[(index % BITS_PER_BLOCK) // 8] |= 1 << (index % 8)
        self.acc.write_meta(bid, bytes(raw))

    def free_block_count(self) -> int:
        free = 0
        seen = 0
        for i in range(self.sb.bitmap_blocks):
            raw = self.acc.read_meta(self.sb.bitmap_block + i)
            for byte in raw:
                take = min(8, self.sb.total_blocks - seen)
                if take <= 0:
                    return free
                for bit in range(take):
                    if not byte & (1 << bit):
                        free += 1
                seen += take
        return free

    def allocate_block(self) -> int:
        """Lowest-numbered free block (first-fit); bitmap updated."""
        idx = self._bit_scan(self.sb.bitmap_block, self.sb.bitmap_blocks, self.sb.total_blocks)
        if idx < 0:
            raise NoSpace()
        self._bit_set(self.sb.bitmap_block, idx)
        return idx

    def free_blocks(self, block_ids) -> None:
        """Clear the bits of `block_ids`: one read and one write per bitmap block."""
        by_block: dict[int, list[int]] = {}
        for bid in block_ids:
            bmb = self.sb.bitmap_block + bid // BITS_PER_BLOCK
            by_block.setdefault(bmb, []).append(bid % BITS_PER_BLOCK)
        for bmb, bits in by_block.items():
            raw = bytearray(self.acc.read_meta(bmb))
            for bit in bits:
                raw[bit // 8] &= ~(1 << (bit % 8))
            self.acc.write_meta(bmb, bytes(raw))

    def allocate_inode(self) -> int:
        idx = self._bit_scan(
            self.sb.inode_bitmap_block, self.sb.inode_bitmap_blocks, self.sb.inode_count
        )
        if idx < 0:
            raise NoSpace()
        self._bit_set(self.sb.inode_bitmap_block, idx)
        return idx

    # -- directories ----------------------------------------------------

    def _dir_entries(self, inode: Inode) -> list[DirEntry]:
        entries: list[DirEntry] = []
        count = inode.size // DIRENT_SIZE
        if inode.inline_len:
            for i in range(inode.inline_len // DIRENT_SIZE):
                entries.append(
                    DirEntry.unpack(inode.inline[i * DIRENT_SIZE : (i + 1) * DIRENT_SIZE])
                )
            return entries
        remaining = count
        for bid in inode.direct:
            if remaining <= 0 or bid == 0:
                break
            raw = self.acc.read_meta(bid)
            for i in range(min(remaining, DIRENTS_PER_BLOCK)):
                entries.append(DirEntry.unpack(raw[i * DIRENT_SIZE : (i + 1) * DIRENT_SIZE]))
            remaining -= DIRENTS_PER_BLOCK
        return entries

    def _dir_lookup(self, dir_index: int, token: bytes) -> int | None:
        inode = self._read_inode(dir_index)
        for entry in self._dir_entries(inode):
            if entry.valid and entry.name_token == token:
                return entry.inode_no
        return None

    def _dir_insert(self, dir_index: int, token: bytes, child: int) -> None:
        inode = self._read_inode(dir_index)
        count = inode.size // DIRENT_SIZE
        packed = DirEntry(child, token).pack()
        if not inode.has_blocks() and (count + 1) * DIRENT_SIZE <= INLINE_MAX:
            inline = bytearray(inode.inline)
            inline[count * DIRENT_SIZE : (count + 1) * DIRENT_SIZE] = packed
            inode.inline = bytes(inline)
            inode.inline_len = (count + 1) * DIRENT_SIZE
            inode.size = inode.inline_len
            self._write_inode(dir_index, inode)
            return
        if inode.inline_len:
            # Spill inline entries into the first directory block.
            spill = self.allocate_block()
            block = bytearray(BLOCK_SIZE)
            block[: inode.inline_len] = inode.inline[: inode.inline_len]
            self.acc.write_meta(spill, bytes(block))
            inode.direct[0] = spill
            inode.inline = bytes(INLINE_MAX)
            inode.inline_len = 0
            self._write_inode(dir_index, inode)
            inode = self._read_inode(dir_index)
        slot = count % DIRENTS_PER_BLOCK
        page = count // DIRENTS_PER_BLOCK
        if page >= DIRECT_COUNT:
            raise NoSpace()
        bid = inode.direct[page]
        if bid == 0:
            bid = self.allocate_block()
            self.acc.write_meta(bid, ZERO_BLOCK)
            inode.direct[page] = bid
        raw = bytearray(self.acc.read_meta(bid))
        raw[slot * DIRENT_SIZE : (slot + 1) * DIRENT_SIZE] = packed
        self.acc.write_meta(bid, bytes(raw))
        inode.size = (count + 1) * DIRENT_SIZE
        self._write_inode(dir_index, inode)

    def resolve_path(self, tokens) -> int:
        """Walk root -> ... -> leaf; raises NoSuchFile on any miss."""
        if not tokens:
            raise NoSuchFile()
        current = 0
        for token in tokens:
            inode = self._read_inode(current)
            if inode.mode != MODE_DIR:
                raise NoSuchFile()
            child = self._dir_lookup(current, token)
            if child is None:
                raise NoSuchFile()
            current = child
        return current

    # -- operations -----------------------------------------------------

    def exec_fileop(self, op: FileOp) -> OpOutcome:
        try:
            handler = self._HANDLERS[op.op]
        except KeyError:
            return OpOutcome(status=Status.INVALID)
        try:
            return handler(self, op)
        except NoSuchFile:
            return OpOutcome(status=Status.NO_SUCH_FILE)
        except NoSpace:
            return OpOutcome(status=Status.NO_SPACE)
        except BadFd:
            return OpOutcome(status=Status.BAD_FD)

    def _fd(self, op: FileOp) -> FdState:
        try:
            return self.fds[op.fd]
        except KeyError:
            raise BadFd()

    def _op_open(self, op: FileOp) -> OpOutcome:
        # An open on an already-open fd replaces the entry: the device core
        # controls fd allocation and reuses numbers only when realigning.
        tokens = op.name_tokens
        if not tokens:
            return OpOutcome(status=Status.INVALID)
        current = 0
        for token in tokens[:-1]:
            child = self._dir_lookup(current, token)
            if child is None:
                if not op.flags & OpFlag.CREATE:
                    raise NoSuchFile()
                child = self._create_child(current, token, MODE_DIR)
            elif self._read_inode(child).mode != MODE_DIR:
                return OpOutcome(status=Status.INVALID)
            current = child
        leaf = self._dir_lookup(current, tokens[-1])
        if leaf is None:
            if not op.flags & OpFlag.CREATE:
                raise NoSuchFile()
            leaf = self._create_child(current, tokens[-1], MODE_FILE)
        inode = self._read_inode(leaf)
        if inode.mode != MODE_FILE:
            return OpOutcome(status=Status.INVALID)
        if op.flags & OpFlag.TRUNC and (inode.size or inode.inline_len):
            self._truncate(leaf, inode)
            inode = self._read_inode(leaf)
        self.fds[op.fd] = FdState(inode=leaf, pos=0)
        return OpOutcome(inode=leaf, size=inode.size, position=0)

    def _create_child(self, parent: int, token: bytes, mode: int) -> int:
        index = self.allocate_inode()
        self._write_inode(index, Inode(mode=mode))
        self._dir_insert(parent, token, index)
        return index

    def _truncate(self, index: int, inode: Inode) -> None:
        self.free_blocks(bid for bid in inode.direct if bid)
        self._write_inode(index, Inode(mode=inode.mode))

    def _op_close(self, op: FileOp) -> OpOutcome:
        self._fd(op)
        del self.fds[op.fd]
        return OpOutcome()

    def _op_lseek(self, op: FileOp) -> OpOutcome:
        fd = self._fd(op)
        inode = self._read_inode(fd.inode)
        offset = op.count if op.count < 1 << 63 else op.count - (1 << 64)
        base = {SEEK_SET: 0, SEEK_CUR: fd.pos, SEEK_END: inode.size}.get(op.flags)
        if base is None:
            return OpOutcome(status=Status.INVALID)
        fd.pos = min(max(base + offset, 0), inode.size)
        return OpOutcome(position=fd.pos)

    def _op_fstat(self, op: FileOp) -> OpOutcome:
        fd = self._fd(op)
        inode = self._read_inode(fd.inode)
        return OpOutcome(size=inode.size, position=fd.pos)

    def _op_fsync(self, op: FileOp) -> OpOutcome:
        self._fd(op)
        return OpOutcome()

    def _op_read(self, op: FileOp) -> OpOutcome:
        fd = self._fd(op)
        inode = self._read_inode(fd.inode)
        n = min(op.count, max(inode.size - fd.pos, 0))
        segments: list[Segment] = []
        trace: list[BlockRequest] = []
        if n:
            if inode.inline_len:
                segments.append(Segment(SegKind.INLINE, fd.inode, fd.pos, n))
            else:
                off = fd.pos
                end = fd.pos + n
                while off < end:
                    page = off // BLOCK_SIZE
                    in_block = off % BLOCK_SIZE
                    chunk = min(end - off, BLOCK_SIZE - in_block)
                    bid = inode.direct[page]
                    if bid:
                        segments.append(Segment(SegKind.BLOCK, bid, in_block, chunk))
                        trace.append(BlockRequest(ReqKind.READ, bid))
                    else:
                        segments.append(Segment(SegKind.HOLE, 0, 0, chunk))
                    off += chunk
        fd.pos += n
        return OpOutcome(
            trace=trace, segments=tuple(segments), position=fd.pos, size=inode.size
        )

    def _op_write(self, op: FileOp) -> OpOutcome:
        fd = self._fd(op)
        inode = self._read_inode(fd.inode)
        count = op.count
        end = fd.pos + count
        if end > MAX_FILE_SIZE:
            return OpOutcome(status=Status.NO_SPACE)
        if count == 0:
            return OpOutcome(position=fd.pos, size=inode.size)

        if not inode.has_blocks() and end <= INLINE_MAX and fd.pos <= inode.inline_len:
            inode.inline_len = max(inode.inline_len, end)
            inode.size = inode.inline_len
            self._write_inode(fd.inode, inode)
            segment = Segment(SegKind.INLINE, fd.inode, fd.pos, count)
            fd.pos = end
            return OpOutcome(
                segments=(segment,), position=fd.pos, size=inode.size
            )

        # Block-backed path; may first promote existing inline bytes.
        first_page = fd.pos // BLOCK_SIZE
        last_page = (end - 1) // BLOCK_SIZE
        needed = 0
        promote_needed = inode.inline_len > 0
        for page in range(first_page, last_page + 1):
            if inode.direct[page] == 0:
                needed += 1
        if promote_needed and inode.direct[0] == 0 and first_page > 0:
            needed += 1
        if needed and self.free_block_count() < needed:
            return OpOutcome(status=Status.NO_SPACE)

        promote = None
        trace: list[BlockRequest] = []
        if promote_needed:
            dst = inode.direct[0]
            if dst == 0:
                dst = self.allocate_block()
                inode.direct[0] = dst
            promote = Promote(inode=fd.inode, length=inode.inline_len, dst_block=dst)
            inode.inline_len = 0
            inode.inline = bytes(INLINE_MAX)
            if first_page > 0:
                # Promotion target is written even when the payload misses it.
                trace.append(BlockRequest(ReqKind.WRITE, dst))

        segments: list[Segment] = []
        off = fd.pos
        while off < end:
            page = off // BLOCK_SIZE
            in_block = off % BLOCK_SIZE
            chunk = min(end - off, BLOCK_SIZE - in_block)
            bid = inode.direct[page]
            fresh = False
            if bid == 0:
                bid = self.allocate_block()
                inode.direct[page] = bid
                fresh = True
            promoted_here = promote is not None and promote.dst_block == bid
            segments.append(
                Segment(SegKind.BLOCK, bid, in_block, chunk, fresh=fresh and not promoted_here)
            )
            trace.append(BlockRequest(ReqKind.WRITE, bid))
            off += chunk
        inode.size = max(inode.size, end)
        self._write_inode(fd.inode, inode)
        fd.pos = end
        return OpOutcome(
            trace=trace,
            segments=tuple(segments),
            position=fd.pos,
            size=inode.size,
            promote=promote,
        )

    _HANDLERS = {
        OpCode.OPEN: _op_open,
        OpCode.READ: _op_read,
        OpCode.WRITE: _op_write,
        OpCode.FSYNC: _op_fsync,
        OpCode.CLOSE: _op_close,
        OpCode.LSEEK: _op_lseek,
        OpCode.FSTAT: _op_fstat,
    }
