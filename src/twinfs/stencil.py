"""Metadata stencils: per-block knowledge of which bytes are metadata.

Built from the superblock and inode table, the stencil gates every block
crossing from the trusted core to the untrusted twin: metadata bytes are
revealed, file-data bytes are redacted, and requests for pure data blocks
are rejected outright. Directory content counts as metadata (names are
pre-obfuscated tokens), so directory-referenced blocks stay readable and
the inline window of a directory inode is never redacted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from twinfs.blockstore import BLOCK_SIZE, ZERO_BLOCK
from twinfs.minifs import (
    INLINE_MAX,
    INODE_SIZE,
    INODES_PER_BLOCK,
    Inode,
    MODE_DIR,
    MODE_FILE,
    Superblock,
)

CLASS_UNUSED = 0
CLASS_METADATA = 1
CLASS_DATA = 2
CLASS_MIXED = 3

_CLASS_NAMES = {
    CLASS_UNUSED: "UNUSED",
    CLASS_METADATA: "META",
    CLASS_DATA: "DATA",
    CLASS_MIXED: "MIXED",
}


class BlockRejected(Exception):
    """Request touched file data; the Iago-style access is refused."""


@dataclass
class StencilMap:
    """2-bit class per live block; Mixed blocks carry their metadata ranges."""

    total_blocks: int
    classes: dict[int, int] = field(default_factory=dict)
    mixed_ranges: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    generation: int = 0

    def classify(self, block_id: int) -> int:
        return self.classes.get(block_id, CLASS_UNUSED)

    def clone(self) -> "StencilMap":
        return StencilMap(
            total_blocks=self.total_blocks,
            classes=dict(self.classes),
            mixed_ranges=dict(self.mixed_ranges),
            generation=self.generation,
        )

    def metadata_ranges(self, block_id: int) -> tuple[tuple[int, int], ...]:
        cls = self.classify(block_id)
        if cls == CLASS_METADATA:
            return ((0, BLOCK_SIZE),)
        if cls == CLASS_MIXED:
            return self.mixed_ranges[block_id]
        return ()

    def describe(self, block_id: int) -> str:
        cls = self.classify(block_id)
        if cls == CLASS_MIXED:
            ranges = " ".join("%d-%d" % r for r in self.mixed_ranges[block_id])
            return "block %d: MIXED [%s]" % (block_id, ranges)
        return "block %d: %s" % (block_id, _CLASS_NAMES[cls])

    def dump(self) -> str:
        lines = []
        for bid in range(self.total_blocks):
            if bid in self.classes:
                lines.append(self.describe(bid))
        return "\n".join(lines)

    def delta_entries(self, other: "StencilMap"):
        """Blocks whose classification differs from `other` (for piggybacking)."""
        entries = []
        for bid in set(self.classes) | set(other.classes):
            if self.classify(bid) != other.classify(bid) or self.mixed_ranges.get(
                bid
            ) != other.mixed_ranges.get(bid):
                entries.append(
                    (bid, self.classify(bid), self.mixed_ranges.get(bid, ()))
                )
        return entries

    def apply_delta(self, entries) -> None:
        for bid, cls, ranges in entries:
            if cls == CLASS_UNUSED:
                self.classes.pop(bid, None)
                self.mixed_ranges.pop(bid, None)
            else:
                self.classes[bid] = cls
                if cls == CLASS_MIXED:
                    self.mixed_ranges[bid] = tuple(ranges)
                else:
                    self.mixed_ranges.pop(bid, None)
        self.generation += 1


def build_stencils(read) -> StencilMap:
    """Parse superblock plus inodes via read(block_id) and classify all live blocks."""
    block0 = read(0)
    sb = Superblock.unpack(block0)
    smap = StencilMap(total_blocks=sb.total_blocks)
    for bid in range(sb.data_start):
        smap.classes[bid] = CLASS_METADATA

    table_exclusions: dict[int, list[tuple[int, int]]] = {}
    for index in range(sb.inode_count):
        tbid, off = sb.inode_location(index)
        if (index % INODES_PER_BLOCK) == 0:
            table_raw = read(tbid)
        inode = Inode.unpack(table_raw[off : off + INODE_SIZE])
        if inode.mode == MODE_FILE:
            if inode.inline_len:
                start = off + INODE_SIZE - INLINE_MAX
                table_exclusions.setdefault(tbid, []).append((start, off + INODE_SIZE))
            for dbid in inode.direct:
                if dbid:
                    smap.classes[dbid] = CLASS_DATA
        elif inode.mode == MODE_DIR:
            for dbid in inode.direct:
                if dbid:
                    smap.classes[dbid] = CLASS_METADATA

    for tbid, exclusions in table_exclusions.items():
        smap.classes[tbid] = CLASS_MIXED
        smap.mixed_ranges[tbid] = _invert_ranges(exclusions)
    return smap


def _invert_ranges(exclusions) -> tuple[tuple[int, int], ...]:
    """Metadata ranges of a block given the sorted data-byte exclusions."""
    ranges = []
    cursor = 0
    for start, end in sorted(exclusions):
        if start > cursor:
            ranges.append((cursor, start))
        cursor = end
    if cursor < BLOCK_SIZE:
        ranges.append((cursor, BLOCK_SIZE))
    return tuple(ranges)


def serve_block_read(smap: StencilMap, block_id: int, trusted_block: bytes) -> bytes:
    """Reveal metadata bytes, redact the rest; data blocks are rejected."""
    cls = smap.classify(block_id)
    if cls == CLASS_METADATA:
        return trusted_block
    if cls == CLASS_UNUSED:
        return ZERO_BLOCK
    if cls == CLASS_DATA:
        raise BlockRejected("read of file-data block %d" % block_id)
    out = bytearray(BLOCK_SIZE)
    for start, end in smap.mixed_ranges[block_id]:
        out[start:end] = trusted_block[start:end]
    return bytes(out)


def apply_block_write(
    smap: StencilMap, block_id: int, proposed: bytes, trusted_block: bytes
) -> bytes:
    """Merge a proposed write: metadata bytes accepted, data bytes preserved.

    Unused blocks are accepted whole: directory growth writes freshly
    allocated blocks before the post-validation refresh reclassifies them,
    and an unused block cannot alias live data.
    """
    cls = smap.classify(block_id)
    if cls in (CLASS_METADATA, CLASS_UNUSED):
        return bytes(proposed)
    if cls == CLASS_DATA:
        raise BlockRejected("write to file-data block %d" % block_id)
    out = bytearray(trusted_block)
    for start, end in smap.mixed_ranges[block_id]:
        out[start:end] = proposed[start:end]
    return bytes(out)


def refresh(smap: StencilMap, dirtied_metadata, read) -> StencilMap:
    """Reclassify after a validated metadata-changing operation."""
    del dirtied_metadata  # classification is rebuilt from the image
    new = build_stencils(read)
    new.generation = smap.generation + 1
    return new


def exclude_range(smap: StencilMap, block_id: int, start: int, end: int) -> None:
    """Drop [start, end) from a block's metadata ranges, in place.

    Used when the device speculatively places inline payload: the window must
    stop being gate-writable immediately, before the validation that would
    refresh the map.
    """
    remaining: list[tuple[int, int]] = []
    for s, e in smap.metadata_ranges(block_id):
        remaining.extend(_subtract(s, e, [(start, end)]))
    smap.classes[block_id] = CLASS_MIXED
    smap.mixed_ranges[block_id] = tuple(remaining)


def scrub_ranges(old: StencilMap, new: StencilMap):
    """Byte ranges that were data/excluded before and are metadata now.

    The device core zeroes these in the trusted image: stale inline payload
    must not become servable metadata after truncation or promotion.
    """
    out: list[tuple[int, int, int]] = []
    blocks = set(old.classes) | set(new.classes)
    for bid in blocks:
        new_ranges = new.metadata_ranges(bid)
        if not new_ranges:
            continue
        old_ranges = old.metadata_ranges(bid)
        for start, end in new_ranges:
            for s, e in _subtract(start, end, old_ranges):
                out.append((bid, s, e))
    return out


def _subtract(start: int, end: int, covered):
    """Parts of [start, end) not covered by the sorted ranges in `covered`."""
    cursor = start
    for s, e in covered:
        if e <= cursor:
            continue
        if s >= end:
            break
        if s > cursor:
            yield cursor, min(s, end)
        cursor = max(cursor, e)
        if cursor >= end:
            return
    if cursor < end:
        yield cursor, end


def metadata_digest(read, total_blocks: int | None = None) -> str:
    """Digest over metadata bytes only, canonical across device and replica.

    Data blocks and redacted inline windows are excluded, so a device image
    holding real file data and a metadata-only replica hash identically when
    their metadata agrees.
    """
    smap = build_stencils(read)
    total = total_blocks if total_blocks is not None else smap.total_blocks
    h = hashlib.sha256()
    for bid in range(total):
        ranges = smap.metadata_ranges(bid)
        if not ranges:
            continue
        block = read(bid)
        h.update(bid.to_bytes(4, "little"))
        for start, end in ranges:
            h.update(block[start:end])
    return h.hexdigest()
