"""Metadata stencils: per-block knowledge of which bytes are metadata.

Built from the superblock and inode table, the stencil gates every block
crossing from the trusted core to the untrusted twin: metadata bytes are
revealed, file-data bytes are redacted, and requests for pure data blocks
are rejected outright. Directory content counts as metadata (names are
pre-obfuscated tokens), so directory-referenced blocks stay readable and
the inline window of a directory inode is never redacted.

A map is built once, when a device starts or a replica greets one, and is
refreshed after that from the blocks each validated operation dirtied.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from twinfs.blockstore import BLOCK_SIZE, ZERO_BLOCK
from twinfs.minifs import (
    _INODE_HEAD,
    INLINE_MAX,
    INODE_SIZE,
    INODES_PER_BLOCK,
    MODE_DIR,
    MODE_FILE,
    Superblock,
)

CLASS_UNUSED = 0
CLASS_METADATA = 1
CLASS_DATA = 2
CLASS_MIXED = 3

# What a claim by an inode of each mode makes of the claimed block.
_CLAIM_CLASS = {MODE_FILE: CLASS_DATA, MODE_DIR: CLASS_METADATA}

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
    """2-bit class per live block; Mixed blocks carry their metadata ranges.

    `changed` names the blocks the last build, refresh or applied delta set:
    a refresh names those whose class or ranges moved and keeps their
    entries from before it in `before` (a fresh build names every classified
    block and has no `before`). A map made by build_stencils or refresh also
    carries the owner index refresh works from: the geometry it was parsed
    with (`sb`), the blocks each inode claims, the inodes claiming each
    block, the offsets of the inodes with inline file bytes in each table
    block, and the bytes each table block was last indexed from. A map
    assembled from delta entries has no index.
    """

    total_blocks: int
    classes: dict[int, int] = field(default_factory=dict)
    mixed_ranges: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    changed: frozenset[int] = frozenset()
    before: dict[int, tuple[int, int, tuple[tuple[int, int], ...]]] = field(default_factory=dict)
    sb: Superblock | None = None
    claims: dict[int, tuple[int, frozenset[int]]] = field(default_factory=dict)
    owners: dict[int, frozenset[int]] = field(default_factory=dict)
    inline: dict[int, tuple[int, ...]] = field(default_factory=dict)
    tables: dict[int, bytes] = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of_entries(cls, total_blocks: int, entries) -> "StencilMap":
        """A map holding just the given delta entries (other blocks unused)."""
        smap = cls(total_blocks=total_blocks)
        smap.apply_delta(entries)
        return smap

    def classify(self, block_id: int) -> int:
        return self.classes.get(block_id, CLASS_UNUSED)

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

    def entry(self, block_id: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """(block id, class, mixed ranges): one stencil delta entry."""
        return block_id, self.classify(block_id), self.mixed_ranges.get(block_id, ())

    def apply_delta(self, entries) -> None:
        entries = list(entries)
        for bid, cls, ranges in entries:
            self._set(bid, cls, tuple(ranges))
        self.changed = frozenset(bid for bid, _, _ in entries)

    def _set(self, bid: int, cls: int, ranges: tuple[tuple[int, int], ...]) -> None:
        if cls == CLASS_UNUSED:
            self.classes.pop(bid, None)
        else:
            self.classes[bid] = cls
        if cls == CLASS_MIXED:
            self.mixed_ranges[bid] = ranges
        else:
            self.mixed_ranges.pop(bid, None)


def build_stencils(read) -> StencilMap:
    """Parse superblock plus inodes via read(block_id) and classify all live blocks.

    The layout region is metadata. A block claimed by a file inode is data
    and one claimed by a directory inode is metadata; when several inodes
    claim a block, the highest inode index decides. A table block holding a
    file inode with inline bytes is mixed, whatever claims it.
    """
    sb = Superblock.unpack(read(0))
    smap = StencilMap(total_blocks=sb.total_blocks, sb=sb)
    for bid in range(sb.data_start):
        smap.classes[bid] = CLASS_METADATA
    _reclassify(smap, range(sb.inode_table_start, sb.data_start), read)
    smap.changed = frozenset(smap.classes)
    return smap


def refresh(smap: StencilMap, dirtied, read) -> StencilMap:
    """Reclassify after a validated operation, re-reading only what it dirtied.

    `dirtied` must name every block whose bytes or map entry changed since
    `smap` was built or refreshed; the result then equals
    build_stencils(read). Only the inode-table blocks in `dirtied` are
    parsed. The blocks their inodes claimed before (from the owner index) or
    claim now are reclassified, and so is every other dirtied block, so the
    work follows `dirtied`, not the inode count or the live blocks. The
    geometry stays the one `smap` was built with. Nothing is copied: `smap`
    is updated in place and returned. Its `changed` then names the blocks
    whose class or ranges moved and `before` holds their entries from
    before the refresh.
    """
    smap.before = _reclassify(smap, dirtied, read)
    smap.changed = frozenset(smap.before)
    return smap


def _reclassify(smap: StencilMap, dirtied, read) -> dict:
    """Re-index the dirtied table blocks, then settle every affected block.

    Returns the previous entries of the blocks whose class or ranges moved.
    """
    table = range(smap.sb.inode_table_start, smap.sb.data_start)
    affected = set(dirtied)
    for tbid in dirtied:
        if tbid in table:
            affected |= _index_table_block(smap, tbid, read(tbid))
    before = {}
    for bid in affected:
        cls, ranges = _derive(smap, bid)
        if cls != smap.classify(bid) or ranges != smap.mixed_ranges.get(bid, ()):
            before[bid] = smap.entry(bid)
            smap._set(bid, cls, ranges)
    return before


def _index_table_block(smap: StencilMap, tbid: int, raw: bytes) -> set[int]:
    """Update the owner index from one table block; return the blocks whose claims moved.

    Only the inodes whose head bytes differ from the last indexing of the
    block are parsed: a write rewrites one inode of the block.
    """
    sb = smap.sb
    first = (tbid - sb.inode_table_start) * INODES_PER_BLOCK
    raw = bytes(raw)
    last = smap.tables.get(tbid)
    smap.tables[tbid] = raw
    moved: set[int] = set()
    inline = set(smap.inline.get(tbid, ()))
    head = _INODE_HEAD.size
    for index in range(first, min(first + INODES_PER_BLOCK, sb.inode_count)):
        off = (index - first) * INODE_SIZE
        if last is not None and raw[off : off + head] == last[off : off + head]:
            continue
        mode, inline_len, _, *direct = _INODE_HEAD.unpack_from(raw, off)
        if mode == MODE_FILE and inline_len:
            inline.add(off)
        else:
            inline.discard(off)
        cls = _CLAIM_CLASS.get(mode)
        blocks = frozenset(b for b in direct if b) if cls is not None else frozenset()
        claim = (cls, blocks) if blocks else None
        old = smap.claims.get(index)
        if claim == old:
            continue
        old_blocks = old[1] if old else frozenset()
        for bid in old_blocks - blocks:
            rest = smap.owners.pop(bid) - {index}
            if rest:
                smap.owners[bid] = rest
        for bid in blocks - old_blocks:
            smap.owners[bid] = smap.owners.get(bid, frozenset()) | {index}
        if claim:
            smap.claims[index] = claim
        else:
            del smap.claims[index]
        # A block claimed before and after keeps its class unless the
        # claim's class changed.
        same_class = old is not None and claim is not None and old[0] == claim[0]
        moved |= old_blocks ^ blocks if same_class else old_blocks | blocks
    if inline:
        smap.inline[tbid] = tuple(sorted(inline))
    else:
        smap.inline.pop(tbid, None)
    return moved


def _derive(smap: StencilMap, bid: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The class and mixed ranges the owner index gives a block."""
    inline = smap.inline.get(bid)
    if inline:
        return CLASS_MIXED, _invert_ranges(
            (off + INODE_SIZE - INLINE_MAX, off + INODE_SIZE) for off in inline
        )
    owners = smap.owners.get(bid)
    if owners:
        return smap.claims[max(owners)][0], ()
    if bid < smap.sb.data_start:
        return CLASS_METADATA, ()
    return CLASS_UNUSED, ()


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
    must not become servable metadata after truncation or promotion. Only
    the blocks either map names in `changed` are visited, so `old` may hold
    just the previous entries of the blocks `new` moved.
    """
    out: list[tuple[int, int, int]] = []
    for bid in sorted(old.changed | new.changed):
        old_ranges = old.metadata_ranges(bid)
        for start, end in new.metadata_ranges(bid):
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
    # Only classified blocks can hold metadata bytes.
    for bid in sorted(smap.classes):
        if bid >= total:
            break
        ranges = smap.metadata_ranges(bid)
        if not ranges:
            continue
        block = read(bid)
        h.update(bid.to_bytes(4, "little"))
        for start, end in ranges:
            h.update(block[start:end])
    return h.hexdigest()
