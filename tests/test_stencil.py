import hashlib
import hmac
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfs import stencil
from twinfs.blockstore import BLOCK_SIZE, ZERO_BLOCK
from twinfs.minifs import (
    _INODE_HEAD,
    DIRECT_COUNT,
    MODE_DIR,
    MODE_FILE,
    MODE_FREE,
    Engine,
    FileOp,
    ImageAccessor,
    OpCode,
    OpFlag,
    Status,
    mkfs,
)
from twinfs.stencil import (
    CLASS_DATA,
    CLASS_METADATA,
    CLASS_MIXED,
    CLASS_UNUSED,
    BlockRejected,
    apply_block_write,
    build_stencils,
    metadata_digest,
    refresh,
    scrub_ranges,
    serve_block_read,
)


def token(name):
    return hmac.new(b"key", name.encode(), hashlib.sha256).digest()[:16]


def fresh(total=64, inodes=32):
    result = mkfs(total, inodes)
    acc = ImageAccessor(total, overlay=dict(result.full_blocks))
    return Engine(acc), acc, result


class SeqGen:
    def __init__(self):
        self.n = 0

    def __call__(self):
        self.n += 1
        return self.n


class TestBuild:
    def test_fresh_image_classification(self):
        # Derived from the layout: blocks 0..3 are superblock, bitmaps and
        # the inode table; everything else is unused.
        _, acc, _ = fresh()
        smap = build_stencils(acc.read_meta)
        expected = {bid: CLASS_METADATA for bid in range(4)}
        for bid in range(64):
            assert smap.classify(bid) == expected.get(bid, CLASS_UNUSED)

    def test_inline_file_makes_table_block_mixed(self):
        engine, acc, _ = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("s"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 32, (), seq()))
        smap = build_stencils(acc.read_meta)
        assert smap.classify(3) == CLASS_MIXED
        # inode 1 occupies bytes 128..255 of table block 3; its inline
        # window is the last 64 bytes.
        assert smap.mixed_ranges[3] == ((0, 192), (256, 4096))

    def test_data_blocks_classified(self):
        engine, acc, result = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("f"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 8192, (), seq()))
        smap = build_stencils(acc.read_meta)
        ds = result.superblock.data_start
        assert smap.classify(ds) == CLASS_DATA
        assert smap.classify(ds + 1) == CLASS_DATA

    def test_directory_blocks_are_metadata(self):
        engine, acc, result = fresh()
        seq = SeqGen()
        for i in range(4):  # spills root directory entries into a block
            engine.exec_fileop(
                FileOp(OpCode.OPEN, i, OpFlag.CREATE, 0, (token("n%d" % i),), seq())
            )
        smap = build_stencils(acc.read_meta)
        assert smap.classify(result.superblock.data_start) == CLASS_METADATA

    def test_conflicting_claims_resolve_by_highest_inode(self):
        _, acc, _ = fresh()  # inode table in block 3, data from block 4
        table = bytearray(acc.read_meta(3))
        claims = {
            1: (MODE_DIR, 0, [4]),
            2: (MODE_FILE, 0, [4]),  # a later file claim makes 4 data
            5: (MODE_FILE, 0, [1]),  # a file claim on the block bitmap
            6: (MODE_DIR, 0, [5]),
            7: (MODE_FILE, 0, [5, 5]),
            8: (MODE_FILE, 0, [6]),
            9: (MODE_DIR, 0, [6]),  # a later directory claim makes 6 metadata
            10: (MODE_FILE, 0, [3]),  # a claim on the table block itself...
            11: (MODE_FILE, 5, []),  # ...which an inline file there makes mixed
        }
        for index, (mode, inline_len, blocks) in claims.items():
            direct = (blocks + [0] * DIRECT_COUNT)[:DIRECT_COUNT]
            head = _INODE_HEAD.pack(mode, inline_len, 0, *direct)
            table[index * 128 : index * 128 + len(head)] = head
        acc.write_meta(3, bytes(table))
        smap = build_stencils(acc.read_meta)
        assert smap.classify(4) == CLASS_DATA
        assert smap.classify(1) == CLASS_DATA
        assert smap.classify(5) == CLASS_DATA
        assert smap.classify(6) == CLASS_METADATA
        assert smap.classify(3) == CLASS_MIXED
        assert smap.mixed_ranges[3] == ((0, 11 * 128 + 64), (12 * 128, 4096))
        assert smap.owners[5] == {6, 7}

    def test_bad_magic(self):
        _, acc, _ = fresh()
        corrupt = bytearray(acc.read_meta(0))
        corrupt[0] ^= 1
        acc.write_meta(0, bytes(corrupt))
        from twinfs.minifs import BadMagicError

        with pytest.raises(BadMagicError):
            build_stencils(acc.read_meta)

    def test_corrupt_superblock_regions(self):
        _, acc, _ = fresh()
        corrupt = bytearray(acc.read_meta(0))
        corrupt[28] = 99  # data_start no longer matches the region layout
        acc.write_meta(0, bytes(corrupt))
        from twinfs.minifs import CorruptSuperblockError

        with pytest.raises(CorruptSuperblockError):
            build_stencils(acc.read_meta)


class TestClassify:
    def test_superblock_is_metadata(self):
        _, acc, _ = fresh()
        smap = build_stencils(acc.read_meta)
        assert smap.classify(0) == CLASS_METADATA

    def test_out_of_map_ids_are_unused(self):
        _, acc, _ = fresh()
        smap = build_stencils(acc.read_meta)
        assert smap.classify(999999) == CLASS_UNUSED


class TestServeRead:
    def test_metadata_served_verbatim(self):
        _, acc, _ = fresh()
        smap = build_stencils(acc.read_meta)
        assert serve_block_read(smap, 1, acc.read_meta(1)) == acc.read_meta(1)

    def test_data_block_rejected(self):
        engine, acc, result = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("f"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 4096, (), seq()))
        smap = build_stencils(acc.read_meta)
        with pytest.raises(BlockRejected):
            serve_block_read(smap, result.superblock.data_start, b"\xff" * BLOCK_SIZE)

    def test_unused_served_as_zeros(self):
        _, acc, _ = fresh()
        smap = build_stencils(acc.read_meta)
        assert serve_block_read(smap, 40, b"\xaa" * BLOCK_SIZE) == ZERO_BLOCK

    def test_inline_window_redacted(self):
        engine, acc, _ = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("s"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 32, (), seq()))
        # plant the secret payload in the window, as the device core would
        needle = b"SECRET-PAYLOAD-MARKER-0123456789"
        table = bytearray(acc.read_meta(3))
        table[192 : 192 + 32] = needle
        acc.write_meta(3, bytes(table))
        smap = build_stencils(acc.read_meta)
        served = serve_block_read(smap, 3, acc.read_meta(3))
        assert needle not in served
        for i in range(len(served) - 7):
            assert served[i : i + 8] not in needle

    def test_directory_inline_window_not_redacted(self):
        engine, acc, _ = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("d"), token("f")), seq()))
        smap = build_stencils(acc.read_meta)
        served = serve_block_read(smap, 3, acc.read_meta(3))
        assert served == acc.read_meta(3)  # dir entries must stay visible


class TestApplyWrite:
    def test_metadata_write_stored_verbatim(self):
        _, acc, _ = fresh()
        smap = build_stencils(acc.read_meta)
        proposed = b"\x42" * BLOCK_SIZE
        assert apply_block_write(smap, 1, proposed, acc.read_meta(1)) == proposed

    def test_data_write_rejected(self):
        engine, acc, result = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("f"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 4096, (), seq()))
        smap = build_stencils(acc.read_meta)
        with pytest.raises(BlockRejected):
            apply_block_write(
                smap, result.superblock.data_start, b"\x00" * BLOCK_SIZE, b"\x01" * BLOCK_SIZE
            )

    def test_mixed_write_preserves_inline_bytes(self):
        engine, acc, _ = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("s"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 32, (), seq()))
        trusted = bytearray(acc.read_meta(3))
        trusted[192:224] = b"K" * 32
        smap = build_stencils(acc.read_meta)
        proposed = bytearray(trusted)
        proposed[192:256] = b"\xee" * 64  # attacker tries to clobber the window
        proposed[0:4] = b"head"
        merged = apply_block_write(smap, 3, bytes(proposed), bytes(trusted))
        assert merged[192:224] == b"K" * 32  # preserved from trusted
        assert merged[0:4] == b"head"  # metadata accepted

    def test_unused_write_accepted(self):
        _, acc, _ = fresh()
        smap = build_stencils(acc.read_meta)
        proposed = b"\x13" * BLOCK_SIZE
        assert apply_block_write(smap, 20, proposed, ZERO_BLOCK) == proposed


class TestWriteContainment:
    """apply_block_write never changes a byte outside metadata ranges."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, BLOCK_SIZE - 1), st.integers(1, 256)),
            min_size=0,
            max_size=5,
        ),
        st.integers(0, 2**32),
    )
    def test_merge_preserves_non_metadata_bytes(self, windows, seed):
        from twinfs.stencil import CLASS_MIXED, StencilMap, _invert_ranges

        rng = random.Random(seed)
        exclusions = sorted(
            (start, min(start + length, BLOCK_SIZE)) for start, length in windows
        )
        merged_exclusions = []
        for start, end in exclusions:
            if merged_exclusions and start <= merged_exclusions[-1][1]:
                merged_exclusions[-1] = (
                    merged_exclusions[-1][0],
                    max(end, merged_exclusions[-1][1]),
                )
            else:
                merged_exclusions.append((start, end))
        smap = StencilMap(total_blocks=16)
        smap.classes[5] = CLASS_MIXED
        smap.mixed_ranges[5] = _invert_ranges(merged_exclusions)
        trusted = rng.randbytes(BLOCK_SIZE)
        proposed = rng.randbytes(BLOCK_SIZE)
        merged = apply_block_write(smap, 5, proposed, trusted)
        served = serve_block_read(smap, 5, trusted)
        for start, end in merged_exclusions:
            assert merged[start:end] == trusted[start:end]
            assert served[start:end] == bytes(end - start)
        for start, end in smap.mixed_ranges[5]:
            assert merged[start:end] == proposed[start:end]
            assert served[start:end] == trusted[start:end]


class TestRefreshAndScrub:
    def test_allocation_transitions_unused_to_data(self):
        engine, acc, result = fresh()
        seq = SeqGen()
        smap = build_stencils(acc.read_meta)
        ds = result.superblock.data_start
        assert smap.classify(ds) == CLASS_UNUSED
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("f"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 4096, (), seq()))
        new = refresh(smap, {1, 3}, acc.read_meta)
        assert new.classify(ds) == CLASS_DATA
        assert new is smap  # updated in place

    def test_truncation_transitions_data_to_unused(self):
        engine, acc, result = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("f"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 4096, (), seq()))
        smap = build_stencils(acc.read_meta)
        engine.exec_fileop(FileOp(OpCode.CLOSE, 0, 0, 0, (), seq()))
        engine.exec_fileop(FileOp(OpCode.OPEN, 1, OpFlag.TRUNC, 0, (token("f"),), seq()))
        new = refresh(smap, {3}, acc.read_meta)
        assert new.classify(result.superblock.data_start) == CLASS_UNUSED

    def test_noop_refresh_keeps_classes(self):
        _, acc, _ = fresh()
        smap = build_stencils(acc.read_meta)
        new = refresh(smap, set(), acc.read_meta)
        assert new.classes == smap.classes
        assert new is smap  # updated in place

    def test_scrub_ranges_cover_reclassified_window(self):
        engine, acc, _ = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("s"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 32, (), seq()))
        old = build_stencils(acc.read_meta)
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 200, (), seq()))  # promote
        new = build_stencils(acc.read_meta)
        ranges = scrub_ranges(old, new)
        assert (3, 192, 256) in ranges

    def test_completeness_every_referenced_block_stays_data(self):
        engine, acc, _ = fresh(total=128)
        rng = random.Random(1)
        seq = SeqGen()
        for i in range(6):
            engine.exec_fileop(FileOp(OpCode.OPEN, i, OpFlag.CREATE, 0, (token("x%d" % i),), seq()))
            engine.exec_fileop(FileOp(OpCode.WRITE, i, 0, rng.randrange(100, 20000), (), seq()))
        smap = build_stencils(acc.read_meta)
        for i in range(6):
            inode = engine._read_inode(engine.fds[i].inode)
            for bid in inode.direct:
                if bid:
                    assert smap.classify(bid) == CLASS_DATA


# One inode rewrite: (index, mode, inline_len, claimed blocks). The blocks
# span the layout region (0-4 in a 128/64 image) and the first data blocks,
# so inodes claim layout blocks, each other's blocks, and a block twice.
_inode_rewrite = st.tuples(
    st.integers(0, 63),
    st.sampled_from([MODE_FREE, MODE_FILE, MODE_DIR, 7]),
    st.sampled_from([0, 0, 9]),
    st.lists(st.integers(0, 12), max_size=4),
)


class TestIncrementalRefresh:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_inode_rewrite, min_size=1, max_size=3), min_size=1, max_size=8))
    def test_refresh_equals_rebuild_on_hostile_images(self, batches):
        result = mkfs(128, 64)
        sb = result.superblock
        blocks = {bid: bytearray(data) for bid, data in result.full_blocks.items()}

        def read(bid):
            return bytes(blocks.get(bid, ZERO_BLOCK))

        smap = build_stencils(read)
        for batch in batches:
            prev = build_stencils(read)
            dirtied = set()
            for index, mode, inline_len, claimed in batch:
                tbid, off = sb.inode_location(index)
                direct = (claimed + [0] * DIRECT_COUNT)[:DIRECT_COUNT]
                head = _INODE_HEAD.pack(mode, inline_len, 0, *direct)
                blocks.setdefault(tbid, bytearray(BLOCK_SIZE))[off : off + len(head)] = head
                dirtied.add(tbid)
            smap = refresh(smap, dirtied, read)
            full = build_stencils(read)
            assert smap.classes == full.classes
            assert smap.mixed_ranges == full.mixed_ranges
            moved = {b for b in set(prev.classes) | set(full.classes) if prev.entry(b) != full.entry(b)}
            assert smap.changed == moved
            assert smap.before == {b: prev.entry(b) for b in moved}

    def test_blocks_an_inode_keeps_follow_its_new_mode(self):
        result = mkfs(128, 64)
        sb = result.superblock
        blocks = {bid: bytearray(data) for bid, data in result.full_blocks.items()}
        tbid, off = sb.inode_location(5)
        claimed = [sb.data_start, sb.data_start + 1]

        def rewrite(mode, direct):
            head = _INODE_HEAD.pack(mode, 0, 0, *(direct + [0] * DIRECT_COUNT)[:DIRECT_COUNT])
            blocks[tbid][off : off + len(head)] = head

        def read(bid):
            return bytes(blocks.get(bid, ZERO_BLOCK))

        rewrite(MODE_FILE, claimed)
        smap = build_stencils(read)
        rewrite(MODE_DIR, claimed + [sb.data_start + 2])
        smap = refresh(smap, {tbid}, read)
        assert [smap.classify(b) for b in claimed] == [CLASS_METADATA] * 2
        assert smap.classes == build_stencils(read).classes

    def test_refresh_reads_only_the_dirtied_table_block(self):
        result = mkfs(262144, 4096)
        blocks = dict(result.full_blocks)
        smap = build_stencils(lambda bid: blocks.get(bid, ZERO_BLOCK))
        tbid = result.superblock.inode_table_start + 100
        reads = []

        def read(bid):
            reads.append(bid)
            return blocks.get(bid, ZERO_BLOCK)

        refresh(smap, {1, tbid}, read)
        assert reads == [tbid]

    def test_refresh_work_does_not_grow_with_live_blocks(self):
        # Every inode of a 1 GiB image claims DIRECT_COUNT blocks: 49152
        # live data blocks. Copying any table of the map would allocate
        # megabytes; refreshing one rewritten inode allocates a few KiB.
        result = mkfs(262144, 4096)
        sb = result.superblock
        blocks = {bid: bytearray(data) for bid, data in result.full_blocks.items()}

        def claim(index, first):
            tbid, off = sb.inode_location(index)
            direct = range(first, first + DIRECT_COUNT)
            head = _INODE_HEAD.pack(MODE_FILE, 0, 0, *direct)
            blocks.setdefault(tbid, bytearray(BLOCK_SIZE))[off : off + len(head)] = head
            return tbid

        for index in range(1, sb.inode_count):
            claim(index, sb.data_start + index * DIRECT_COUNT)

        def read(bid):
            return bytes(blocks.get(bid, ZERO_BLOCK))

        smap = build_stencils(read)
        assert len(smap.classes) > 49000
        tbid = claim(100, sb.data_start + sb.inode_count * DIRECT_COUNT)
        tracemalloc.start()
        try:
            smap = refresh(smap, {tbid}, read)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(smap.changed) == 2 * DIRECT_COUNT
        assert peak < 64 * 1024


def _digest_block_by_block(read, total_blocks=None):
    """Reference walk for metadata_digest: every block id below the total."""
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


# An inode rewrite whose claims reach past a 128-block geometry.
_far_rewrite = st.tuples(
    st.integers(0, 63),
    st.sampled_from([MODE_FREE, MODE_FILE, MODE_DIR]),
    st.sampled_from([0, 9]),
    st.lists(st.one_of(st.integers(0, 300), st.just(2**32 - 1)), max_size=4),
)


class TestMetadataDigest:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_far_rewrite, max_size=10), st.sampled_from([None, 128, 64, 7, 0]))
    def test_equals_a_block_by_block_walk_on_hostile_images(self, rewrites, total):
        result = mkfs(128, 64)
        sb = result.superblock
        blocks = {bid: bytearray(data) for bid, data in result.full_blocks.items()}
        for index, mode, inline_len, claimed in rewrites:
            tbid, off = sb.inode_location(index)
            direct = (claimed + [0] * DIRECT_COUNT)[:DIRECT_COUNT]
            head = _INODE_HEAD.pack(mode, inline_len, 0, *direct)
            blocks.setdefault(tbid, bytearray(BLOCK_SIZE))[off : off + len(head)] = head
        for bid in range(sb.data_start, 300):
            blocks.setdefault(bid, bytearray(bid.to_bytes(4, "little") * (BLOCK_SIZE // 4)))

        def read(bid):
            return bytes(blocks.get(bid, ZERO_BLOCK))

        assert metadata_digest(read, total) == _digest_block_by_block(read, total)

    def test_reads_only_metadata_blocks_at_1_gib(self):
        result = mkfs(262144, 4096)
        sb = result.superblock
        blocks = {bid: bytearray(data) for bid, data in result.full_blocks.items()}
        for index, mode, inline_len, claimed in [
            (1, MODE_DIR, 0, [sb.data_start + 5]),
            (2, MODE_FILE, 0, [sb.data_start + 6, sb.data_start + 7]),
            (3, MODE_FILE, 9, []),
        ]:
            tbid, off = sb.inode_location(index)
            head = _INODE_HEAD.pack(mode, inline_len, 0, *(claimed + [0] * DIRECT_COUNT)[:DIRECT_COUNT])
            blocks[tbid][off : off + len(head)] = head
        reads = []

        def read(bid):
            reads.append(bid)
            return bytes(blocks.get(bid, ZERO_BLOCK))

        smap = build_stencils(read)
        metadata = {bid for bid in smap.classes if smap.metadata_ranges(bid)}
        assert sb.data_start + 5 in metadata and sb.data_start + 6 not in metadata
        del reads[:]
        metadata_digest(read)
        # one build (the superblock and the table blocks), then one read per metadata block
        table = range(sb.inode_table_start, sb.data_start)
        assert reads[: 1 + len(table)] == [0, *table]
        assert reads[1 + len(table) :] == sorted(metadata)

    def test_full_and_metadata_only_images_agree(self):
        result = mkfs(64, 32)
        full = ImageAccessor(64, overlay=dict(result.full_blocks))
        meta = ImageAccessor(64, base=result.metadata_image)
        assert metadata_digest(full.read_meta, 64) == metadata_digest(meta.read_meta, 64)

    def test_data_bytes_do_not_affect_digest(self):
        result = mkfs(64, 32)
        acc = ImageAccessor(64, overlay=dict(result.full_blocks))
        engine = Engine(acc)
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("f"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 4096, (), seq()))
        before = metadata_digest(acc.read_meta, 64)
        acc.write_meta(result.superblock.data_start, b"\x77" * BLOCK_SIZE)
        assert metadata_digest(acc.read_meta, 64) == before

    def test_metadata_bytes_do_affect_digest(self):
        result = mkfs(64, 32)
        acc = ImageAccessor(64, overlay=dict(result.full_blocks))
        before = metadata_digest(acc.read_meta, 64)
        bitmap = bytearray(acc.read_meta(1))
        bitmap[10] ^= 0xFF
        acc.write_meta(1, bytes(bitmap))
        assert metadata_digest(acc.read_meta, 64) != before


class TestDump:
    def test_dump_format(self):
        engine, acc, _ = fresh()
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("s"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 16, (), seq()))
        smap = build_stencils(acc.read_meta)
        dump = smap.dump()
        assert "block 0: META" in dump
        assert "block 3: MIXED [0-192 256-4096]" in dump

    def test_golden_audit_dump(self):
        """Frozen audit output for a fixed op sequence on mkfs(64, 32)."""
        engine, acc, _ = fresh()
        seq = SeqGen()
        ops = [
            FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("inline"),), seq()),
            FileOp(OpCode.WRITE, 0, 0, 20, (), seq()),
            FileOp(OpCode.OPEN, 1, OpFlag.CREATE, 0, (token("big"),), seq()),
            FileOp(OpCode.WRITE, 1, 0, 8192, (), seq()),
            FileOp(OpCode.OPEN, 2, OpFlag.CREATE, 0, (token("dir"), token("leaf")), seq()),
            FileOp(OpCode.WRITE, 2, 0, 5000, (), seq()),
        ]
        for op in ops:
            assert engine.exec_fileop(op).status == Status.OK
        golden = "\n".join(
            [
                "block 0: META",
                "block 1: META",
                "block 2: META",
                "block 3: MIXED [0-192 256-4096]",  # inode 1 holds inline data
                "block 4: DATA",  # "big", first block
                "block 5: DATA",  # "big", second block
                "block 6: META",  # root directory spilled its third entry here
                "block 7: DATA",  # "dir/leaf", first block
                "block 8: DATA",  # "dir/leaf", second block
            ]
        )
        assert build_stencils(acc.read_meta).dump() == golden
