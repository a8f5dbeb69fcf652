import hashlib
import hmac
import random

import pytest

from twinfs.blockstore import BLOCK_SIZE
from twinfs.minifs import (
    AccessorRejected,
    BadMagicError,
    Engine,
    FileOp,
    ImageAccessor,
    INODE_SIZE,
    Inode,
    MODE_DIR,
    OpCode,
    OpFlag,
    ReqKind,
    SEEK_END,
    SEEK_SET,
    SegKind,
    Status,
    Superblock,
    TooSmallError,
    mkfs,
)


def token(name: str) -> bytes:
    return hmac.new(b"test-key", name.encode(), hashlib.sha256).digest()[:16]


def fresh_engine(total=64, inodes=32):
    result = mkfs(total, inodes)
    acc = ImageAccessor(total, base=result.metadata_image)
    return Engine(acc), acc, result


class SeqGen:
    def __init__(self):
        self.n = 0

    def __call__(self):
        self.n += 1
        return self.n


def run(engine, op, fd=0, flags=0, count=0, tokens=(), seq_gen=SeqGen()):
    return engine.exec_fileop(FileOp(op, fd, flags, count, tuple(tokens), seq_gen()))


class TestMkfsLayout:
    def test_small_layout_arithmetic(self):
        # Independent oracle: 32 inodes x 128 B = 1 table block; one block
        # each for the two bitmaps; superblock at 0 -> data starts at 4.
        expected_table_blocks = (32 * 128 + BLOCK_SIZE - 1) // BLOCK_SIZE
        assert expected_table_blocks == 1
        result = mkfs(64, 32)
        sb = result.superblock
        assert sb.bitmap_block == 1
        assert sb.inode_bitmap_block == 2
        assert sb.inode_table_start == 3
        assert sb.inode_table_blocks == 1
        assert sb.data_start == 4

    def test_both_images_parse_to_identical_superblock(self):
        result = mkfs(64, 32)
        from_full = Superblock.unpack(result.full_blocks[0])
        from_meta = Superblock.unpack(result.metadata_image[:BLOCK_SIZE])
        assert from_full == from_meta

    def test_metadata_image_has_no_data_or_inline_bytes(self):
        result = mkfs(64, 32)
        sb = result.superblock
        assert len(result.metadata_image) == sb.data_start * BLOCK_SIZE
        for index in range(sb.inode_count):
            bid, start, end = sb.inline_window(index)
            window = result.metadata_image[bid * BLOCK_SIZE + start : bid * BLOCK_SIZE + end]
            assert window == bytes(64)

    def test_identical_free_block_counts(self):
        result = mkfs(64, 32)
        full_engine = Engine(ImageAccessor(64, overlay=dict(result.full_blocks)))
        meta_engine = Engine(ImageAccessor(64, base=result.metadata_image))
        assert full_engine.free_block_count() == meta_engine.free_block_count()
        assert full_engine.free_block_count() == 64 - 4

    def test_root_directory_allocated(self):
        result = mkfs(64, 32)
        table = result.full_blocks[result.superblock.inode_table_start]
        root = Inode.unpack(table[:INODE_SIZE])
        assert root.mode == MODE_DIR
        assert result.full_blocks[2][0] & 1  # inode bitmap bit 0

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            mkfs(4, 32)
        with pytest.raises(TooSmallError):
            mkfs(64, 31)  # not a multiple of inodes-per-block

    def test_large_geometry_arithmetic(self):
        # 4 GiB geometry: 1048576 blocks -> 32 bitmap blocks; 8192 inodes ->
        # 1 bitmap block + 256 table blocks; data starts at 290.
        result = mkfs(1048576, 8192)
        sb = result.superblock
        assert sb.bitmap_block == 1
        assert sb.inode_bitmap_block == 33
        assert sb.inode_table_start == 34
        assert sb.inode_table_blocks == 256
        assert sb.data_start == 290
        assert result.metadata_image_bytes == 290 * BLOCK_SIZE
        assert result.full_image_bytes == 1048576 * BLOCK_SIZE

    def test_bad_magic_rejected(self):
        result = mkfs(64, 32)
        corrupt = bytearray(result.full_blocks[0])
        corrupt[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            Superblock.unpack(bytes(corrupt))


class TestAllocators:
    def test_first_fit_block_is_data_start(self):
        engine, _, result = fresh_engine()
        assert engine.allocate_block() == result.superblock.data_start

    def test_allocate_free_allocate_reuses(self):
        engine, _, _ = fresh_engine()
        first = engine.allocate_block()
        second = engine.allocate_block()
        engine.free_blocks([first])
        assert engine.allocate_block() == first
        assert second == first + 1

    def test_bitmap_exhaustion(self):
        engine, _, result = fresh_engine(total=8, inodes=32)
        free = 8 - result.superblock.data_start
        for _ in range(free):
            engine.allocate_block()
        from twinfs.minifs import NoSpace

        with pytest.raises(NoSpace):
            engine.allocate_block()

    def test_first_fit_matches_bitmap_oracle(self):
        # Oracle: scan the bitmap bytes directly for the first clear bit.
        engine, acc, result = fresh_engine()
        rng = random.Random(5)
        held = []
        for _ in range(40):
            if held and rng.random() < 0.4:
                victim = held.pop(rng.randrange(len(held)))
                engine.free_blocks([victim])
                continue
            bitmap = acc.read_meta(1)
            expect = None
            for i in range(result.superblock.total_blocks):
                if not bitmap[i // 8] & (1 << (i % 8)):
                    expect = i
                    break
            got = engine.allocate_block()
            assert got == expect
            held.append(got)

    def test_free_blocks_writes_each_bitmap_block_once(self):
        engine, acc, result = fresh_engine(total=40000)  # two bitmap blocks
        assert result.superblock.bitmap_blocks == 2
        for bmb in (1, 2):
            acc.write_meta(bmb, b"\xff" * BLOCK_SIZE)
        writes = []
        write_meta = acc.write_meta
        acc.write_meta = lambda bid, data: (writes.append(bid), write_meta(bid, data))
        freed = [9, 5, 32768 + 3, 7, 39999]
        engine.free_blocks(freed)
        assert sorted(writes) == [1, 2]
        bitmap = acc.read_meta(1) + acc.read_meta(2)
        clear = [i for i in range(40000) if not bitmap[i // 8] & (1 << (i % 8))]
        assert clear == sorted(freed)

    def test_inode_allocation_first_fit(self):
        engine, _, _ = fresh_engine()
        assert engine.allocate_inode() == 1  # 0 is the root directory
        assert engine.allocate_inode() == 2


class TestResolvePath:
    def test_empty_path_rejected(self):
        engine, _, _ = fresh_engine()
        from twinfs.minifs import NoSuchFile

        with pytest.raises(NoSuchFile):
            engine.resolve_path([])

    def test_create_then_resolve(self):
        engine, _, _ = fresh_engine()
        seq = SeqGen()
        out = run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("A")], seq_gen=seq)
        assert out.status == Status.OK
        assert engine.resolve_path([token("A")]) == out.inode

    def test_distinct_tokens_never_alias(self):
        engine, _, _ = fresh_engine()
        seq = SeqGen()
        inodes = {}
        for i in range(12):
            name = "file-%d" % i
            out = run(engine, OpCode.OPEN, fd=i, flags=OpFlag.CREATE, tokens=[token(name)], seq_gen=seq)
            inodes[name] = out.inode
        for name, ino in inodes.items():
            assert engine.resolve_path([token(name)]) == ino
        assert len(set(inodes.values())) == len(inodes)

    def test_nested_path_autocreate(self):
        engine, _, _ = fresh_engine()
        seq = SeqGen()
        out = run(
            engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE,
            tokens=[token("dir"), token("leaf")], seq_gen=seq,
        )
        assert out.status == Status.OK
        parent = engine.resolve_path([token("dir")])
        assert engine._read_inode(parent).mode == MODE_DIR
        assert engine.resolve_path([token("dir"), token("leaf")]) == out.inode

    def test_missing_without_create(self):
        engine, _, _ = fresh_engine()
        out = run(engine, OpCode.OPEN, fd=0, tokens=[token("nope")])
        assert out.status == Status.NO_SUCH_FILE


class TestExecFileop:
    def test_first_write_trace_is_data_start(self):
        engine, _, result = fresh_engine()
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
        out = run(engine, OpCode.WRITE, fd=0, count=4096, seq_gen=seq)
        assert [(r.kind, r.block) for r in out.trace] == [
            (ReqKind.WRITE, result.superblock.data_start)
        ]
        assert out.segments[0].fresh

    def test_inline_write_and_read_have_empty_traces(self):
        engine, _, _ = fresh_engine()
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("s")], seq_gen=seq)
        out = run(engine, OpCode.WRITE, fd=0, count=30, seq_gen=seq)
        assert out.trace == []
        assert out.segments[0].kind == SegKind.INLINE
        run(engine, OpCode.LSEEK, fd=0, flags=SEEK_SET, count=0, seq_gen=seq)
        out = run(engine, OpCode.READ, fd=0, count=30, seq_gen=seq)
        assert out.trace == []
        assert out.segments[0].kind == SegKind.INLINE

    def test_read_second_block(self):
        engine, _, _ = fresh_engine()
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
        run(engine, OpCode.WRITE, fd=0, count=8192, seq_gen=seq)
        inode = engine._read_inode(engine.fds[0].inode)
        run(engine, OpCode.LSEEK, fd=0, flags=SEEK_SET, count=4096, seq_gen=seq)
        out = run(engine, OpCode.READ, fd=0, count=4096, seq_gen=seq)
        assert [(r.kind, r.block) for r in out.trace] == [(ReqKind.READ, inode.direct[1])]

    def test_determinism_same_op_same_trace(self):
        for _ in range(2):
            engine, _, _ = fresh_engine()
            seq = SeqGen()
            run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
            out = run(engine, OpCode.WRITE, fd=0, count=10000, seq_gen=seq)
            assert [r.block for r in out.trace] == [4, 5, 6]

    def test_bad_fd(self):
        engine, _, _ = fresh_engine()
        out = run(engine, OpCode.READ, fd=9, count=10)
        assert out.status == Status.BAD_FD

    def test_file_too_big(self):
        engine, _, _ = fresh_engine(total=256)
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
        out = run(engine, OpCode.WRITE, fd=0, count=12 * BLOCK_SIZE + 1, seq_gen=seq)
        assert out.status == Status.NO_SPACE

    def test_no_space_prechecks_leave_bitmap_clean(self):
        engine, acc, _ = fresh_engine(total=8, inodes=32)  # 4 free data blocks
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
        before = acc.read_meta(1)
        out = run(engine, OpCode.WRITE, fd=0, count=5 * BLOCK_SIZE, seq_gen=seq)
        assert out.status == Status.NO_SPACE
        assert acc.read_meta(1) == before

    def test_lseek_clamps_to_size(self):
        engine, _, _ = fresh_engine()
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
        run(engine, OpCode.WRITE, fd=0, count=100, seq_gen=seq)
        out = run(engine, OpCode.LSEEK, fd=0, flags=SEEK_SET, count=5000, seq_gen=seq)
        assert out.position == 100
        out = run(engine, OpCode.LSEEK, fd=0, flags=SEEK_END, count=-40, seq_gen=seq)
        assert out.position == 60

    def test_promote_moves_inline_to_block(self):
        engine, _, result = fresh_engine()
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
        run(engine, OpCode.WRITE, fd=0, count=40, seq_gen=seq)
        out = run(engine, OpCode.WRITE, fd=0, count=100, seq_gen=seq)
        assert out.promote is not None
        assert out.promote.length == 40
        assert out.promote.dst_block == result.superblock.data_start
        inode = engine._read_inode(engine.fds[0].inode)
        assert inode.inline_len == 0 and inode.size == 140

    def test_trunc_frees_blocks(self):
        engine, acc, result = fresh_engine()
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
        run(engine, OpCode.WRITE, fd=0, count=8192, seq_gen=seq)
        free_before = engine.free_block_count()
        run(engine, OpCode.CLOSE, fd=0, seq_gen=seq)
        writes = []
        write_meta = acc.write_meta
        acc.write_meta = lambda bid, data: (writes.append(bid), write_meta(bid, data))
        out = run(engine, OpCode.OPEN, fd=1, flags=OpFlag.TRUNC, tokens=[token("f")], seq_gen=seq)
        assert out.size == 0
        assert engine.free_block_count() == free_before + 2
        assert writes.count(result.superblock.bitmap_block) == 1  # both bits in one write

    def test_fstat_and_close(self):
        engine, _, _ = fresh_engine()
        seq = SeqGen()
        run(engine, OpCode.OPEN, fd=0, flags=OpFlag.CREATE, tokens=[token("f")], seq_gen=seq)
        run(engine, OpCode.WRITE, fd=0, count=100, seq_gen=seq)
        assert run(engine, OpCode.FSTAT, fd=0, seq_gen=seq).size == 100
        assert run(engine, OpCode.CLOSE, fd=0, seq_gen=seq).status == Status.OK
        assert run(engine, OpCode.FSTAT, fd=0, seq_gen=seq).status == Status.BAD_FD


class TestTwinDeterminism:
    """Full-data and metadata-only engines must emit identical outcomes."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_op_streams_match(self, seed):
        rng = random.Random(seed)
        result = mkfs(128, 32)
        full = Engine(ImageAccessor(128, overlay=dict(result.full_blocks)))
        meta = Engine(ImageAccessor(128, base=result.metadata_image))
        seq = SeqGen()
        open_fds: list[int] = []
        names = ["a", "b", "c/d", "c/e"]
        for _ in range(40):
            roll = rng.random()
            if roll < 0.25 or not open_fds:
                fd = rng.randrange(8)
                op = FileOp(
                    OpCode.OPEN, fd, OpFlag.CREATE, 0,
                    tuple(token(part) for part in rng.choice(names).split("/")),
                    seq(),
                )
                if fd not in open_fds:
                    open_fds.append(fd)
            elif roll < 0.55:
                op = FileOp(OpCode.WRITE, rng.choice(open_fds), 0, rng.randrange(1, 6000), (), seq())
            elif roll < 0.75:
                op = FileOp(OpCode.READ, rng.choice(open_fds), 0, rng.randrange(1, 6000), (), seq())
            elif roll < 0.85:
                op = FileOp(OpCode.LSEEK, rng.choice(open_fds), SEEK_SET, rng.randrange(0, 20000), (), seq())
            else:
                op = FileOp(OpCode.FSTAT, rng.choice(open_fds), 0, 0, (), seq())
            out_full = full.exec_fileop(op)
            out_meta = meta.exec_fileop(op)
            assert out_full == out_meta, (op, out_full, out_meta)

    def test_engine_purity_no_data_bytes_flow(self):
        """The metadata-only twin never sees payload: its image stays zero in
        data regions while producing the same traces."""
        result = mkfs(128, 32)
        meta_acc = ImageAccessor(128, base=result.metadata_image)
        engine = Engine(meta_acc)
        seq = SeqGen()
        engine.exec_fileop(FileOp(OpCode.OPEN, 0, OpFlag.CREATE, 0, (token("f"),), seq()))
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 30, (), seq()))  # inline
        engine.exec_fileop(FileOp(OpCode.WRITE, 0, 0, 9000, (), seq()))  # blocks
        sb = result.superblock
        ino = engine.fds[0].inode
        tbid, start, end = sb.inline_window(ino)
        table = meta_acc.read_meta(tbid)
        assert table[start:end] == bytes(64)
        for bid, data in meta_acc.overlay.items():
            if bid >= sb.data_start:
                # only directory blocks may live here with content
                pass
        inode = engine._read_inode(ino)
        for bid in inode.direct:
            if bid:
                assert meta_acc.overlay.get(bid) is None


class TestAccessorReject:
    def test_reject_propagates(self):
        class RejectingAccessor(ImageAccessor):
            def read_meta(self, block_id):
                if block_id >= 4:
                    raise AccessorRejected()
                return super().read_meta(block_id)

        result = mkfs(64, 32)
        engine = Engine(RejectingAccessor(64, base=result.metadata_image))
        seq = SeqGen()
        # grow the root directory into a data-region block, then the reject fires
        with pytest.raises(AccessorRejected):
            for i in range(8):
                engine.exec_fileop(
                    FileOp(OpCode.OPEN, i, OpFlag.CREATE, 0, (token("n%d" % i),), seq())
                )
