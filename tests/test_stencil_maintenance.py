"""Incremental stencil maintenance agrees with a full rebuild.

Random client sessions run on a small full stack. A hostile local twin may
rewrite inode heads through the gate (inodes claiming layout blocks, other
files' blocks, or each other's), and may spoil a trace so that the op and
everything stacked on it roll back. The maps kept up to date op by op must
equal `build_stencils` of the image they describe.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twinfs import stencil
from twinfs.device_core import DeviceError, VerificationFailedError
from twinfs.harness import build_system
from twinfs.local_twin import EvilBehavior
from twinfs.minifs import (
    BlockRequest,
    DIRECT_COUNT,
    INODE_SIZE,
    MODE_DIR,
    MODE_FILE,
    MODE_FREE,
    OpFlag,
    ReqKind,
    _INODE_HEAD,
    mkfs,
)
from twinfs.stencil import CLASS_DATA, CLASS_METADATA, CLASS_UNUSED, build_stencils

BLOCKS = 128
INODES = 32
FILES = 4


class Hostile(EvilBehavior):
    """Does what the next step armed it to, on the op that step runs."""

    def __init__(self):
        self.poke = None  # (inode index, mode, inline_len, direct blocks)
        self.spoil = False

    def after_engine(self, op, accessor, twin):
        if self.poke is None or twin.engine is None:
            return
        index, mode, inline_len, blocks = self.poke
        self.poke = None
        tbid, off = twin.engine.sb.inode_location(index)
        raw = bytearray(accessor.read_meta(tbid))
        direct = (list(blocks) + [0] * DIRECT_COUNT)[:DIRECT_COUNT]
        raw[off : off + _INODE_HEAD.size] = _INODE_HEAD.pack(mode, inline_len, 0, *direct)
        accessor.write_meta(tbid, bytes(raw))

    def on_outcome(self, op, outcome):
        if self.spoil:
            self.spoil = False
            outcome.trace = list(outcome.trace) + [BlockRequest(ReqKind.READ, 0)]
        return outcome


# Claimable blocks: the layout region (superblock, bitmaps, inode table) and
# the first data blocks, where the files' own blocks are allocated.
DATA_START = mkfs(BLOCKS, INODES).superblock.data_start
_block = st.integers(0, DATA_START + 6)
_poke = st.tuples(
    st.integers(0, INODES - 1),
    st.sampled_from([MODE_FREE, MODE_FILE, MODE_DIR]),
    st.sampled_from([0, 0, 40]),
    st.lists(_block, max_size=3),
)
_open = st.tuples(st.just("open"), st.integers(0, FILES - 1), st.booleans())
_write = st.tuples(st.just("write"), st.integers(0, FILES - 1), st.sampled_from([30, 200, 4096, 6000]))
_step = st.one_of(
    _open,
    _open,
    _write,
    _write,
    _write,
    st.tuples(st.just("fsync"), st.integers(0, FILES - 1)),
    st.tuples(st.just("close"), st.integers(0, FILES - 1)),
    st.tuples(st.just("poke"), _poke),
    st.tuples(st.just("spoil"),),
)


def _same(a, b) -> bool:
    return a.classes == b.classes and a.mixed_ranges == b.mixed_ranges


def _run(system, steps, after_step) -> None:
    dev = system.device
    evil = system.twin.behavior
    fds: dict[int, int] = {}
    for step in steps:
        kind = step[0]
        try:
            if kind == "open":
                flags = OpFlag.CREATE | (OpFlag.TRUNC if step[2] else 0)
                fds[step[1]] = dev.open("f%d" % step[1], flags)
            elif kind == "poke":
                evil.poke = step[1]
            elif kind == "spoil":
                evil.spoil = True
            elif step[1] in fds:
                fd = fds[step[1]]
                if kind == "write":
                    dev.write(fd, bytes([65 + step[1]]) * step[2])
                elif kind == "fsync":
                    dev.fsync(fd)
                else:
                    del fds[step[1]]
                    dev.close(fd)
        except DeviceError:
            pass
        after_step()
    try:
        dev.drain_all()
    except DeviceError:
        pass
    after_step()


def _hostile_system(stencil_source: str):
    system = build_system(total_blocks=BLOCKS, inode_count=INODES, stencil_source=stencil_source)
    system.twin.behavior = Hostile()
    return system


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_step, min_size=4, max_size=16))
def test_device_map_equals_rebuild_after_every_refresh_and_rollback(steps):
    system = _hostile_system("device")
    dev = system.device
    read = dev.store.read_block

    def check():
        assert _same(dev.smap, build_stencils(read))

    refresh, fail = dev._refresh_stencils, dev._fail_pending

    def checked_refresh(*args, **kwargs):
        refresh(*args, **kwargs)
        check()

    def checked_fail(*args):
        fail(*args)
        check()

    dev._refresh_stencils = checked_refresh
    dev._fail_pending = checked_fail
    _run(system, steps, lambda: None)
    check()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_step, min_size=4, max_size=16))
# The twin's engine, told the root directory owns the first data block,
# writes there; the replica never claims it.
@example([("poke", (0, MODE_FREE, 0, [DATA_START])), ("open", 0, False), ("open", 1, False)])
# A spoiled create grows the root directory into a block, the abort frees
# it, and the retried create grows it into the same block again.
@example([("open", 1, False), ("open", 2, False), ("spoil",), ("open", 0, False), ("open", 0, False)])
def test_replica_map_equals_rebuild_and_cloud_device_applies_it(steps):
    system = _hostile_system("cloud")
    dev, session = system.device, system.session

    answer = session._answer

    def checked_answer(kind, seq, body):
        reply = answer(kind, seq, body)
        # After every FILEOP and ABORT (and every other message).
        assert _same(session._last_stencil, build_stencils(session.read_meta))
        return reply

    session._answer = checked_answer

    def device_matches_replica():
        if not dev.pending:
            assert _same(dev.smap, session._last_stencil)

    _run(system, steps, device_matches_replica)


@pytest.mark.parametrize("stencil_source", ["device", "cloud"])
def test_rollback_behind_a_validated_op_keeps_that_ops_classes(stencil_source):
    # The spoiled write was delegated before the first one validated, so the
    # map it restores predates the first write's refresh.
    system = _hostile_system(stencil_source)
    dev = system.device
    fd = dev.open("f0", OpFlag.CREATE)
    dev.write(fd, b"A" * 4096)
    system.twin.behavior.spoil = True
    dev.write(fd, b"B" * 4096)
    with pytest.raises(VerificationFailedError):
        dev.fsync(fd)
    assert dev.smap.classify(DATA_START) == CLASS_DATA
    image = dev.store.read_block if stencil_source == "device" else system.session.read_meta
    assert _same(dev.smap, build_stencils(image))


def test_speculative_write_outside_the_gate_is_reclassified():
    # A twin places a write's payload in the second inode-table block, which
    # no gate write touches, where it would read as an inode claiming a
    # block. The device refuses to write it: the table block keeps its
    # inodes, the gate never serves the payload, and nothing claims the block.
    image = mkfs(BLOCKS, 2 * INODES)
    table = image.superblock.inode_table_start + 1
    claimed = image.superblock.data_start + 8
    payload = bytearray(4096)
    payload[: _INODE_HEAD.size] = _INODE_HEAD.pack(MODE_FILE, 0, 0, claimed, *[0] * (DIRECT_COUNT - 1))

    class Misplace(EvilBehavior):
        armed = False

        def on_outcome(self, op, outcome):
            if self.armed:
                self.armed = False
                outcome.segments = tuple(replace(seg, target=table) for seg in outcome.segments)
            return outcome

    system = build_system(total_blocks=BLOCKS, inode_count=2 * INODES)
    dev = system.device
    system.twin.behavior = evil = Misplace()
    refresh = dev._refresh_stencils

    def checked_refresh(*args, **kwargs):
        refresh(*args, **kwargs)
        assert _same(dev.smap, build_stencils(dev.store.read_block))

    dev._refresh_stencils = checked_refresh
    fd = dev.open("f0", OpFlag.CREATE)
    dev.write(fd, b"A" * 4096)
    before = dev.store.read_block(table)
    evil.armed = True
    dev.write(fd, bytes(payload))
    assert dev.store.read_block(table) == before
    served = stencil.serve_block_read(dev.smap, table, dev.store.read_block(table))
    assert bytes(payload[: _INODE_HEAD.size]) not in served
    with pytest.raises(VerificationFailedError):
        dev.fsync(fd)
    assert dev.smap.classify(claimed) == CLASS_UNUSED


def test_refresh_repeats_when_a_scrub_rewrites_inodes():
    # A file inode in the second table block claims the first table block,
    # then lets it go. The block turns from data back into metadata. Its
    # scrub touches only the inline windows, so the inodes it holds survive
    # and one refresh leaves the map matching the image.
    system = build_system(total_blocks=BLOCKS, inode_count=2 * INODES)
    dev = system.device
    system.twin.behavior = evil = Hostile()
    first = dev.sb.inode_table_start
    refresh = dev._refresh_stencils
    seen = []

    def checked_refresh(*args, **kwargs):
        refresh(*args, **kwargs)
        seen.append(dev.smap.classify(first))
        assert _same(dev.smap, build_stencils(dev.store.read_block))

    dev._refresh_stencils = checked_refresh
    for i in range(INODES):
        fd = dev.open("f%d" % i, OpFlag.CREATE)  # the last one is inode 32
    assert dev.fds[fd].inode == INODES
    root = dev.store.read_block(first)[:INODE_SIZE]
    for poke in ((INODES + 1, MODE_FILE, 0, [first]), (INODES + 1, MODE_FREE, 0, [])):
        evil.poke = poke
        dev.write(fd, b"C" * 4096)
        dev.fsync(fd)
    assert seen[-2:] == [CLASS_DATA, CLASS_METADATA]
    assert dev.store.read_block(first)[:INODE_SIZE] == root
    dev.close(dev.open("f3"))


def test_rollback_rescrubs_the_bytes_it_restores():
    # F's 200-byte write moves its inline bytes out of the table block, and
    # its validation scrubs the window. G's write, delegated before that,
    # had saved the table block (for G's inode) with the bytes still in it:
    # rolling G back puts them back where the map now serves metadata, so
    # they are scrubbed again.
    system = _hostile_system("device")
    dev = system.device
    f = dev.open("f0", OpFlag.CREATE)
    g = dev.open("f1", OpFlag.CREATE)
    tbid, start, end = dev.sb.inline_window(dev.fds[f].inode)
    assert dev.sb.inline_window(dev.fds[g].inode)[0] == tbid
    dev.write(f, b"P" * 30)
    dev.write(g, b"Q" * 4096)
    dev.fsync(f)
    dev.fsync(g)
    dev.write(f, b"R" * 200)
    system.twin.behavior.spoil = True
    dev.write(g, b"S" * 4096)
    with pytest.raises(VerificationFailedError):
        dev.fsync(g)
    served = stencil.serve_block_read(dev.smap, tbid, dev.store.read_block(tbid))
    assert b"P" not in served[start:end]
    assert _same(dev.smap, build_stencils(dev.store.read_block))


class Scribble(Hostile):
    """Also writes one block through the gate on the op it is armed for."""

    block = None

    def after_engine(self, op, accessor, twin):
        super().after_engine(op, accessor, twin)
        if self.block is not None:
            accessor.write_meta(self.block, bytes(4096))
            self.block = None


@pytest.mark.parametrize("stencil_source", ["device", "cloud"])
def test_rollback_keeps_a_validated_claim_on_a_block_the_rolled_back_op_marked(stencil_source):
    # The first write claims the first data block. The second op's twin
    # writes that block through the gate before the first validated, while
    # the map still has it unused; the second op then rolls back. The block
    # must end up data, as the first op's validation made it.
    system = build_system(total_blocks=BLOCKS, inode_count=INODES, stencil_source=stencil_source)
    system.twin.behavior = evil = Scribble()
    dev = system.device
    fd = dev.open("f0", OpFlag.CREATE)
    dev.write(fd, b"A" * 4096)
    evil.block = DATA_START
    evil.spoil = True
    dev.write(fd, b"B" * 4096)
    with pytest.raises(VerificationFailedError):
        dev.fsync(fd)
    assert dev.smap.classify(DATA_START) == CLASS_DATA
    assert dev.store.read_block(DATA_START) == b"A" * 4096
    image = dev.store.read_block if stencil_source == "device" else system.session.read_meta
    assert _same(dev.smap, build_stencils(image))
