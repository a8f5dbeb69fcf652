import sys
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfs import harness, stencil, wire
from twinfs.blockstore import BLOCK_SIZE, OutOfRangeError
from twinfs.device_core import (
    BadFdError,
    CLOUD_REJECT,
    DeviceConfig,
    DeviceCore,
    LOCAL_REJECT,
    MATCH,
    MAX_IN_FLIGHT,
    MISMATCH,
    MemoryDurability,
    NoSpaceError,
    NoSuchFileError,
    TRUSTED,
    UNTRUSTED,
    VerificationFailedError,
    Verdict,
    verify_traces,
)
from twinfs.harness import build_system
from twinfs.local_twin import EvilBehavior, LocalTwin
from twinfs.minifs import SEEK_END, BlockRequest, OpCode, OpFlag, ReqKind, Status, mkfs
from twinfs.transport import DelayedTransport, LoopbackTransport, OfflineError

R = lambda b: BlockRequest(ReqKind.READ, b)
W = lambda b: BlockRequest(ReqKind.WRITE, b)


class TestVerifyTraces:
    def test_equal_reads_match(self):
        assert verify_traces([R(21)], [R(21)]).is_match

    def test_block_divergence(self):
        v = verify_traces([W(42)], [W(43)])
        assert v.kind == MISMATCH and v.divergence == 0

    def test_kind_divergence(self):
        v = verify_traces([R(42)], [W(42)])
        assert v.kind == MISMATCH and v.divergence == 0

    def test_length_divergence_counts(self):
        v = verify_traces([R(21), W(42)], [R(21)])
        assert v.kind == MISMATCH and v.divergence == 1

    def test_empty_traces_match(self):
        assert verify_traces([], []).is_match


class TestBasicOps(object):
    def test_open_missing_file(self, system):
        with pytest.raises(NoSuchFileError):
            system.device.open("ghost")

    def test_write_read_round_trip(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        payload = bytes(range(256)) * 20
        assert dev.write(fd, payload) == len(payload)
        dev.lseek(fd, 0)
        data, trust = dev.read(fd, len(payload))
        assert data == payload and trust == TRUSTED

    def test_lseek_set_returns_zero(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"x" * 100)
        assert dev.lseek(fd, 0) == 0

    def test_fstat_after_write_fsync(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"y" * 100)
        dev.fsync(fd)
        assert dev.fstat(fd) == 100

    def test_fsync_clean_fd_immediate(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.fsync(fd)  # no pending validations

    def test_bad_fd(self, system):
        with pytest.raises(BadFdError):
            system.device.read(99, 10)

    def test_short_read_at_eof(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"abc")
        dev.lseek(fd, 1)
        data, _ = dev.read(fd, 100)
        assert data == b"bc"

    def test_write_past_max_file_size(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, bytes(12 * BLOCK_SIZE))
        with pytest.raises(NoSpaceError):
            dev.write(fd, b"z")

    def test_reopen_sees_persisted_content(self, system):
        dev = system.device
        fd = dev.open("a/b", OpFlag.CREATE)
        dev.write(fd, b"hello")
        dev.fsync(fd)
        dev.close(fd)
        fd2 = dev.open("a/b")
        data, _ = dev.read(fd2, 5)
        assert data == b"hello"

    def test_two_fds_same_file_share_size(self, system):
        dev = system.device
        fd1 = dev.open("f", OpFlag.CREATE)
        fd2 = dev.open("f")
        dev.write(fd1, b"q" * 500)
        data, _ = dev.read(fd2, 500)
        assert data == b"q" * 500

    def test_select_validate_no_pending(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        assert dev.select_validate(fd) == "AllMatch"

    def test_digest_convergence_after_shutdown(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"123" * 1000)
        dev.fsync(fd)
        dev.close(fd)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()


class TestCacheAndMemo:
    def test_cache_hit_read_costs_zero_rpc(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"P" * 4096)
        dev.fsync(fd)
        before = dev.metrics.fileops_sent
        dev.lseek(fd, 0)
        data, trust = dev.read(fd, 4096)
        assert data == b"P" * 4096 and trust == TRUSTED
        assert dev.metrics.fileops_sent == before

    def test_memo_hit_after_eviction_costs_zero_rpc(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"P" * 4096)
        dev.fsync(fd)
        dev.cache.clear_all()
        assert dev.cache.entries == {}
        before = dev.metrics.fileops_sent
        dev.lseek(fd, 0)
        data, trust = dev.read(fd, 4096)
        assert data == b"P" * 4096 and trust == TRUSTED
        assert dev.metrics.fileops_sent == before

    def test_memo_disabled_goes_back_to_twins(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"P" * 4096)
        dev.fsync(fd)
        dev.cache.clear_all()
        dev.memo.entries.clear()
        dev.cache.entries.clear()
        before = dev.metrics.fileops_sent
        dev.lseek(fd, 0)
        data, _ = dev.read(fd, 4096)
        assert data == b"P" * 4096
        assert dev.metrics.fileops_sent > before

    def test_truncate_invalidates_memo(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"P" * 8192)
        dev.fsync(fd)
        inode = dev.fds[fd].inode
        dev.cache.clear_all()
        assert dev.memo.entries
        dev.close(fd)
        fd = dev.open("f", OpFlag.TRUNC)
        assert not any(k[0] == inode for k in dev.memo.entries)

    def test_page_evicted_before_a_diverging_verdict_leaves_no_mapping(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        g = dev.open("g", OpFlag.CREATE)
        inode = dev.fds[fd].inode
        system.twin.behavior = ExtraWriteIn(OpCode.WRITE)
        dev.write(fd, b"x" * BLOCK_SIZE)  # speculated: its page is clean and trusted
        dev.cache.clear_all()  # the eviction memoizes the advised block
        assert (inode, 0) in dev.memo.entries
        system.twin.behavior = EvilBehavior()
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert (inode, 0) not in dev.memo.entries
        dev.write(g, b"G" * BLOCK_SIZE)  # takes the rolled-back block
        dev.lseek(fd, 0)
        dev.write(fd, b"n" * 40)
        dev.fsync(fd)
        dev.cache.clear_all()
        dev.lseek(fd, 0)
        assert dev.read(fd, 40) == (b"n" * 40, TRUSTED)

    def test_read_spanning_cached_and_memoized_pages(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        payload = bytes(range(256)) * 48  # 3 pages
        dev.write(fd, payload)
        dev.fsync(fd)
        inode = dev.fds[fd].inode
        # evict only the middle page; it must come back via the memo
        middle = dev.cache.entries.pop((inode, 1))
        dev.memo.put((inode, 1), middle.block)
        before = dev.metrics.fileops_sent
        dev.lseek(fd, 0)
        data, trust = dev.read(fd, len(payload))
        assert data == payload and trust == TRUSTED
        assert dev.metrics.fileops_sent == before

    def test_eviction_respects_capacity(self):
        system = build_system(total_blocks=256, inode_count=32, cache_pages=4)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, bytes(10 * BLOCK_SIZE))
        dev.fsync(fd)
        assert len(dev.cache.entries) <= 4
        # evicted pages landed in the memo
        assert len(dev.memo.entries) >= 6


class TestTwinReadCache:
    """The local twin reads a metadata block through the gate once, until the
    device invalidates it or resets the twin."""

    @staticmethod
    def _count_meta_reads(dev):
        from twinfs import wire

        kinds = []
        dev.channel.taps.append(lambda raw: kinds.append(wire.decode_frame(raw).kind))
        return lambda: kinds.count(wire.FrameKind.META_READ_REQ)

    def test_allocating_write_reads_each_block_once(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        reads = self._count_meta_reads(dev)
        # The bitmap: the open left the superblock and inode table cached.
        dev.write(fd, b"x" * 4096)
        assert reads() == 1
        dev.fsync(fd)

    def test_read_after_own_write_goes_back_to_the_gate(self):
        # The twin overwrites another file's inline window in the table block.
        # The gate keeps those data bytes, so a re-read must come from the gate
        # (the window redacted), not from the bytes the twin wrote.
        from twinfs import stencil
        from twinfs.local_twin import EvilBehavior

        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        victim = dev.open("victim", OpFlag.CREATE)
        dev.write(victim, b"V" * 30)
        dev.fsync(victim)
        tbid, start, end = dev.sb.inline_window(dev.fds[victim].inode)
        reads = self._count_meta_reads(dev)
        seen = {}

        class Overwrite(EvilBehavior):
            def after_engine(self, op, accessor, twin):
                first = accessor.read_meta(tbid)
                seen["cached"] = reads()
                seen["again"] = accessor.read_meta(tbid) == first and reads() == seen["cached"]
                junk = bytearray(first)
                junk[start:end] = b"J" * (end - start)
                accessor.write_meta(tbid, bytes(junk))
                seen["after"] = accessor.read_meta(tbid)
                seen["reread"] = reads()
                seen["served"] = stencil.serve_block_read(dev.smap, tbid, dev.store.read_block(tbid))

        system.twin.behavior = Overwrite()
        fd = dev.open("f", OpFlag.CREATE)
        system.twin.behavior = EvilBehavior()
        assert seen["again"]
        assert seen["reread"] == seen["cached"] + 1
        assert seen["after"] == seen["served"]
        assert b"J" not in seen["after"][start:end]
        dev.close(fd)

    @staticmethod
    def _watch(dev):
        """Each INVALIDATE and META_READ_REQ frame the channel carries, as
        (kind, block ids)."""
        seen = []

        def tap(raw):
            frame = wire.decode_frame(raw)
            if frame.kind in (wire.FrameKind.INVALIDATE, wire.FrameKind.META_READ_REQ):
                seen.append((frame.kind, wire.decode_block_ids(frame.payload[2:])))

        dev.channel.taps.append(tap)
        return seen

    @staticmethod
    def _reread(seen, block) -> bool:
        """Whether the twin was told to drop `block` and then read it again."""
        kinds = [kind for kind, ids in seen if block in ids]
        return kinds[:2] == [wire.FrameKind.INVALIDATE, wire.FrameKind.META_READ_REQ]

    def test_second_open_of_a_path_reads_nothing_through_the_gate(self, system):
        dev = system.device
        dev.close(dev.open("f", OpFlag.CREATE))
        seen = self._watch(dev)
        dev.close(dev.open("f"))
        assert [ids for kind, ids in seen if kind == wire.FrameKind.META_READ_REQ] == []

    def test_device_inline_write_makes_the_next_op_reread_the_block(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        tbid, _, _ = dev.sb.inline_window(dev.fds[fd].inode)
        dev.write(fd, b"i" * 30)  # the device writes the payload into the table block
        seen = self._watch(dev)
        dev.close(dev.open("g", OpFlag.CREATE))
        assert self._reread(seen, tbid)
        dev.fsync(fd)
        assert dev.device_metadata_digest() == system.session.durable_digest()

    @pytest.mark.parametrize("stencil_source", ["device", "cloud"])
    def test_truncate_makes_the_next_op_reread_the_block(self, stencil_source):
        system = build_system(total_blocks=256, inode_count=32, stencil_source=stencil_source)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        tbid, _, _ = dev.sb.inline_window(dev.fds[fd].inode)
        dev.write(fd, bytes(30))  # zeros: the scrub writes nothing, so only the map change names the block
        dev.fsync(fd)
        dev.close(fd)
        fd = dev.open("f", OpFlag.TRUNC)
        seen = self._watch(dev)
        dev.fsync(fd)  # its verdict turns the inline window back into metadata
        dev.close(dev.open("g", OpFlag.CREATE))
        assert self._reread(seen, tbid)
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_store_write_alone_names_a_cached_block(self):
        # The gate serves an unused block as zeros, so a twin may hold one
        # that an emergency write then fills; no map change names it.
        system = build_system(total_blocks=256, inode_count=32, emergency_bytes=8192)
        dev = system.device
        block = dev.emergency["blocks"][0]
        dev.twin_cached.add(block)
        dev.emergency_write(0, b"e" * 10)
        seen = self._watch(dev)
        dev.close(dev.open("g", OpFlag.CREATE))
        assert any(kind == wire.FrameKind.INVALIDATE and block in ids for kind, ids in seen)

    def test_cloud_hello_names_every_cached_block(self):
        system = build_system(total_blocks=256, inode_count=32, stencil_source="cloud")
        dev = system.device
        dev.close(dev.open("f", OpFlag.CREATE))
        held = sorted(dev.twin_cached)
        dev.fetch_replica_digest()  # the HELLO ack replaces the whole map
        seen = self._watch(dev)
        dev.close(dev.open("g", OpFlag.CREATE))
        assert seen[0] == (wire.FrameKind.INVALIDATE, tuple(held))

    def test_rollback_makes_the_next_op_reread_its_blocks(self):
        system = build_system(total_blocks=256, inode_count=32, attack="drop-write")
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        tbid, _, _ = dev.sb.inline_window(dev.fds[fd].inode)
        dev.write(fd, b"X" * 5000)
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert system.twin.cache == {} and dev.twin_cached == set()
        seen = self._watch(dev)
        dev.close(dev.open("g", OpFlag.CREATE))
        reads = [ids[0] for kind, ids in seen if kind == wire.FrameKind.META_READ_REQ]
        assert 0 in reads and tbid in reads  # a fresh engine reads the superblock first

    def test_too_many_ids_for_one_frame_drop_the_whole_cache(self, system, monkeypatch):
        monkeypatch.setattr(wire, "INVALIDATE_MAX", 0)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        tbid, _, _ = dev.sb.inline_window(dev.fds[fd].inode)
        dev.write(fd, b"i" * 30)
        seen = self._watch(dev)
        dev.close(dev.open("g", OpFlag.CREATE))
        assert (wire.FrameKind.META_READ_REQ, (tbid,)) in seen
        assert all(kind != wire.FrameKind.INVALIDATE for kind, _ in seen)
        dev.fsync(fd)  # the twin kept its fds: the op in flight still matches
        assert dev.device_metadata_digest() == system.session.durable_digest()


class ColdTwin(LocalTwin):
    """A twin whose cache is emptied before every op: the reference whose
    TRACEs the caching twin's must equal."""

    def execute(self, channel, frames):
        self.cache.clear()
        return super().execute(channel, frames)


_PATHS = ("a", "d/b", "d/c")
_CACHE_SCRIPT = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("write"), st.integers(0, 2), st.sampled_from((20, 50, 100, 5000))),
        st.tuples(st.just("read"), st.integers(0, 2)),
        st.tuples(st.just("fsync"), st.integers(0, 2)),
        st.tuples(st.just("close"), st.integers(0, 2)),
        st.tuples(st.just("emergency"), st.integers(0, 8192 - 100)),
        st.tuples(st.just("offline"), st.integers(0, 2), st.sampled_from((20, 5000))),
    ),
    max_size=24,
)


def _traces_of(script, twin_cls, stencil_source, attack, attack_at):
    """The TRACE frames of a script run on a system whose twin is a
    `twin_cls`, and what each call returned or raised."""
    from twinfs.device_core import DeviceError

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "LocalTwin", twin_cls)
        system = build_system(
            total_blocks=256, inode_count=32, seed=5, stencil_source=stencil_source,
            emergency_bytes=8192,
        )
    if attack is not None:
        system.twin.behavior = harness.inject_attack(attack, fire_at=attack_at)
    dev = system.device
    traces, results, fds = [], [], {}
    dev.channel.taps.append(lambda raw: raw[0] == wire.FrameKind.TRACE and traces.append(raw))

    def call(step):
        name, *args = step
        if name == "open":
            if args[0] in fds:
                dev.close(fds.pop(args[0]))
            flags = OpFlag.CREATE | (OpFlag.TRUNC if args[1] else 0)
            fds[args[0]] = dev.open(_PATHS[args[0]], flags)
        elif name == "emergency":
            dev.emergency_write(args[0], b"E" * 100)
        elif args[0] not in fds:
            return None
        elif name in ("write", "offline"):
            fd = fds[args[0]]
            if dev.fds[fd].pos + args[1] > 12 * BLOCK_SIZE:
                return None
            if name == "offline":
                system.transport.sever()
            try:
                dev.write(fd, b"w" * args[1])
            finally:
                if name == "offline":
                    system.transport.restore()
                    dev.reconnect_recover()  # flushes the write
        elif name == "read":
            fd = fds[args[0]]
            dev.cache.clear_all()
            dev.memo.entries.clear()
            dev.lseek(fd, 0)
            return dev.read(fd, 9000)
        elif name == "fsync":
            dev.fsync(fds[args[0]])
        else:
            dev.close(fds.pop(args[0]))

    for step in script:
        try:
            results.append(call(step))
        except (DeviceError, OfflineError, OutOfRangeError) as exc:
            results.append(type(exc).__name__)
    return traces, results


class TestTwinCacheIsInvisible:
    """The twin's cache changes no TRACE: across rollbacks, scrubs,
    truncates, inline promotes, emergency writes and the offline flush,
    a caching twin's TRACEs equal those of a twin that reads every block
    through the gate afresh in each op."""

    @pytest.mark.parametrize("stencil_source", ["device", "cloud"])
    @settings(max_examples=30, deadline=None)
    @given(
        script=_CACHE_SCRIPT,
        attack=st.sampled_from((None,) + harness.ATTACKS),
        attack_at=st.integers(1, 6),
    )
    def test_traces_equal_a_cold_twin(self, stencil_source, script, attack, attack_at):
        cached = _traces_of(script, LocalTwin, stencil_source, attack, attack_at)
        cold = _traces_of(script, ColdTwin, stencil_source, attack, attack_at)
        assert cached == cold


def _count_replies(dev):
    """Wrap the device's transport so each reply it reads is counted."""
    count = [0]
    recv = dev.transport.recv

    def counting():
        count[0] += 1
        return recv()

    dev.transport.recv = counting
    return count


class TestAsyncWriteDelayHiding:
    def test_write_and_fstat_do_not_wait_under_delay(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        start = time.monotonic()
        dev.write(fd, b"d" * 4096)
        write_s = time.monotonic() - start
        start = time.monotonic()
        assert dev.fstat(fd) == 4096
        fstat_s = time.monotonic() - start
        assert [p.op.op for p in dev.pending] == [OpCode.WRITE]  # still in flight
        assert write_s < 0.005
        assert fstat_s < 0.040  # less than one delay

    def test_fsync_waits_for_outstanding_validations(self):
        write_s = []
        for _ in range(5):
            system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
            dev = system.device
            fd = dev.open("f", OpFlag.CREATE)
            replies = _count_replies(dev)
            # The simulated delay is anchored at the write's send, so measure the
            # round trip from before the write: fsync may not return earlier.
            start = time.monotonic()
            dev.write(fd, b"d" * 4096)
            mid = time.monotonic()
            assert replies[0] == 0  # the write itself never waited for a reply
            dev.fsync(fd)
            done = time.monotonic()
            assert done - start >= 0.040
            write_s.append(mid - start)
        assert sorted(write_s)[2] < 0.005  # the median write

    def test_pipelined_writes_share_the_delay(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        for _ in range(5):
            dev.write(fd, b"d" * 4096)
        start = time.monotonic()
        dev.fsync(fd)
        elapsed = time.monotonic() - start
        assert elapsed < 0.200  # five round trips overlapped, not serialized


class TestPipelinedClose:
    def test_close_does_not_wait_for_its_verdict(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=50)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        start = time.monotonic()
        dev.close(fd)
        assert time.monotonic() - start < 0.050  # less than one delay
        assert [p.op.op for p in dev.pending] == [OpCode.CLOSE]
        matches = dev.metrics.matches
        fd = dev.open("f")
        assert dev.fstat(fd) == 0
        dev.drain_ops()
        assert dev.metrics.matches == matches + 2  # the CLOSE and the OPEN

    def test_close_that_diverges_fails_the_next_synchronous_call(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"c" * 5000)
        dev.fsync(fd)
        system.twin.behavior = DivergeOnClose()
        dev.close(fd)  # the CLOSE is in flight; its verdict comes later
        system.twin.behavior = EvilBehavior()
        with pytest.raises(VerificationFailedError):
            dev.open("g", OpFlag.CREATE)  # a new path: the open waits
        fd = dev.open("f")
        assert dev.fstat(fd) == 5000
        dev.close(fd)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_close_that_diverges_fails_an_fsync_on_another_fd(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        fd1 = dev.open("a", OpFlag.CREATE)
        fd2 = dev.open("b", OpFlag.CREATE)
        system.twin.behavior = DivergeOnClose()
        dev.close(fd1)
        system.twin.behavior = EvilBehavior()
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd2)  # nothing pending on fd2; only the CLOSE diverged
        dev.fsync(fd2)  # reported once
        assert dev.select_validate(fd2) == "AllMatch"
        dev.close(fd2)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_close_that_diverges_fails_shutdown_after_saving(self):
        sink = MemoryDurability()
        system = build_system(total_blocks=256, inode_count=32, durability=sink)
        dev = system.device
        fd = dev.open("a", OpFlag.CREATE)
        dev.write(fd, b"s" * 5000)
        dev.fsync(fd)
        system.twin.behavior = DivergeOnClose()
        dev.close(fd)
        with pytest.raises(VerificationFailedError):
            dev.shutdown()
        assert sink.load()[0] == dev.store.snapshot()
        assert dev.device_metadata_digest() == system.session.durable_digest()


class DivergeOnClose(EvilBehavior):
    def on_outcome(self, op, outcome):
        if op.op == OpCode.CLOSE:
            outcome.status = Status.BAD_FD
        return outcome


class ExtraWriteIn(EvilBehavior):
    """The twin's trace for one kind of op gains a write the engine never made."""

    def __init__(self, opcode):
        self.opcode = opcode

    def on_outcome(self, op, outcome):
        if op.op == self.opcode:
            outcome.trace.append(W(3))
        return outcome


class OtherInodeOnOpen(EvilBehavior):
    def on_outcome(self, op, outcome):
        if op.op == OpCode.OPEN:
            outcome.inode += 1
        return outcome


class SizeOnTruncOpen(EvilBehavior):
    def on_outcome(self, op, outcome):
        if op.op == OpCode.OPEN and op.flags & OpFlag.TRUNC:
            outcome.size = 7
        return outcome


def _memoized_file(system):
    """Create "f" with 5,000 bytes and close it: its OPEN is then validated."""
    dev = system.device
    fd = dev.open("f", OpFlag.CREATE)
    dev.write(fd, b"m" * 5000)
    dev.fsync(fd)
    dev.close(fd)


class TestPipelinedOpen:
    def test_memoized_open_does_not_wait_for_its_verdict(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        dev = system.device
        _memoized_file(system)
        start = time.monotonic()
        fd = dev.open("f")
        assert time.monotonic() - start < 0.040  # less than one delay
        assert OpCode.OPEN in [p.op.op for p in dev.pending]
        assert dev.read(fd, 5000) == (b"m" * 5000, TRUSTED)
        dev.close(fd)

    @pytest.mark.parametrize("flags", [OpFlag.CREATE, OpFlag.TRUNC])
    def test_memoized_create_and_trunc_opens_do_not_wait(self, flags):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        dev = system.device
        _memoized_file(system)
        start = time.monotonic()
        fd = dev.open("f", flags)
        assert time.monotonic() - start < 0.040  # less than one delay
        assert OpCode.OPEN in [p.op.op for p in dev.pending]
        size = 0 if flags & OpFlag.TRUNC else 5000
        assert dev.fstat(fd) == size
        dev.drain_ops()
        assert not dev.pending
        assert dev.fstat(fd) == size

    def test_create_of_a_new_path_waits(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        dev = system.device
        _memoized_file(system)
        start = time.monotonic()
        dev.open("g", OpFlag.CREATE)
        assert time.monotonic() - start >= 0.040
        assert not dev.pending

    def test_forgotten_mappings_make_open_wait(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        dev = system.device
        _memoized_file(system)
        dev.memo.entries.clear()
        start = time.monotonic()
        dev.open("f")
        assert time.monotonic() - start >= 0.040

    def test_truncating_open_keeps_the_path_memoized(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        dev.close(dev.open("f", OpFlag.TRUNC))
        fd = dev.open("f")
        assert OpCode.OPEN in [p.op.op for p in dev.pending]
        assert dev.fstat(fd) == 0

    def test_truncating_open_forgets_blocks_memoized_by_ops_before_it(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        fd = dev.open("f")
        dev.write(fd, b"o" * 3 * BLOCK_SIZE)
        dev.close(fd)
        fd = dev.open("f", OpFlag.TRUNC)
        assert [p.op.op for p in dev.pending][-3:] == [OpCode.WRITE, OpCode.CLOSE, OpCode.OPEN]
        dev.write(fd, b"n" * 40)  # inline: no block for a verdict to memoize
        dev.fsync(fd)  # the WRITE of "o" memoizes its blocks at its verdict
        dev.cache.clear_all()
        dev.lseek(fd, 0)
        assert dev.read(fd, 3 * BLOCK_SIZE) == (b"n" * 40, TRUSTED)
        dev.close(fd)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_write_before_a_truncating_open_memoizes_nothing_at_a_verdict_before_the_opens(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        g = dev.open("g", OpFlag.CREATE)  # a new path: waits
        fd = dev.open("f")
        dev.write(fd, b"o" * 3 * BLOCK_SIZE)
        old = dev.pending[-1]
        dev.close(fd)
        fd = dev.open("f", OpFlag.TRUNC)
        trunc = dev.pending[-1]
        dev.write(fd, b"n" * 40)  # inline: eviction memoizes no block for it
        while old.verdict is None:  # a full pipeline resolves one verdict per delegate
            dev.write(g, b"g" * 16)
        assert len(dev.pending) == MAX_IN_FLIGHT
        assert old.verdict.is_match and trunc in dev.pending
        dev.cache.clear_all()
        dev.lseek(fd, 0)
        assert dev.read(fd, 3 * BLOCK_SIZE) == (b"n" * 40, TRUSTED)
        dev.close(fd)
        dev.close(g)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_read_before_a_truncating_open_trusts_no_page_at_a_verdict_before_the_opens(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        g = dev.open("g", OpFlag.CREATE)
        u = dev.open("f", OpFlag.UNTRUSTED)
        inode = dev.fds[u].inode
        dev.cache.clear_all()
        dev.memo.invalidate_file(inode)
        assert dev.read(u, 5000) == (b"m" * 5000, UNTRUSTED)
        old = dev.pending[-1]
        fd = dev.open("f", OpFlag.TRUNC)
        trunc = dev.pending[-1]
        dev.write(fd, b"n" * 40)
        dev.cache.clear_all()
        dev.lseek(u, 0)
        assert dev.read(u, 40) == (b"n" * 40, UNTRUSTED)  # a new READ, not yet judged
        new = dev.pending[-1]
        while old.verdict is None:
            dev.write(g, b"g" * 16)
        assert old.verdict.is_match and trunc in dev.pending and new in dev.pending
        assert dev.cache.entries[(inode, 0)].trust == UNTRUSTED
        assert dev.select_validate(u) == "AllMatch"
        assert dev.cache.entries[(inode, 0)].trust == TRUSTED

    def test_pages_written_after_a_truncating_open_stay_cached_after_its_verdict(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        fd = dev.open("f", OpFlag.TRUNC)
        inode = dev.fds[fd].inode
        dev.write(fd, b"t" * 5000)
        assert OpCode.OPEN in [p.op.op for p in dev.pending]
        dev.fsync(fd)
        assert {(inode, 0), (inode, 1)} <= set(dev.cache.entries)
        sent = dev.metrics.fileops_sent
        dev.lseek(fd, 0)
        assert dev.read(fd, 5000) == (b"t" * 5000, TRUSTED)
        assert dev.metrics.fileops_sent == sent

    def test_trunc_open_whose_twin_reports_a_size_waits_for_its_verdict(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        dev.drain_all()
        pre = dev.store.digest()
        system.twin.behavior = SizeOnTruncOpen()
        with pytest.raises(VerificationFailedError, match="mismatch"):
            dev.open("f", OpFlag.TRUNC)
        assert not dev.pending
        assert dev.store.digest() == pre
        system.twin.behavior = EvilBehavior()
        fd = dev.open("f")
        assert dev.fstat(fd) == 5000

    def test_open_that_diverges_fails_the_next_fsync_on_its_fd(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        system.twin.behavior = ExtraWriteIn(OpCode.OPEN)
        fd = dev.open("f")  # the local twin agrees on the inode: no wait
        system.twin.behavior = EvilBehavior()
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.read(fd, 5000) == (b"m" * 5000, TRUSTED)
        dev.fsync(fd)
        dev.close(fd)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_open_that_diverges_after_its_close_fails_another_fd_once(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        other = dev.open("g", OpFlag.CREATE)
        system.twin.behavior = ExtraWriteIn(OpCode.OPEN)
        fd = dev.open("f")
        system.twin.behavior = EvilBehavior()
        dev.close(fd)
        with pytest.raises(VerificationFailedError):
            dev.fsync(other)
        dev.fsync(other)  # reported once
        dev.close(other)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_twin_naming_another_inode_fails_open_at_once(self):
        for flags in (0, OpFlag.TRUNC):
            system = build_system(total_blocks=256, inode_count=32)
            dev = system.device
            _memoized_file(system)
            dev.drain_all()
            pre = dev.store.digest()
            system.twin.behavior = OtherInodeOnOpen()
            with pytest.raises(VerificationFailedError):
                dev.open("f", flags)
            assert dev.store.digest() == pre
            assert not dev.fds
            system.twin.behavior = EvilBehavior()
            fd = dev.open("f")
            assert dev.fstat(fd) == 5000
            dev.close(fd)
            dev.shutdown()
            assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_write_that_diverges_after_its_close_fails_an_fsync_on_another_fd(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        fd1 = dev.open("a", OpFlag.CREATE)
        fd2 = dev.open("b", OpFlag.CREATE)
        system.twin.behavior = ExtraWriteIn(OpCode.WRITE)
        dev.write(fd1, b"w" * 5000)
        system.twin.behavior = EvilBehavior()
        dev.close(fd1)  # neither waits for the WRITE's verdict
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd2)
        dev.fsync(fd2)  # reported once
        dev.close(fd2)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_reopen_after_a_rolled_back_append_reads_the_true_size(self):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        other = dev.open("g", OpFlag.CREATE)
        fd = dev.open("f")
        dev.lseek(fd, 0, SEEK_END)
        system.twin.behavior = ExtraWriteIn(OpCode.WRITE)
        dev.write(fd, b"x" * 3000)
        system.twin.behavior = EvilBehavior()
        dev.close(fd)
        with pytest.raises(VerificationFailedError):
            dev.fsync(other)  # the append is rolled back with no fd left on "f"
        fd = dev.open("f")
        data, _ = dev.read(fd, 10000)
        assert data == b"m" * 5000

    def test_agreed_failure_after_close_is_not_charged_to_a_reopened_fd(self):
        system = build_system(total_blocks=12, inode_count=32)  # 8 data blocks
        dev = system.device
        dev.close(dev.open("other", OpFlag.CREATE))
        dev.drain_all()
        fd = dev.open("big", OpFlag.CREATE)
        for i in range(10):
            dev.write(fd, bytes([i]) * BLOCK_SIZE)
        dev.close(fd)
        other = dev.open("other")  # no wait: the writes are still in flight
        assert other != fd
        dev.fsync(other)  # the disk filled up under "big", not "other"
        dev.close(other)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    @pytest.mark.parametrize("diverge_at", [None, 5])
    def test_cycles_without_a_sync_call_stay_bounded(self, diverge_at):
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        deepest = reports = 0
        for cycle in range(400):
            fd = dev.open("f")
            if cycle == diverge_at:
                system.twin.behavior = ExtraWriteIn(OpCode.WRITE)
            dev.write(fd, b"%03d" % cycle * 33 + b"!")
            system.twin.behavior = EvilBehavior()
            try:
                dev.close(fd)
            except VerificationFailedError:
                reports += 1
            deepest = max(deepest, len(dev.pending))
        try:
            dev.shutdown()
        except VerificationFailedError:
            reports += 1
        assert deepest == MAX_IN_FLIGHT
        assert reports == (diverge_at is not None)
        assert not dev.pending
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_cycles_without_a_sync_call_keep_committing(self):
        # Nothing drains a full pipeline here, so a backlog of MAX_IN_FLIGHT
        # validated ops does, and the group commit runs.
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        _memoized_file(system)
        backlog = staged = 0
        for cycle in range(400):
            fd = dev.open("f")
            dev.write(fd, b"%03d" % cycle * 33 + b"!")
            dev.close(fd)
            backlog = max(backlog, len(dev._validated))
            staged = max(staged, len(system.session.staged))
        assert backlog <= MAX_IN_FLIGHT
        assert staged <= 2 * MAX_IN_FLIGHT
        assert system.session.last_committed >= 3 * 400 - 2 * MAX_IN_FLIGHT
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()


class TestUntrustedReads:
    def _cold_file(self, system, flags=0):
        dev = system.device
        fd = dev.open("img", OpFlag.CREATE)
        dev.write(fd, b"Z" * 8192)
        dev.fsync(fd)
        dev.close(fd)
        dev.cache.clear_all()
        dev.memo.entries.clear()
        return dev.open("img", flags)

    def test_untrusted_read_returns_immediately_tagged(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        fd = self._cold_file(system, OpFlag.UNTRUSTED)
        dev = system.device
        start = time.monotonic()
        data, trust = dev.read(fd, 8192)
        elapsed = time.monotonic() - start
        assert data == b"Z" * 8192
        assert trust == UNTRUSTED
        assert elapsed < 0.020

    def test_barrier_blocks_until_verdict_then_upgrades(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        fd = self._cold_file(system, OpFlag.UNTRUSTED)
        dev = system.device
        dev.read(fd, 8192)
        start = time.monotonic()
        assert dev.select_validate(fd) == "AllMatch"
        assert time.monotonic() - start >= 0.030
        dev.lseek(fd, 0)
        data, trust = dev.read(fd, 8192)
        assert trust == TRUSTED

    def test_trusted_read_blocks_for_validation(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        fd = self._cold_file(system, 0)
        dev = system.device
        start = time.monotonic()
        data, trust = dev.read(fd, 8192)
        assert time.monotonic() - start >= 0.040
        assert trust == TRUSTED

    def test_untrusted_write_barrier_returns_after_verdict(self):
        system = build_system(total_blocks=256, inode_count=32, delay_ms=40)
        dev = system.device
        fd = dev.open("out", OpFlag.CREATE | OpFlag.UNTRUSTED)
        start = time.monotonic()
        dev.write(fd, b"frame" * 1000)
        assert time.monotonic() - start < 0.020  # write did not wait
        assert dev.select_validate(fd) == "AllMatch"
        assert time.monotonic() - start >= 0.040  # the barrier did


class TestAttacks:
    def _attacked(self, attack, **kw):
        return build_system(total_blocks=256, inode_count=32, attack=attack, **kw)

    def test_payload_advised_at_another_offset_is_a_local_reject(self):
        class Shift(EvilBehavior):
            def on_outcome(self, op, outcome):
                if op.op == OpCode.WRITE:
                    outcome.segments = tuple(replace(seg, offset=seg.offset + 1) for seg in outcome.segments)
                return outcome

        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        system.twin.behavior = Shift()
        dev.write(fd, b"x" * 4096)  # a shifted page would not be 4096 bytes
        system.twin.behavior = EvilBehavior()
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.metrics.mismatches == 1
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_drop_write_detected_and_rolled_back(self):
        system = self._attacked("drop-write")
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        pre = dev.store.digest()
        dev.write(fd, b"X" * 5000)
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.store.digest() == pre
        assert dev.metrics.mismatches == 1
        # the dropped payload is retained untrusted-dirty in the cache and
        # is never flushed
        inode = dev.fds[fd].inode
        entry = dev.cache.entries[(inode, 0)]
        assert entry.trust == UNTRUSTED and entry.dirty
        dev.cache.clear_all()
        assert (inode, 0) in dev.cache.entries  # pinned, not evictable

    def test_redirect_read_never_shows_wrong_block(self):
        system = self._attacked("redirect-read")
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"G" * 4096)
        dev.fsync(fd)
        dev.cache.clear_all()
        dev.memo.entries.clear()
        dev.lseek(fd, 0)
        with pytest.raises(VerificationFailedError):
            dev.read(fd, 4096)
        assert dev.metrics.mismatches >= 1

    def test_redirect_write_rolls_back_neighbor_block(self):
        system = self._attacked("redirect-write", attack_at=2)
        dev = system.device
        fd1 = dev.open("a", OpFlag.CREATE)
        dev.write(fd1, b"A" * 4096)
        dev.fsync(fd1)
        fd2 = dev.open("b", OpFlag.CREATE)
        pre = dev.store.digest()  # last validated state
        dev.write(fd2, b"B" * 4096)  # redirected onto a neighboring block
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd2)
        assert dev.store.digest() == pre
        dev.lseek(fd1, 0)
        data, trust = dev.read(fd1, 4096)
        assert data == b"A" * 4096 and trust == TRUSTED

    def test_redirected_untrusted_read_taints_pages(self):
        system = self._attacked("redirect-read")
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"G" * 4096)
        dev.fsync(fd)
        dev.close(fd)
        dev.cache.clear_all()
        dev.memo.entries.clear()
        fd = dev.open("f", OpFlag.UNTRUSTED)
        data, trust = dev.read(fd, 4096)
        assert trust == UNTRUSTED
        assert dev.select_validate(fd) == "AnyMismatch"
        dev.lseek(fd, 0)
        data, trust = dev.read(fd, 4096)
        assert trust == UNTRUSTED  # tainted pages stay quarantined

    def test_iago_data_request_rejected(self):
        system = self._attacked("iago-data-request")
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"S" * 4096)
        dev.fsync(fd)
        before = dev.metrics.rejects_served
        # the probe rides the next delegation once a data block is known
        with pytest.raises(VerificationFailedError):
            fd2 = dev.open("g", OpFlag.CREATE)
            dev.write(fd2, b"T" * 100)
            dev.fsync(fd2)
        assert dev.metrics.rejects_served > before
        # the secret block never crossed the channel
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_stale_trace_replay_detected(self):
        system = self._attacked("stale-trace-replay", attack_at=2)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"1" * 4096)
        with pytest.raises(VerificationFailedError):
            dev.write(fd, b"2" * 4096)
            dev.fsync(fd)
        assert dev.metrics.mismatches >= 1

    def test_extra_request_detected(self):
        system = self._attacked("extra-request", attack_at=2)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        with pytest.raises(VerificationFailedError):
            dev.write(fd, b"E" * 4096)
            dev.fsync(fd)
        assert dev.metrics.mismatches >= 1

    def test_open_under_attack_fails_without_state_change(self):
        system = self._attacked("extra-request")
        dev = system.device
        pre = dev.store.digest()
        with pytest.raises(VerificationFailedError):
            dev.open("f", OpFlag.CREATE)
        assert dev.store.digest() == pre
        assert not dev.fds

    def test_replica_converges_after_attack_abort(self):
        system = self._attacked("drop-write")
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"X" * 5000)
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_both_fds_work_after_a_rolled_back_write_on_one(self):
        # The rollback resets both twins' fd tables; each fd is reopened.
        system = self._attacked("drop-write", attack_at=2)
        dev = system.device
        a, b = dev.open("a", OpFlag.CREATE), dev.open("b", OpFlag.CREATE)
        dev.write(a, b"A" * 5000)
        dev.fsync(a)
        dev.write(b, b"X" * 5000)
        with pytest.raises(VerificationFailedError):
            dev.fsync(b)
        matches = dev.metrics.matches
        dev.write(a, b"a" * 5000)
        dev.write(b, b"b" * 5000)
        dev.fsync(a)
        dev.fsync(b)
        dev.cache.clear_all()
        dev.memo.entries.clear()  # the reads go to both twins
        for fd, want in ((a, b"A" * 5000 + b"a" * 5000), (b, b"b" * 5000)):
            dev.lseek(fd, 0)
            assert dev.read(fd, 10000) == (want, TRUSTED)
        assert dev.metrics.mismatches == 1 and dev.metrics.matches > matches
        assert dev.device_metadata_digest() == system.session.durable_digest()

    @pytest.mark.parametrize("field", ["status", "segment-kind"])
    def test_unknown_enum_in_twin_trace_is_local_reject(self, field):
        from twinfs import wire
        from twinfs.local_twin import EvilBehavior
        from twinfs.minifs import OpCode

        class PatchTraceByte(EvilBehavior):
            """Puts a value no enum defines into a READ's TRACE message."""

            def on_frames(self, op, frames, twin):
                if op.op != OpCode.READ:
                    return frames
                blob = bytearray(wire.reassemble_message(frames))
                if field == "status":
                    blob[1:5] = (99).to_bytes(4, "little")
                else:
                    entries = int.from_bytes(blob[5:9], "little")
                    blob[9 + 5 * entries + 2] = 5  # the first segment's kind
                return wire.fragment_message(wire.FrameKind.TRACE, op.seq, bytes(blob))

        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"K" * 4096)
        dev.fsync(fd)
        dev.cache.clear_all()
        dev.memo.entries.clear()
        dev.lseek(fd, 0)
        system.twin.behavior = PatchTraceByte()
        pre = dev.store.digest()
        with pytest.raises(VerificationFailedError, match=LOCAL_REJECT):
            dev.read(fd, 4096)
        assert dev.store.digest() == pre

    @pytest.mark.parametrize("target", ["past-the-disk", "data-region", "promote-victim"])
    def test_inline_payload_into_another_inode_is_local_reject(self, target):
        # The twin names another inode for the write's inline window, or for
        # the inline bytes a promote copies into the file's first block. The
        # device must refuse before it writes a byte: no exception out of
        # write(), no payload outside the file's own window, and no other
        # file's inline bytes copied into this one.
        from dataclasses import replace

        from twinfs.local_twin import EvilBehavior
        from twinfs.minifs import INODE_SIZE, OpCode, SegKind

        class Retarget(EvilBehavior):
            inode = None

            def on_outcome(self, op, outcome):
                if op.op != OpCode.WRITE or self.inode is None:
                    return outcome
                if outcome.promote is not None:
                    outcome.promote = replace(outcome.promote, inode=self.inode)
                outcome.segments = tuple(
                    replace(seg, target=self.inode) if seg.kind == SegKind.INLINE else seg
                    for seg in outcome.segments
                )
                return outcome

        system = build_system(total_blocks=128, inode_count=32)
        dev = system.device
        sb = dev.sb
        per_block = BLOCK_SIZE // INODE_SIZE
        victim = dev.open("victim", OpFlag.CREATE)
        dev.write(victim, b"V" * 30)
        dev.fsync(victim)
        fd = dev.open("f", OpFlag.CREATE)
        evil = system.twin.behavior = Retarget()
        if target == "promote-victim":
            dev.write(fd, b"P" * 30)
            dev.fsync(fd)
            evil.inode = dev.fds[victim].inode
            dev.write(fd, b"Q" * 4096)  # promotes the 30 inline bytes first
            marker = b"V" * 30
        else:
            blocks_away = 500 if target == "past-the-disk" else sb.data_start + 5 - sb.inode_table_start
            evil.inode = blocks_away * per_block
            dev.write(fd, b"P" * 30)
            marker = b"P" * 30
        windows = [sb.inline_window(dev.fds[f].inode) for f in (victim, fd)]
        for bid in range(dev.store.total_blocks):
            raw = bytearray(dev.store.read_block(bid))
            for wbid, start, end in windows:
                if wbid == bid:
                    raw[start:end] = bytes(end - start)
            assert marker not in raw, "payload written into block %d" % bid
        verdicts = []
        fail = dev._fail_pending
        dev._fail_pending = lambda p, verdict, cloud: (verdicts.append(verdict.kind), fail(p, verdict, cloud))
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert verdicts == [LOCAL_REJECT]


class StrayRequest(EvilBehavior):
    """Sends the gate one extra request, built by make(op, accessor), on its first op."""

    def __init__(self, make):
        self.make = make
        self.replies = None

    def after_engine(self, op, accessor, twin):
        if self.replies is None:
            self.replies = accessor.channel.meta_call(self.make(op, accessor))


class TestChannelFraming:
    def test_stray_write_fragment_does_not_wedge_the_gate(self):
        # One full-length META_WRITE_REQ chunk is not a whole message. The op
        # that sent it diverges, and the ops after it must not pay for it.
        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        chunk = wire.FRAG_HEADER.pack(0) + bytes(wire.FRAG_CHUNK_MAX)
        system.twin.behavior = StrayRequest(
            lambda op, acc: [wire.Frame(wire.FrameKind.META_WRITE_REQ, op.seq, chunk)]
        )
        with pytest.raises(VerificationFailedError, match=LOCAL_REJECT):
            dev.open("hostile", OpFlag.CREATE)
        for i in range(3):
            fd = dev.open("f%d" % i, OpFlag.CREATE)
            dev.write(fd, b"h" * 5000)
            dev.fsync(fd)
            dev.close(fd)
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    @pytest.mark.parametrize("case", ["mixed-kinds", "foreign-seq", "short-read", "long-read"])
    def test_malformed_metadata_request_is_rejected(self, case):
        def make(op, acc):
            # Block 0 written back as it reads: harmless if the gate took it.
            frames = wire.fragment_message(
                wire.FrameKind.META_WRITE_REQ, op.seq, bytes(4) + acc.read_meta(0)
            )
            if case == "mixed-kinds":
                return [frames[0], replace(frames[1], kind=wire.FrameKind.META_READ_REQ)]
            if case == "foreign-seq":
                return [replace(f, seq=op.seq + 1) for f in frames]
            body = b"\x00\x00" if case == "short-read" else bytes(5)
            return wire.fragment_message(wire.FrameKind.META_READ_REQ, op.seq, body)

        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        evil = system.twin.behavior = StrayRequest(make)
        pre = dev.store.digest()
        with pytest.raises(VerificationFailedError, match=LOCAL_REJECT):
            dev.open("f", OpFlag.CREATE)
        assert [f.kind for f in evil.replies] == [wire.FrameKind.REJECT]
        assert dev.metrics.rejects_served == 1
        assert dev.store.digest() == pre

    @pytest.mark.parametrize("header", [{"seq": -1}, {"seq": 2**64}, {"kind": 256}])
    def test_trace_frame_header_out_of_range_is_local_reject(self, header):
        class BadHeader(EvilBehavior):
            def on_frames(self, op, frames, twin):
                return [replace(f, **header) for f in frames]

        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        pre = dev.store.digest()
        system.twin.behavior = BadHeader()
        with pytest.raises(VerificationFailedError, match=LOCAL_REJECT):
            dev.open("x", OpFlag.CREATE)
        assert dev.store.digest() == pre
        system.twin.behavior = EvilBehavior()
        dev.close(dev.open("x", OpFlag.CREATE))
        dev.shutdown()
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_trace_of_65_frames_is_local_reject(self):
        class LongTrace(EvilBehavior):
            sent = 0

            def on_outcome(self, op, outcome):
                # A well-formed trace, one frame longer than a message may be.
                pad = wire.MESSAGE_FRAMES_MAX * wire.FRAG_CHUNK_MAX // 5
                outcome.trace = list(outcome.trace) + [R(0)] * pad
                return outcome

            def on_frames(self, op, frames, twin):
                self.sent = len(frames)
                return frames

        system = build_system(total_blocks=256, inode_count=32)
        dev = system.device
        evil = system.twin.behavior = LongTrace()
        pre = dev.store.digest()
        with pytest.raises(VerificationFailedError, match=LOCAL_REJECT):
            dev.open("f", OpFlag.CREATE)
        assert evil.sent == wire.MESSAGE_FRAMES_MAX + 1
        assert dev.store.digest() == pre


class TestHostileReplicaResponses:
    @pytest.mark.parametrize("damage", ["truncated-delta", "unknown-kind"])
    def test_undecodable_cloud_stencil_reply_rolls_back(self, damage):
        from twinfs import wire
        from twinfs.blockstore import BlockStore
        from twinfs.device_core import DeviceError
        from twinfs.replica import ReplicaSession

        image = mkfs(256, 32)
        session = ReplicaSession.bootstrap(image.metadata_image)
        armed = {"on": False}

        def damaging(raw):
            resp = session.handle_message(raw)
            kind, seq, body = wire.decode_net(resp)
            # TRACE_RESP and the HELLO ACK carry a stencil delta; commit and abort ACKs are empty.
            if not (armed["on"] and body and kind in (wire.NetKind.TRACE_RESP, wire.NetKind.ACK)):
                return resp
            if damage == "truncated-delta":
                return wire.encode_net(kind, seq, body[:-1])
            return resp[:4] + bytes([99]) + resp[5:]

        dev = DeviceCore(
            BlockStore(256, dict(image.full_blocks)),
            DelayedTransport(LoopbackTransport(damaging), 0),
            LocalTwin(),
            DeviceConfig(emergency_bytes=0, stencil_source="cloud"),
        )
        fd = dev.open("f", OpFlag.CREATE)
        dev.fsync(fd)
        pre = dev.store.digest()
        armed["on"] = True
        dev.write(fd, b"x" * 100)
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.store.digest() == pre
        with pytest.raises(DeviceError):
            dev.fetch_replica_digest()
        assert dev.device_metadata_digest() == session.durable_digest()

    def test_malformed_trace_resp_is_cloud_reject(self):
        from twinfs import wire
        from twinfs.blockstore import BlockStore
        from twinfs.device_core import DeviceConfig, DeviceCore
        from twinfs.local_twin import LocalTwin
        from twinfs.minifs import mkfs
        from twinfs.replica import ReplicaSession
        from twinfs.transport import DelayedTransport, LoopbackTransport

        image = mkfs(256, 32)
        session = ReplicaSession.bootstrap(image.metadata_image)
        state = {"responses": 0}

        def corrupting(raw):
            resp = session.handle_message(raw)
            kind, seq, body = wire.decode_net(resp)
            state["responses"] += 1
            if kind == wire.NetKind.TRACE_RESP and state["responses"] > 2:
                return wire.encode_net(kind, seq, body[: max(0, len(body) - 3)])
            return resp

        dev = DeviceCore(
            BlockStore(256, dict(image.full_blocks)),
            DelayedTransport(LoopbackTransport(corrupting), 0),
            LocalTwin(),
            DeviceConfig(emergency_bytes=0),
        )
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"x" * 100)
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.metrics.mismatches >= 1

    def test_replica_refusal_reports_its_code_and_message(self):
        from twinfs import replica
        from twinfs.blockstore import BlockStore
        from twinfs.device_core import CLOUD_REJECT, DeviceError
        from twinfs.replica import ReplicaSession

        image = mkfs(256, 32)
        session = ReplicaSession.bootstrap(image.metadata_image)
        refuse = {"kind": None, "body": None}

        def refusing(raw):
            kind, seq, _ = wire.decode_net(raw)
            if kind != refuse["kind"]:
                return session.handle_message(raw)
            return wire.encode_net(wire.NetKind.ERROR, seq, refuse["body"])

        dev = DeviceCore(
            BlockStore(256, dict(image.full_blocks)),
            DelayedTransport(LoopbackTransport(refusing), 0),
            LocalTwin(),
            DeviceConfig(emergency_bytes=0),
        )
        fd = dev.open("f", OpFlag.CREATE)
        refuse.update(kind=wire.NetKind.FILEOP, body=wire.encode_error(replica.ERR_UNKNOWN_TXN, "seq refused"))
        with pytest.raises(VerificationFailedError, match=r"cloud_reject \(replica error 1: seq refused\)"):
            dev.open("g", OpFlag.CREATE)  # a new path: the open waits for its reply
        # A body that does not decode is still a plain refusal.
        refuse["body"] = b"\x01"
        dev.write(fd, b"r" * 100)
        pending = dev.pending[-1]
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert pending.verdict == Verdict(CLOUD_REJECT)
        refuse.update(kind=wire.NetKind.COMMIT, body=wire.encode_error(replica.ERR_BAD_MESSAGE, "no txn"))
        dev.write(fd, b"c" * 100)
        dev.fsync(fd)  # the group commit sends the COMMIT; its reply is read later
        with pytest.raises(DeviceError, match="replica error 2: no txn"):
            dev.drain_all()

    @staticmethod
    def _device_over(respond, stencil_source="device"):
        """A device whose replica answers through respond(session, raw)."""
        from twinfs.blockstore import BlockStore
        from twinfs.replica import ReplicaSession

        image = mkfs(256, 32)
        session = ReplicaSession.bootstrap(image.metadata_image)
        return DeviceCore(
            BlockStore(256, dict(image.full_blocks)),
            DelayedTransport(LoopbackTransport(lambda raw: respond(session, raw)), 0),
            LocalTwin(),
            DeviceConfig(emergency_bytes=0, stencil_source=stencil_source),
        )

    @pytest.mark.parametrize("other", ["kind", "seq"])
    def test_reply_other_than_the_awaited_one_is_a_refusal(self, other):
        """A TRACE_RESP's body sent as an ACK, or for the next seq, is a refusal."""

        def renamed(session, raw):
            kind, seq, body = wire.decode_net(session.handle_message(raw))
            if kind == wire.NetKind.TRACE_RESP:
                kind, seq = (wire.NetKind.ACK, seq) if other == "kind" else (kind, seq + 1)
            return wire.encode_net(kind, seq, body)

        dev = self._device_over(renamed)
        with pytest.raises(VerificationFailedError, match="cloud_reject"):
            dev.fsync(dev.open("f", OpFlag.CREATE))
        assert (dev.metrics.matches, dev.metrics.mismatches) == (0, 1)
        assert dev.device_metadata_digest() == dev.fetch_replica_digest()

    # A bare digest is the whole ack in device-stencil mode.
    @pytest.mark.parametrize("stencil_source, damage", [
        (source, damage) for source in ("device", "cloud")
        for damage in ("empty", "digest-cut", "trailing-byte", "digest-only")
        if (source, damage) != ("device", "digest-only")
    ])
    def test_hello_ack_is_the_digest_and_the_stencil_dump_only(self, stencil_source, damage):
        from twinfs.device_core import DeviceError

        damaged = {
            "empty": lambda body: b"",
            "digest-cut": lambda body: body[:31],
            "trailing-byte": lambda body: body + b"\x00",
            "digest-only": lambda body: body[:32],
        }[damage]
        armed = {"on": False}

        def damaging(session, raw):
            resp = session.handle_message(raw)
            if not (armed["on"] and wire.decode_net(raw)[0] == wire.NetKind.HELLO):
                return resp
            kind, seq, body = wire.decode_net(resp)
            return wire.encode_net(kind, seq, damaged(body))

        dev = self._device_over(damaging, stencil_source)
        digest = dev.fetch_replica_digest()
        assert len(digest) == 64
        armed["on"] = True
        with pytest.raises(DeviceError, match="hello ack"):
            dev.fetch_replica_digest()
        assert dev.last_replica_digest == digest

    def test_refused_abort_is_a_device_error(self, tmp_path):
        """A device whose log was rolled back past the replica's last commit
        asks it to abort a committed seq; the refusal ends recovery."""
        import shutil

        from twinfs.device_core import DeviceError, FileDurability

        device_dir, old = tmp_path / "device", tmp_path / "old"
        system = build_system(
            total_blocks=256, inode_count=32, durability=FileDurability(str(device_dir))
        )
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"a" * 100)
        dev.fsync(fd)
        shutil.copytree(device_dir, old)
        dev.write(fd, b"b" * 100)
        dev.fsync(fd)
        dev.drain_all()
        shutil.rmtree(device_dir)
        shutil.copytree(old, device_dir)
        transport = DelayedTransport(LoopbackTransport(system.session.handle_message), 0)
        revived = DeviceCore.load(
            FileDurability(str(device_dir)), transport, LocalTwin(), DeviceConfig(emergency_bytes=0)
        )
        with pytest.raises(DeviceError, match=r"refused abort of seq \d+: replica error 1: unknown txn"):
            revived.reconnect_recover()


    @staticmethod
    def _cloud_device(image, transport):
        from twinfs.blockstore import BlockStore

        return DeviceCore(
            BlockStore(256, dict(image.full_blocks)),
            DelayedTransport(LoopbackTransport(transport), 0),
            LocalTwin(),
            DeviceConfig(emergency_bytes=0, stencil_source="cloud"),
        )

    @staticmethod
    def _with_class(body: bytes, offset: int, cls: int) -> bytes:
        """body with every entry of the stencil delta at offset given class cls."""
        from twinfs import wire

        entries, _ = wire.decode_stencil_delta(body, offset)
        return body[:offset] + wire.encode_stencil_delta([(b, cls, r) for b, _, r in entries])

    def test_unknown_stencil_class_in_trace_resp_rolls_back(self):
        from twinfs import wire
        from twinfs.minifs import OpCode
        from twinfs.replica import ReplicaSession

        image = mkfs(256, 32)
        session = ReplicaSession.bootstrap(image.metadata_image)
        armed = {"on": False}

        def class_seven(raw):
            resp = session.handle_message(raw)
            kind, seq, body = wire.decode_net(resp)
            if not (armed["on"] and kind == wire.NetKind.TRACE_RESP):
                return resp
            _, _, offset = wire.decode_outcome_at(OpCode.WRITE, body)
            return wire.encode_net(kind, seq, self._with_class(body, offset, 7))

        dev = self._cloud_device(image, class_seven)
        fd = dev.open("f", OpFlag.CREATE)
        dev.fsync(fd)
        pre = dev.store.digest()
        armed["on"] = True
        dev.write(fd, b"x" * 100)  # inline: the table block turns mixed
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.store.digest() == pre
        assert all(cls <= 3 for cls in dev.smap.classes.values())

    def test_unknown_stencil_class_in_hello_is_device_error(self):
        from twinfs import wire
        from twinfs.device_core import DeviceError
        from twinfs.replica import ReplicaSession

        image = mkfs(256, 32)
        session = ReplicaSession.bootstrap(image.metadata_image)

        def class_seven(raw):
            resp = session.handle_message(raw)
            kind, seq, body = wire.decode_net(resp)
            if kind != wire.NetKind.ACK or len(body) <= 32:
                return resp
            return wire.encode_net(kind, seq, self._with_class(body, 32, 7))

        with pytest.raises(DeviceError, match="malformed stencil map"):
            self._cloud_device(image, class_seven)


@pytest.fixture
def core_decodes(monkeypatch):
    """The replica outcomes the device core decodes: each call of
    wire.decode_outcome_at made from twinfs.device_core. The twin's own TRACE
    is decoded through wire.decode_outcome, so it is not counted."""
    calls = []
    decode = wire.decode_outcome_at

    def counting(*args):
        if sys._getframe(1).f_globals["__name__"] == "twinfs.device_core":
            calls.append(args[0])
        return decode(*args)

    monkeypatch.setattr(wire, "decode_outcome_at", counting)
    return calls


class GapOnWrite(EvilBehavior):
    def on_outcome(self, op, outcome):
        if op.op == OpCode.WRITE:
            outcome.status = Status.SEQ_GAP
        return outcome


@pytest.fixture(scope="module")
def honest_replies():
    """A device and the (op, honest TRACE_RESP body) pairs of a short
    session of every delegated op kind, each op already judged."""
    system = build_system(total_blocks=256, inode_count=32)
    dev = system.device
    replies = []
    handle = dev._handle_trace_resp

    def recording(pending, body, refusal):
        replies.append((pending, body))
        handle(pending, body, refusal)

    dev._handle_trace_resp = recording
    fd = dev.open("f", OpFlag.CREATE)
    dev.write(fd, b"i" * 40)  # inline
    dev.write(fd, b"b" * 6000)  # promoted into blocks
    dev.lseek(fd, 0)
    dev.close(fd)
    dev.drain_all()
    dev.cache.clear_all()
    dev.memo.entries.clear()  # so the reads are delegated
    fd = dev.open("f", OpFlag.UNTRUSTED)
    dev.read(fd, 3000)
    dev.read(fd, 3000)
    dev.fsync(fd)
    dev.close(fd)
    dev.fsync(dev.open("g", OpFlag.CREATE))
    dev.drain_all()
    assert {p.op.op for p, _ in replies} >= {OpCode.OPEN, OpCode.WRITE, OpCode.READ, OpCode.CLOSE}
    return dev, tuple(replies)


@st.composite
def _damaged(draw, body):
    """body with bytes flipped, cut off or added."""
    how = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if how == "truncate":
        return body[: draw(st.integers(0, len(body) - 1))]
    if how == "extend":
        return body + draw(st.binary(min_size=1, max_size=8))
    damaged = bytearray(body)
    for _ in range(draw(st.integers(1, 3))):
        damaged[draw(st.integers(0, len(body) - 1))] ^= draw(st.integers(1, 255))
    return bytes(damaged)


class TestVerdictByBytes:
    """A TRACE_RESP body that is the local twin's TRACE with ok-to-commit set
    is judged by one comparison; any other body is decoded and compared."""

    @staticmethod
    def _device(respond, stencil_source="device", twin=None):
        """A device whose replica answers through respond(session, raw)."""
        from twinfs.blockstore import BlockStore
        from twinfs.replica import ReplicaSession

        image = mkfs(256, 32)
        session = ReplicaSession.bootstrap(image.metadata_image)
        dev = DeviceCore(
            BlockStore(256, dict(image.full_blocks)),
            DelayedTransport(LoopbackTransport(lambda raw: respond(session, raw)), 0),
            twin or LocalTwin(),
            DeviceConfig(emergency_bytes=0, stencil_source=stencil_source),
        )
        return dev, session

    @staticmethod
    def _trace_resps(change):
        """A replica answer that passes each TRACE_RESP body through change(body, op)."""

        def respond(session, raw):
            kind, seq, body = wire.decode_net(session.handle_message(raw))
            if kind == wire.NetKind.TRACE_RESP:
                body = change(body, wire.decode_fileop(wire.decode_net(raw)[2]).op)
            return wire.encode_net(kind, seq, body)

        return respond

    def test_honest_run_decodes_no_replica_outcome(self, system, core_decodes):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"i" * 40)
        for n in range(1, 6):
            dev.write(fd, bytes([n]) * 3000)
        dev.lseek(fd, 0)
        dev.fsync(fd)
        dev.close(fd)
        dev.fsync(dev.open("f"))
        dev.drain_all()
        assert dev.metrics.matches == dev.metrics.fileops_sent >= 8
        assert dev.metrics.mismatches == 0
        assert core_decodes == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_reply_gets_the_verdict_of_a_decoded_one(self, honest_replies, data):
        dev, replies = honest_replies
        pending, body = data.draw(st.sampled_from(replies))
        body = data.draw(_damaged(body))
        verdict = dev._judge(pending, body, None)[0]
        decoded = dev._judge(replace(pending, agreed=None), body, None)[0]
        assert (verdict.kind, verdict.divergence) == (decoded.kind, decoded.divergence)

    def test_honest_replies_match_by_their_bytes(self, honest_replies):
        dev, replies = honest_replies
        for pending, body in replies:
            assert body == pending.agreed
            assert dev._judge(pending, body, None) == (Verdict(MATCH), pending.local, None)

    def test_reply_that_decodes_equal_but_is_not_canonical_matches(self, core_decodes):
        extra_flag = self._trace_resps(lambda body, op: bytes([body[0] | 0x80]) + body[1:])
        dev, session = self._device(extra_flag)
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"x" * 5000)
        dev.fsync(fd)
        assert dev.metrics.matches == dev.metrics.fileops_sent == len(core_decodes)
        assert dev.metrics.mismatches == 0
        assert dev.device_metadata_digest() == session.durable_digest()

    def test_seq_gap_both_twins_report_is_still_a_cloud_reject(self, core_decodes):
        def gap(body, op):
            if op != OpCode.WRITE:
                return body
            outcome, ok = wire.decode_outcome(op, body)
            return wire.encode_outcome(op, replace(outcome, status=Status.SEQ_GAP), ok)

        dev, session = self._device(self._trace_resps(gap), twin=LocalTwin(GapOnWrite()))
        fd = dev.open("f", OpFlag.CREATE)
        dev.fsync(fd)
        dev.write(fd, b"g" * 100)
        pending = dev.pending[-1]
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert pending.local.status == Status.SEQ_GAP
        assert pending.verdict == Verdict(CLOUD_REJECT)
        assert core_decodes == []  # judged by its bytes
        assert dev.device_metadata_digest() == session.durable_digest()

    def test_trailing_bytes_after_an_equal_outcome_are_a_cloud_reject(self):
        armed = {"on": False}
        dev, session = self._device(self._trace_resps(lambda body, op: body + b"\x00" * armed["on"]))
        fd = dev.open("f", OpFlag.CREATE)
        dev.fsync(fd)
        armed["on"] = True
        dev.write(fd, b"t" * 100)
        pending = dev.pending[-1]
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert pending.verdict == Verdict(CLOUD_REJECT)
        assert dev.device_metadata_digest() == session.durable_digest()

    def test_cloud_stencil_delta_after_an_equal_outcome_is_applied(self, core_decodes):
        deltas = []

        def keep_delta(body, op):
            _, _, offset = wire.decode_outcome_at(op, body)
            deltas.append(wire.decode_stencil_delta(body, offset)[0])
            return body

        dev, session = self._device(self._trace_resps(keep_delta), stencil_source="cloud")
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"d" * 9000)  # two blocks the replica's delta classes as data
        dev.fsync(fd)
        named = {bid for delta in deltas for bid, _, _ in delta}
        assert any(cls == stencil.CLASS_DATA for delta in deltas for _, cls, _ in delta)
        assert all(dev.smap.entry(bid) == session._last_stencil.entry(bid) for bid in named)
        assert dev.metrics.mismatches == 0 and core_decodes == []


class TestEmergency:
    def _system(self):
        return build_system(total_blocks=256, inode_count=32, emergency_bytes=16384)

    def test_emergency_io_offline_zero_rpc(self):
        system = self._system()
        dev = system.device
        system.transport.sever()
        before = dev.metrics.rpc_total
        dev.emergency_write(0, b"URGENT" * 10)
        assert dev.emergency_read(0, 60) == b"URGENT" * 10
        assert dev.metrics.rpc_total == before

    def test_full_extent_round_trip(self):
        system = self._system()
        dev = system.device
        system.transport.sever()
        payload = bytes(i % 251 for i in range(16384))
        dev.emergency_write(0, payload)
        assert dev.emergency_read(0, 16384) == payload

    def test_out_of_range(self):
        system = self._system()
        dev = system.device
        with pytest.raises(OutOfRangeError):
            dev.emergency_write(16000, bytes(1000))
        with pytest.raises(OutOfRangeError):
            dev.emergency_read(0, 16385)

    def test_survives_restart_offline(self, tmp_path):
        from twinfs.device_core import FileDurability

        durability = FileDurability(str(tmp_path / "dev"))
        system = build_system(
            total_blocks=256, inode_count=32, emergency_bytes=8192, durability=durability
        )
        dev = system.device
        system.transport.sever()
        dev.emergency_write(0, b"KEEP-ME!" * 8)
        dev.persist()
        # rebuild the device from its durable state, still offline
        from twinfs.blockstore import BlockStore

        blocks, meta = durability.load()
        store = BlockStore(256, blocks)
        transport = DelayedTransport(LoopbackTransport(lambda raw: raw), 0)
        transport.sever()
        dev2 = DeviceCore(
            store, transport, LocalTwin(), DeviceConfig(emergency_bytes=8192),
            durability=durability, meta=meta,
        )
        assert dev2.emergency_read(0, 64) == b"KEEP-ME!" * 8

    def test_open_emergency_while_disconnected(self):
        system = self._system()
        dev = system.device
        system.transport.sever()
        fd = dev.open(dev.EMERGENCY_PATH + "/s0")
        data, trust = dev.read(fd, 100)
        assert trust == TRUSTED


class TestOffline:
    def test_reads_offline_from_cache_and_memo(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"C" * 4096)
        dev.fsync(fd)
        system.transport.sever()
        dev.lseek(fd, 0)
        data, _ = dev.read(fd, 4096)  # cache hit
        assert data == b"C" * 4096
        dev.cache.clear_all()
        dev.lseek(fd, 0)
        data, _ = dev.read(fd, 4096)  # memo hit
        assert data == b"C" * 4096

    def test_uncached_read_fails_fast_offline(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"C" * 4096)
        dev.fsync(fd)
        system.transport.sever()
        dev.cache.clear_all()
        dev.memo.entries.clear()
        dev.lseek(fd, 0)
        with pytest.raises(OfflineError):
            dev.read(fd, 4096)

    def test_create_offline_fails_fast(self, system):
        system.transport.sever()
        with pytest.raises(OfflineError):
            system.device.open("new", OpFlag.CREATE)

    def test_offline_writes_buffer_then_flush_on_reconnect(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"1" * 4096)
        system.transport.sever()
        dev.write(fd, b"2" * 4096)
        with pytest.raises(OfflineError):
            dev.fsync(fd)
        # read-your-writes while offline
        dev.lseek(fd, 4096)
        data, _ = dev.read(fd, 4096)
        assert data == b"2" * 4096
        system.transport.restore()
        dev.reconnect_recover()
        dev.fsync(fd)
        dev.lseek(fd, 0)
        data, trust = dev.read(fd, 8192)
        assert data == b"1" * 4096 + b"2" * 4096 and trust == TRUSTED
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_fstat_offline_answers_locally(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"1" * 100)
        system.transport.sever()
        dev.write(fd, b"2" * 5000)
        assert dev.fstat(fd) == 5100
        system.transport.restore()
        dev.reconnect_recover()
        dev.fsync(fd)
        assert dev.fstat(fd) == 5100

    def test_queued_write_past_a_rolled_back_one_fails_its_verdict(self):
        system = build_system(total_blocks=256, inode_count=32, attack="drop-write")
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"w" * 100)  # its verdict, read at reconnect, rolls it back
        system.transport.sever()
        dev.write(fd, b"w" * 5000)  # queued at offset 100
        system.transport.restore()
        # The twins put the flushed write at offset 0, the end of the file.
        dev.reconnect_recover()
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.device_metadata_digest() == system.session.durable_digest()

    def test_reconnect_with_nothing_pending_is_noop(self, system):
        dev = system.device
        system.transport.sever()
        system.transport.restore()
        dev.reconnect_recover()
        assert dev.device_metadata_digest() == system.session.durable_digest()


class TestLocalFstat:
    """fstat answers from the device's own size of the file: validated, or
    as speculative as the writes in flight, whose failure the next barrier
    reports."""

    def test_fstat_makes_no_round_trip(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        replies = _count_replies(dev)
        for in_flight in (False, True):
            dev.write(fd, b"a" * 3000)
            if not in_flight:
                dev.fsync(fd)
            pending = list(dev.pending)
            assert bool(pending) == in_flight
            rpcs, read = dev.metrics.rpc_total, replies[0]
            assert dev.fstat(fd) == dev.fds[fd].pos
            assert (dev.metrics.rpc_total, replies[0]) == (rpcs, read)
            assert list(dev.pending) == pending

    def test_agreed_failure_shows_at_the_next_fsync(self):
        system = build_system(total_blocks=12, inode_count=32)  # 8 data blocks
        dev = system.device
        fd = dev.open("big", OpFlag.CREATE)
        for i in range(10):
            dev.write(fd, bytes([i]) * BLOCK_SIZE)
        assert dev.fstat(fd) == 10 * BLOCK_SIZE  # the optimistic size
        with pytest.raises(NoSpaceError):
            dev.fsync(fd)
        assert dev.fstat(fd) == 8 * BLOCK_SIZE

    def test_diverging_write_shows_at_the_next_fsync(self, system):
        dev = system.device
        fd = dev.open("f", OpFlag.CREATE)
        dev.write(fd, b"a" * 3000)
        dev.fsync(fd)
        system.twin.behavior = ExtraWriteIn(OpCode.WRITE)
        dev.write(fd, b"b" * 5000)
        system.twin.behavior = EvilBehavior()
        assert dev.fstat(fd) == 8000  # the optimistic size
        with pytest.raises(VerificationFailedError):
            dev.fsync(fd)
        assert dev.fstat(fd) == 3000  # rolled back
        assert dev.device_metadata_digest() == system.session.durable_digest()


class TestAgreedFailure:
    def test_disk_full_surfaces_as_no_space_not_verification_failure(self):
        system = build_system(total_blocks=12, inode_count=32)  # 8 data blocks
        dev = system.device
        fd = dev.open("big", OpFlag.CREATE)
        for i in range(10):
            dev.write(fd, bytes([i]) * BLOCK_SIZE)
        with pytest.raises(NoSpaceError):
            dev.fsync(fd)
        # the optimistic size/position advance is healed to the true size
        assert dev.size_of(dev.fds[fd].inode) == 8 * BLOCK_SIZE
        assert dev.fds[fd].pos == 8 * BLOCK_SIZE
        dev.lseek(fd, 0)
        data, trust = dev.read(fd, 10 * BLOCK_SIZE)
        assert len(data) == 8 * BLOCK_SIZE and trust == TRUSTED
        assert dev.device_metadata_digest() == system.session.durable_digest()


class TestRandomizedSoak:
    """Random op mixes (incl. truncation and nested paths) against the oracle,
    with per-run digest convergence and taint scans."""

    @pytest.mark.parametrize(
        "master,stencil_source,cache_pages",
        [(1, "device", 8), (2, "cloud", 8), (3, "device", 3)],
    )
    def test_soak(self, master, stencil_source, cache_pages):
        import random

        from twinfs.harness import FileModel

        rng = random.Random(master)
        for i in range(30):
            system = build_system(
                total_blocks=512, inode_count=32, seed=rng.randrange(1 << 30),
                stencil_source=stencil_source, cache_pages=cache_pages,
            )
            dev = system.device
            model = FileModel()
            fd_map = {}
            names = ["a/x", "a/y", "b/z", "top", "t2"]
            for _ in range(rng.randrange(8, 20)):
                action = rng.choice(("open", "trunc", "write", "read", "lseek", "fsync", "close"))
                if action in ("open", "trunc") or not fd_map:
                    flags = OpFlag.CREATE | (OpFlag.TRUNC if action == "trunc" else 0)
                    name = rng.choice(names)
                    fd = dev.open(name, flags)
                    fd_map[fd] = model.open(name, flags)
                elif action == "write":
                    fd = rng.choice(list(fd_map))
                    size = rng.randrange(1, 7000)
                    if dev.fds[fd].pos + size > 12 * BLOCK_SIZE:
                        continue
                    data = rng.randbytes(size)
                    assert dev.write(fd, data) == model.write(fd_map[fd], data)
                elif action == "read":
                    fd = rng.choice(list(fd_map))
                    if rng.random() < 0.4:
                        dev.cache.clear_all()
                    if rng.random() < 0.2:
                        dev.memo.entries.clear()
                    n = rng.randrange(1, 9000)
                    got, _ = dev.read(fd, n)
                    assert got == model.read(fd_map[fd], n)
                elif action == "lseek":
                    fd = rng.choice(list(fd_map))
                    off, whence = rng.randrange(0, 12 * BLOCK_SIZE), rng.choice((0, 1, 2))
                    assert dev.lseek(fd, off, whence) == model.lseek(fd_map[fd], off, whence)
                elif action == "fsync":
                    dev.fsync(rng.choice(list(fd_map)))
                else:
                    fd = rng.choice(list(fd_map))
                    dev.close(fd)
                    model.close(fd_map.pop(fd))
            for fd in list(fd_map):
                dev.close(fd)
            dev.shutdown()
            assert dev.device_metadata_digest() == system.session.durable_digest()
            assert not system.vault.scan()


class TestStencilSourceCloud:
    def test_cloud_stencils_serve_and_protect(self):
        system = build_system(total_blocks=256, inode_count=32, stencil_source="cloud")
        dev = system.device
        fd = dev.open("s", OpFlag.CREATE)
        dev.write(fd, b"inline-secret-payload!!" * 2)  # 46 bytes, inline
        dev.fsync(fd)
        from twinfs import stencil

        tbid, start, end = dev.sb.inline_window(dev.fds[fd].inode)
        served = stencil.serve_block_read(dev.smap, tbid, dev.store.read_block(tbid))
        assert b"inline-secret" not in served
        dev.close(fd)
        assert dev.device_metadata_digest() == system.session.durable_digest()
