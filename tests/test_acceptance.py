"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import random
import re
import time
from pathlib import Path

import pytest

from twinfs import harness, wire
from twinfs.blockstore import BLOCK_SIZE, BlockStore
from twinfs.device_core import (
    DeviceConfig,
    DeviceCore,
    FileDurability,
    TRUSTED,
    VerificationFailedError,
)
from twinfs.harness import FileModel, TaintVault, build_system
from twinfs.local_twin import LocalTwin
from twinfs.minifs import (
    BlockRequest,
    FileOp,
    OpCode,
    OpFlag,
    OpOutcome,
    ReqKind,
    SegKind,
    Segment,
    Status,
    mkfs,
)
from twinfs.transport import DelayedTransport, LoopbackTransport


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (number, title))
        raise
    print("ACCEPTANCE %d (%s): PASS" % (number, title))


def test_criterion_1_oracle_equivalence():
    """1,000 randomized sequences match the reference file map, < 60 s."""
    with criterion(1, "oracle equivalence"):
        start = time.monotonic()
        rng = random.Random(20260808)
        for i in range(1000):
            _one_random_sequence(rng)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, "took %.1fs" % elapsed


def _one_random_sequence(rng, after_call=lambda dev, model, fd_map: None):
    system = build_system(total_blocks=4096, inode_count=128, seed=rng.randrange(1 << 30))
    dev = system.device
    model = FileModel()
    fd_map = {}
    names = ["f%d" % i for i in range(4)]
    for _ in range(rng.randrange(6, 14)):
        action = rng.choice(("open", "write", "read", "lseek", "fsync"))
        if action == "open" or not fd_map:
            name = rng.choice(names)
            fd = dev.open(name, OpFlag.CREATE)
            fd_map[fd] = model.open(name, OpFlag.CREATE)
        elif action == "write":
            fd = rng.choice(list(fd_map))
            pos = dev.fds[fd].pos
            size = rng.randrange(1, 9000)
            if pos + size > 12 * BLOCK_SIZE:
                continue
            data = rng.randbytes(size)
            assert dev.write(fd, data) == model.write(fd_map[fd], data)
        elif action == "read":
            fd = rng.choice(list(fd_map))
            if rng.random() < 0.3:
                dev.cache.clear_all()
            n = rng.randrange(1, 9000)
            got, trust = dev.read(fd, n)
            assert trust == TRUSTED
            assert got == model.read(fd_map[fd], n)
        elif action == "lseek":
            fd = rng.choice(list(fd_map))
            offset = rng.randrange(0, 12 * BLOCK_SIZE)
            assert dev.lseek(fd, offset) == model.lseek(fd_map[fd], offset)
        else:
            fd = rng.choice(list(fd_map))
            dev.fsync(fd)
        after_call(dev, model, fd_map)
    for fd in list(fd_map):
        dev.close(fd)
        model.close(fd_map.pop(fd))
        after_call(dev, model, fd_map)
    dev.shutdown()
    assert dev.device_metadata_digest() == system.session.durable_digest()


def test_fstat_equals_the_oracle_after_every_call():
    """Criterion 1's sequences, with the fstat of every open fd checked
    against the reference file map after each call."""

    def check(dev, model, fd_map):
        for fd, model_fd in fd_map.items():
            assert dev.fstat(fd) == model.fstat(model_fd)

    rng = random.Random(20260808)
    for _ in range(1000):
        _one_random_sequence(rng, check)


def test_criterion_2_attack_detection():
    """6 attack kinds x 50 injection points: 100% detection + clean rollback."""
    with criterion(2, "attack detection"):
        rng = random.Random(97)
        for kind in harness.ATTACKS:
            for i in range(50):
                detected, rolled_back, fired = _one_attack_run(kind, rng)
                assert fired, "%s run %d never injected" % (kind, i)
                assert detected, "%s run %d undetected" % (kind, i)
                assert rolled_back, "%s run %d left a dirty store" % (kind, i)


def _one_attack_run(kind, rng):
    """Returns (detected, post-state equals last validated state, injected).

    The op stream cycles through creates, writes and cold reads so that every
    attack kind meets enough qualifying operations; the injection point and
    payload shapes are randomized.
    """
    fire_at = rng.randrange(2, 6) if kind == "stale-trace-replay" else rng.randrange(1, 5)
    system = build_system(
        total_blocks=512, inode_count=32, attack=kind, attack_at=fire_at,
        seed=rng.randrange(1 << 30),
    )
    dev = system.device
    behavior = system.twin.behavior
    last_validated = dev.store.digest()
    fds = {}
    detected = False
    try:
        for step in range(40):
            phase = step % 3
            if phase == 0 or not fds:
                fd = dev.open("a%d" % rng.randrange(6), OpFlag.CREATE)
                fds[fd] = True
            elif phase == 1:
                fd = rng.choice(list(fds))
                dev.lseek(fd, 0, 2)
                if dev.fds[fd].pos + 6000 < 12 * BLOCK_SIZE:
                    dev.write(fd, rng.randbytes(rng.randrange(100, 6000)))
                    dev.fsync(fd)
            else:
                fd = rng.choice(list(fds))
                dev.cache.clear_all()
                dev.memo.entries.clear()
                dev.lseek(fd, 0)
                dev.read(fd, 4096)
            dev.drain_ops()
            last_validated = dev.store.digest()
            if behavior.fired:
                break
    except VerificationFailedError:
        detected = True
    if not detected:
        # the attack may have fired on an op whose failure surfaces later
        try:
            for fd in list(fds):
                dev.fsync(fd)
        except VerificationFailedError:
            detected = True
    detected = detected or dev.metrics.mismatches > 0 or dev.metrics.rejects_served > 0
    rolled_back = dev.store.digest() == last_validated
    return detected, rolled_back, behavior.fired > 0


def test_criterion_3_confidentiality_taint_suite():
    """No >=8-byte payload marker in channel, network, or replica state."""
    with criterion(3, "confidentiality taint"):
        for profile in harness.PROFILES:
            report = harness.run_workload(profile, seed=31)
            assert report["taint_clean"], profile
        report = harness.run_workload("camera", untrusted_reads=True, seed=31)
        assert report["taint_clean"]
        report = harness.run_workload("voice", stencil_source="cloud", seed=31)
        assert report["taint_clean"]


def test_criterion_4_two_phase_commit_convergence():
    """Every (op, crash point) pair converges after recovery, < 120 s."""
    with criterion(4, "2PC crash convergence"):
        start = time.monotonic()
        report = harness.explore_crashes(ops=6, seeds=(0, 1, 2))
        elapsed = time.monotonic() - start
        assert report["scenarios"] == 6 * 5 * 3
        assert report["converged"] == report["scenarios"], report["failures"]
        assert elapsed < 120.0, "took %.1fs" % elapsed


def test_criterion_5_memoization_rpc_elimination():
    """512 KB written, cache evicted: read-back needs 0 round trips and is
    >= 10x faster than with the mappings forgotten under 50 ms delay."""
    with criterion(5, "memoization saves round trips"):
        total = 512 * 1024
        span = 12 * BLOCK_SIZE

        def run(memoized):
            system = build_system(total_blocks=4096, inode_count=128, delay_ms=50.0, seed=5)
            dev = system.device
            fds = []
            remaining = total
            while remaining > 0:
                fd = dev.open("seg%d" % len(fds), OpFlag.CREATE)
                chunk = min(remaining, span)
                dev.write(fd, b"\xa5" * chunk)
                fds.append((fd, chunk))
                remaining -= chunk
            for fd, _ in fds:
                dev.fsync(fd)
            dev.cache.clear_all()
            assert not dev.cache.entries
            if not memoized:
                dev.memo.entries.clear()
            rpc_before = dev.metrics.fileops_sent
            start = time.monotonic()
            for fd, chunk in fds:
                dev.lseek(fd, 0)
                data, trust = dev.read(fd, chunk)
                assert len(data) == chunk and trust == TRUSTED
            elapsed = time.monotonic() - start
            return dev.metrics.fileops_sent - rpc_before, elapsed

        memo_rpcs, memo_s = run(True)
        assert memo_rpcs == 0, "memoized read-back consulted the verifier"
        nomemo_rpcs, nomemo_s = run(False)
        assert nomemo_rpcs > 0
        assert nomemo_s >= 10 * memo_s, "only %.1fx faster" % (nomemo_s / memo_s)


def test_criterion_6_async_write_delay_hiding():
    """At 50 ms delay: p95 write < 5 ms, p50 fstat < 5 ms, p50 trusted cold
    read >= 50 ms, pending fsync >= 50 ms."""
    with criterion(6, "async writes hide the delay"):
        system = build_system(total_blocks=1024, inode_count=64, delay_ms=50.0, seed=6)
        dev = system.device
        # A control file whose pages are neither cached nor memoized, so
        # each trusted read of one of them must wait for the replica.
        ctl = dev.open("ctl", OpFlag.CREATE)
        dev.write(ctl, b"c" * 5 * BLOCK_SIZE)
        dev.fsync(ctl)
        dev.cache.drop_file(dev.fds[ctl].inode)
        dev.memo.invalidate_file(dev.fds[ctl].inode)
        fd = dev.open("wav", OpFlag.CREATE)
        write_lat = []
        for i in range(40):
            if dev.fds[fd].pos + 1024 > 12 * BLOCK_SIZE:
                dev.drain_ops()
                dev.close(fd)
                fd = dev.open("wav%d" % i, OpFlag.CREATE)
            start = time.monotonic()
            dev.write(fd, b"w" * 1024)
            write_lat.append(time.monotonic() - start)
        fstat_lat = []
        for _ in range(5):
            start = time.monotonic()
            dev.fstat(fd)
            fstat_lat.append(time.monotonic() - start)
        read_lat = []
        for page in range(5):
            dev.lseek(ctl, page * BLOCK_SIZE)
            start = time.monotonic()
            data, trust = dev.read(ctl, BLOCK_SIZE)
            read_lat.append(time.monotonic() - start)
            assert data == b"c" * BLOCK_SIZE and trust == TRUSTED
        # the delay is anchored at the write's send; measure the round trip
        start = time.monotonic()
        dev.write(fd, b"z" * 1024)
        dev.fsync(fd)
        fsync_s = time.monotonic() - start
        write_lat.sort()
        fstat_lat.sort()
        read_lat.sort()
        p95_write = write_lat[int(len(write_lat) * 0.95)]
        p50_fstat = fstat_lat[len(fstat_lat) // 2]
        p50_read = read_lat[len(read_lat) // 2]
        assert p95_write < 0.005, "p95 write %.2f ms" % (p95_write * 1e3)
        assert p50_fstat < 0.005, "p50 fstat %.2f ms" % (p50_fstat * 1e3)
        assert p50_read >= 0.050, "p50 trusted cold read %.2f ms" % (p50_read * 1e3)
        assert fsync_s >= 0.050, "fsync with pending validation %.2f ms" % (fsync_s * 1e3)


def test_criterion_7_replica_space_efficiency():
    """4 GiB geometry: the metadata-only export is <= 1.6% of the image."""
    with criterion(7, "replica space efficiency"):
        result = mkfs(1048576, 8192)  # 4 GiB of 4 KB blocks
        assert result.full_image_bytes == 4 * 1024**3
        fraction = result.metadata_image_bytes / result.full_image_bytes
        assert result.metadata_image_bytes == 290 * BLOCK_SIZE
        assert fraction <= 0.016, "metadata fraction %.4f%%" % (fraction * 100)
        assert result.metadata_image_bytes <= 66 * 1024 * 1024


def test_criterion_8_emergency_file_availability(tmp_path):
    """Severed transport: full-extent emergency IO, 0 RPCs, survives restart."""
    with criterion(8, "emergency file availability"):
        durability = FileDurability(str(tmp_path / "device"))
        system = build_system(
            total_blocks=512, inode_count=32, emergency_bytes=65536,
            durability=durability, seed=8,
        )
        dev = system.device
        system.transport.sever()
        extent = dev.emergency["size"]
        payload = random.Random(8).randbytes(extent)
        rpc_before = dev.metrics.rpc_total
        assert dev.emergency_write(0, payload) == extent
        assert dev.emergency_read(0, extent) == payload
        assert dev.metrics.rpc_total == rpc_before, "emergency IO used the network"
        dev.persist()

        # restart from durable state, still disconnected
        blocks, meta = durability.load()
        store = BlockStore(512, blocks)
        transport = DelayedTransport(LoopbackTransport(lambda raw: raw), 0)
        transport.sever()
        revived = DeviceCore(
            store, transport, LocalTwin(), DeviceConfig(emergency_bytes=65536),
            durability=durability, meta=meta,
        )
        assert revived.emergency_read(0, extent) == payload
        assert revived.metrics.rpc_total == 0


def test_criterion_9_wire_conformance():
    """10,000 random messages round-trip; frames are 4,096 bytes; goldens hold."""
    with criterion(9, "wire conformance"):
        rng = random.Random(9)
        kinds = list(OpCode)
        for i in range(10000):
            case = i % 4
            if case == 0:
                op = _random_fileop(rng)
                assert wire.decode_fileop(wire.encode_fileop(op), op.seq) == op
            elif case == 1:
                trace = [
                    BlockRequest(ReqKind(rng.randrange(2)), rng.randrange(1 << 32))
                    for _ in range(rng.randrange(0, 20))
                ]
                ok = bool(rng.randrange(2))
                status = Status(rng.randrange(7))
                assert wire.decode_trace(wire.encode_trace(trace, ok, status)) == (
                    trace, ok, status,
                )
            elif case == 2:
                op_code = rng.choice(kinds)
                outcome = _random_outcome(rng, op_code)
                ok = bool(rng.randrange(2))
                decoded, got_ok = wire.decode_outcome(
                    op_code, wire.encode_outcome(op_code, outcome, ok)
                )
                assert got_ok == ok and decoded == outcome
            else:
                kind = wire.NetKind(rng.randrange(1, 8))
                seq = rng.randrange(1 << 64)
                body = rng.randbytes(rng.randrange(0, 64))
                raw = wire.encode_net(kind, seq, body)
                assert wire.decode_net(raw) == (kind, seq, body)

        for blob_len in (0, 100, 4082, 4083, 4084, 4096, 8166, 20000):
            frames = wire.fragment_message(wire.FrameKind.TRACE, 3, rng.randbytes(blob_len))
            raws = [wire.encode_frame(f) for f in frames]
            assert all(len(r) == 4096 for r in raws)
            assert len(wire.reassemble_message([wire.decode_frame(r) for r in raws])) == blob_len

        _check_protocol_goldens()


def _random_fileop(rng):
    op_code = OpCode(rng.randrange(1, 8))
    tokens = ()
    if op_code == OpCode.OPEN:
        tokens = tuple(rng.randbytes(16) for _ in range(rng.randrange(1, 4)))
    return FileOp(
        op_code,
        rng.randrange(1 << 32),
        rng.randrange(1 << 32),
        rng.randrange(1 << 64),
        tokens,
        rng.randrange(1 << 63),
    )


def _random_outcome(rng, op_code):
    outcome = OpOutcome(status=Status(rng.randrange(7)))
    outcome.trace = [
        BlockRequest(ReqKind(rng.randrange(2)), rng.randrange(1 << 32))
        for _ in range(rng.randrange(0, 8))
    ]
    if op_code == OpCode.OPEN:
        outcome.inode = rng.randrange(1 << 32)
        outcome.size = rng.randrange(1 << 40)
    if op_code in (OpCode.READ, OpCode.WRITE):
        outcome.segments = tuple(
            Segment(
                SegKind(rng.randrange(3)),
                rng.randrange(1 << 32),
                rng.randrange(4096),
                rng.randrange(4097),
                bool(rng.randrange(2)),
            )
            for _ in range(rng.randrange(0, 4))
        )
        outcome.position = rng.randrange(1 << 40)
        outcome.size = rng.randrange(1 << 40)
    if op_code == OpCode.LSEEK:
        outcome.position = rng.randrange(1 << 40)
    if op_code == OpCode.FSTAT:
        outcome.size = rng.randrange(1 << 40)
    return outcome


def _check_protocol_goldens():
    text = (Path(__file__).resolve().parent.parent / "PROTOCOL.md").read_text()
    vectors = re.findall(r"```hex-(\w+)\n([0-9a-f\n]+)```", text)
    assert len(vectors) >= 7
    by_kind = {}
    for kind, blob in vectors:
        by_kind.setdefault(kind, []).append(bytes.fromhex(blob.strip()))
    decoded = wire.decode_fileop(by_kind["fileop"][0])
    assert decoded == FileOp(OpCode.WRITE, 3, 0, 4096)
    assert wire.decode_trace(by_kind["trace"][0]) == ([], False, Status.OK)
    assert wire.decode_trace(by_kind["trace"][1])[0] == [BlockRequest(ReqKind.READ, 21)]
    outcome, ok = wire.decode_outcome(OpCode.WRITE, by_kind["outcome"][0])
    assert ok and outcome.trace == [BlockRequest(ReqKind.WRITE, 42)]
    kind, seq, body = wire.decode_net(by_kind["net"][0])
    assert (kind, seq, body) == (wire.NetKind.COMMIT, 7, b"")
