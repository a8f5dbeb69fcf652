"""Workload profiles, attack injection, crash exploration and reports.

Profiles model typical smart-device applications at desk scale: a camera
that periodically creates directories and appends fixed-length files, a
robot that appends a log and reads it back sequentially, a voice assistant
that scans small files, streams audio writes and stats its files, plus two
stress patterns. Every run drives the full stack against an in-memory file
oracle, records wire traffic for confidentiality scanning, and emits a JSON
report.
"""

from __future__ import annotations

import os
import random
import shutil
import struct
import tempfile
import time
from dataclasses import dataclass
from functools import partial

from twinfs.blockstore import BLOCK_SIZE, BlockStore
from twinfs.device_core import (
    CrashSignal,
    DeviceConfig,
    DeviceCore,
    FileDurability,
    VerificationFailedError,
)
from twinfs.local_twin import EvilBehavior, LocalTwin
from twinfs.minifs import OpCode, OpFlag, mkfs
from twinfs.replica import ReplicaSession
from twinfs.transport import (
    DelayedTransport,
    LoopbackTransport,
    RecordingTransport,
    TcpTransport,
)

PROFILES = ("camera", "voice", "robot", "stress-seq", "stress-rand")
ATTACKS = (
    "drop-write",
    "redirect-read",
    "redirect-write",
    "iago-data-request",
    "stale-trace-replay",
    "extra-request",
)
CRASH_POINTS = (
    "before_delegate",
    "after_replay_staged",
    "after_device_exec",
    "after_device_commit",
    "after_replica_commit",
)

NEEDLE = 8
_PIECE = 1 << 16  # window starts per pass, so a large chunk never builds a big tuple


def _quads(raw, shift: int = 0) -> memoryview:
    """The 4-byte words of `raw` at offsets shift, shift + 4, ..., as native ints."""
    view = memoryview(raw)[shift:]
    return view[: len(view) // 4 * 4].cast("I")


def _words(raw, shift: int) -> tuple[int, ...]:
    """The 8-byte words of `raw` at offsets shift, shift + 8, ..., as <Q ints."""
    return struct.unpack_from("<%dQ" % ((len(raw) - shift) // NEEDLE), raw, shift)


class Needles:
    """Every 8-byte window of the registered payloads (`words`) and every
    4-byte window of them (`quads`), as ints. Vaults that share one object
    see each other's payloads."""

    def __init__(self):
        self.words: set[int] = set()
        self.quads: set[int] = set()

    def add(self, payload) -> None:
        raw = bytes(payload)
        if len(raw) < NEEDLE:
            return
        for shift in range(NEEDLE):
            self.words.update(_words(raw, shift))
        for shift in range(4):
            self.quads.update(_quads(raw, shift))


class TaintVault:
    """Detects any >=8-byte run of client payload in observed byte streams.

    A chunk's hit is the offset of its first 8-byte window that is also an
    8-byte window of a registered payload, so any leaked contiguous payload
    run of at least 8 bytes is caught. The scan works a word at a time:

    - Prefilter: every 8-byte run holds a 4-byte word at a 4-aligned offset
      of the chunk, and that word is a 4-byte window of the payload. A chunk
      whose aligned 4-byte words all miss `needles.quads` is therefore clean.
    - A chunk that passes is read as 8-byte words at each of the 8 byte
      alignments, in pieces of `_PIECE` window starts, against
      `needles.words`; only a confirmed piece is walked for the first offset.

    Identical chunks are scanned once per `scan()`; each keeps its own hit.
    """

    def __init__(self):
        self.needles = Needles()
        self.hits: list[tuple[str, int]] = []
        self._chunks: list[tuple[str, bytes]] = []

    def register_payload(self, payload: bytes) -> None:
        self.needles.add(payload)

    def observe(self, origin: str):
        def tap(raw: bytes) -> None:
            self._chunks.append((origin, raw))

        return tap

    def record(self, origin: str, raw: bytes) -> None:
        self._chunks.append((origin, raw))

    def scan(self) -> list[tuple[str, int]]:
        self.hits = []
        if not self.needles.words:
            return self.hits
        first: dict[bytes, int | None] = {}
        for origin, chunk in self._chunks:
            raw = bytes(chunk)
            if raw not in first:
                first[raw] = self._first_hit(raw)
            if first[raw] is not None:
                self.hits.append((origin, first[raw]))
        return self.hits

    def _first_hit(self, raw: bytes) -> int | None:
        words, quads = self.needles.words, self.needles.quads
        if len(raw) < NEEDLE or quads.isdisjoint(_quads(raw)):
            return None
        for start in range(0, len(raw) - NEEDLE + 1, _PIECE):
            part = raw[start : start + _PIECE + NEEDLE - 1]
            if all(words.isdisjoint(_words(part, shift)) for shift in range(NEEDLE)):
                continue
            for i in range(len(part) - NEEDLE + 1):
                if int.from_bytes(part[i : i + NEEDLE], "little") in words:
                    return start + i
        return None

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)


class FileModel:
    """Reference in-memory map of files; mirrors device API semantics."""

    def __init__(self):
        self.files: dict[str, bytearray] = {}
        self.fds: dict[int, tuple[str, int]] = {}
        self._next = 0

    def open(self, path: str, flags: int = 0) -> int:
        if path not in self.files:
            if not flags & OpFlag.CREATE:
                raise KeyError(path)
            self.files[path] = bytearray()
        if flags & OpFlag.TRUNC:
            self.files[path] = bytearray()
        fd = self._next
        self._next += 1
        self.fds[fd] = (path, 0)
        return fd

    def write(self, fd: int, data: bytes) -> int:
        path, pos = self.fds[fd]
        buf = self.files[path]
        if len(buf) < pos + len(data):
            buf.extend(bytes(pos + len(data) - len(buf)))
        buf[pos : pos + len(data)] = data
        self.fds[fd] = (path, pos + len(data))
        return len(data)

    def read(self, fd: int, length: int) -> bytes:
        path, pos = self.fds[fd]
        out = bytes(self.files[path][pos : pos + length])
        self.fds[fd] = (path, pos + len(out))
        return out

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        path, pos = self.fds[fd]
        size = len(self.files[path])
        base = (0, pos, size)[whence]
        pos = min(max(base + offset, 0), size)
        self.fds[fd] = (path, pos)
        return pos

    def fstat(self, fd: int) -> int:
        path, _ = self.fds[fd]
        return len(self.files[path])

    def close(self, fd: int) -> None:
        del self.fds[fd]


# -- attack behaviors ---------------------------------------------------------


class _CountedBehavior(EvilBehavior):
    """Applies a transformation to the next `count` matching operations."""

    def __init__(self, fire_at: int = 1, count: int = 1):
        self.fire_at = fire_at
        self.count = count
        self._seen = 0
        self.fired = 0

    def _should_fire(self) -> bool:
        self._seen += 1
        if self._seen >= self.fire_at and self.fired < self.count:
            self.fired += 1
            return True
        return False


class DropWrite(_CountedBehavior):
    def on_outcome(self, op, outcome):
        if op.op == OpCode.WRITE and outcome.trace and self._should_fire():
            outcome.trace = []
            outcome.segments = ()
            outcome.promote = None
        return outcome


class Redirect(_CountedBehavior):
    """Points the first block request of a READ or WRITE at the next block."""

    def __init__(self, op_code: OpCode, fire_at: int = 1, count: int = 1):
        super().__init__(fire_at, count)
        self.op_code = op_code

    def on_outcome(self, op, outcome):
        if op.op == self.op_code and outcome.trace and self._should_fire():
            victim = outcome.trace[0]
            moved = type(victim)(victim.kind, (victim.block + 1) % (1 << 32))
            outcome.trace = [moved] + outcome.trace[1:]
            segs = list(outcome.segments)
            for i, seg in enumerate(segs):
                if seg.target == victim.block:
                    segs[i] = type(seg)(seg.kind, moved.block, seg.offset, seg.length, seg.fresh)
                    break
            outcome.segments = tuple(segs)
        return outcome


class ExtraRequest(_CountedBehavior):
    def on_outcome(self, op, outcome):
        if op.op in (OpCode.READ, OpCode.WRITE, OpCode.OPEN) and self._should_fire():
            from twinfs.minifs import BlockRequest, ReqKind

            outcome.trace = list(outcome.trace) + [BlockRequest(ReqKind.READ, 0)]
        return outcome


class IagoDataRequest(_CountedBehavior):
    """Requests a known file-data block over the metadata channel."""

    def after_engine(self, op, accessor, twin):
        target = self._find_data_block(twin)
        if target is None:
            return
        if self._should_fire():
            accessor.read_meta(target)  # the gate answers REJECT, raising
            # Served without a reject: the block was allocated by the very
            # op in flight and the gate does not know it as data yet. That
            # reveals nothing, so the probe retries on a later operation.
            self.fired -= 1

    def _find_data_block(self, twin) -> int | None:
        engine = twin.engine
        if engine is None:
            return None
        from twinfs.minifs import MODE_FILE

        for index in range(engine.sb.inode_count):
            inode = engine._read_inode(index)
            if inode.mode == MODE_FILE:
                for bid in inode.direct:
                    if bid:
                        return bid
        return None


class StaleTraceReplay(_CountedBehavior):
    """Resends the previous operation's trace frames, stale seq and all."""

    def __init__(self, fire_at: int = 2, count: int = 1):
        super().__init__(max(fire_at, 2), count)
        self._previous: list | None = None

    def on_frames(self, op, frames, twin):
        previous = self._previous
        self._previous = list(frames)
        if previous is not None and self._should_fire():
            return previous
        return frames


def inject_attack(kind: str, fire_at: int = 1, count: int = 1) -> EvilBehavior:
    table = {
        "drop-write": DropWrite,
        "redirect-read": partial(Redirect, OpCode.READ),
        "redirect-write": partial(Redirect, OpCode.WRITE),
        "iago-data-request": IagoDataRequest,
        "stale-trace-replay": StaleTraceReplay,
        "extra-request": ExtraRequest,
    }
    try:
        cls = table[kind]
    except KeyError:
        raise ValueError("unknown attack %r (choose from %s)" % (kind, ", ".join(ATTACKS)))
    return cls(fire_at=fire_at, count=count)


# -- system assembly -------------------------------------------------------------


@dataclass
class System:
    device: DeviceCore
    session: ReplicaSession | None
    transport: DelayedTransport
    vault: TaintVault
    twin: LocalTwin

    def replica_digest(self) -> str:
        if self.session is not None:
            return self.session.durable_digest()
        try:
            return self.device.fetch_replica_digest()
        except Exception:
            return ""


def build_system(
    total_blocks: int = 4096,
    inode_count: int = 128,
    delay_ms: float = 0.0,
    attack: str | None = None,
    attack_at: int = 1,
    cache_pages: int = 64,
    stencil_source: str = "device",
    emergency_bytes: int = 0,
    vault: TaintVault | None = None,
    durability=None,
    crash_hook=None,
    replica_state_dir: str | None = None,
    replica_addr: tuple[str, int] | None = None,
    seed: int | None = None,
) -> System:
    image = mkfs(total_blocks, inode_count)
    store = BlockStore(total_blocks, dict(image.full_blocks))
    vault = vault or TaintVault()
    session = None
    if replica_addr is not None:
        base: object = TcpTransport(*replica_addr)
    else:
        session = ReplicaSession.bootstrap(image.metadata_image, state_dir=replica_state_dir)
        base = LoopbackTransport(session.handle_message)
    delayed = DelayedTransport(base, delay_ms)
    transport = RecordingTransport(delayed, vault.observe("net"))
    behavior = inject_attack(attack, fire_at=attack_at) if attack else None
    twin = LocalTwin(behavior)
    config = DeviceConfig(
        cache_pages=cache_pages,
        emergency_bytes=emergency_bytes,
        stencil_source=stencil_source,
    )
    config.crash_hook = crash_hook
    meta = None
    if seed is not None:
        # Deterministic device identity so reports reproduce bit-for-bit.
        rng = random.Random(seed ^ 0x7477696E)
        meta = {"device_id": rng.randbytes(16).hex(), "prf_key": rng.randbytes(16).hex()}
    device = DeviceCore(store, transport, twin, config, durability=durability, meta=meta)
    device.channel.taps.append(vault.observe("channel"))
    return System(device, session, delayed, vault, twin)


# -- workload runner ----------------------------------------------------------------


class WorkloadRunner:
    """Drives the device and the oracle in lockstep, timing every call."""

    def __init__(self, system: System, seed: int = 0):
        self.system = system
        self.dev = system.device
        self.model = FileModel()
        self.vault = system.vault
        self.rng = random.Random(seed)
        self.latencies: dict[str, list[float]] = {}
        self.fd_map: dict[int, int] = {}
        self.ops = 0
        self.oracle_failures = 0
        self.detected = False

    def _timed(self, kind: str, fn):
        start = time.monotonic()
        try:
            return fn()
        finally:
            self.latencies.setdefault(kind, []).append((time.monotonic() - start) * 1e6)
            self.ops += 1

    def payload(self, size: int) -> bytes:
        data = self.rng.randbytes(size)
        self.vault.register_payload(data)
        return data

    def open(self, path: str, flags: int = 0) -> int:
        fd = self._timed("open", lambda: self.dev.open(path, flags))
        self.fd_map[fd] = self.model.open(path, flags)
        return fd

    def write(self, fd: int, data: bytes) -> int:
        n = self._timed("write", lambda: self.dev.write(fd, data))
        self.model.write(self.fd_map[fd], data)
        return n

    def read(self, fd: int, length: int, expect_oracle: bool = True) -> tuple[bytes, str]:
        data, trust = self._timed("read", lambda: self.dev.read(fd, length))
        expected = self.model.read(self.fd_map[fd], length)
        if expect_oracle and data != expected:
            self.oracle_failures += 1
        return data, trust

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        pos = self._timed("lseek", lambda: self.dev.lseek(fd, offset, whence))
        self.model.lseek(self.fd_map[fd], offset, whence)
        return pos

    def fstat(self, fd: int) -> int:
        size = self._timed("fstat", lambda: self.dev.fstat(fd))
        if size != self.model.fstat(self.fd_map[fd]):
            self.oracle_failures += 1
        return size

    def fsync(self, fd: int) -> None:
        try:
            self._timed("fsync", lambda: self.dev.fsync(fd))
        except (VerificationFailedError,) as exc:
            self.detected = True
            raise

    def barrier(self, fd: int) -> str:
        result = self._timed("select", lambda: self.dev.select_validate(fd))
        if result != "AllMatch":
            self.detected = True
        return result

    def close(self, fd: int) -> None:
        try:
            self._timed("close", lambda: self.dev.close(fd))
        except VerificationFailedError:
            self.detected = True
            raise
        finally:
            if fd in self.fd_map:
                self.model.close(self.fd_map.pop(fd))

    def cold_caches(self) -> None:
        self.dev.cache.clear_all()

    def forget_mappings(self) -> None:
        self.dev.memo.entries.clear()


@dataclass
class ProfileParams:
    iterations: int = 4
    files_per_iter: int = 2
    file_bytes: int = 16384
    chunk: int = 4096
    compute_ms: float = 0.0
    untrusted_reads: bool = False


def _run_camera(run: WorkloadRunner, p: ProfileParams) -> None:
    """Periodic directory creation plus append-only fixed-length files."""
    images = []
    for i in range(p.iterations):
        for j in range(p.files_per_iter):
            path = "d%03d/img%02d" % (i, j)
            fd = run.open(path, OpFlag.CREATE)
            for off in range(0, p.file_bytes, p.chunk):
                run.write(fd, run.payload(min(p.chunk, p.file_bytes - off)))
            run.fsync(fd)
            run.close(fd)
            images.append(path)
    # Processing pass over the captured images, cold.
    run.cold_caches()
    run.forget_mappings()
    flags = OpFlag.UNTRUSTED if p.untrusted_reads else 0
    for i, path in enumerate(images):
        fd = run.open(path, flags)
        data, _ = run.read(fd, p.file_bytes)
        if p.compute_ms:
            time.sleep(p.compute_ms / 1000.0)
        if p.untrusted_reads:
            run.barrier(fd)
        out = run.open(path + ".out", OpFlag.CREATE)
        run.write(out, run.payload(min(len(data), p.chunk)))
        run.fsync(out)
        run.close(out)
        run.close(fd)


def _run_voice(run: WorkloadRunner, p: ProfileParams) -> None:
    """Small-file skill scans, sequential wav writes, three fstats per run."""
    skills = []
    for j in range(3):
        path = "skills/s%02d" % j
        fd = run.open(path, OpFlag.CREATE)
        run.write(fd, run.payload(48))  # inline-sized skill description
        run.fsync(fd)
        run.close(fd)
        skills.append(path)
    for i in range(p.iterations):
        for path in skills:
            fd = run.open(path)
            run.read(fd, 48)
            run.close(fd)
        wav = run.open("wav/rec%03d" % i, OpFlag.CREATE)
        for off in range(0, p.file_bytes, p.chunk):
            run.write(wav, run.payload(min(p.chunk, p.file_bytes - off)))
            if off == 0:
                run.fstat(wav)
        run.fstat(wav)
        run.fsync(wav)
        run.fstat(wav)
        run.close(wav)


def _run_robot(run: WorkloadRunner, p: ProfileParams) -> None:
    """Append a log, read it back sequentially, write the result file."""
    log = run.open("oplog", OpFlag.CREATE)
    total = min(p.file_bytes * p.iterations, 12 * BLOCK_SIZE)
    for off in range(0, total, p.chunk):
        run.write(log, run.payload(min(p.chunk, total - off)))
        if (off // p.chunk) % 8 == 7:
            run.fsync(log)
    run.fsync(log)
    run.cold_caches()
    run.lseek(log, 0)
    for off in range(0, total, p.chunk):
        run.read(log, min(p.chunk, total - off))
    run.close(log)
    result = run.open("floormap", OpFlag.CREATE)
    for off in range(0, p.file_bytes, p.chunk):
        run.write(result, run.payload(min(p.chunk, p.file_bytes - off)))
    run.fsync(result)
    run.close(result)


def _run_stress_seq(run: WorkloadRunner, p: ProfileParams) -> None:
    fd = run.open("stress", OpFlag.CREATE)
    total = min(p.file_bytes * p.iterations, 12 * BLOCK_SIZE)
    for off in range(0, total, p.chunk):
        run.write(fd, run.payload(min(p.chunk, total - off)))
    run.fsync(fd)
    run.lseek(fd, 0)
    for off in range(0, total, p.chunk):
        run.read(fd, min(p.chunk, total - off))
    run.close(fd)


def _run_stress_rand(run: WorkloadRunner, p: ProfileParams) -> None:
    fds = [run.open("r%d" % i, OpFlag.CREATE) for i in range(3)]
    for _ in range(p.iterations * 8):
        fd = run.rng.choice(fds)
        action = run.rng.random()
        limit = 12 * BLOCK_SIZE
        if action < 0.5:
            run.lseek(fd, run.rng.randrange(0, limit))
            size = run.rng.randrange(1, p.chunk)
            pos = run.dev.fds[fd].pos
            if pos + size <= limit:
                run.write(fd, run.payload(size))
        elif action < 0.8:
            run.lseek(fd, run.rng.randrange(0, limit))
            run.read(fd, run.rng.randrange(1, p.chunk))
        else:
            run.fsync(fd)
    for fd in fds:
        run.fsync(fd)
        run.close(fd)


_PROFILE_RUNNERS = {
    "camera": _run_camera,
    "voice": _run_voice,
    "robot": _run_robot,
    "stress-seq": _run_stress_seq,
    "stress-rand": _run_stress_rand,
}


def _percentile(values, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(int(len(ordered) * fraction), len(ordered) - 1)
    return ordered[index]


def run_workload(
    profile: str,
    delay_ms: float = 0.0,
    attack: str | None = None,
    attack_at: int = 1,
    cache_pages: int = 64,
    stencil_source: str = "device",
    untrusted_reads: bool = False,
    compute_ms: float = 0.0,
    seed: int = 0,
    params: ProfileParams | None = None,
    replica_addr: tuple[str, int] | None = None,
) -> dict:
    if profile not in _PROFILE_RUNNERS:
        raise ValueError("unknown profile %r (choose from %s)" % (profile, ", ".join(PROFILES)))
    system = build_system(
        delay_ms=delay_ms,
        attack=attack,
        attack_at=attack_at,
        cache_pages=cache_pages,
        stencil_source=stencil_source,
        replica_addr=replica_addr,
        seed=seed,
    )
    p = params or ProfileParams()
    p.untrusted_reads = untrusted_reads
    p.compute_ms = compute_ms
    run = WorkloadRunner(system, seed=seed)
    start = time.monotonic()
    failure: str | None = None
    try:
        _PROFILE_RUNNERS[profile](run, p)
        system.device.shutdown()
    except VerificationFailedError as exc:
        run.detected = True
        failure = str(exc)
    elapsed = time.monotonic() - start
    all_latencies = [v for vs in run.latencies.values() for v in vs]
    hits = system.vault.scan()
    replica_state_hits = 0
    if system.session is not None:
        scan_vault = TaintVault()
        scan_vault.needles = system.vault.needles
        for blob in system.session.state_bytes():
            scan_vault.record("replica-state", blob)
        replica_state_hits = len(scan_vault.scan())
    metrics = system.device.metrics
    report = {
        "profile": profile,
        "delay_ms": delay_ms,
        "ops": run.ops,
        "rpc_count": metrics.rpc_total,
        "verdicts": {"match": metrics.matches, "mismatch": metrics.mismatches},
        "latency_us": {
            "p50": round(_percentile(all_latencies, 0.50), 1),
            "p95": round(_percentile(all_latencies, 0.95), 1),
        },
        "latency_us_by_op": {
            kind: {
                "p50": round(_percentile(vs, 0.50), 1),
                "p95": round(_percentile(vs, 0.95), 1),
            }
            for kind, vs in sorted(run.latencies.items())
        },
        "taint_clean": not hits and replica_state_hits == 0,
        "digests": {
            "device": system.device.device_metadata_digest(),
            "replica": system.replica_digest(),
        },
        "oracle_failures": run.oracle_failures,
        "attack": attack,
        "attack_detected": run.detected or metrics.mismatches > 0 or metrics.rejects_served > 0,
        "elapsed_s": round(elapsed, 3),
    }
    if failure:
        report["failure"] = failure
    return report


# -- crash exploration -----------------------------------------------------------------


def _metadata_op_script(ops: int, seed: int) -> list[tuple]:
    """A deterministic log of metadata-changing operations."""
    rng = random.Random(seed)
    script: list[tuple] = []
    created: list[str] = []
    for i in range(ops):
        roll = rng.random()
        if not created or roll < 0.4:
            path = "c%02d/f%02d" % (rng.randrange(3), i)
            script.append(("create_write", path, rng.randrange(1, 3) * BLOCK_SIZE))
            created.append(path)
        elif roll < 0.7:
            # Two appends leave one op in flight while the other is validated.
            script.append(("append", rng.choice(created), BLOCK_SIZE, rng.randrange(1, 3)))
        else:
            script.append(("truncate", rng.choice(created)))
    return script


def _apply_script_op(device: DeviceCore, op: tuple, payload_seed: int, arm) -> None:
    """Run one scripted op, calling arm() once, where a crash scenario
    starts to cut the op."""
    rng = random.Random(payload_seed)
    if op[0] == "create_write":
        arm()
        fd = device.open(op[1], OpFlag.CREATE)
        device.write(fd, rng.randbytes(op[2]))
        device.fsync(fd)
        device.close(fd)
    elif op[0] == "append":
        # One append is cut from the reopen on, whose OPEN runs with the
        # previous op's CLOSE in flight. Two appends are cut after the
        # reopen, so the crash finds both in flight together.
        if op[3] == 1:
            arm()
        fd = device.open(op[1], OpFlag.CREATE)
        device.lseek(fd, 0, 2)
        if op[3] > 1:
            arm()
        for _ in range(op[3]):
            device.write(fd, rng.randbytes(op[2]))
        device.fsync(fd)
        device.close(fd)
    elif op[0] == "truncate":
        arm()
        fd = device.open(op[1], OpFlag.TRUNC)
        device.fsync(fd)
        device.close(fd)


def explore_crashes(
    ops: int = 6,
    seeds=(0,),
    points=CRASH_POINTS,
    state_root: str | None = None,
    total_blocks: int = 512,
    inode_count: int = 64,
) -> dict:
    """Crash at every (op index, protocol step) pair and check convergence.

    Each scenario runs a fresh system, executes the op log until the chosen
    crash fires, restarts both sides from durable state, runs recovery, and
    compares metadata digests. `fired` counts, per point, the scenarios the
    crash actually cut; the others converge without a crash.
    """
    own_root = state_root is None
    state_root = state_root or tempfile.mkdtemp(prefix="twinfs-crash-")
    scenarios = 0
    converged = 0
    fired = dict.fromkeys(points, 0)
    failures = []
    try:
        for seed in seeds:
            script = _metadata_op_script(ops, seed)
            for op_index in range(len(script)):
                for point in points:
                    scenarios += 1
                    cut, outcome = _one_crash_scenario(
                        script, op_index, point, state_root, total_blocks, inode_count, seed
                    )
                    fired[point] += cut
                    if outcome is None:
                        converged += 1
                    else:
                        failures.append(
                            {"seed": seed, "op_index": op_index, "point": point, "detail": outcome}
                        )
    finally:
        if own_root:
            shutil.rmtree(state_root, ignore_errors=True)
    return {
        "scenarios": scenarios,
        "converged": converged,
        "fired": fired,
        "failures": failures,
        "ops_per_log": ops,
        "points": list(points),
    }


def _one_crash_scenario(
    script, op_index: int, point: str, state_root: str, total_blocks: int,
    inode_count: int, seed: int,
) -> tuple[bool, str | None]:
    # Both sides keep their durable state in real files, and restart from
    # a fresh sink or session on the same directory.
    replica_dir = os.path.join(state_root, "replica")
    device_dir = os.path.join(state_root, "device")
    for path in (replica_dir, device_dir):
        shutil.rmtree(path, ignore_errors=True)

    fired = {"armed": False}

    def hook(p: str, seq: int) -> None:
        if fired["armed"] and p == point:
            fired["armed"] = False
            raise CrashSignal(p, seq)

    system = build_system(
        total_blocks=total_blocks,
        inode_count=inode_count,
        durability=FileDurability(device_dir),
        crash_hook=hook,
        replica_state_dir=replica_dir,
    )
    device = system.device
    device.persist()
    try:
        for i, op in enumerate(script):
            fired["armed"] = False
            _apply_script_op(device, op, seed * 1000 + i, partial(fired.update, armed=i == op_index))
        device.shutdown()
    except CrashSignal:
        pass
    else:
        # The op log never reached the crash point (vacuously converged).
        dd = device.device_metadata_digest()
        return False, None if dd == system.session.durable_digest() else "no-crash digest mismatch"

    restarted = ReplicaSession.load(replica_dir)
    transport = DelayedTransport(LoopbackTransport(restarted.handle_message), 0)
    config = DeviceConfig(emergency_bytes=0)
    try:
        device2 = DeviceCore.load(FileDurability(device_dir), transport, LocalTwin(), config)
        device2.reconnect_recover()
    except Exception as exc:  # recovery must never fail
        return True, "recovery error: %r" % (exc,)
    dd = device2.device_metadata_digest()
    rd = restarted.durable_digest()
    if dd != rd:
        return True, "digest divergence device=%s replica=%s" % (dd[:12], rd[:12])
    return True, None
