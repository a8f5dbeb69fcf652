"""The benchmark's three workloads and its closed-loop client.

One client drives the public device API with zero think time, except where a
workload scripts compute. Every call is mirrored in `harness.FileModel`, and
reads and fstats are checked against it as they return.

    ingest-1g    camera ingest at 1 GiB (262144 blocks, 4096 inodes), no delay
    mixed-rtt    voice/robot session against a `twinfs replica` process, 5 ms RTT
    durable-log  robot logs with the device in durable mode (in-memory sink)
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time

from twinfs import BLOCK_SIZE, harness
from twinfs.device_core import MemoryDurability
from twinfs.minifs import OpFlag, mkfs

HERE = os.path.dirname(os.path.abspath(__file__))

MAX_FILE = 12 * BLOCK_SIZE  # twinfs files have 12 direct blocks
POOL_PAYLOADS = 4


class TimeUp(Exception):
    """The timed phase is over; raised before an op would start."""


class Client(harness.WorkloadRunner):
    """Closed-loop client: `harness.WorkloadRunner` with a deadline and counters.

    Latencies are kept in integer nanoseconds. `after_op` runs once each call
    has ended (the taint gate's scan); its time is paused out of the timed
    phase, and the deadline moves by as much.
    """

    def __init__(self, system):
        super().__init__(system)
        self.deadline = float("inf")
        self.attempted = 0
        self.failed = 0
        self.client_bytes = 0
        self.paused_ns = 0
        self.before_op = None
        self.after_op = None

    def _timed(self, kind: str, fn):
        if time.perf_counter() >= self.deadline:
            raise TimeUp()
        if self.before_op is not None:
            self.before_op()
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            result = fn()
        except Exception:
            self.failed += 1
            raise
        else:
            self.latencies.setdefault(kind, []).append(time.perf_counter_ns() - start)
            return result
        finally:
            if self.after_op is not None:
                paused = time.perf_counter_ns()
                self.after_op()
                paused = time.perf_counter_ns() - paused
                self.paused_ns += paused
                self.deadline += paused / 1e9

    def write(self, fd: int, data: bytes) -> int:
        n = super().write(fd, data)
        self.client_bytes += len(data)
        return n

    def size(self, fd: int) -> int:
        return self.model.fstat(self.fd_map[fd])


class TaintScan:
    """Exact scan with the audit's rule: any 8-byte run of payload.

    Every 8-byte window of the payload pool is a needle. Any 8-byte run of a
    chunk holds a 4-byte word at a 4-byte aligned offset, so a chunk whose
    aligned words miss every 4-byte window of the pool is clean. Only the
    rare chunk that passes that filter is read as 64-bit words at each of the
    8 byte alignments.
    """

    def __init__(self, pool):
        self.needles: set[int] = set()
        self.quads: set[int] = set()
        for payload in pool:
            for shift in range(8):
                self.needles.update(self._words(payload, shift))
            for shift in range(4):
                self.quads.update(self._quads(payload[shift:]))

    @staticmethod
    def _words(raw: bytes, shift: int):
        n = (len(raw) - shift) // 8
        return struct.unpack_from("<%dQ" % n, raw, shift) if n > 0 else ()

    @staticmethod
    def _quads(raw) -> memoryview:
        view = memoryview(raw)
        return view[: len(view) // 4 * 4].cast("I")

    def hits(self, raw: bytes, piece: int = 1 << 16) -> bool:
        if self.quads.isdisjoint(self._quads(raw)):
            return False
        # Overlapping pieces keep the word tuples small for large inputs.
        for start in range(0, max(len(raw) - 7, 1), piece):
            part = raw[start : start + piece + 7]
            if any(not self.needles.isdisjoint(self._words(part, s)) for s in range(8)):
                return True
        return False


class Inputs:
    """Seeded inputs: a payload pool registered for the taint audit, plus choices.

    A payload is a slice of a rotated pool block. The pool is registered
    cyclically (each block followed by its first 7 bytes), so every 8-byte
    run of every payload is a needle, while the needle set stays small.
    """

    def __init__(self, seed: int):
        pool_rng = random.Random(seed)
        self.pool = [pool_rng.randbytes(BLOCK_SIZE) for _ in range(POOL_PAYLOADS)]
        cyclic = [block + block[:7] for block in self.pool]
        self.vault = harness.TaintVault()
        for block in cyclic:
            self.vault.register_payload(block)
        self.scan = TaintScan(cyclic)
        self.seed = seed

    def rng(self) -> random.Random:
        return random.Random(self.seed * 7919 + 1)

    def payload(self, rng: random.Random, size: int) -> bytes:
        block = rng.choice(self.pool)
        turn = rng.randrange(BLOCK_SIZE)
        return (block[turn:] + block[:turn])[:size]


class Capture:
    """Stands in for the system's taint vault and checks every observed chunk.

    Observed chunks wait in `pending`, each marked with whether the audit
    samples the client call it came from (`keep`). Once DRAIN_BYTES wait,
    `drain` scans them for payload, counts the hits and drops them; for the
    sampled ones the program's own `TaintVault.scan` runs too, and its time
    and the bytes it scanned are added up. Draining in batches bounds memory
    and keeps the pauses between client calls few.
    """

    DRAIN_BYTES = 4 << 20

    def __init__(self, inputs: Inputs, audit_share: float):
        self.scan = inputs.scan
        self.audit_share = audit_share  # share of the traffic the audit samples
        self.needles = inputs.vault.needles
        self.pending: list[tuple[str, bytes, bool]] = []
        self.pending_bytes = 0
        self.keep = False
        self.hits = 0
        self.seen = 0  # bytes observed
        self.kept = 0  # bytes observed while keep was set
        self.audit_ns = 0
        self.audit_bytes = 0

    def observe(self, origin: str):
        def tap(raw: bytes) -> None:
            self.pending.append((origin, raw, self.keep))
            self.pending_bytes += len(raw)
            self.seen += len(raw)
            self.kept += len(raw) if self.keep else 0

        return tap

    def sample_next(self) -> None:
        """Sample the next client call while the kept traffic is short of its share."""
        self.keep = self.kept < self.audit_share * self.seen

    def drain(self, force: bool = True) -> None:
        if not force and self.pending_bytes < self.DRAIN_BYTES:
            return
        vault = harness.TaintVault()
        vault.needles = self.needles
        for origin, raw, keep in self.pending:
            if self.scan.hits(raw):
                self.hits += 1
            if keep:
                vault.record(origin, raw)
                self.audit_bytes += len(raw)
        self.pending.clear()
        self.pending_bytes = 0
        if vault.chunk_count:
            start = time.perf_counter_ns()
            self.hits += len(vault.scan())
            self.audit_ns += time.perf_counter_ns() - start


class CountedDurability(MemoryDurability):
    """The in-memory durable sink, counting the bytes `FileDurability` would
    write: every block of the store image and the metadata JSON text."""

    def __init__(self):
        super().__init__()
        self.bytes = 0

    def save_store(self, snapshot, total_blocks: int) -> None:
        super().save_store(snapshot, total_blocks)
        self.bytes += sum(map(len, snapshot.values()))

    def save_meta(self, meta: dict) -> None:
        text = json.dumps(meta)
        self.meta = json.loads(text)
        self.bytes += len(text)


class Setup:
    """One built system plus what the workload must release afterwards."""

    def __init__(self, system, capture: Capture, workdir: str, replica=None):
        self.system = system
        self.capture = capture
        self.workdir = workdir
        self.replica = replica  # ReplicaProcess or None
        self.state: dict = {}

    def replica_state(self) -> list[bytes]:
        if self.replica is not None:
            return self.replica.state_blobs()
        return list(self.system.session.state_bytes())

    def close(self) -> None:
        try:
            self.system.transport.close()
            if self.replica is not None:
                self.replica.stop()
            elif self.system.session is not None:
                self.system.session.close()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


class ReplicaProcess:
    """A `twinfs replica` subprocess on an ephemeral 127.0.0.1 port."""

    def __init__(self, workdir: str, image: bytes, trace: bool):
        self.workdir = workdir
        image_path = os.path.join(workdir, "meta.img")
        with open(image_path, "wb") as f:
            f.write(image)
        cmd = [sys.executable, os.path.join(HERE, "replica_proc.py"), "--image", image_path,
               "--out", workdir]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("replica process exited before listening")
        host, _, port = json.loads(line)["listening"].rpartition(":")
        self.addr = (host, int(port))

    def wchar(self) -> int:
        return read_wchar(self.proc.pid)

    def peak_rss_kb(self) -> int:
        # VmHWM, unlike the children's ru_maxrss, excludes the parent's pages
        # the process held between fork and exec.
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM for the replica process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def state_blobs(self) -> list[bytes]:
        blobs = []
        with open(os.path.join(self.workdir, "replica_state.bin"), "rb") as f:
            raw = f.read()
        offset = 0
        while offset < len(raw):
            n = int.from_bytes(raw[offset : offset + 4], "little")
            blobs.append(raw[offset + 4 : offset + 4 + n])
            offset += 4 + n
        return blobs

    def spans(self):
        from tracer import Spans

        with open(os.path.join(self.workdir, "replica_spans.bin"), "rb") as f:
            return Spans.from_bytes(f.read())


def read_wchar(pid="self") -> int:
    with open("/proc/%s/io" % pid) as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar in /proc/%s/io" % pid)


# -- workloads -------------------------------------------------------------


class Workload:
    name = ""
    blocks = 4096
    inodes = 128
    AUDIT_OPS = 96  # audit_s is the scan time of this many client calls' traffic
    AUDIT_SHARE = 0.03  # the share of the traffic the audit's rate is measured on

    def build(self, inputs: Inputs, out_root: str, rep: int, trace: bool) -> Setup:
        raise NotImplementedError

    def prefill(self, client: Client, setup: Setup, inputs: Inputs, rng) -> None:
        pass

    def script(self, client: Client, setup: Setup, inputs: Inputs, rng) -> None:
        """Issue ops until the client raises TimeUp."""
        raise NotImplementedError


def _device_seed(inputs: Inputs, rep: int) -> int:
    # Each set-up repetition gets its own device identity.
    return inputs.seed * 1000 + rep


class Ingest1G(Workload):
    """Camera ingest: rotating directories, 4 KiB appends, then a cold processing pass."""

    name = "ingest-1g"
    blocks = 262144
    inodes = 4096
    CHUNKS = 4
    BATCH = 4
    FILES_PER_DIR = 8
    AUDIT_OPS = 76  # the calls of one batch

    def build(self, inputs, out_root, rep, trace):
        workdir = tempfile.mkdtemp(prefix=self.name + "-", dir=out_root)
        capture = Capture(inputs, self.AUDIT_SHARE)
        system = harness.build_system(
            total_blocks=self.blocks, inode_count=self.inodes, vault=capture,
            seed=_device_seed(inputs, rep),
        )
        return Setup(system, capture, workdir)

    def script(self, client, setup, inputs, rng):
        index = 0
        while True:
            batch = []
            for _ in range(self.BATCH):
                path = "cam%03d/img%04d" % (index // self.FILES_PER_DIR, index)
                index += 1
                fd = client.open(path, OpFlag.CREATE)
                for _ in range(self.CHUNKS):
                    # Each frame is made durable before the next one.
                    client.write(fd, inputs.payload(rng, BLOCK_SIZE))
                    client.fsync(fd)
                batch.append((path, fd))
            # Processing pass over the batch, starting from cold caches. The
            # files stay open, so every open of this workload is a create.
            client.cold_caches()
            client.forget_mappings()
            for path, fd in batch:
                client.lseek(fd, 0)
                for _ in range(self.CHUNKS):
                    client.read(fd, BLOCK_SIZE)
                out = client.open(path + ".out", OpFlag.CREATE)
                client.write(out, inputs.payload(rng, BLOCK_SIZE))
                client.fsync(out)
                client.close(out)
                client.close(fd)


class MixedRtt(Workload):
    """Voice/robot session over a real network replica with a 5 ms simulated RTT."""

    name = "mixed-rtt"
    DELAY_MS = 5.0
    SKILLS = 3
    DATA_FILES = 16  # 192 pages: three times the 64-page cache
    HOT_FILES = 2  # 24 pages: fits in the cache
    WAVS = 2
    WAV_WRITES = 4  # appends per fsync
    READS = 12  # random reads per round
    COMPUTE_S = 0.002
    AUDIT_OPS = 192

    def build(self, inputs, out_root, rep, trace):
        workdir = tempfile.mkdtemp(prefix=self.name + "-", dir=out_root)
        replica = ReplicaProcess(workdir, mkfs(self.blocks, self.inodes).metadata_image, trace)
        try:
            capture = Capture(inputs, self.AUDIT_SHARE)
            system = harness.build_system(
                total_blocks=self.blocks, inode_count=self.inodes, delay_ms=self.DELAY_MS,
                stencil_source="cloud", replica_addr=replica.addr, vault=capture,
                seed=_device_seed(inputs, rep),
            )
        except BaseException:
            replica.stop()
            shutil.rmtree(workdir, ignore_errors=True)
            raise
        return Setup(system, capture, workdir, replica)

    def prefill(self, client, setup, inputs, rng):
        for j in range(self.SKILLS):
            fd = client.open("skills/s%02d" % j, OpFlag.CREATE)
            client.write(fd, inputs.payload(rng, 48))  # inline-sized
            client.fsync(fd)
            client.close(fd)
        data = []
        for j in range(self.DATA_FILES):
            fd = client.open("ws/f%02d" % j, OpFlag.CREATE)
            for _ in range(MAX_FILE // BLOCK_SIZE):
                client.write(fd, inputs.payload(rng, BLOCK_SIZE))
            client.fsync(fd)
            client.lseek(fd, 0)
            data.append(fd)
        setup.state["data"] = data
        setup.state["wav"] = client.open("wav/r0", OpFlag.CREATE)
        setup.state["wav_index"] = 0
        # The session starts after a restart: nothing cached or memoized.
        client.cold_caches()
        client.forget_mappings()

    def _random_read(self, client, fd, rng):
        client.lseek(fd, rng.randrange(MAX_FILE // BLOCK_SIZE) * BLOCK_SIZE)
        client.read(fd, BLOCK_SIZE)

    def script(self, client, setup, inputs, rng):
        data = setup.state["data"]
        while True:
            for j in range(self.SKILLS):
                fd = client.open("skills/s%02d" % j)
                client.read(fd, 48)
                client.close(fd)
            for _ in range(2):
                wav = setup.state["wav"]
                for k in range(self.WAV_WRITES):
                    if client.size(wav) + BLOCK_SIZE > MAX_FILE:
                        client.close(wav)
                        setup.state["wav_index"] = index = (setup.state["wav_index"] + 1) % self.WAVS
                        wav = setup.state["wav"] = client.open(
                            "wav/r%d" % index, OpFlag.CREATE | OpFlag.TRUNC
                        )
                    client.write(wav, inputs.payload(rng, BLOCK_SIZE))
                    # The recorder checks the size after each append but the
                    # last, which fsync makes durable: so every append starts
                    # with no delegated op in flight, and every fsync has one.
                    if k < self.WAV_WRITES - 1:
                        client.fstat(wav)
                client.fsync(wav)
            for _ in range(self.READS):
                if rng.random() < 0.75:
                    fd = data[rng.randrange(self.HOT_FILES)]
                else:
                    fd = data[rng.randrange(self.HOT_FILES, self.DATA_FILES)]
                self._random_read(client, fd, rng)
            # An untrusted read overlaps scripted compute, then validates.
            path = "ws/f%02d" % rng.randrange(self.HOT_FILES, self.DATA_FILES)
            fd = client.open(path, OpFlag.UNTRUSTED)
            self._random_read(client, fd, rng)
            compute(self.COMPUTE_S)
            client.barrier(fd)
            client.close(fd)


def compute(seconds: float) -> None:
    """Scripted client compute (a sleep, so it does not compete for a core)."""
    time.sleep(seconds)


class DurableLog(Workload):
    """Robot logs with the device in durable mode.

    The device persists its block store at every validated op and its
    metadata at every 2PC step, through `CountedDurability`.
    """

    name = "durable-log"
    LOGS = 2
    CONFIGS = 8
    FSYNC_EVERY = 4  # appends per fsync; 3 batches fill a log
    # Batches per config rewrite: 8 rotations per config create, so the
    # config opens stay a small share of the opens.
    CONFIG_EVERY = 24
    AUDIT_SHARE = 0.01  # its calls carry about eight times the traffic per second

    def build(self, inputs, out_root, rep, trace):
        workdir = tempfile.mkdtemp(prefix=self.name + "-", dir=out_root)
        capture = Capture(inputs, self.AUDIT_SHARE)
        system = harness.build_system(
            total_blocks=self.blocks, inode_count=self.inodes, vault=capture,
            seed=_device_seed(inputs, rep),
            durability=CountedDurability(),
        )
        system.device.persist()
        return Setup(system, capture, workdir)

    def prefill(self, client, setup, inputs, rng):
        logs = []
        for j in range(self.LOGS):
            fd = client.open("logs/l%d" % j, OpFlag.CREATE)
            # Stagger the fill levels so rotations do not line up.
            for _ in range(j * self.FSYNC_EVERY):
                client.write(fd, inputs.payload(rng, BLOCK_SIZE))
            client.fsync(fd)
            logs.append(fd)
        for j in range(self.CONFIGS):
            self._write_config(client, inputs, rng, j)
        setup.state["logs"] = logs

    def _write_config(self, client, inputs, rng, j):
        fd = client.open("cfg/c%02d" % j, OpFlag.CREATE | OpFlag.TRUNC)
        client.write(fd, inputs.payload(rng, rng.randrange(16, 65)))  # inline-sized
        client.close(fd)

    def script(self, client, setup, inputs, rng):
        logs = setup.state["logs"]
        batches = 0
        while True:
            j = batches % self.LOGS
            fd = logs[j]
            if client.size(fd) + self.FSYNC_EVERY * BLOCK_SIZE > MAX_FILE:
                # Rotation: read the full log back in one call, then truncate
                # it. Nothing is pending here: the last fsync drained it.
                client.lseek(fd, 0)
                client.read(fd, MAX_FILE)
                client.close(fd)
                fd = logs[j] = client.open("logs/l%d" % j, OpFlag.CREATE | OpFlag.TRUNC)
            # A batch of whole-block appends, made durable together: every
            # fsync drains the same number of appends, and every append
            # allocates one block.
            for _ in range(self.FSYNC_EVERY):
                client.write(fd, inputs.payload(rng, BLOCK_SIZE))
            client.fsync(fd)
            batches += 1
            if batches % self.CONFIG_EVERY == 0:
                self._write_config(client, inputs, rng, (batches // self.CONFIG_EVERY) % self.CONFIGS)


WORKLOADS = {w.name: w for w in (Ingest1G(), MixedRtt(), DurableLog())}
