"""The device's durable-state sinks: delta saves, the store log, reloads."""

import json
import os
import signal
import subprocess
import sys
import tempfile
import zlib

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twinfs
from twinfs import journal, wire
from twinfs.blockstore import BLOCK_SIZE, BlockStore, ZERO_BLOCK
from twinfs.device_core import (
    CrashSignal, DeviceConfig, DeviceCore, DeviceError, FileDurability, MemoryDurability,
)
from twinfs.harness import CRASH_POINTS, build_system
from twinfs.local_twin import LocalTwin
from twinfs.minifs import OpCode, OpFlag
from twinfs.replica import ReplicaSession
from twinfs.transport import DelayedTransport, LoopbackTransport

BLOCKS = 32  # mkfs puts the data region at block 4
INODES = 32


def filled(byte):
    return bytes([byte]) * BLOCK_SIZE


class _Sinks:
    """A fresh sink of one kind per test example, and a way to reopen it
    (a memory sink reopens as itself)."""

    def __init__(self, kind):
        self._dir = tempfile.TemporaryDirectory() if kind == "file" else None
        self.sink = MemoryDurability() if self._dir is None else self.reopen()

    def reopen(self):
        return self.sink if self._dir is None else FileDurability(self._dir.name)

    def close(self):
        if self._dir is not None:
            self._dir.cleanup()


_action = st.one_of(
    st.tuples(st.just("write"), st.integers(4, BLOCKS - 1), st.integers(0, 3)),
    st.tuples(st.just("speculate"), st.integers(4, BLOCKS - 1), st.integers(1, 3), st.booleans()),
    st.tuples(st.just("save")),
    st.tuples(st.just("reload"), st.booleans()),
)


@pytest.mark.parametrize("kind", ["memory", "file"])
@settings(max_examples=60, deadline=None)
@given(actions=st.lists(_action, max_size=30))
def test_load_equals_snapshot_after_every_save(kind, actions):
    sinks = _Sinks(kind)
    system = build_system(total_blocks=BLOCKS, inode_count=INODES, durability=sinks.sink)
    try:
        dev = system.device
        dev.persist()
        saved = dev.store.snapshot()
        assert sinks.sink.load()[0] == saved
        for action in actions:
            if action[0] == "write":
                _, bid, byte = action
                dev.store.write_block(bid, filled(byte))  # byte 0 writes zeros
            elif action[0] == "speculate":
                # A checkpointed write rolled back, often to a zero block, with
                # a save in between when the flag is set.
                _, bid, byte, save_between = action
                cp = dev.store.checkpoint([bid])
                dev.store.write_block(bid, filled(byte))
                if save_between:
                    dev.persist()
                    saved = dev.store.snapshot()
                    assert sinks.sink.load()[0] == saved
                dev.store.rollback(cp)
            elif action[0] == "save":
                dev.persist()
                saved = dev.store.snapshot()
                assert sinks.sink.load()[0] == saved
            else:
                # Restart from durable state; unsaved changes are lost.
                if action[1]:
                    sinks.sink = sinks.reopen()
                dev = DeviceCore.load(sinks.sink, dev.transport, LocalTwin(), DeviceConfig(emergency_bytes=0))
                assert dev.store.snapshot() == saved
        dev.persist()
        assert sinks.sink.load()[0] == dev.store.snapshot()
    finally:
        system.session.close()
        sinks.close()


def test_save_hands_over_only_the_changed_blocks():
    class Counted(MemoryDurability):
        """Counts bytes the way the benchmark's sink does, and keeps the ids
        of each save."""

        def __init__(self):
            super().__init__()
            self.bytes = 0
            self.saves = []

        def save_store(self, snapshot, total_blocks):
            super().save_store(snapshot, total_blocks)
            self.bytes += sum(map(len, snapshot.values()))
            self.saves.append(set(snapshot))

    sink = Counted()
    system = build_system(total_blocks=256, inode_count=32, durability=sink)
    dev = system.device
    dev.persist()
    assert sink.bytes == 256 * BLOCK_SIZE  # a new store saves every block once

    sink.bytes = 0
    dev.store.write_block(200, filled(7))
    dev.store.write_block(201, filled(1))
    dev._persist_store()
    assert sink.bytes == 2 * BLOCK_SIZE
    dev.store.write_block(200, filled(8))
    dev.store.write_block(200, filled(9))
    dev.store.write_block(201, ZERO_BLOCK)
    dev._persist_store()
    assert sink.bytes == 4 * BLOCK_SIZE
    assert sink.load()[0].get(201) is None
    dev._persist_store()
    assert sink.bytes == 4 * BLOCK_SIZE

    # Client ops: each save hands over exactly the blocks the store was
    # written since the save before.
    touched = set()
    write_block = dev.store.write_block
    dev.store.write_block = lambda bid, data: (touched.add(bid), write_block(bid, data))
    sink.saves.clear()
    expected = []

    def note_save(save=dev._persist_store):
        expected.append(set(touched))
        touched.clear()
        save()

    dev._persist_store = note_save
    before = dev.store.snapshot()
    sink.bytes = 0
    fd = dev.open("f", OpFlag.CREATE)
    dev.write(fd, b"x" * 5000)
    dev.fsync(fd)
    after = dev.store.snapshot()
    assert sink.saves == expected and any(expected)
    assert sink.bytes == sum(map(len, expected)) * BLOCK_SIZE
    changed = {b for b in set(before) | set(after) if before.get(b) != after.get(b)}
    assert changed and changed <= set().union(*expected)
    assert sink.load()[0] == after

    # A device loaded from the sink has nothing to save yet. It shares the
    # transport, so the old device first takes the replies it still awaits.
    dev.drain_all()
    dev = DeviceCore.load(sink, dev.transport, LocalTwin(), DeviceConfig(emergency_bytes=0))
    dev._persist_store()
    assert sink.saves[-1] == set()
    system.session.close()


def test_one_metadata_save_per_group_commit_and_none_per_op():
    class Counted(MemoryDurability):
        saves = 0

        def save_meta(self, meta):
            super().save_meta(meta)
            self.saves += 1

    sink = Counted()
    system = build_system(total_blocks=256, inode_count=32, durability=sink)
    dev = system.device
    fd = dev.open("f", OpFlag.CREATE)
    sink.saves = 0
    sent = dev.metrics.fileops_sent
    first = dev.next_seq
    for _ in range(4):
        dev.write(fd, b"a" * BLOCK_SIZE)
    assert sink.saves == 0  # none per delegated op
    dev.fsync(fd)
    assert dev.metrics.fileops_sent - sent == 4
    assert sink.saves == 1  # one group commit
    assert sink.load()[1]["batch"] == first + 3
    assert sink.load()[0] == dev.store.snapshot()
    dev.shutdown()
    assert sink.load()[1]["batch"] == first + 3
    system.session.close()


def test_emergency_write_saves_no_block_of_an_op_in_flight(tmp_path):
    device_dir = str(tmp_path / "device")
    replica_dir = str(tmp_path / "replica")
    system = build_system(
        total_blocks=256, inode_count=32, emergency_bytes=8192,
        durability=FileDurability(device_dir), replica_state_dir=replica_dir,
    )
    dev = system.device
    fd = dev.open("f", OpFlag.CREATE)
    dev.fsync(fd)
    dev.write(fd, b"p" * BLOCK_SIZE)  # left in flight
    dev.emergency_write(0, b"KEEP-ME!" * 8)
    # The device stops here; both sides restart from their files.
    system.session.close()
    replica = ReplicaSession.load(replica_dir)
    transport = DelayedTransport(LoopbackTransport(replica.handle_message), 0)
    revived = DeviceCore.load(
        FileDurability(device_dir), transport, LocalTwin(), DeviceConfig(emergency_bytes=8192)
    )
    revived.reconnect_recover()
    assert revived.device_metadata_digest() == replica.durable_digest()
    assert revived.emergency_read(0, 64) == b"KEEP-ME!" * 8
    replica.close()


def test_emergency_write_through_a_sink_not_loaded_saves_the_whole_store(tmp_path):
    system = build_system(
        total_blocks=256, inode_count=32, emergency_bytes=8192,
        durability=FileDurability(str(tmp_path)),
    )
    fd = system.device.open("f", OpFlag.CREATE)
    system.device.write(fd, b"w" * 5000)
    system.device.shutdown()
    system.session.close()
    # Restart offline: the store is read through one sink and saved through
    # a fresh one, whose first save replaces the directory.
    blocks, meta = FileDurability(str(tmp_path)).load()
    store = BlockStore(256, blocks)
    transport = DelayedTransport(LoopbackTransport(lambda raw: raw), 0)
    transport.sever()
    dev = DeviceCore(
        store, transport, LocalTwin(), DeviceConfig(emergency_bytes=8192),
        durability=FileDurability(str(tmp_path)), meta=meta,
    )
    dev.emergency_write(0, b"KEEP-ME!" * 8)
    assert FileDurability(str(tmp_path)).load()[0] == dev.store.snapshot()


def _save(sink, delta, total=16):
    """A store save and the metadata save that commits it."""
    sink.save_store(delta, total)
    sink.save_meta({"total_blocks": total})


_STATE_RECORD = 8 + 1 + len(json.dumps({"total_blocks": 16}))


def _record(body):
    return len(body).to_bytes(4, "little") + zlib.crc32(body).to_bytes(4, "little") + body


def _log_of_three_saves(tmp_path):
    """A file sink with a checkpoint and three logged saves, the last one
    overwriting block 2 and zeroing block 5; returns it, the state before
    the last save, and the offset in store.log of the last save's BLOCKS
    record, which its STATE record follows."""
    sink = FileDurability(str(tmp_path))
    _save(sink, {2: filled(1), 5: filled(2)})  # the checkpoint
    _save(sink, {3: filled(3)})
    _save(sink, {2: filled(4), 9: filled(5)})
    before = sink.load()[0]
    start = os.path.getsize(tmp_path / "store.log")
    _save(sink, {2: filled(6), 5: ZERO_BLOCK})
    assert sink.load()[0] == {2: filled(6), 3: filled(3), 9: filled(5)}
    return sink, before, start


def test_torn_last_record_loads_the_save_before(tmp_path):
    _, before, start = _log_of_three_saves(tmp_path)
    log = tmp_path / "store.log"
    whole = log.read_bytes()
    assert len(whole) == start + 8 + 1 + 2 * (4 + BLOCK_SIZE) + _STATE_RECORD
    for cut in range(start, len(whole)):
        log.write_bytes(whole[:cut])
        assert FileDurability(str(tmp_path)).load()[0] == before, cut
        assert log.stat().st_size == start  # the torn tail is gone


@pytest.mark.parametrize("byte", range(4))
def test_corrupt_crc_drops_the_record(tmp_path, byte):
    sink, before, start = _log_of_three_saves(tmp_path)
    log = tmp_path / "store.log"
    raw = bytearray(log.read_bytes())
    raw[start + 4 + byte] ^= 0xFF
    log.write_bytes(bytes(raw))
    sink = FileDurability(str(tmp_path))
    assert sink.load()[0] == before
    assert log.stat().st_size == start
    # Saving goes on from the state it loaded.
    _save(sink, {7: filled(9)})
    assert FileDurability(str(tmp_path)).load()[0] == {**before, 7: filled(9)}


@pytest.mark.parametrize("body", [
    b"B" + (16).to_bytes(4, "little") + filled(7),  # a block past the geometry
    b"B" + (3).to_bytes(4, "little") + filled(7)[:100],  # a partial entry
    b"S" + b"[16]",  # metadata that is not a JSON object
], ids=["past-the-geometry", "partial-entry", "bad-state"])
def test_record_with_a_valid_crc_and_a_bad_body_is_dropped(tmp_path, body):
    sink, before, start = _log_of_three_saves(tmp_path)
    log = tmp_path / "store.log"
    raw = log.read_bytes()[:start]
    # A STATE record after the bad one would commit it, were it accepted.
    log.write_bytes(raw + _record(body) + _record(b'S{"total_blocks": 16}'))
    assert FileDurability(str(tmp_path)).load()[0] == before
    assert log.stat().st_size == start


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(max_size=48),
    st.builds(lambda kind, tail: kind + tail, st.sampled_from([b"B", b"S"]), st.binary(max_size=48)),
))
@example(b"S" + b"[" * 100_000)  # JSON nested past the parser's recursion limit
def test_arbitrary_record_body_loads_the_save_before_it(body):
    """A record whose CRC holds but whose body is no record the sink wrote is
    refused: the sink loads the save from before it."""
    try:
        well_formed_state = body[:1] == b"S" and isinstance(json.loads(body[1:]), dict)
    except (ValueError, RecursionError):
        well_formed_state = False
    assume(not well_formed_state)  # a STATE record commits, as it should
    with tempfile.TemporaryDirectory() as state:
        sink = FileDurability(state)
        _save(sink, {2: filled(1), 5: filled(2)})
        _save(sink, {3: filled(3)})
        before = sink.load()
        with open(os.path.join(state, "store.log"), "ab") as log:
            log.write(_record(body))
        sink = FileDurability(state)
        assert sink.load() == before


def test_store_save_without_a_metadata_save_is_dropped(tmp_path):
    sink, before, start = _log_of_three_saves(tmp_path)
    after = sink.load()[0]
    sink.save_store({4: filled(8)}, 16)  # no STATE record commits it
    assert FileDurability(str(tmp_path)).load()[1] == {"total_blocks": 16}
    reloaded = FileDurability(str(tmp_path))
    assert reloaded.load()[0] == after
    # The uncommitted tail was truncated, so a later STATE record cannot
    # commit it.
    _save(reloaded, {6: filled(6)})
    assert FileDurability(str(tmp_path)).load()[0] == {**after, 6: filled(6)}


def test_log_is_folded_into_the_base_once_it_outgrows_it(tmp_path):
    sink = FileDurability(str(tmp_path))
    _save(sink, {}, 4)  # a checkpoint of an empty 16 KiB store
    expected = {}
    for i in range(1, 5):
        _save(sink, {i % 4: filled(i)}, 4)
        expected[i % 4] = filled(i)
    # Four one-block records (4 x 4109 bytes) and their STATE records
    # outgrow the image: the log was rewritten as a checkpoint of the store
    # and the last STATE record.
    checkpoint = b"C" + (4).to_bytes(4, "little") + journal.pack_blocks(sorted(expected.items()))
    state = b"S" + json.dumps({"total_blocks": 4}).encode()
    assert (tmp_path / "store.log").read_bytes() == _record(checkpoint) + _record(state)
    assert FileDurability(str(tmp_path)).load() == (expected, {"total_blocks": 4})


@pytest.mark.parametrize("first", ["blocks", "state", "empty"])
def test_directory_in_the_older_layout_is_refused_and_left_as_it_is(tmp_path, first):
    # The older layout: a raw base image beside a log whose first record is
    # a BLOCKS or STATE record, or an empty log (its first save was cut
    # after emptying the log).
    (tmp_path / "store.img").write_bytes(filled(1) + bytes(3 * BLOCK_SIZE))
    log = str(tmp_path / "store.log")
    open(log, "wb").close()
    if first == "blocks":
        journal.append(log, b"B" + journal.pack_blocks([(2, filled(2))]))
    if first != "empty":
        journal.append(log, b'S{"total_blocks": 4}')
    before = {name: (tmp_path / name).read_bytes() for name in ("store.img", "store.log")}
    transport = DelayedTransport(LoopbackTransport(lambda raw: raw), 0)
    with pytest.raises(DeviceError, match="store.log does not start with an intact checkpoint"):
        DeviceCore.load(FileDurability(str(tmp_path)), transport, LocalTwin())
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("field, mangle", [
    ("total_blocks", lambda meta: 8),
    ("total_blocks", lambda meta: 32.0),
    ("batch", lambda meta: "x"),
    ("batch", lambda meta: True),
    ("batch", lambda meta: -1),
    ("device_id", lambda meta: "zz"),
    ("prf_key", lambda meta: meta["prf_key"].upper()),
    ("emergency", lambda meta: 5),
    ("emergency", lambda meta: {**meta["emergency"], "blocks": [BLOCKS] * 2}),
    ("emergency", lambda meta: {**meta["emergency"], "size": 3 * BLOCK_SIZE}),
    ("emergency", lambda meta: {**meta["emergency"], "segments": [{"inode": 1}]}),
], ids=[
    "total_blocks-other", "total_blocks-float", "batch-str", "batch-bool", "batch-negative",
    "device_id-not-hex", "prf_key-upper", "emergency-int", "emergency-block-out-of-range",
    "emergency-size", "emergency-segment",
])
def test_state_record_of_another_shape_ends_the_load(tmp_path, field, mangle):
    # A CRC-valid STATE record of another geometry, after a save that wrote
    # blocks past that geometry, or with a field DeviceCore could not read,
    # is refused like a corrupt one: the load ends at the save before it.
    sink = FileDurability(str(tmp_path))
    system = build_system(total_blocks=BLOCKS, inode_count=INODES, durability=sink, emergency_bytes=8192)
    dev = system.device
    fd = dev.open("f", OpFlag.CREATE)
    dev.write(fd, filled(7) * 6)
    dev.fsync(fd)
    dev.drain_all()
    blocks, meta = sink.load()
    assert max(blocks) >= 8
    log = tmp_path / "store.log"
    start = log.stat().st_size
    journal.append(str(log), b"S" + json.dumps({**meta, field: mangle(meta)}).encode())
    system.session.close()
    transport = DelayedTransport(LoopbackTransport(lambda raw: raw), 0)
    transport.sever()
    revived = DeviceCore.load(
        FileDurability(str(tmp_path)), transport, LocalTwin(), DeviceConfig(emergency_bytes=0)
    )
    assert revived.store.total_blocks == BLOCKS and revived.store.snapshot() == blocks
    assert (revived.batch, revived.device_id, revived.emergency) == (dev.batch, dev.device_id, dev.emergency)
    assert log.stat().st_size == start


def test_first_save_of_a_sink_not_loaded_replaces_the_directory(tmp_path):
    old = FileDurability(str(tmp_path))
    _save(old, {1: filled(1)}, 8)
    _save(old, {2: filled(2)}, 8)
    new = FileDurability(str(tmp_path))
    _save(new, {3: filled(3)}, 8)
    assert FileDurability(str(tmp_path)).load()[0] == {3: filled(3)}


_CHILD = r"""
import sys
from twinfs.blockstore import BLOCK_SIZE, ZERO_BLOCK
from twinfs.device_core import FileDurability

sink = FileDurability(sys.argv[1])
i = 0
while True:
    sink.save_store(delta(i), 64)
    sink.save_meta({"total_blocks": 64, "save": i})
    print(i, flush=True)
    i += 1
"""

_DELTA = r"""
def delta(i):
    # Save i rewrites 16 blocks, zeroes one, and leaves the rest.
    out = {(i * 16 + k) % 64: bytes([i % 250 + 1, k]) * (BLOCK_SIZE // 2) for k in range(16)}
    out[(i * 16 + 40) % 64] = ZERO_BLOCK
    return out
"""


def _state_after(save):
    namespace = {"BLOCK_SIZE": BLOCK_SIZE, "ZERO_BLOCK": ZERO_BLOCK}
    exec(_DELTA, namespace)
    blocks = {}
    for i in range(save + 1):
        for bid, data in namespace["delta"](i).items():
            if data == ZERO_BLOCK:
                blocks.pop(bid, None)
            else:
                blocks[bid] = data
    return blocks


def _kill_after(script, args, lines):
    """Run `script` in a child process, SIGKILL it once it has printed
    `lines` lines, and return the lines it printed after those."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(twinfs.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = subprocess.Popen(
        [sys.executable, "-c", script, *args], stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        for _ in range(lines):
            assert child.stdout.readline()
    finally:
        child.send_signal(signal.SIGKILL)
        rest = child.stdout.read().split()
        child.wait()
    return rest


@pytest.mark.parametrize("saves", [3, 11, 26])
def test_killed_mid_save_reloads_a_whole_save(tmp_path, saves):
    # A process saving in a loop is killed; the state it leaves loads as the
    # last save it finished or the one it was making, never a mix.
    rest = _kill_after(_DELTA + _CHILD, [str(tmp_path)], saves)
    last = saves - 1 + len(rest)
    sink = FileDurability(str(tmp_path))
    meta = sink.load()[1]
    assert meta["save"] in (last, last + 1)
    assert sink.load()[0] == _state_after(meta["save"])


def _revive(device_dir, replica_dir):
    """Both sides restarted from their files, after recovery."""
    replica = ReplicaSession.load(replica_dir)
    transport = DelayedTransport(LoopbackTransport(replica.handle_message), 0)
    device = DeviceCore.load(
        FileDurability(device_dir), transport, LocalTwin(), DeviceConfig(emergency_bytes=0)
    )
    device.reconnect_recover()
    return device, replica


def test_crash_between_a_group_commits_store_save_and_its_commit_converges(tmp_path):
    class CrashAfterStoreSave(FileDurability):
        """Crashes in the first metadata save after a store save, once armed."""

        armed = cut = False

        def save_store(self, snapshot, total_blocks):
            super().save_store(snapshot, total_blocks)
            self.cut = self.armed

        def save_meta(self, meta):
            if self.cut:
                raise CrashSignal("save_meta", 0)
            super().save_meta(meta)

    device_dir, replica_dir = str(tmp_path / "device"), str(tmp_path / "replica")
    sink = CrashAfterStoreSave(device_dir)
    system = build_system(
        total_blocks=256, inode_count=32, emergency_bytes=0,
        durability=sink, replica_state_dir=replica_dir,
    )
    dev = system.device
    dev.persist()
    fd = dev.open("f", OpFlag.CREATE)
    sink.armed = True
    dev.write(fd, b"w" * 5000)
    with pytest.raises(CrashSignal):
        dev.fsync(fd)  # its group commit saves the store, then crashes
    system.session.close()
    revived, replica = _revive(device_dir, replica_dir)
    assert revived.device_metadata_digest() == replica.durable_digest()
    assert revived.fstat(revived.open("f")) == 0  # the write is gone on both sides
    replica.close()


_STAGED, _COMMIT = 1, 2  # replica journal record kinds (PROTOCOL.md, "Replica")


def _journal_records(replica_dir):
    """(kind, seq) of each record of the replica's journal.bin."""
    records = []
    journal.replay(
        os.path.join(replica_dir, "journal.bin"),
        lambda body: records.append((body[0], int.from_bytes(body[1:9], "little"))) or True,
    )
    return records


def _four_writes_in_one_group_commit(replica_dir, monkeypatch, durability=None):
    """A device that opened a file and then wrote four blocks under one
    fsync. Compaction is off: it would fold the replica's COMMIT records
    into a new checkpoint."""
    system = build_system(
        total_blocks=256, inode_count=32, emergency_bytes=0,
        durability=durability, replica_state_dir=replica_dir,
    )
    monkeypatch.setattr(system.session, "compact", lambda: None)
    dev = system.device
    dev.persist()
    fd = dev.open("f", OpFlag.CREATE)
    first = dev.next_seq
    records = len(_journal_records(replica_dir))
    commits = dev.metrics.sent[wire.NetKind.COMMIT]
    for i in range(4):
        dev.write(fd, filled(i + 1))
    dev.fsync(fd)
    assert dev.next_seq == first + 4
    return system, _journal_records(replica_dir)[records:], dev.metrics.sent[wire.NetKind.COMMIT] - commits


def test_a_group_commit_of_four_ops_sends_and_journals_one_commit(tmp_path, monkeypatch):
    system, appended, commits = _four_writes_in_one_group_commit(str(tmp_path / "replica"), monkeypatch)
    batch = system.device.next_seq - 1
    assert commits == 1
    assert appended == [(_STAGED, seq) for seq in range(batch - 3, batch + 1)] + [(_COMMIT, batch)]
    assert system.session.last_committed == batch
    assert system.device.device_metadata_digest() == system.session.durable_digest()


def test_replica_compacts_once_per_image_of_records(tmp_path, monkeypatch):
    # Fifty fsynced four-write group commits on a 256-block (1 MiB) image:
    # the replica compacts once per MiB appended, not at every commit, and
    # after each group commit journal.bin is within its checkpoint, the
    # image and one record.
    replica_dir = str(tmp_path / "replica")
    path = os.path.join(replica_dir, "journal.bin")
    system = build_system(
        total_blocks=256, inode_count=INODES, emergency_bytes=0, replica_state_dir=replica_dir,
    )
    session, image = system.session, 256 * BLOCK_SIZE
    compactions, appended = [], []
    compact, append = session.compact, journal.append

    def counted_append(log, body, sync=False):
        appended.append(append(log, body, sync))
        return appended[-1]

    monkeypatch.setattr(session, "compact", lambda: (compactions.append(1), compact()))
    monkeypatch.setattr(journal, "append", counted_append)
    dev = system.device
    for n in range(50):
        fd = dev.open("f%d" % (n % 3), OpFlag.CREATE | OpFlag.TRUNC)
        for i in range(4):
            dev.write(fd, filled((4 * n + i) % 250 + 1))
        dev.fsync(fd)
        dev.close(fd)
        assert os.path.getsize(path) <= session._log.checkpoint + image + max(appended), n
    assert len(compactions) <= -(-sum(appended) // image)
    system.session.close()


@pytest.mark.parametrize("cut", ["before", "torn", "after"])
def test_replica_crash_around_a_cumulative_commit_record_converges(tmp_path, monkeypatch, cut):
    # The replica's journal is cut just before its one COMMIT record, inside
    # it or just after it; the device restarts from its own files.
    device_dir, replica_dir = str(tmp_path / "device"), str(tmp_path / "replica")
    system, appended, _ = _four_writes_in_one_group_commit(
        replica_dir, monkeypatch, FileDurability(device_dir)
    )
    batch = system.device.next_seq - 1
    assert appended[-1] == (_COMMIT, batch)
    system.session.close()
    path = tmp_path / "replica" / "journal.bin"
    raw = path.read_bytes()
    start = len(raw) - journal.HEAD.size - 9  # a COMMIT record's body is its kind and seq
    path.write_bytes(raw[: {"before": start, "torn": start + 10, "after": len(raw)}[cut]])
    revived, replica = _revive(device_dir, replica_dir)
    assert replica.last_committed == batch
    assert revived.device_metadata_digest() == replica.durable_digest()
    assert revived.device_metadata_digest() == system.device.device_metadata_digest()
    assert revived.fstat(revived.open("f")) == 4 * BLOCK_SIZE
    replica.close()


def _crash_with_a_truncate_in_flight(state_dir, point, nth):
    """Cut at the nth `point` from a TRUNC open pipelined behind a CLOSE on,
    with a write pipelined behind the open; True if the cut fired. Both
    sides are then revived from their files and must agree."""
    device_dir, replica_dir = os.path.join(state_dir, "device"), os.path.join(state_dir, "replica")
    cut = {"armed": False, "left": nth}

    def hook(p, seq):
        if cut["armed"] and p == point:
            cut["left"] -= 1
            if cut["left"] < 0:
                cut["armed"] = False
                raise CrashSignal(p, seq)

    system = build_system(
        total_blocks=256, inode_count=32, emergency_bytes=0, crash_hook=hook,
        durability=FileDurability(device_dir), replica_state_dir=replica_dir,
    )
    dev = system.device
    dev.persist()
    fd = dev.open("f", OpFlag.CREATE)
    dev.write(fd, filled(1) * 3)
    dev.fsync(fd)
    dev.close(fd)
    cut["armed"] = True
    try:
        fd = dev.open("f", OpFlag.TRUNC)
        assert [p.op.op for p in dev.pending] == [OpCode.CLOSE, OpCode.OPEN]
        dev.write(fd, filled(2))
        dev.fsync(fd)
        dev.close(fd)
        dev.shutdown()
    except CrashSignal:
        fired = True
    else:
        fired = False
    system.session.close()
    revived, replica = _revive(device_dir, replica_dir)
    assert revived.device_metadata_digest() == replica.durable_digest()
    assert revived.fstat(revived.open("f")) in (0, BLOCK_SIZE, 3 * BLOCK_SIZE)
    replica.close()
    return fired


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_with_a_truncating_open_in_flight_converges(tmp_path, point):
    # Every occurrence of the point from the TRUNC open on is cut once.
    nth = 0
    while _crash_with_a_truncate_in_flight(str(tmp_path / str(nth)), point, nth):
        nth += 1
    assert nth >= 1, "the crash point never fired"


_DEVICE_CHILD = r"""
import sys
from twinfs.device_core import FileDurability
from twinfs.harness import build_system
from twinfs.minifs import OpFlag

system = build_system(
    total_blocks=128, inode_count=32, emergency_bytes=0,
    durability=FileDurability(sys.argv[1]), replica_state_dir=sys.argv[2],
)
dev = system.device
dev.persist()
i = 0
while True:
    fd = dev.open("f%d" % (i % 4), OpFlag.CREATE | OpFlag.TRUNC)
    dev.write(fd, bytes([i % 251 + 1]) * 5000)
    dev.fsync(fd)
    dev.close(fd)
    print(i, flush=True)
    i += 1
"""


@pytest.mark.parametrize("cycles", [2, 7, 19])
def test_device_killed_mid_loop_converges_with_its_replica(tmp_path, cycles):
    # The device and its replica run in one process on real files, which is
    # killed between or inside open/write/fsync/close cycles.
    device_dir, replica_dir = str(tmp_path / "device"), str(tmp_path / "replica")
    _kill_after(_DEVICE_CHILD, [device_dir, replica_dir], cycles)
    revived, replica = _revive(device_dir, replica_dir)
    assert revived.device_metadata_digest() == replica.durable_digest()
    replica.close()
