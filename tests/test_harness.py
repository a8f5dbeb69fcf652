import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfs import harness
from twinfs.blockstore import BLOCK_SIZE
from twinfs.cli import main as cli_main
from twinfs.minifs import mkfs


REPORT_KEYS = {"profile", "delay_ms", "ops", "rpc_count", "verdicts", "latency_us", "taint_clean", "digests"}


class TestTaintVault:
    def test_detects_eight_byte_leak_at_any_offset(self):
        vault = harness.TaintVault()
        payload = bytes(range(100, 160))
        vault.register_payload(payload)
        vault.record("x", b"junk" * 7 + payload[13:21] + b"tail")
        assert vault.scan()

    def test_seven_byte_overlap_not_flagged(self):
        vault = harness.TaintVault()
        payload = bytes(range(100, 160))
        vault.register_payload(payload)
        vault.record("x", payload[0:7] + b"\x00" * 40)
        assert not vault.scan()

    def test_clean_stream(self):
        vault = harness.TaintVault()
        vault.register_payload(b"A" * 64)
        vault.record("x", bytes(1000))
        assert not vault.scan()

    def test_planted_leak_found_at_every_offset(self):
        # The benchmark self-test's leak: 3 zero bytes, then 8 bytes of a
        # cyclically registered pool block, then 5 zero bytes.
        block = random.Random(1).randbytes(BLOCK_SIZE)
        vault = harness.TaintVault()
        vault.register_payload(block + block[:7])
        vault.record("channel", bytes(3) + block[100:108] + bytes(5))
        for at in range(16):
            vault.record("net", bytes(at) + block[4093:] + block[:5] + bytes(at))
            vault.record("net", bytes(at) + block[200:207] + bytes(9))
        assert vault.scan() == [("channel", 3)] + [("net", at) for at in range(16)]

    def test_shared_needles_are_seen_by_both_vaults(self):
        rng = random.Random(2)
        first, second, third = (rng.randbytes(64) for _ in range(3))
        vault = harness.TaintVault()
        vault.register_payload(first)
        other = harness.TaintVault()
        other.needles = vault.needles
        other.record("replica-state", bytes(5) + first[10:18])
        assert other.scan() == [("replica-state", 5)]
        other.register_payload(second)
        vault.register_payload(third)
        vault.record("net", second[30:38])
        other.record("net", third[:8])
        assert vault.scan() == [("net", 0)]
        assert other.scan() == [("replica-state", 5), ("net", 0)]


def reference_scan(payloads, chunks):
    """The detection rule one window at a time: per chunk, the first offset
    whose 8 bytes are 8 contiguous bytes of some payload."""
    windows = {p[i : i + 8] for p in payloads for i in range(len(p) - 7)}
    hits = []
    for origin, chunk in chunks:
        chunk = bytes(chunk)
        for i in range(len(chunk) - 7):
            if chunk[i : i + 8] in windows:
                hits.append((origin, i))
                break
    return hits


@st.composite
def scan_cases(draw):
    """Payloads (some shorter than 8 bytes) and chunks: short raw ones,
    7- to 9-byte payload runs planted at offsets 0-15, and runs planted
    across the boundary between two scan pieces; sometimes each chunk again
    under a second origin."""
    payloads = draw(st.lists(st.binary(max_size=40), min_size=1, max_size=3))
    chunks = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("raw", "planted", "straddle")))
        origin = draw(st.sampled_from(("channel", "net")))
        if kind == "raw":
            chunks.append((origin, draw(st.binary(max_size=11))))
            continue
        source = draw(st.sampled_from(payloads))
        length = draw(st.sampled_from((7, 8, 9)))
        start = draw(st.integers(0, max(len(source) - length, 0)))
        run = source[start : start + length]
        if kind == "planted":
            head = draw(st.binary(min_size=draw(st.integers(0, 15)), max_size=15))
        else:
            head = draw(st.binary(min_size=1, max_size=1)) * (harness._PIECE + draw(st.integers(-9, 1)))
        chunk = head + run + draw(st.binary(max_size=12))
        chunks.append((origin, bytearray(chunk) if draw(st.booleans()) else chunk))
    if draw(st.booleans()):
        chunks += [("replica-state", chunk) for _, chunk in chunks]
    return payloads, chunks


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_scan_matches_the_window_by_window_rule(case):
    payloads, chunks = case
    vault = harness.TaintVault()
    for payload in payloads:
        vault.register_payload(payload)
    for origin, chunk in chunks:
        vault.record(origin, chunk)
    assert vault.scan() == reference_scan(payloads, chunks)


class TestProfiles:
    @pytest.mark.parametrize("profile", harness.PROFILES)
    def test_profile_runs_clean(self, profile):
        report = harness.run_workload(profile, seed=11)
        assert REPORT_KEYS <= set(report)
        assert report["oracle_failures"] == 0
        assert report["verdicts"]["mismatch"] == 0
        assert report["taint_clean"]
        assert report["digests"]["device"] == report["digests"]["replica"]

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            harness.run_workload("toaster")

    def test_reports_deterministic_for_fixed_seed(self):
        def semantic(rep):
            return (rep["ops"], rep["rpc_count"], rep["verdicts"], rep["digests"])

        a = harness.run_workload("camera", seed=5)
        b = harness.run_workload("camera", seed=5)
        assert semantic(a) == semantic(b)

    def test_untrusted_reads_reduce_latency_with_compute(self):
        trusted = harness.run_workload(
            "camera", delay_ms=30, compute_ms=25, seed=2,
            params=harness.ProfileParams(iterations=2, files_per_iter=2),
        )
        untrusted = harness.run_workload(
            "camera", delay_ms=30, compute_ms=25, untrusted_reads=True, seed=2,
            params=harness.ProfileParams(iterations=2, files_per_iter=2),
        )
        assert untrusted["taint_clean"] and trusted["taint_clean"]
        # Per-call medians, not run totals: an untrusted read plus its later
        # select_validate waits less than a trusted read, which waits out the
        # delay. A descheduled moment moves a run's total, not these medians.
        fast, slow = untrusted["latency_us_by_op"], trusted["latency_us_by_op"]
        assert fast["read"]["p50"] + fast["select"]["p50"] < slow["read"]["p50"]


def test_channel_frames_of_a_robot_run_are_pinned(monkeypatch):
    # Every frame the channel taps see, bytes and order, is part of the
    # protocol: a change to how frames cross must leave this digest as it is.
    digest = hashlib.sha256()
    count = [0]
    build = harness.build_system

    def tap(raw):
        digest.update(raw)
        count[0] += 1

    def tapped(**kw):
        system = build(**kw)
        system.device.channel.taps.append(tap)
        return system

    monkeypatch.setattr(harness, "build_system", tapped)
    harness.run_workload("robot", seed=0)
    assert count[0] == 277
    assert digest.hexdigest() == "4968b05447b8f6dba03a56f67a3dc45c7451fe0619910b52fad4642662074f9e"


class TestAttackInjection:
    @pytest.mark.parametrize("attack", harness.ATTACKS)
    def test_every_attack_detected_in_workload(self, attack):
        # camera delegates cold reads as well as creates and writes, so every
        # attack kind finds an operation to transform
        report = harness.run_workload("camera", attack=attack, attack_at=2, seed=9)
        assert report["attack_detected"], report

    def test_unknown_attack(self):
        with pytest.raises(ValueError):
            harness.inject_attack("nope")

    def test_redirect_write_transformation(self):
        from twinfs.minifs import BlockRequest, FileOp, OpCode, OpOutcome, ReqKind

        behavior = harness.inject_attack("redirect-write")
        op = FileOp(OpCode.WRITE, 0, 0, 4096)
        out = OpOutcome(trace=[BlockRequest(ReqKind.WRITE, 9)])
        transformed = behavior.on_outcome(op, out)
        assert transformed.trace[0].block == 10


class TestCrashExploration:
    def test_all_points_converge(self):
        report = harness.explore_crashes(ops=4, seeds=(0,))
        assert report["scenarios"] == 4 * len(harness.CRASH_POINTS)
        assert report["converged"] == report["scenarios"]
        assert report["failures"] == []
        # Every point cuts at least one scenario: none converges only vacuously.
        assert set(report["fired"]) == set(harness.CRASH_POINTS)
        assert all(report["fired"].values())

    def test_zero_length_log_vacuous(self):
        report = harness.explore_crashes(ops=0, seeds=(0,))
        assert report["scenarios"] == 0
        assert report["failures"] == []
        assert not any(report["fired"].values())


class TestCli:
    def test_mkfs_emits_images(self, tmp_path, capsys):
        rc = cli_main(["mkfs", "--blocks", "64", "--inodes", "32", str(tmp_path / "out")])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["data_start"] == 4
        assert info["metadata_image_bytes"] == 4 * 4096
        assert (tmp_path / "out" / "full.img").stat().st_size == 64 * 4096

    def test_run_prints_json_report(self, capsys):
        rc = cli_main(["run", "--profile", "robot", "--delay", "0", "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["profile"] == "robot"
        assert REPORT_KEYS <= set(report)

    def test_run_with_attack_exits_detected(self, capsys):
        rc = cli_main(["run", "--profile", "stress-seq", "--attack", "drop-write"])
        capsys.readouterr()
        assert rc == 3  # attack detected

    def test_crashes_subcommand(self, capsys):
        rc = cli_main(["crashes", "--ops", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] == report["scenarios"]

    def test_audit_stencil(self, tmp_path, capsys):
        cli_main(["mkfs", "--blocks", "64", "--inodes", "32", str(tmp_path / "o")])
        capsys.readouterr()
        rc = cli_main(["audit-stencil", str(tmp_path / "o" / "full.img")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "block 0: META" in out

    def test_bench_subcommand(self, capsys):
        rc = cli_main(["bench", "--profile", "robot", "--seconds", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["profile"] == "robot"
        assert report["runs"] == 1
        assert report["ops"] > 0 and report["ops_per_s"] > 0 and report["rpc_per_op"] > 0
        assert report["verdicts"]["match"] > 0 and report["verdicts"]["mismatch"] == 0
        assert report["healthy"]

    def test_bench_runs_seed_after_seed_and_fails_on_an_unhealthy_run(self, monkeypatch, capsys):
        from types import SimpleNamespace

        from twinfs import cli

        seeds = []

        def run_workload(profile, seed):
            seeds.append(seed)
            verdicts = {"match": 9, "mismatch": int(seed == 1)}
            return {"ops": 10, "elapsed_s": 0.5, "rpc_count": 20, "verdicts": verdicts,
                    "taint_clean": True, "oracle_failures": 0}

        clock = iter(range(100))
        monkeypatch.setattr(cli.harness, "run_workload", run_workload)
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        rc = cli_main(["bench", "--profile", "camera", "--seconds", "2.5"])
        assert rc == 1
        assert seeds == [0, 1, 2]
        assert json.loads(capsys.readouterr().out) == {
            "profile": "camera", "runs": 3, "ops": 30, "ops_per_s": 20.0, "rpc_per_op": 2.0,
            "verdicts": {"match": 27, "mismatch": 1}, "healthy": False,
        }

    def test_replica_entry_point_exists(self):
        from twinfs.cli import replica_main

        assert callable(replica_main)

    @pytest.mark.parametrize("address, batch", [("127.0.0.1", True), ("192.0.2.7", False)])
    def test_replica_runs_as_batch_task_only_on_loopback(self, monkeypatch, address, batch):
        from twinfs import cli

        calls = []
        monkeypatch.setattr(cli.os, "SCHED_BATCH", 3, raising=False)
        monkeypatch.setattr(cli.os, "sched_param", lambda priority: priority, raising=False)
        monkeypatch.setattr(cli.os, "sched_setscheduler", lambda *args: calls.append(args), raising=False)
        cli._yield_to_local_devices(address)
        assert calls == ([(0, 3, 0)] if batch else [])

    def test_replica_starts_when_the_scheduling_hint_is_refused(self, monkeypatch):
        from twinfs import cli

        def refuse(*args):
            raise PermissionError("policy change not permitted")

        monkeypatch.setattr(cli.os, "SCHED_BATCH", 3, raising=False)
        monkeypatch.setattr(cli.os, "sched_param", lambda priority: priority, raising=False)
        monkeypatch.setattr(cli.os, "sched_setscheduler", refuse, raising=False)
        cli._yield_to_local_devices("127.0.0.1")


class TestTcpEndToEnd:
    def test_workload_over_real_sockets(self):
        from twinfs.replica import ReplicaServer

        server = ReplicaServer(("127.0.0.1", 0))
        server.register_image(mkfs(4096, 128).metadata_image)
        server.serve_in_thread()
        try:
            report = harness.run_workload(
                "voice", seed=7, replica_addr=server.server_address
            )
            assert report["oracle_failures"] == 0
            assert report["verdicts"]["mismatch"] == 0
            assert report["digests"]["device"] == report["digests"]["replica"]
        finally:
            server.shutdown()

    def test_replica_service_binary_subprocess(self, tmp_path):
        import json as json_mod
        import socket
        import subprocess
        import sys
        import time

        image = mkfs(4096, 128)  # geometry must match the device build
        image_path = tmp_path / "meta.img"
        image_path.write_bytes(image.metadata_image)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "twinfs.cli", "replica",
                "--listen", "127.0.0.1:%d" % port,
                "--state", str(tmp_path / "state"),
                "--image", str(image_path),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = json_mod.loads(proc.stdout.readline())
            assert banner["listening"].endswith(":%d" % port)
            report = harness.run_workload(
                "stress-seq", seed=4, replica_addr=("127.0.0.1", port),
            )
            assert report["verdicts"]["mismatch"] == 0
            assert report["digests"]["device"] == report["digests"]["replica"]
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        # the session journal persisted across the process boundary
        state_dirs = list((tmp_path / "state").iterdir())
        assert state_dirs and (state_dirs[0] / "journal.bin").exists()

    def test_mismatched_replica_image_is_detected_not_accepted(self):
        # A replica bootstrapped from the wrong (stale) metadata image makes
        # the twins diverge; the device must reject, not absorb, its answers.
        from twinfs.replica import ReplicaServer

        server = ReplicaServer(("127.0.0.1", 0))
        server.register_image(mkfs(512, 32).metadata_image)  # wrong geometry
        server.serve_in_thread()
        try:
            report = harness.run_workload(
                "stress-seq", seed=4, replica_addr=server.server_address
            )
            assert report["verdicts"]["mismatch"] >= 1
            assert report["verdicts"]["match"] == 0 or report.get("failure")
        finally:
            server.shutdown()

    def test_loopback_and_tcp_agree_bit_for_bit(self):
        from twinfs.replica import ReplicaServer

        loop = harness.run_workload("robot", seed=21)
        server = ReplicaServer(("127.0.0.1", 0))
        server.register_image(mkfs(4096, 128).metadata_image)
        server.serve_in_thread()
        try:
            tcp = harness.run_workload("robot", seed=21, replica_addr=server.server_address)
        finally:
            server.shutdown()
        assert loop["digests"] == tcp["digests"]
        assert loop["rpc_count"] == tcp["rpc_count"]
        assert loop["verdicts"] == tcp["verdicts"]
