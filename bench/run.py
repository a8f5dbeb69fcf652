"""twinfs benchmark: end-to-end metrics, a traced per-layer split, a correctness gate.

    python3 bench/run.py --workload ingest-1g --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test --seconds 3

Run from the repository root; the program is imported from ./src. With
--trace 0 one untraced run gives the end-to-end metrics. With --trace 1 an
untraced run is followed by a traced run of the same length on a fresh
system, and the per-layer metrics come from the traced run. Every run passes
the correctness gate or exits 1. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 5  # set-up is repeated at least this often, and for at least SETUP_MIN_S,
SETUP_MIN_S = 2.0  # and the median reported
LAT_KINDS = ("open", "write", "read", "fsync")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


def tail(values: list[float]) -> tuple[float, float]:
    """The tail latency and its percentile.

    The highest percentile with TAIL_BEYOND samples beyond it, but no higher
    than p90. Further out lie stalls whose share changes from run to run:
    the shared machine's, and on mixed-rtt the 40 ms delayed-ACK waits that
    3-6% of reads hit. A percentile inside that range flips between two
    modes, and its value does not repeat.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, n // 10)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def device_counters(device) -> dict:
    m = device.metrics
    return {"rpc": m.rpc_total, "fileops": m.fileops_sent, "mismatches": m.mismatches,
            "rejects": m.rejects_served}


def run_phase(wl, inputs, seconds: float, reps: int = 1, min_s: float = 0.0, tracer=None,
              plant=None) -> dict:
    """Set up (reps times and for min_s seconds), run one timed phase, then gate and audit it."""
    from workloads import Client, TimeUp, read_wchar
    from tracer import Spans
    from twinfs import harness

    setup_times = []
    setup = client = None
    rep = 0
    while rep < reps or sum(setup_times) < min_s:
        if setup is not None:
            setup.close()
            gc.collect()  # a discarded system must not count towards peak_rss_mb
        start = time.perf_counter()
        setup = wl.build(inputs, OUT, rep, trace=tracer is not None)
        try:
            client = Client(setup.system)
            client.after_op = lambda: setup.capture.drain(force=False)
            rng = inputs.rng()
            wl.prefill(client, setup, inputs, rng)
        except BaseException:
            setup.close()
            raise
        setup_times.append(time.perf_counter() - start - client.paused_ns / 1e9)
        rep += 1

    system = setup.system
    dev = system.device
    capture = setup.capture
    failures: list[str] = []
    try:
        if plant == "drop-write":
            system.twin.behavior = harness.inject_attack("drop-write")
        if tracer is not None:
            def count_frame(raw: bytes) -> None:
                if tracer.on:
                    tracer.counts["channel.frames"] += 1
                    tracer.counts["channel.bytes"] += len(raw)

            dev.channel.taps.append(count_frame)
        store_write = dev.store.write_block
        store_bytes = [0]

        def counted_write(block_id, data):
            store_bytes[0] += len(data)
            return store_write(block_id, data)

        dev.store.write_block = counted_write
        client.latencies = {}
        client.attempted = client.failed = client.client_bytes = client.paused_ns = 0
        capture.drain()
        capture.seen = capture.kept = 0
        sink = dev.durability
        sink_bytes0 = sink.bytes if sink is not None else 0
        before = device_counters(dev)
        wchar0 = read_wchar() + (setup.replica.wchar() if setup.replica else 0)
        error = None
        if tracer is not None:
            tracer.on = True
        t0_ns = time.perf_counter_ns()
        client.deadline = t0_ns / 1e9 + seconds
        client.before_op = capture.sample_next
        try:
            wl.script(client, setup, inputs, rng)
        except TimeUp:
            pass
        except Exception as exc:  # a failed client call ends the phase; the gate reports it
            error = exc
        t1_ns = time.perf_counter_ns()
        if tracer is not None:
            tracer.on = False
        client.before_op = None
        capture.keep = False
        capture.drain()
        traffic_bytes = capture.seen
        wchar1 = read_wchar() + (setup.replica.wchar() if setup.replica else 0)
        sink_bytes = (sink.bytes if sink is not None else 0) - sink_bytes0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb += setup.replica.peak_rss_kb() if setup.replica else 0
        del dev.store.write_block
        after = device_counters(dev)

        # -- correctness gate ------------------------------------------------
        if error is not None:
            failures.append("client call raised %s: %s" % (type(error).__name__, error))
        try:
            dev.shutdown()
            device_digest = dev.device_metadata_digest()
            replica_digest = system.replica_digest()
            if device_digest != replica_digest:
                failures.append("device metadata digest %s != replica durable digest %s"
                                % (device_digest[:12], replica_digest[:12] or "(none)"))
        except Exception as exc:
            failures.append("shutdown or digest failed: %s: %s" % (type(exc).__name__, exc))
        if client.oracle_failures:
            failures.append("%d reads or fstats disagreed with FileModel" % client.oracle_failures)
        if client.detected:
            failures.append("a select_validate barrier, fsync or close reported a mismatch")
        if dev.metrics.mismatches:
            failures.append("%d non-match verdicts on an honest run" % dev.metrics.mismatches)
        system.transport.close()
        if setup.replica is not None:
            setup.replica.stop()
        elif system.session is not None:
            system.session.close()
        blobs = setup.replica_state()
        replica_spans = setup.replica.spans() if setup.replica is not None and tracer else Spans()
    finally:
        # Released before the scans, so no writeback of its files competes with the audit.
        setup.close()

    if plant == "leak":  # one 8-byte run of payload at an unaligned offset
        capture.observe("channel")(bytes(3) + inputs.pool[0][100:108] + bytes(5))
    capture.drain()
    leaked = capture.hits + sum(1 for raw in blobs if inputs.scan.hits(raw))
    if leaked:
        failures.append("taint audit: %d channel, network or replica-state chunks hold payload"
                        % leaked)

    # audit_s: the time TaintVault.scan takes over the traffic of
    # wl.AUDIT_OPS average client calls plus the replica state, at the scan
    # rate measured on the calls sampled over the timed phase.
    state_bytes = sum(len(raw) for raw in blobs)
    audit_bytes = wl.AUDIT_OPS * traffic_bytes / max(client.attempted, 1) + state_bytes
    audit_s = capture.audit_ns / 1e9 / max(capture.audit_bytes, 1) * audit_bytes
    if not capture.audit_bytes:
        failures.append("the audit sampled no traffic")

    return {
        "setup_times": setup_times,
        "elapsed_s": (t1_ns - t0_ns - client.paused_ns) / 1e9,
        "window_ns": (t0_ns, t1_ns),
        "attempted": client.attempted,
        "failed": client.failed,
        "client_bytes": client.client_bytes,
        "latencies": client.latencies,
        "store_bytes": store_bytes[0],
        "file_bytes": wchar1 - wchar0,
        "counters": {k: after[k] - before[k] for k in after},
        "audit_s": audit_s,
        "audit_bytes": audit_bytes,
        "audit_sampled_bytes": capture.audit_bytes,
        "sink_bytes": sink_bytes,
        "traffic_bytes": traffic_bytes,
        "peak_rss_mb": peak_kb / 1024.0,
        "replica_spans": replica_spans,
        "failures": failures,
    }


def end_to_end(phase: dict) -> tuple[dict, dict]:
    """End-to-end metrics, plus the tail percentile and sample count of each tail."""
    completed = phase["attempted"] - phase["failed"]
    metrics = {
        "setup_s": (statistics.median(phase["setup_times"]), "s"),
        "ops_per_s": (completed / phase["elapsed_s"], "1/s"),
    }
    tails = {}
    for kind in LAT_KINDS:
        samples = [ns / 1e3 for ns in phase["latencies"].get(kind, [])]
        if len(samples) <= TAIL_BEYOND:
            phase["failures"].append("only %d %s samples; the tail needs %d"
                                     % (len(samples), kind, TAIL_BEYOND + 1))
            continue
        value, pct = tail(samples)
        metrics[kind + "_p50_us"] = (statistics.median(samples), "us")
        metrics[kind + "_tail_us"] = (value, "us")
        tails[kind + "_tail_us"] = {"percentile": round(pct, 2), "samples": len(samples),
                                    "p90_p95_p99": [statistics.quantiles(samples, n=100)[i]
                                                    for i in (89, 94, 98)]}
    metrics["audit_s"] = (phase["audit_s"], "s")
    metrics["write_amp"] = ((phase["store_bytes"] + phase["file_bytes"] + phase["sink_bytes"])
                            / max(phase["client_bytes"], 1), "ratio")
    metrics["peak_rss_mb"] = (phase["peak_rss_mb"], "MB")
    metrics["failed_op_ratio"] = (phase["failed"] / max(phase["attempted"], 1), "ratio")
    return metrics, tails


def per_layer(phase: dict, tracer, untraced_ops_per_s: float) -> dict:
    from tracer import summarize

    window = phase["window_ns"]
    own = summarize(tracer.spans, window)
    remote = summarize(phase["replica_spans"], window)
    self_s = own["self_s"] + remote["self_s"]
    calls = own["calls"] + remote["calls"]
    nbytes = own["bytes"] + remote["bytes"]
    counts = tracer.counts
    ops = max(phase["attempted"] - phase["failed"], 1)
    ctr = phase["counters"]

    def prefixed(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ratio(hits: str, tries: str) -> float:
        return counts[hits] / counts[tries] if counts[tries] else 0.0

    elapsed = phase["elapsed_s"]
    traced_ops_per_s = ops / elapsed
    m = {
        "device_core.api_self_s": (prefixed("device_core.api."), "s"),
        "device_core.gate_s": (self_s["device_core.gate"], "s"),
        "device_core.rpc_per_op": (ctr["rpc"] / ops, "count"),
        "device_core.delegations_per_op": (ctr["fileops"] / ops, "count"),
        "device_core.cache_hit_ratio": (ratio("cache.hits", "cache.calls"), "ratio"),
        "device_core.memo_hit_ratio": (ratio("memo.hits", "memo.calls"), "ratio"),
        "device_core.mismatches": (ctr["mismatches"], "count"),
        "device_core.gate_rejects": (ctr["rejects"], "count"),
        "blockstore.reads_per_op": (counts["blockstore.reads"] / ops, "count"),
        "blockstore.writes_per_op": (counts["blockstore.writes"] / ops, "count"),
        "blockstore.checkpoint_blocks_per_op": (counts["blockstore.checkpoint_blocks"] / ops, "count"),
        "blockstore.rollbacks": (counts["blockstore.rollbacks"], "count"),
        "local_twin.delegate_s": (prefixed("local_twin."), "s"),
        "local_twin.meta_calls_per_op": (calls["local_twin.meta_call"] / ops, "count"),
        "local_twin.frames_per_op": (counts["channel.frames"] / ops, "count"),
        "local_twin.channel_bytes_per_op": (counts["channel.bytes"] / ops, "B"),
        "minifs.local_exec_s": (self_s["minifs.exec.local"], "s"),
        "minifs.replica_exec_s": (self_s["minifs.exec.replica"], "s"),
        "minifs.free_count_s": (self_s["minifs.free_count"], "s"),
        "minifs.allocs_per_op": (counts["minifs.allocs"] / ops, "count"),
        "stencil.refresh_s": (self_s["stencil.refresh"], "s"),
        "stencil.build_s": (self_s["stencil.build"], "s"),
        "stencil.serve_s": (self_s["stencil.serve"], "s"),
        "stencil.scrub_s": (self_s["stencil.scrub"], "s"),
        "transport.send_s": (prefixed("transport.send"), "s"),
        "transport.recv_s": (prefixed("transport.recv"), "s"),
        "transport.net_wait_s": (self_s["transport.net_wait"], "s"),
        "transport.msgs_per_op": (calls["transport.send.net"] / ops, "count"),
        "transport.bytes_per_op": ((nbytes["transport.send.net"] + nbytes["transport.recv.net"]) / ops, "B"),
        "wire.codec_s": (self_s["wire.codec"], "s"),
        "replica.handle_s": (self_s["replica.handle"], "s"),
        "replica.replay_s": (self_s["replica.replay"], "s"),
        "durability.save_store_s": (self_s["durability.save_store"], "s"),
        "durability.save_meta_s": (self_s["durability.save_meta"], "s"),
        "durability.fsyncs_per_op": (calls["durability.fsync"] / ops, "count"),
        "durability.bytes_per_op": ((phase["file_bytes"] + phase["sink_bytes"]) / ops, "B"),
        "harness.scan_bytes": (phase["traffic_bytes"] / ops, "B"),
        "trace.unattributed_frac": (1.0 - sum(own["self_s"].values()) / elapsed, "ratio"),
        "trace.overhead_frac": (1.0 - traced_ops_per_s / untraced_ops_per_s, "ratio"),
    }
    return m


def write_output(name: str, raw: bytes, scan, failures: list[str]) -> None:
    """Write a benchmark output file, after checking it holds no payload."""
    if scan.hits(raw):
        failures.append("taint audit: benchmark output %s holds payload" % name)
        return
    opener = gzip.open if name.endswith(".gz") else open
    with opener(os.path.join(OUT, name), "wb") as f:
        f.write(raw)


def print_table(workload: str, metrics: dict, tails: dict) -> None:
    print("%s" % workload)
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in tails:
            extra = "  (p%.2f of %d samples)" % (tails[name]["percentile"], tails[name]["samples"])
        print("  %-38s %16.6f %-6s%s" % (name, value, unit, extra))


def run_one(args) -> int:
    import tracer as tracing
    import workloads
    from workloads import Inputs, WORKLOADS

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    inputs = Inputs(args.seed)
    phase = run_phase(wl, inputs, args.seconds, reps=1 if args.trace else SETUP_REPS,
                      min_s=0.0 if args.trace else SETUP_MIN_S)
    metrics, tails = end_to_end(phase)
    failures = phase["failures"]
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "audit_bytes": phase["audit_bytes"], "traffic_bytes": phase["traffic_bytes"],
              "audit_sampled_bytes": phase["audit_sampled_bytes"],
              "end_to_end": {k: v[0] for k, v in metrics.items()}, "tails": tails}
    result_metrics = metrics
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        tracer.patch(workloads, "compute", lambda f: tracer.span(f, "client.compute"))
        try:
            traced = run_phase(wl, inputs, args.seconds, reps=1, tracer=tracer)
        finally:
            tracer.restore()
        failures += traced["failures"]
        result_metrics = per_layer(traced, tracer, metrics["ops_per_s"][0])
        report["per_layer"] = {k: v[0] for k, v in result_metrics.items()}
        window = {"window_ns": traced["window_ns"]}
        write_output("%s-spans.bin.gz" % wl.name, tracer.spans.to_bytes(window), inputs.scan, failures)
        if len(traced["replica_spans"]):
            write_output("%s-replica-spans.bin.gz" % wl.name,
                         traced["replica_spans"].to_bytes(window), inputs.scan, failures)
    write_output("%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace),
                 json.dumps(report, indent=1).encode(), inputs.scan, failures)

    print_table(wl.name, metrics, tails)
    if args.trace:
        print_table(wl.name + " (traced)", result_metrics, {})
    for failure in failures:
        print("GATE FAILED: %s" % failure)
    listed = result_metrics if args.trace else {k: v for k, v in metrics.items()
                                                if k != "failed_op_ratio"}
    print(json.dumps({
        "correct": not failures,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in listed.items()},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code |= subprocess.run(cmd).returncode
    return code


def self_test(args) -> int:
    """Plant faults and check that the gate fails each run."""
    from workloads import Inputs, WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    inputs = Inputs(args.seed)
    noise = random.Random("noise").randbytes(1 << 16)
    run = inputs.pool[1][200:208]
    caught = (all(inputs.scan.hits(noise[:k] + run + noise[k:64]) for k in range(16))
              and not inputs.scan.hits(noise))
    print("scanner    8-byte runs at 16 offsets found, noise clean: %s" % caught)
    for plant in ("drop-write", "leak"):
        for wl in WORKLOADS.values():
            phase = run_phase(wl, Inputs(args.seed), args.seconds, plant=plant)
            ok = bool(phase["failures"])
            caught &= ok
            print("%-10s %-12s gate %s: %s" % (plant, wl.name, "FAILED (expected)" if ok else
                                              "PASSED (fault missed)", "; ".join(phase["failures"])))
    return 0 if caught else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "ingest-1g", "mixed-rtt", "durable-log"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant faults and check that the correctness gate catches them")
    args = parser.parse_args()
    # A terminated run still unwinds, so the replica process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "twinfs", "__init__.py")):
        print("twinfs sources not found under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
