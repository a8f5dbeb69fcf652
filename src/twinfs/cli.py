"""Command-line entry points.

    twinfs mkfs --blocks N --inodes M OUT_DIR
    twinfs replica --listen HOST:PORT --state DIR [--image META.img]
    twinfs run --profile P --delay MS [--attack K] [--untrusted-reads] ...
    twinfs crashes --ops N [--seeds ...]
    twinfs audit-stencil IMAGE
    twinfs bench --profile P [--seconds S]

Reports are JSON on stdout. `twinfs-replica` is a shortcut for the replica
subcommand.
"""

from __future__ import annotations

import argparse
import ipaddress
import json
import os
import sys
import time

from twinfs import harness, stencil
from twinfs.blockstore import BLOCK_SIZE
from twinfs.minifs import mkfs


def _cmd_mkfs(args) -> int:
    result = mkfs(args.blocks, args.inodes)
    os.makedirs(args.out, exist_ok=True)
    full_path = os.path.join(args.out, "full.img")
    meta_path = os.path.join(args.out, "meta.img")
    with open(full_path, "wb") as f:
        f.truncate(result.full_image_bytes)
        for bid in sorted(result.full_blocks):
            f.seek(bid * BLOCK_SIZE)
            f.write(result.full_blocks[bid])
    with open(meta_path, "wb") as f:
        f.write(result.metadata_image)
    print(
        json.dumps(
            {
                "full_image": full_path,
                "full_image_bytes": result.full_image_bytes,
                "metadata_image": meta_path,
                "metadata_image_bytes": result.metadata_image_bytes,
                "metadata_fraction": round(
                    result.metadata_image_bytes / result.full_image_bytes, 6
                ),
                "data_start": result.superblock.data_start,
            }
        )
    )
    return 0


def _yield_to_local_devices(address: str) -> None:
    """Run a replica bound to loopback as a batch task.

    Such a replica serves only devices on its own host. Woken by a message
    with the default policy, it preempts the device process that sent it:
    on a 2-vCPU host that took a device's 4 KiB write from 1.3 to 2.2 ms,
    and the write went back to 1.3 ms when the two ran on separate CPUs.
    A batch task does not preempt on wakeup. A replica serving other hosts
    keeps the default policy.
    """
    if not hasattr(os, "SCHED_BATCH") or not ipaddress.ip_address(address).is_loopback:
        return
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError:
        pass  # a placement hint only; the replica serves the same either way


def _cmd_replica(args) -> int:
    from twinfs.replica import ReplicaServer

    host, _, port = args.listen.rpartition(":")
    server = ReplicaServer((host or "127.0.0.1", int(port)), state_root=args.state)
    if args.image:
        with open(args.image, "rb") as f:
            server.register_image(f.read())
    _yield_to_local_devices(server.server_address[0])
    print(
        json.dumps({"listening": "%s:%d" % server.server_address, "state": args.state}),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _cmd_run(args) -> int:
    replica_addr = None
    if args.replica:
        host, _, port = args.replica.rpartition(":")
        replica_addr = (host or "127.0.0.1", int(port))
    report = harness.run_workload(
        args.profile,
        delay_ms=args.delay,
        attack=args.attack,
        attack_at=args.attack_at,
        cache_pages=args.cache_pages,
        stencil_source=args.stencil_source,
        untrusted_reads=args.untrusted_reads,
        compute_ms=args.compute_ms,
        seed=args.seed,
        replica_addr=replica_addr,
    )
    print(json.dumps(report, indent=2))
    if args.attack:
        return 3 if report["attack_detected"] else 4
    return 0 if _healthy(report) else 1


def _healthy(report: dict) -> bool:
    """No payload leaked, the oracle agreed and no verdict mismatched."""
    return report["taint_clean"] and not report["oracle_failures"] and not report["verdicts"]["mismatch"]


def _cmd_crashes(args) -> int:
    report = harness.explore_crashes(ops=args.ops, seeds=tuple(args.seeds))
    print(json.dumps(report, indent=2))
    return 0 if not report["failures"] else 1


def _cmd_audit_stencil(args) -> int:
    with open(args.image, "rb") as f:
        image = f.read()

    def read(block_id: int) -> bytes:
        start = block_id * BLOCK_SIZE
        chunk = image[start : start + BLOCK_SIZE]
        return chunk + bytes(BLOCK_SIZE - len(chunk))

    smap = stencil.build_stencils(read)
    print(smap.dump())
    return 0


def _cmd_bench(args) -> int:
    """Run seeds 0, 1, ... of a profile for `seconds`, at least once; ops/s is over profile time."""
    start = time.monotonic()
    reports: list[dict] = []
    while not reports or time.monotonic() - start < args.seconds:
        reports.append(harness.run_workload(args.profile, seed=len(reports)))
    ops = sum(r["ops"] for r in reports)
    healthy = all(map(_healthy, reports))
    print(json.dumps({
        "profile": args.profile,
        "runs": len(reports),
        "ops": ops,
        "ops_per_s": round(ops / max(sum(r["elapsed_s"] for r in reports), 1e-3), 1),
        "rpc_per_op": round(sum(r["rpc_count"] for r in reports) / ops, 3),
        "verdicts": {k: sum(r["verdicts"][k] for r in reports) for k in ("match", "mismatch")},
        "healthy": healthy,
    }, indent=2))
    return 0 if healthy else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twinfs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mkfs", help="build full and metadata-only images")
    p.add_argument("--blocks", type=int, default=4096)
    p.add_argument("--inodes", type=int, default=128)
    p.add_argument("out")
    p.set_defaults(fn=_cmd_mkfs)

    p = sub.add_parser("replica", help="run the metadata-only replica service")
    p.add_argument("--listen", default="127.0.0.1:7447")
    p.add_argument("--state", default=None)
    p.add_argument("--image", default=None, help="metadata image for new sessions")
    p.set_defaults(fn=_cmd_replica)

    p = sub.add_parser("run", help="run a workload profile and print a report")
    p.add_argument("--profile", choices=harness.PROFILES, required=True)
    p.add_argument("--delay", type=float, default=0.0, help="simulated RTT in ms")
    p.add_argument("--attack", choices=harness.ATTACKS, default=None)
    p.add_argument("--attack-at", type=int, default=1)
    p.add_argument("--cache-pages", type=int, default=64)
    p.add_argument("--stencil-source", choices=("device", "cloud"), default="device")
    p.add_argument("--untrusted-reads", action="store_true")
    p.add_argument("--compute-ms", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replica", default=None, help="HOST:PORT of an external replica")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("crashes", help="explore crash points for 2PC convergence")
    p.add_argument("--ops", type=int, default=6)
    p.add_argument("--seeds", type=int, nargs="*", default=[0])
    p.set_defaults(fn=_cmd_crashes)

    p = sub.add_parser("audit-stencil", help="dump a stencil map as text")
    p.add_argument("image")
    p.set_defaults(fn=_cmd_audit_stencil)

    p = sub.add_parser("bench", help="run a profile repeatedly for a fixed time")
    p.add_argument("--profile", choices=harness.PROFILES, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def replica_main(argv=None) -> int:
    argv = ["replica"] + list(sys.argv[1:] if argv is None else argv)
    return main(argv)


if __name__ == "__main__":
    sys.exit(main())
