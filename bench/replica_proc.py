"""Runs `twinfs replica` as the benchmark's network replica process.

    python3 bench/replica_proc.py --image META.img --out DIR [--trace]

The replica serves on an ephemeral 127.0.0.1 port and prints its listening
address like the plain `twinfs replica` command. On SIGINT it stops serving
and writes to DIR the replica state bytes (for the taint audit) and, with
--trace, the spans it recorded.
"""

from __future__ import annotations

import argparse
import os
import signal
import struct
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from twinfs import cli, replica  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--image", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    # Stop as on SIGINT if the benchmark process dies without stopping us.
    parent = os.getppid()

    def watch_parent() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGINT)

    threading.Thread(target=watch_parent, daemon=True).start()

    tracer = tracing.Tracer()
    if args.trace:
        tracing.instrument(tracer)
        tracer.on = True
    sessions = []
    session_for = replica.ReplicaServer.session_for

    def capture(server, device_id):
        session = session_for(server, device_id)
        if session not in sessions:
            sessions.append(session)
        return session

    replica.ReplicaServer.session_for = capture
    code = cli.main(["replica", "--listen", "127.0.0.1:0", "--image", args.image])
    tracer.on = False

    with open(os.path.join(args.out, "replica_state.bin"), "wb") as f:
        for session in sessions:
            for blob in session.state_bytes():
                f.write(struct.pack("<I", len(blob)))
                f.write(blob)
    if args.trace:
        with open(os.path.join(args.out, "replica_spans.bin"), "wb") as f:
            f.write(tracer.spans.to_bytes())
    return code


if __name__ == "__main__":
    sys.exit(main())
