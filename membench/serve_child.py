"""The service process of the serve workloads.

Runs ``repro.serve.run_server`` for one ``split+gcm`` shard on the inline
backend, so the service is exactly one process.  It prints the
``listening`` line, serves until SIGINT or SIGTERM, drains, and with
``--trace 1`` prints the span totals of its layers as a last JSON line.

The process asks the kernel to send it SIGTERM when its parent dies, so
a benchmark that is killed outright cannot leave the service behind.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import Spans  # noqa: E402

_PR_SET_PDEATHSIG = 1


def die_with_parent(parent: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:     # the parent died before prctl ran
        os.kill(os.getpid(), signal.SIGTERM)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--parent", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--l2-size", type=int, required=True)
    parser.add_argument("--tenant-bytes", type=int, required=True)
    args = parser.parse_args()
    die_with_parent(args.parent)

    from repro.serve import ServeConfig, run_server

    spans = Spans()
    if args.trace:
        import layers

        layers.install(spans)
    config = ServeConfig(port=0, scheme="split+gcm", num_shards=1,
                         backend="inline", l2_size=args.l2_size,
                         tenant_bytes=args.tenant_bytes)

    def ready(address) -> None:
        print(json.dumps({"event": "listening", "port": address[1]}),
              flush=True)

    run_server(config, ready=ready)
    print(json.dumps({"event": "stopped", "spans": spans.to_dict()}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
