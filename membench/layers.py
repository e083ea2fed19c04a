"""Which public names are wrapped, for each layer the benchmark reports.

Every wrapper goes on the name the caller looks up.  Both the figures run
and the service process install all of them, so a layer a workload does
not use reports a measured zero: ``figures`` shows no functional crypto,
the serve workloads show no simulation.
"""

from __future__ import annotations

from figures import FIG4, RESIDENT
from spans import Spans

#: groups each workload must exercise; a traced run fails if one of them
#: records no call
REQUIRED = {
    "figures": ("workloads.trace", "workloads.load_trace", "sim.fig4",
                "sim.fig9", "sim.resident", "sim.baseline"),
    "serve": ("serve.decode", "serve.encode", "serve.execute",
              "core.read_blocks", "core.write_blocks", "crypto.ctr",
              "crypto.mac", "auth.verify", "auth.update"),
}
SIM_GROUPS = ("sim.fig4", "sim.fig9", "sim.resident", "sim.baseline")


def sim_group(args, kwargs) -> str:
    """Span group of one ``simulate`` call, from its config and trace."""
    config, trace = args[0], args[1]
    if config.name == "baseline":
        return "sim.baseline"
    if trace.name in RESIDENT:
        return "sim.resident"
    return "sim.fig4" if config.name in FIG4 else "sim.fig9"


def install(spans: Spans) -> None:
    from repro import api, workloads
    from repro.auth import schemes
    from repro.auth.merkle import MerkleTree
    from repro.core import secure_memory
    from repro.core.secure_memory import SecureMemorySystem
    from repro.serve import protocol, server
    from repro.serve.shard import ShardCore
    from repro.workloads import tracefile

    # workloads: the benchmark generates traces through the package names;
    # resolve_trace imports load_trace from tracefile at call time
    for name in ("spec_trace", "scenario_trace"):
        spans.wrap(workloads, name, "workloads.trace")
    spans.wrap(tracefile, "write_trace", "workloads.trace")
    spans.wrap(tracefile, "load_trace", "workloads.load_trace")
    # sim: Experiment.run calls the name simulate bound in repro.api
    spans.wrap(api, "simulate", sim_group,
               size=lambda args, kwargs: len(args[1]),
               after=lambda args, result: spans.add(
                   "sim.l2_misses", result.l2_misses))
    # serve: read_frame finds decode_frame in its own module; the server
    # imported encode_frame by name
    spans.wrap(protocol, "decode_frame", "serve.decode")
    spans.wrap(server, "encode_frame", "serve.encode")
    spans.wrap(ShardCore, "execute", "serve.execute")
    # core, and the crypto and Merkle calls core makes
    spans.wrap(SecureMemorySystem, "read_blocks", "core.read_blocks")
    spans.wrap(SecureMemorySystem, "write_blocks", "core.write_blocks")
    spans.wrap(secure_memory, "ctr_transform", "crypto.ctr",
               size=lambda args, kwargs: 1)
    spans.wrap(secure_memory, "bulk_ctr_transform", "crypto.ctr",
               size=lambda args, kwargs: len(args[1]))
    spans.wrap(schemes, "gcm_block_mac", "crypto.mac",
               size=lambda args, kwargs: 1)
    spans.wrap(schemes, "gcm_block_macs", "crypto.mac",
               size=lambda args, kwargs: len(args[2]))
    for name in ("verify_leaves", "verify_leaf"):
        spans.wrap(MerkleTree, name, "auth.verify")
    for name in ("update_leaves", "update_leaf"):
        spans.wrap(MerkleTree, name, "auth.update")
