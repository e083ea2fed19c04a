"""Run one benchmark workload and print its metrics as one JSON line.

    python3 membench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (it imports ``src/repro``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it carries host context (the reference-loop time).

Every process the benchmark starts is stopped and reaped on every exit
path: normal end, error, the internal deadline, SIGINT and SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: the run gives up (and cleans up) before the 180 s limit a run has
DEADLINE_S = 170
DEFAULT_SEED = 1
#: set-ups per run, ``setup_s`` being their median: a figures set-up
#: takes a fifth of a second, a serve set-up about one second
SETUPS = {"figures": 7, "serve": 3}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
}
PER_LAYER = {
    "workloads.trace_s": "s",
    "workloads.load_trace_s": "s",
    "sim.fig4_s": "s",
    "sim.fig9_s": "s",
    "sim.resident_s": "s",
    "sim.baseline_s": "s",
    "sim.ns_per_ref": "ns",
    "sim.us_per_l2_miss": "us",
    "sim.refs": "count",
    "sim.l2_misses": "count",
    "serve.decode_s": "s",
    "serve.encode_s": "s",
    "serve.execute_s": "s",
    "serve.ops_per_batch": "ops",
    "serve.busy": "count",
    "core.read_blocks_s": "s",
    "core.write_blocks_s": "s",
    "core.l2_hit_rate": "ratio",
    "core.writebacks": "count",
    "crypto.ctr_s": "s",
    "crypto.ctr_calls": "count",
    "crypto.ctr_blocks_per_call": "blocks",
    "crypto.mac_s": "s",
    "crypto.mac_calls": "count",
    "auth.verify_s": "s",
    "auth.update_s": "s",
    "auth.mac_computations": "count",
    "loadgen.p99_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead": "ratio",
    "host.ref_loop_ms": "ms",
}


class Interrupted(BaseException):
    """A signal asked the benchmark to stop; cleanup runs on the way out."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum


def _raise_interrupted(signum, _frame):
    # a second signal must not cut the cleanup the first one started
    for other in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(other, signal.SIG_IGN)
    raise Interrupted(signum)


class Result:
    """What one run reports, besides its metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: span groups a traced run needed but saw no call for
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        #: reference-loop samples taken through the run (a HostClock)
        self.host = None


# -- figures ------------------------------------------------------------------

def run_figures(args, workdir: str, result: Result) -> None:
    import figures
    import layers
    from calib import HostClock, factor
    from common import vm_hwm_mb
    from spans import Spans

    reference = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json"),
                  encoding="utf-8") as handle:
            reference = json.load(handle)
    spans = Spans()
    run_clock = HostClock()
    setups = []
    for _ in range(1 if args.trace else SETUPS["figures"]):
        before = run_clock.sample()
        start = time.perf_counter()
        if args.trace:
            layers.install(spans)
        try:
            inputs = figures.Inputs(workdir, args.seed)
        finally:
            spans.unwrap()
        seconds = time.perf_counter() - start
        setups.append(seconds / factor(before, run_clock.sample()))

    # every pass is divided by its own host factor; a traced run
    # alternates plain and traced passes, and their ratio is the tracing
    # overhead
    plain: list[float] = []
    traced: list[float] = []
    cells: list[float] = []
    first = None
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        clock = HostClock()
        seconds, cell_seconds, results = figures.run_pass(inputs, clock)
        plain.append(seconds / clock.factor())
        cells += [cell / clock.factor() for cell in cell_seconds]
        run_clock.samples_ms += clock.samples_ms
        first = first or results
        passes = [results]
        if args.trace:
            clock = HostClock()
            layers.install(spans)
            try:
                seconds, _cells, results = figures.run_pass(inputs, clock)
            finally:
                spans.unwrap()
            traced.append(seconds / clock.factor())
            passes.append(results)
        for results in passes:
            result.attempted += len(results)
            result.failed += sum(first[key] != value
                                 for key, value in results.items())
        if 2 * time.perf_counter() - started > deadline:
            break
    peak = vm_hwm_mb(os.getpid())
    bad = figures.check(inputs, first, reference, args.seed)
    result.attempted += len(first) if reference else figures.SCALAR_SAMPLE
    result.failed += len(bad)
    result.host = run_clock

    if not args.trace:
        result.metrics.update({
            "setup_s": median(setups),
            "peak_rss_mb": peak,
            "throughput_per_s": median(inputs.refs_per_pass() / seconds
                                       for seconds in plain),
            "p50_ms": median(cells) * 1e3,
        })
        return
    result.problems += spans.missing(layers.REQUIRED["figures"])
    result.metrics.update(layer_metrics(spans, 1 / len(traced)))
    result.metrics["trace.overhead"] = median(traced) / median(plain) - 1


def layer_metrics(spans, scale: float) -> dict:
    """Per-layer metrics from span totals, ``scale`` times each total."""
    from layers import SIM_GROUPS

    sim_s = sum(spans.seconds(group) for group in SIM_GROUPS)
    refs = sum(spans.size(group) for group in SIM_GROUPS)
    misses = spans.size("sim.l2_misses")
    ctr_calls = spans.calls("crypto.ctr")
    timed = SIM_GROUPS + (
        "workloads.load_trace", "serve.decode", "serve.encode",
        "serve.execute", "core.read_blocks", "core.write_blocks",
        "crypto.ctr", "crypto.mac", "auth.verify", "auth.update")
    return {
        # traces are generated once per run, in set-up
        "workloads.trace_s": spans.seconds("workloads.trace"),
        **{f"{group}_s": spans.seconds(group) * scale for group in timed},
        "sim.ns_per_ref": sim_s / refs * 1e9 if refs else 0.0,
        "sim.us_per_l2_miss": sim_s / misses * 1e6 if misses else 0.0,
        "sim.refs": refs * scale,
        "sim.l2_misses": misses * scale,
        "crypto.ctr_calls": ctr_calls * scale,
        "crypto.ctr_blocks_per_call":
            spans.size("crypto.ctr") / ctr_calls if ctr_calls else 0.0,
        "crypto.mac_calls": spans.calls("crypto.mac") * scale,
    }


# -- serve --------------------------------------------------------------------

#: workload -> (share of reads, fixed open-loop rate in requests/s);
#: each rate is about half of what two clients with one request in
#: flight each get from the service on that mix
SERVE = {"serve-read": (0.9, 150.0), "serve-write": (0.3, 90.0)}
WARMUP_S = 1.0
#: share of the run spent at the fixed rate; the rest saturates
FIXED_SHARE = 0.5
#: requests in flight while the service is saturated (closed loop)
IN_FLIGHT = 16
#: seconds between host-reference samples during the serve phases; the
#: samples are host context only (dividing by them did not narrow the
#: serve spreads)
CHUNK_S = 3.0


async def _boot(args, workdir: str, trace: bool):
    """Start the service and open the tenants: (service, generator, s)."""
    from serve_load import Generator, Service

    start = time.perf_counter()
    service = Service(workdir, trace)
    generator = Generator(service.port, args.seed,
                          SERVE[args.workload][0])
    try:
        await generator.open()
    except BaseException:
        await generator.close()
        service.close()
        raise
    return service, generator, time.perf_counter() - start


async def _shutdown(service, generator, result: Result) -> dict:
    """Close the connections, stop the service, and tally the generator."""
    try:
        await generator.close()
        return service.stop()
    finally:
        service.close()
        result.attempted += generator.attempted
        result.failed += generator.failed


async def _fixed_phase(args, service, generator, clock):
    """Warm up, then the fixed-rate phase: (phase, service CPU seconds).

    The phase runs in chunks with a host-clock sample between them.
    """
    from common import BenchFailure, cpu_seconds
    from serve_load import Phase

    rate = SERVE[args.workload][1]
    await generator.run(Phase(), rate, max(1, int(rate * WARMUP_S)))
    phase = Phase()
    start = cpu_seconds(service.pid)
    for seconds in _chunks(args.seconds * FIXED_SHARE):
        clock.sample()
        await generator.run(phase, rate, max(1, int(rate * seconds)))
    if phase.backlog_grew:
        raise BenchFailure(f"the service did not sustain {rate} req/s")
    return phase, cpu_seconds(service.pid) - start


def _chunks(seconds: float) -> list[float]:
    """Split ``seconds`` into equal parts of about ``CHUNK_S``."""
    parts = max(1, round(seconds / CHUNK_S))
    return [seconds / parts] * parts


async def _capacity(args, service, generator, clock) -> float:
    """Requests completed per second of service CPU time, saturated
    with ``IN_FLIGHT`` requests outstanding."""
    from common import cpu_seconds

    completed, cpu = 0, 0.0
    for seconds in _chunks(args.seconds * (1 - FIXED_SHARE)):
        clock.sample()
        start = cpu_seconds(service.pid)
        completed += await generator.saturate(IN_FLIGHT, seconds)
        cpu += cpu_seconds(service.pid) - start
    return completed / cpu


async def run_serve(args, workdir: str, result: Result) -> None:
    from calib import HostClock
    from common import percentile, vm_hwm_mb

    clock = HostClock()
    result.host = clock
    setups = []
    for _ in range(SETUPS["serve"] - 1 if not args.trace else 0):
        service, generator, seconds = await _boot(args, workdir, False)
        setups.append(seconds)
        await _shutdown(service, generator, result)
    service, generator, seconds = await _boot(args, workdir, False)
    setups.append(seconds)
    try:
        phase, plain_cpu = await _fixed_phase(args, service, generator,
                                              clock)
        if not args.trace:
            capacity = await _capacity(args, service, generator, clock)
            peak = vm_hwm_mb(service.pid)
    finally:
        await _shutdown(service, generator, result)
    if not args.trace:
        result.metrics.update({
            "setup_s": median(setups),
            "peak_rss_mb": peak,
            "throughput_per_s": capacity,
            "p50_ms": phase.p(0.50),
        })
        return

    # the traced run repeats the fixed-rate phase on a traced service;
    # its spans cover that service's whole life (set-up included)
    import layers
    from spans import Spans

    service, generator, _seconds = await _boot(args, workdir, True)
    try:
        phase, traced_cpu = await _fixed_phase(args, service, generator,
                                               clock)
        stats, core = await generator.layer_counts()
    finally:
        spans = Spans.from_dict(await _shutdown(service, generator, result))
    result.problems += spans.missing(layers.REQUIRED["serve"])
    result.metrics.update(layer_metrics(spans, 1.0))
    result.metrics.update({
        "serve.ops_per_batch":
            stats["serve.batched_ops"] / stats["serve.batches"],
        "serve.busy": stats["serve.busy"],
        "core.l2_hit_rate": core["l2.hits"] / core["l2.accesses"],
        "core.writebacks": core["l2.writebacks"],
        "auth.mac_computations": core["merkle.mac_computations"],
        "loadgen.p99_ms": phase.p(0.99),
        "loadgen.late_p99_ms": percentile(phase.late_ms, 0.99),
        "trace.overhead": traced_cpu / plain_cpu - 1,
    })


# -- entry point --------------------------------------------------------------

def measure(args, workdir: str) -> Result:
    result = Result()
    if args.workload == "figures":
        run_figures(args, workdir, result)
    else:
        asyncio.run(run_serve(args, workdir, result))
    host = {"ref_loop_ms": result.host.mean_ms(),
            "factor": result.host.factor(),
            "samples": len(result.host.samples_ms)}
    print(json.dumps({"host": host}), flush=True)
    if args.trace:
        result.metrics["host.ref_loop_ms"] = host["ref_loop_ms"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures",) + tuple(SERVE))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"membench: no src/repro under {ROOT}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(signum, _raise_interrupted)
    signal.alarm(DEADLINE_S)

    from common import BenchFailure, reap_children

    workdir = tempfile.mkdtemp(prefix=".membench-", dir=ROOT)
    try:
        result = measure(args, workdir)
    except BenchFailure as exc:
        print(f"membench: {exc}", file=sys.stderr)
        return 1
    except Interrupted as exc:
        print(f"membench: stopped by signal {exc.signum}", file=sys.stderr)
        return 128 + exc.signum
    finally:
        signal.alarm(0)
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if result.problems:
        print("membench: traced run recorded no calls for: "
              + ", ".join(result.problems), file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result.metrics.get(name, 0),
                      "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
