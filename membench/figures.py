"""The ``figures`` workload: the paper's fig-4 and fig-9 cells, in process.

Each preset runs through ``repro.api.Experiment`` on the default engine
(``auto``, which picks the batched engine) against four memory-bound SPEC
apps, the cache-resident ``gzip``, and the ``gc-mark-sweep`` scenario
replayed from a ``.rtrc`` file recorded during set-up.  The presets of one
app share its baseline, as a figure sweep does.  Every pass uses fresh
``Trace`` objects, so the batched engine's per-trace caches never carry
from one pass to the next.
"""

from __future__ import annotations

import gc
import os
import random
import time

from repro import api
from repro import workloads
from repro.sim import simulate as sim_simulate
from repro.workloads import Trace, tracefile

FIG4 = ("split", "mono8b", "mono16b", "mono32b", "mono64b", "direct")
FIG9 = ("split+gcm", "mono+gcm", "split+sha", "mono+sha", "xom+sha")
MEMORY_BOUND = ("swim", "mcf", "art", "equake")
RESIDENT = ("gzip",)
SCENARIO = "gc-mark-sweep"
#: simulated references per trace (a third of them warm the caches)
REFS = 20_000
#: cells re-run on the scalar engine for a seed without a stored reference
SCALAR_SAMPLE = 3


def cell_key(preset: str, app: str) -> str:
    return f"{preset}|{app}"


def comparable(result) -> dict:
    """A result as compared against the oracle: everything but ``meta``."""
    out = result.to_dict()
    out.pop("meta")
    return out


class Inputs:
    """One seed's traces: generated SPEC traces and the recorded scenario."""

    def __init__(self, workdir: str, seed: int):
        self.spec = {app: workloads.spec_trace(app, REFS, seed=seed)
                     for app in MEMORY_BOUND + RESIDENT}
        scenario = workloads.scenario_trace(SCENARIO, REFS, seed=seed)
        self.rtrc = os.path.join(workdir, f"{SCENARIO}.rtrc")
        tracefile.write_trace(self.rtrc, scenario)

    def apps(self) -> list[str]:
        return list(self.spec) + [SCENARIO]

    def workload(self, app: str):
        """What ``Experiment`` is given: a fresh Trace, or the .rtrc path."""
        if app == SCENARIO:
            return f"trace:{self.rtrc}"
        trace = self.spec[app]
        return Trace(trace.name, trace.gaps, trace.writes, trace.addrs)

    def refs_per_pass(self) -> int:
        """Simulated references in one pass: per app, the baseline plus
        one run per preset."""
        return len(self.apps()) * (1 + len(FIG4) + len(FIG9)) * REFS


def run_pass(inputs: Inputs, clock) -> tuple[float, list[float], dict]:
    """One pass over every cell: (seconds, per-cell seconds, results).

    ``clock`` samples the host reference loop before each app's row of
    cells; the samples are not part of the pass's seconds.
    """
    gc.collect()
    cell_seconds: list[float] = []
    results: dict[str, dict] = {}
    timer = time.perf_counter
    elapsed = 0.0
    for app in inputs.apps():
        clock.sample()
        workload = inputs.workload(app)
        baseline = None
        row = timer()
        for preset in FIG4 + FIG9:
            began = timer()
            experiment = api.Experiment(preset, workload, refs=REFS,
                                        baseline=baseline)
            result = experiment.run()
            cell_seconds.append(timer() - began)
            baseline = experiment.baseline_result
            results[cell_key(preset, app)] = comparable(result)
        elapsed += timer() - row
    return elapsed, cell_seconds, results


def scalar_cell(inputs: Inputs, preset: str, app: str) -> dict:
    """The scalar engine's result for one cell, baseline included."""
    workload = inputs.workload(app)
    trace = workload
    if isinstance(workload, str):
        trace = workloads.resolve_trace(workload, REFS)
    baseline = sim_simulate(api.get_config("baseline", sim_engine="scalar"),
                            trace, warmup_refs=REFS // 3)
    experiment = api.Experiment(
        api.get_config(preset, sim_engine="scalar"), workload, refs=REFS,
        baseline=baseline)
    return comparable(experiment.run())


def check(inputs: Inputs, results: dict, reference: dict | None,
          seed: int) -> list[str]:
    """Cells whose batched result differs from the scalar oracle.

    With a stored reference every cell is compared; otherwise a seeded
    sample is re-run on the scalar engine.
    """
    if reference is not None:
        if set(reference) != set(results):
            return ["reference covers other cells"]
        return [key for key, value in results.items()
                if reference[key] != value]
    keys = sorted(results)
    sample = random.Random(f"scalar:{seed}").sample(keys, SCALAR_SAMPLE)
    bad = []
    for key in sample:
        preset, app = key.split("|")
        if scalar_cell(inputs, preset, app) != results[key]:
            bad.append(key)
    return bad
