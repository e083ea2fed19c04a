"""Which serial drain the batched engine routes each configuration to.

Every route is bit-exact against the scalar engine, so the equivalence
suites cannot tell a figure preset that silently fell back to the slow
generic drain from one on the closure engine.  These tests spy on the two
drain builders in :mod:`repro.sim.batched` and pin, for a from-reset run,
the engine (closure or generic) and the L2 mode (``placement`` over the
precomputed B2p events, or ``live`` lookups) that actually drained it.
"""

import pytest

from repro.api import get_config
from repro.obs import RecordingTracer
from repro.sim import batched
from repro.sim.processor import Processor
from repro.workloads import spec_trace

FIG4 = ("split", "mono8b", "mono16b", "mono32b", "mono64b", "direct")
FIG9 = ("split+gcm", "mono+gcm", "split+sha", "mono+sha", "xom+sha")


@pytest.fixture
def routes(monkeypatch):
    """Record ``(engine, mode)`` for every drain built, once it drained."""
    built = []

    def spy(maker, engine):
        def build(memory, l2_mirror, shim, **kwargs):
            drain = maker(memory, l2_mirror, shim, **kwargs)
            route = (engine, "live" if shim is None else "placement")

            def counted(*args):
                built.append(route)
                return drain(*args)

            return counted

        return build

    monkeypatch.setattr(batched, "_make_fast_engine",
                        spy(batched._make_fast_engine, "closure"))
    monkeypatch.setattr(batched, "_make_generic_drain",
                        spy(batched._make_generic_drain, "generic"))
    return built


@pytest.fixture(scope="module")
def trace():
    return spec_trace("swim", 3000, seed=5)


def drained(routes, preset, trace, tracer=None):
    routes.clear()
    Processor(get_config(preset), tracer=tracer).run(trace, warmup_refs=1000)
    assert routes, f"{preset}: no drain ran"
    return set(routes)


@pytest.mark.parametrize("preset", ("baseline",) + FIG4)
def test_encryption_presets_drain_closure_placement(routes, trace, preset):
    assert drained(routes, preset, trace) == {("closure", "placement")}


@pytest.mark.parametrize("preset", FIG9)
def test_authentication_presets_drain_closure_live(routes, trace, preset):
    assert drained(routes, preset, trace) == {("closure", "live")}


@pytest.mark.parametrize("preset", ("pred", "pred2eng", "scattered"))
def test_unmodelled_presets_take_generic_drain(routes, trace, preset):
    assert {engine for engine, _ in drained(routes, preset, trace)} \
        == {"generic"}


def test_tracer_on_takes_generic_placement_drain(routes, trace):
    assert drained(routes, "split", trace, RecordingTracer()) \
        == {("generic", "placement")}
