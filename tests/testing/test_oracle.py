"""Differential-oracle tests: outcome classification and kernel checks."""

import dataclasses
import random

import pytest

from repro.testing import (
    FaultKind,
    FaultOutcome,
    generate_scenario,
    run_differential_checks,
    run_scenario,
)
from repro.testing.oracle import build_system, campaign_config
from repro.testing.schedule import Op


def _scenario(preset, seed, kind, **kwargs):
    return generate_scenario(preset, seed, fault_kind=kind, **kwargs)


class TestOutcomes:
    def test_clean_scenario_is_clean(self):
        result = run_scenario(generate_scenario("split+gcm", 11))
        assert result.outcome is FaultOutcome.CLEAN
        assert result.violation is None and result.mismatch is None

    def test_bit_flip_detected_under_authentication(self):
        result = run_scenario(_scenario("split+gcm", 3, FaultKind.BIT_FLIP))
        assert result.outcome in (FaultOutcome.DETECTED,
                                  FaultOutcome.NEUTRALIZED)

    def test_bit_flip_unprotected_without_authentication(self):
        # Find a seed where the flip actually lands on consumed data.
        for seed in range(40):
            result = run_scenario(_scenario("split", seed,
                                            FaultKind.BIT_FLIP))
            assert result.outcome in (FaultOutcome.UNPROTECTED,
                                      FaultOutcome.NEUTRALIZED,
                                      FaultOutcome.NOT_TRIGGERED)
            if result.outcome is FaultOutcome.UNPROTECTED:
                return
        pytest.fail("no seed produced an unprotected corruption")

    def test_counter_rollback_not_triggered_without_counters(self):
        config = campaign_config("xom+sha")
        if config.uses_counters:
            pytest.skip("preset grew counters; pick another")
        result = run_scenario(_scenario("xom+sha", 5,
                                        FaultKind.COUNTER_ROLLBACK))
        assert result.outcome is FaultOutcome.NOT_TRIGGERED

    def test_detected_means_integrity_violation_string(self):
        for seed in range(40):
            result = run_scenario(_scenario("split+gcm", seed,
                                            FaultKind.BIT_FLIP))
            if result.outcome is FaultOutcome.DETECTED:
                assert result.violation
                return
        pytest.fail("no seed produced a detected fault")

    def test_same_seed_replays_identically(self):
        scenario = _scenario("split+gcm", 17, FaultKind.SPLICE)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.outcome is second.outcome
        assert first.violation == second.violation
        assert first.mismatch == second.mismatch
        if first.fired is not None:
            assert first.fired.to_dict() == second.fired.to_dict()

    def test_schedule_is_preset_independent(self):
        a = generate_scenario("split+gcm", 23, fault_kind=FaultKind.REPLAY)
        b = generate_scenario("mono+sha", 23, fault_kind=FaultKind.REPLAY)
        assert a.ops == b.ops
        assert a.fault_at == b.fault_at


class TestWeakenedSystem:
    """Sabotaging the tree must surface as missed faults — this is the
    self-check that proves the oracle can catch a broken implementation."""

    def test_no_tree_misses_replay(self):
        missed = 0
        for seed in range(25):
            scenario = dataclasses.replace(
                _scenario("split+gcm", seed, FaultKind.REPLAY),
                weaken="no-tree")
            result = run_scenario(scenario)
            assert result.outcome is not FaultOutcome.DETECTED
            if result.outcome is FaultOutcome.MISSED:
                missed += 1
        assert missed > 0

    def test_no_tree_system_really_has_no_tree(self):
        scenario = dataclasses.replace(generate_scenario("split+gcm", 1),
                                       weaken="no-tree")
        system, _ = build_system(scenario, random.Random(0))
        assert system.merkle is None

    def test_unknown_weaken_mode_rejected(self):
        scenario = dataclasses.replace(generate_scenario("split+gcm", 1),
                                       weaken="bogus")
        with pytest.raises(ValueError):
            build_system(scenario, random.Random(0))


class TestColdSweepCatchesPersistentCorruption:
    def test_fault_after_last_op_still_classified(self):
        """A fault at the very end is only observable by the cold sweep."""
        base = generate_scenario("split+gcm", 9, fault_kind=FaultKind.BIT_FLIP)
        ops = tuple(op for op in base.ops if op.kind == "write")[:4]
        ops += (Op("flush"),)       # the targets must exist in DRAM
        scenario = dataclasses.replace(base, ops=ops, fault_at=len(ops))
        result = run_scenario(scenario)
        assert result.outcome in (FaultOutcome.DETECTED,
                                  FaultOutcome.NEUTRALIZED)
        assert result.ops_executed == len(ops)

    def test_storm_and_flush_ops_execute(self):
        ops = (Op("write", 0, 1), Op("storm", 64, 2, count=3), Op("flush"),
               Op("read", 0), Op("read", 64))
        scenario = dataclasses.replace(generate_scenario("split+gcm", 2),
                                       ops=ops)
        result = run_scenario(scenario)
        assert result.outcome is FaultOutcome.CLEAN


class TestDifferentialChecks:
    def test_all_pairs_agree(self):
        results = run_differential_checks(0)
        assert len(results) == 6
        for check in results:
            assert check.passed, f"{check.name}: {check.detail}"

    def test_check_names_are_stable(self):
        names = {check.name for check in run_differential_checks(1)}
        assert names == {
            "aes-table-vs-scalar",
            "ghash-table-vs-bitwise",
            "batched-vs-scalar[split+gcm]",
            "split-vs-mono64-plaintext",
            "vector-vs-table-kernels",
            "batched-writeback-vs-model",
        }

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_vector_kernel_check_passes_seeded(self, seed):
        # Regression pin for the vector backend's oracle registration:
        # the check must exist and agree with the table kernels on the
        # seeds the fuzz harness replays.
        checks = {c.name: c for c in run_differential_checks(seed)}
        vector = checks["vector-vs-table-kernels"]
        assert vector.passed, vector.detail
