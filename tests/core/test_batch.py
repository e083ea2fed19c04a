"""Batch reads/writes must be byte-equivalent to the scalar loop.

``read_blocks``/``write_blocks`` reorder work internally (counter-block
grouping, bulk pad generation, Merkle ancestor sharing), so these tests
drive a batched system and a scalar system through identical operation
sequences and require identical observable values — including when a
minor-counter overflow forces a page re-encryption in the middle of a
batch, and when a tiny L2 forces dirty evictions between batch items.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SecureMemorySystem,
    direct_config,
    mono_config,
    split_config,
    split_gcm_config,
    split_sha_config,
)

REGION = 32 * 64  # 32 cache blocks
ADDRESSES = [i * 64 for i in range(REGION // 64)]


def make_pair(config, **kwargs):
    kwargs.setdefault("protected_bytes", REGION)
    kwargs.setdefault("l2_size", 1024)  # tiny: evictions mid-batch
    kwargs.setdefault("l2_assoc", 2)
    return (SecureMemorySystem(config, **kwargs),
            SecureMemorySystem(config, **kwargs))


def block_data(seed: int) -> bytes:
    return bytes((seed * 31 + i * 7) & 0xFF for i in range(64))


# a "round" is (writes, reads): writes may repeat addresses (last wins),
# reads may repeat addresses (all aliases must return the same bytes)
round_strategy = st.tuples(
    st.lists(st.tuples(st.integers(0, len(ADDRESSES) - 1),
                       st.integers(0, 255)), max_size=12),
    st.lists(st.integers(0, len(ADDRESSES) - 1), max_size=12),
)


def run_rounds(config, rounds, **kwargs):
    scalar, batched = make_pair(config, **kwargs)
    for writes, reads in rounds:
        pairs = [(ADDRESSES[i], block_data(seed)) for i, seed in writes]
        for address, data in pairs:
            scalar.write_block(address, data)
        batched.write_blocks(pairs)
        read_addrs = [ADDRESSES[i] for i in reads]
        scalar_values = [scalar.read_block(a) for a in read_addrs]
        assert batched.read_blocks(read_addrs) == scalar_values
    # final off-chip state must agree too
    scalar.flush()
    batched.flush()
    for address in ADDRESSES:
        assert batched.read_block(address) == scalar.read_block(address)
    return batched


CONFIGS = [
    split_config(),
    split_gcm_config(),
    split_sha_config(),
    mono_config(8),
    direct_config(),
]


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    @settings(max_examples=15, deadline=None)
    @given(rounds=st.lists(round_strategy, min_size=1, max_size=6))
    def test_property_shuffled_rounds(self, config, rounds):
        run_rounds(config, rounds)

    def test_duplicate_reads_alias_one_fetch(self):
        _, batched = make_pair(split_gcm_config())
        zeros = bytes(64)
        # an untouched block is a guaranteed miss; duplicates must alias it
        assert batched.read_blocks([320, 320, 320]) == [zeros, zeros, zeros]
        assert batched.l2.stats.misses == 1
        assert batched.l2.stats.hits == 0

    def test_duplicate_writes_last_wins(self):
        _, batched = make_pair(split_gcm_config())
        batched.write_blocks([(0, block_data(1)), (0, block_data(2)),
                              (64, block_data(3)), (0, block_data(4))])
        assert batched.read_block(0) == block_data(4)
        assert batched.read_block(64) == block_data(3)

    def test_empty_batches(self):
        _, batched = make_pair(split_config())
        assert batched.read_blocks([]) == []
        batched.write_blocks([])  # must not raise


class TestOverflowMidBatch:
    """minor_bits=2 overflows after four writes: page re-encryption must
    fire inside a batch without breaking equivalence."""

    def test_reencryption_triggered_and_equivalent(self):
        config = split_config(minor_bits=1)
        # cycle writes over 24 blocks through an 8-block L2 so every round
        # forces write-backs, each of which bumps a 1-bit minor counter
        rounds = [
            ([(i, r * 24 + i) for i in range(24)], list(range(0, 24, 3)))
            for r in range(8)
        ]
        batched = run_rounds(config, rounds, l2_size=512)
        assert batched.stats.reencryption.page_reencryptions > 0

    @settings(max_examples=10, deadline=None)
    @given(rounds=st.lists(round_strategy, min_size=2, max_size=5))
    def test_property_with_tiny_minor_counters(self, rounds):
        run_rounds(split_config(minor_bits=1), rounds)


class TestTinyNodeCacheBatchStream:
    """A displaced Merkle node must never be read as a stale copy.

    With 1 KiB 2-way counter and node caches, installing a node can start
    an eviction cascade that re-fetches the same node, posts a child MAC
    into the new copy and writes it back.  Reading a child MAC from the
    first, displaced copy then raised a false ``IntegrityViolation`` at
    step 120 of this stream (no tampering anywhere).
    """

    def test_scattered_stream_has_no_false_violation(self):
        from repro.core.config import PRESETS

        config = PRESETS["scattered"].with_updates(
            counter_cache_size=1024, counter_cache_assoc=2,
            node_cache_size=1024, node_cache_assoc=2)
        system = SecureMemorySystem(config, protected_bytes=256 * 1024,
                                    l2_size=2048, l2_assoc=4)
        rng = random.Random("scattered:True")
        model: dict[int, bytes] = {}
        for _ in range(300):
            count = rng.choice((1, 8, 16))
            addresses = [rng.randrange(system.num_data_blocks) * 64
                         for _ in range(count)]
            if rng.random() < 0.3:
                expected = [model.get(a, bytes(64)) for a in addresses]
                assert system.read_blocks(addresses) == expected
            else:
                pairs = [(a, rng.randbytes(64)) for a in addresses]
                system.write_blocks(pairs)
                model.update(pairs)
        assert system.integrity_violations == 0
