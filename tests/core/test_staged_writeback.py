"""Staged write-back: what a raise mid-batch keeps, and checkpoint safety.

A batch stages each dirty victim's counter work in eviction order and
seals the crypto, DRAM stores and leaf-MAC installs in one pass — but it
seals before every counter-block miss.  So when a mid-batch counter fetch
raises, every victim evicted before it is already in DRAM, exactly as on
the per-block path.
"""

import random

import pytest

from repro.auth.merkle import IntegrityViolation
from repro.core import SecureMemorySystem, split_gcm_config
from repro.testing.faults import AdversarialDRAM, FaultKind, FaultSpec

BLOCK = 64
SETS = 16                   # 1 KiB direct-mapped L2
PAGE = 64                   # data blocks per split counter block


def block_data(seed: int) -> bytes:
    return bytes((seed * 29 + i * 11) & 0xFF for i in range(BLOCK))


def make_system():
    holder = []

    def factory(**kwargs):
        holder.append(AdversarialDRAM(rng=random.Random(5), **kwargs))
        return holder[-1]

    # One-entry counter cache: every victim from another page misses.
    config = split_gcm_config(counter_cache_size=64, counter_cache_assoc=1)
    system = SecureMemorySystem(config, protected_bytes=64 * 1024,
                                l2_size=SETS * BLOCK, l2_assoc=1,
                                dram_factory=factory)
    device = holder[0]
    device.set_layout(system.protected_bytes, system._code_region_base,
                      device.size_bytes)
    return system, device


def stage_tampered_batch(batched: bool):
    """Run the scenario; returns (system, written model, victims)."""
    system, device = make_system()
    write = (system.write_blocks if batched else
             lambda pairs: [system.write_block(a, d) for a, d in pairs])
    far = (2 * PAGE + SETS - 1) * BLOCK          # page 2, last L2 set
    write([(far, block_data(1))])
    system.flush()                               # page 2's counters in DRAM
    victims = [i * BLOCK for i in range(1, SETS - 1)]
    model = {address: block_data(10 + n) for n, address in enumerate(victims)}
    write([(0, block_data(2)), *model.items(), (far, block_data(3))])
    # Evict block 0 so counter block 0 displaces counter block 2 on-chip.
    write([(SETS * BLOCK, block_data(4))])
    counter_block_2 = system.counter_cache.memory_address(2)
    event = device.fire_now(FaultSpec(FaultKind.BIT_FLIP,
                                      address=counter_block_2))
    assert event is not None
    # Blocks 17..30 evict the page-0 victims; the last fill evicts the
    # page-2 block, whose counter fetch hits the tampered counter block.
    refill = [((SETS + i) * BLOCK, block_data(50 + i))
              for i in range(1, SETS - 1)]
    refill.append(((3 * PAGE + SETS - 1) * BLOCK, block_data(99)))
    with pytest.raises(IntegrityViolation):
        write(refill)
    return system, model, victims


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "scalar"])
def test_raise_mid_batch_keeps_every_earlier_victim(batched):
    system, model, victims = stage_tampered_batch(batched)
    assert system._staged == []
    for address in victims:
        assert not system.l2.contains(address)   # evicted, so from DRAM
    assert system.read_blocks(victims) == [model[a] for a in victims]
    system.state_dict()                          # nothing left staged


def test_batch_and_scalar_lose_the_same_victims():
    batched, _, _ = stage_tampered_batch(True)
    scalar, _, _ = stage_tampered_batch(False)
    assert batched.dram.state_dict() == scalar.dram.state_dict()


def test_state_dict_refuses_staged_write_backs():
    system, _ = make_system()
    system._stage_write_back(0, block_data(7))
    with pytest.raises(RuntimeError, match="staged"):
        system.state_dict()
    system._seal()
    state = system.state_dict()
    assert 0 in state["materialized"]
