"""Golden state digests of the functional system under a batched stream.

Every registered preset, with its default caches and with 1 KiB 2-way
counter and node caches, replays one seeded stream of ``read_blocks`` /
``write_blocks`` / ``flush`` calls followed by a hammer phase that drives
one block through counter overflow inside write batches.  The test pins,
bit for bit: the DRAM blocks and DRAM stats, the counter-scheme state,
the Merkle state (derivative counters, written-node set, root register,
node cache), the L2, ``SecureMemoryStats``, the metrics snapshot and
every value read.  Any change to the order or content of the crypto,
counter or tree work behind the batch API shows up as a digest diff.

Regenerate after a *deliberate* behaviour change with::

    PYTHONPATH=src python tests/core/test_state_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.core.config import PRESETS
from repro.core.secure_memory import SecureMemorySystem

FIXTURE = Path(__file__).with_name("golden") / "state_digests.json"

PROTECTED_BYTES = 256 * 1024
L2_SIZE = 2048
L2_ASSOC = 4
STREAM_STEPS = 150
HAMMER_STEPS = 260      # past a 7-bit minor and an 8-bit counter
TINY = {"counter_cache_size": 1024, "counter_cache_assoc": 2,
        "node_cache_size": 1024, "node_cache_assoc": 2}
VARIANTS = ("default", "tiny")


def make_system(preset: str, variant: str) -> SecureMemorySystem:
    config = PRESETS[preset]
    if variant == "tiny":
        config = config.with_updates(**TINY)
    return SecureMemorySystem(config, protected_bytes=PROTECTED_BYTES,
                              l2_size=L2_SIZE, l2_assoc=L2_ASSOC)


def drive(system: SecureMemorySystem, seed: str) -> list[bytes]:
    """Replay the pinned stream; returns every value read, in order."""
    rng = random.Random(seed)
    block = system.block_size
    blocks = system.num_data_blocks
    hot = 0
    reads: list[bytes] = []
    for _ in range(STREAM_STEPS):
        roll = rng.random()
        if roll < 0.1:
            system.flush()
            continue
        count = rng.choice((1, 8, 16))
        addresses = [hot if rng.random() < 0.2
                     else rng.randrange(blocks) * block
                     for _ in range(count)]
        if roll < 0.4:
            reads.extend(system.read_blocks(addresses))
        else:
            system.write_blocks([(address, rng.randbytes(block))
                                 for address in addresses])
    # Hammer: the hot block plus four blocks of its L2 set, so every batch
    # evicts the hot block dirty next to other victims until its counter
    # overflows mid-batch (page re-encryption for split counters, full
    # re-encryption for 8-bit monolithic ones).
    stride = block * (L2_SIZE // (block * L2_ASSOC))
    for step in range(HAMMER_STEPS):
        conflicts = [stride * (1 + (step * 4 + k) % 24) for k in range(4)]
        extra = [rng.randrange(blocks) * block for _ in range(2)]
        system.write_blocks([(address, rng.randbytes(block))
                             for address in [hot, *conflicts, *extra]])
        if step % 16 == 15:
            reads.extend(system.read_blocks([hot, *extra]))
    system.flush()
    reads.extend(system.read_blocks([hot, stride, 2 * stride]))
    return reads


def _canonical(value):
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)] for k, v in
                sorted(value.items(), key=lambda item: repr(item[0]))]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _digest(value) -> str:
    text = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def compute_case(preset: str, variant: str) -> dict:
    system = make_system(preset, variant)
    reads = drive(system, f"{preset}:{variant}")
    state = system.state_dict()
    dram = state["dram"]
    return {
        "dram_blocks": _digest(dram["blocks"]),
        "dram_stats": dram["stats"],
        "scheme": _digest(state.get("scheme")),
        "merkle": _digest(state.get("merkle")),
        "l2": _digest(state["l2"]),
        "counter_cache": _digest(state.get("counter_cache")),
        "system": _digest({k: v for k, v in state.items()
                           if k not in ("dram", "scheme", "merkle", "l2",
                                        "counter_cache")}),
        "metrics": _digest(system.metrics.snapshot()),
        "reads": _digest(reads),
        "writes": system.stats.writes,
        "page_reencryptions":
            system.stats.reencryption.page_reencryptions,
        "full_reencryptions":
            system.stats.reencryption.full_reencryptions,
    }


CASES = [(preset, variant) for preset in PRESETS for variant in VARIANTS]


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("preset,variant", CASES,
                         ids=[f"{p}-{v}" for p, v in CASES])
def test_state_digest(preset, variant):
    expected = _load().get(f"{preset}/{variant}")
    assert expected is not None, f"no pinned digest for {preset}/{variant}"
    assert compute_case(preset, variant) == expected


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    out = {}
    for preset, variant in CASES:
        key = f"{preset}/{variant}"
        try:
            out[key] = compute_case(preset, variant)
        except Exception as exc:                 # reported, never pinned
            print(f"{key}: not pinned ({type(exc).__name__}: {exc})")
            continue
        print(f"{key}: {out[key]['dram_blocks']}")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
