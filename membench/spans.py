"""Host-time spans recorded from outside the program.

Each layer is timed by replacing the public function its callers use with
a wrapper that counts calls, accumulates wall time and, optionally, a
size (blocks per call, references per call).  The wrapper is installed on
the name the *caller* looks up: ``repro.core.secure_memory`` imports
``ctr_transform`` by name, so the wrapper goes on that module's global,
not on ``repro.crypto.ctr``.

Wrappers of one group nest: ``MerkleTree.verify_leaves`` calls
``verify_leaf`` through the instance, so both land in ``auth.verify``.
Only the outermost call of a group adds time; inner calls still count.
A group is only ever entered from one thread (the service runs frame
decoding on its event loop and every shard call on the shard's executor
thread), so a plain depth counter is enough.
"""

from __future__ import annotations

import functools
import time

__all__ = ["Spans"]


class _Group:
    __slots__ = ("calls", "seconds", "size", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.size = 0
        self.depth = 0


class Spans:
    """Call counts, inclusive wall time and sizes per span group."""

    def __init__(self):
        self.groups: dict[str, _Group] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _group(self, name: str) -> _Group:
        stats = self.groups.get(name)
        if stats is None:
            stats = self.groups[name] = _Group()
        return stats

    def wrap(self, owner, attr: str, group, size=None, after=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``group`` is a group name, or ``group(args, kwargs)`` picking one
        per call.  ``size(args, kwargs)`` adds to the group's size per
        call; ``after(args, result)`` sees every result (the simulator
        spans use it to count simulated misses).
        """
        original = getattr(owner, attr)
        pick = group if callable(group) else None
        fixed = None if pick is not None else self._group(group)
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stats = fixed if pick is None else self._group(pick(args, kwargs))
            stats.calls += 1
            if size is not None:
                stats.size += size(args, kwargs)
            stats.depth += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                stats.depth -= 1
                if stats.depth == 0:
                    stats.seconds += clock() - start
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def add(self, group: str, amount: int) -> None:
        """Add to a group's size without a call (a count from a result)."""
        self._group(group).size += amount

    def calls(self, group: str) -> int:
        stats = self.groups.get(group)
        return stats.calls if stats is not None else 0

    def seconds(self, group: str) -> float:
        stats = self.groups.get(group)
        return stats.seconds if stats is not None else 0.0

    def size(self, group: str) -> int:
        stats = self.groups.get(group)
        return stats.size if stats is not None else 0

    def to_dict(self) -> dict:
        return {name: {"calls": g.calls, "seconds": g.seconds,
                       "size": g.size}
                for name, g in self.groups.items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "Spans":
        spans = cls()
        for name, entry in payload.items():
            stats = spans._group(name)
            stats.calls = entry["calls"]
            stats.seconds = entry["seconds"]
            stats.size = entry["size"]
        return spans

    def missing(self, required) -> list[str]:
        """Required groups whose wrappers saw no call."""
        return [group for group in required if self.calls(group) == 0]
