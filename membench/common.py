"""Helpers shared by the workloads: failures, percentiles, /proc reads."""

from __future__ import annotations

import os
import signal


class BenchFailure(RuntimeError):
    """The benchmark cannot produce a valid result."""


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; ``inf`` when there are no samples."""
    if not values:
        return float("inf")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue        # the process ended while we looked
        if parent == pid:
            found.append(int(entry))
    return found


def reap_children() -> None:
    """Kill and reap any child of this process that is still there."""
    for pid in children(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
