"""The benchmark stops every process it starts, and reports what it names.

Run from the repository root:

    python3 -m pytest membench/tests -q

Each run gets a unique environment tag.  Every process the benchmark
starts inherits it, so after the run any process still carrying the tag
is one the benchmark left behind, whatever its parent or session.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
TAG = "MEMBENCH_TEST_TAG"

sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402


def tagged(tag: str) -> list[int]:
    """Pids of live processes whose environment carries ``tag``."""
    needle = f"{TAG}={tag}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read().split(b"\0")
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ and state != "Z":
            found.append(int(entry))
    return found


class Bench:
    """One benchmark run in its own session, with a fresh tag."""

    def __init__(self, workload: str, seconds: float, seed: int = 1,
                 cwd: str = ROOT, trace: int = 0):
        self.tag = uuid.uuid4().hex
        env = dict(os.environ, **{TAG: self.tag})
        self.proc = subprocess.Popen(
            [sys.executable, "membench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)

    def wait(self, timeout: float = 170):
        out, err = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out, err

    def cleanup(self) -> None:
        for pid in tagged(self.tag):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def settle(tag: str, seconds: float = 5.0) -> list[int]:
    """Tagged pids still alive after ``seconds`` of grace for exits."""
    deadline = time.monotonic() + seconds
    while tagged(tag) and time.monotonic() < deadline:
        time.sleep(0.1)
    return tagged(tag)


@pytest.mark.parametrize("workload", ["figures", "serve-read",
                                      "serve-write"])
def test_short_run_reports_and_leaves_nothing(workload):
    bench = Bench(workload, seconds=2)
    try:
        code, out, err = bench.wait()
        assert code == 0, err
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert settle(bench.tag) == []
    finally:
        bench.cleanup()


@pytest.mark.parametrize("workload,idle", [
    ("figures", "crypto.ctr_calls"),
    ("serve-read", "sim.refs"),
    ("serve-write", "sim.refs"),
])
def test_traced_run_sees_its_layers(workload, idle):
    """Every required wrapper saw calls; a layer the workload does not
    use reads a measured zero."""
    import layers

    bench = Bench(workload, seconds=2, seed=3, trace=1)
    try:
        code, out, err = bench.wait()
        assert code == 0, err
        metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
        assert set(metrics) == set(run.PER_LAYER)
        family = "figures" if workload == "figures" else "serve"
        for group in layers.REQUIRED[family]:
            if f"{group}_s" in metrics:
                assert metrics[f"{group}_s"]["value"] > 0, group
        assert metrics[idle]["value"] == 0
        assert settle(bench.tag) == []
    finally:
        bench.cleanup()


def wait_for_service(tag: str, timeout: float = 60) -> None:
    """Block until a tagged service process is running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for pid in tagged(tag):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"serve_child.py" in handle.read():
                        return
            except OSError:
                continue
        time.sleep(0.05)
    raise AssertionError("the service never started")


@pytest.mark.parametrize("workload,signum", [
    ("serve-read", signal.SIGTERM),
    ("serve-write", signal.SIGINT),
    ("figures", signal.SIGTERM),
])
def test_signal_mid_phase_leaves_nothing(workload, signum):
    bench = Bench(workload, seconds=30, seed=5)
    try:
        if workload == "figures":
            time.sleep(3)
        else:
            wait_for_service(bench.tag)
            time.sleep(2)          # inside set-up or the fixed-rate phase
        bench.proc.send_signal(signum)
        code, out, _err = bench.wait(timeout=60)
        assert code == 128 + signum
        assert '"metrics"' not in out
        assert settle(bench.tag) == []
    finally:
        bench.cleanup()


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "membench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = Bench("figures", seconds=1, cwd=str(tmp_path))
    try:
        code, out, _err = bench.wait(timeout=60)
        assert code != 0
        assert out == ""
        assert settle(bench.tag) == []
    finally:
        bench.cleanup()


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "membench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == {"figures"} | set(
        run.SERVE)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
