"""Serve workloads: one service process, one open-loop generator.

The generator is this process.  It holds two connections, one tenant
each, and sends requests on a fixed schedule whatever the replies do
(open loop).  Each request names ``BLOCKS_PER_REQUEST`` uniform-random
blocks of its tenant's ``FOOTPRINT_BLOCKS``-block footprint; the footprint
is sixteen times the 4 KiB per-tenant L2, so most blocks miss and run the
fetch path (reads) or the dirty-eviction write-back (writes).

Latency is timed from when a request was *due*, so a stall of the
generator or the service is charged to every request it delays.  Every
read is checked against the generator's own record of what it last wrote
to each block; the service applies one tenant's requests in the order
they were sent, because each tenant has exactly one connection.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time

from common import BenchFailure, percentile
from repro.serve import ServeClient, ServeError

HERE = os.path.dirname(os.path.abspath(__file__))

L2_BYTES = 4096
TENANT_BYTES = 1 << 20
BLOCK = 64
FOOTPRINT_BLOCKS = 1024
BLOCKS_PER_REQUEST = 8
CONNECTIONS = 2
#: a fixed-rate phase whose outstanding requests exceed this cannot be
#: sustained; the cap stays far below the service's 256-op admission
#: queue, so the generator never provokes BUSY
BACKLOG_CAP = 64
#: per-request deadline; a reply later than this is a failed operation
REQUEST_TIMEOUT_S = 10.0
STOP_GRACE_S = 15.0


class Service:
    """The service child, in its own session so its group can be killed."""

    def __init__(self, workdir: str, trace: bool):
        # stderr goes to a file: a pipe nobody reads could fill and stall
        # the service
        self.stderr = tempfile.TemporaryFile("w+", dir=workdir)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_child.py"),
             "--parent", str(os.getpid()), "--trace", str(int(trace)),
             "--l2-size", str(L2_BYTES), "--tenant-bytes",
             str(TENANT_BYTES)],
            cwd=workdir, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self.stderr, start_new_session=True, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchFailure("service exited before listening")
        self.port = json.loads(line)["port"]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> dict:
        """SIGINT, drain, and return the span totals it printed."""
        self.proc.send_signal(signal.SIGINT)
        try:
            out, _err = self.proc.communicate(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            self.close()
            raise BenchFailure("service did not drain on SIGINT") from None
        if self.proc.returncode != 0:
            self.stderr.seek(0)
            raise BenchFailure(f"service exited {self.proc.returncode}: "
                               f"{self.stderr.read()[-2000:]}")
        return json.loads(out.splitlines()[-1])["spans"]

    def close(self) -> None:
        """Kill the service's process group unless it has ended; reap it."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.communicate()
        self.stderr.close()


class Phase:
    """Latencies of an open-loop phase, which may span several runs."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.late_ms: list[float] = []
        self.backlog_grew = False

    def p(self, fraction: float) -> float:
        return percentile(self.latencies_ms, fraction)


class Generator:
    """Two tenants on two pipelined connections, driven open loop."""

    def __init__(self, port: int, seed: int, read_fraction: float):
        self.port = port
        self.read_fraction = read_fraction
        self.rng = random.Random(f"serve:{seed}")
        self.clients: list[ServeClient] = []
        self.tenants: list[tuple[str, str]] = []
        self.record: list[list[bytes]] = []
        self.attempted = 0
        self.failed = 0

    async def open(self) -> None:
        """Open one tenant per connection and write its whole footprint."""
        for index in range(CONNECTIONS):
            client = ServeClient("127.0.0.1", self.port,
                                 timeout=REQUEST_TIMEOUT_S)
            await client.connect()
            self.clients.append(client)
            name = f"bench-{index}"
            reply = await client.open_tenant(name)
            self.tenants.append((name, reply["token"]))
            blocks = [self.rng.randbytes(BLOCK)
                      for _ in range(FOOTPRINT_BLOCKS)]
            self.record.append(blocks)
            for start in range(0, FOOTPRINT_BLOCKS, 256):
                self.attempted += 1
                await client.write(name, reply["token"], [
                    (block * BLOCK, blocks[block])
                    for block in range(start, start + 256)])

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def layer_counts(self) -> dict:
        """Serve ``stats`` plus the tenants' summed core metrics."""
        stats = (await self.clients[0].stats())["metrics"]
        core: dict[str, int] = {}
        for client, (name, token) in zip(self.clients, self.tenants):
            reply = await client.metrics(name, token)
            for key, value in reply["aggregate"].items():
                core[key] = core.get(key, 0) + value
        return stats, core

    def _next_request(self, index: int):
        """The index-th request: (connection, is_read, blocks, data)."""
        conn = index % CONNECTIONS
        blocks = [self.rng.randrange(FOOTPRINT_BLOCKS)
                  for _ in range(BLOCKS_PER_REQUEST)]
        if self.rng.random() < self.read_fraction:
            return conn, True, blocks, None
        return conn, False, blocks, [self.rng.randbytes(BLOCK)
                                     for _ in blocks]

    async def _one(self, phase: Phase, due: float, conn: int,
                   is_read: bool, blocks: list[int], data) -> None:
        client = self.clients[conn]
        name, token = self.tenants[conn]
        addresses = [block * BLOCK for block in blocks]
        self.attempted += 1
        try:
            if is_read:
                # the service applies this tenant's requests in send
                # order, so the expected bytes are fixed right now
                expected = [self.record[conn][block] for block in blocks]
                got = await client.read(name, token, addresses)
                if got != expected:
                    self.failed += 1
            else:
                for block, payload in zip(blocks, data):
                    self.record[conn][block] = payload
                await client.write(name, token,
                                   list(zip(addresses, data)))
        except (ServeError, ConnectionError):
            self.failed += 1
        phase.latencies_ms.append((time.perf_counter() - due) * 1e3)

    async def run(self, phase: Phase, rate: float, count: int) -> None:
        """Send ``count`` requests at ``rate`` per second; await replies.

        Stops sending early, and marks the phase, when the backlog passes
        ``BACKLOG_CAP``: the service cannot sustain that rate.
        """
        tasks: set[asyncio.Task] = set()
        start = time.perf_counter() + 0.005
        for index in range(count):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late_ms.append((time.perf_counter() - due) * 1e3)
            if len(tasks) > BACKLOG_CAP:
                phase.backlog_grew = True
                break
            task = asyncio.ensure_future(
                self._one(phase, due, *self._next_request(index)))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)

    async def saturate(self, in_flight: int, seconds: float) -> int:
        """Closed loop: ``in_flight`` requests outstanding for ``seconds``.

        Returns the number of requests completed.
        """
        phase = Phase()
        counter = itertools.count()
        stop = time.perf_counter() + seconds

        async def client_loop() -> None:
            while time.perf_counter() < stop:
                await self._one(phase, time.perf_counter(),
                                *self._next_request(next(counter)))

        await asyncio.gather(*[client_loop() for _ in range(in_flight)])
        return len(phase.latencies_ms)
