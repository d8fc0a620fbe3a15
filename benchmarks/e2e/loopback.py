"""The ``serve-loopback`` workload: ``repro serve`` under a keep-alive client.

The server runs as a child process on 127.0.0.1 with its defaults (50
items, K=15, default bandwidth) except two flags: ``--time-scale 1e-6``
makes modelled air time negligible next to host work, and a huge
``--ingress-capacity`` keeps backpressure from ever firing.

This process is the one client.  It holds ``nproc`` keep-alive
connections and sends request bodies pre-encoded from
``repro.service.loadgen.build_plan(seed)``, built with the server's own
``HybridConfig``.  Keep-alive, unlike ``repro loadgen``'s connection per
request, keeps the kernel's connection set-up and teardown from
dominating what is measured.

* Warm-up: ``WARMUP_REQUESTS`` closed-loop requests, in no metric.
* Phase A: closed loop on every connection for a fixed number of
  requests, timed.
* Phase B: open loop at ``PHASE_B_RATE`` requests per second with
  Poisson gaps.  Each request is timed from when it was due, waits for a
  free connection, and the client records how late it was sent.

The request count of every phase depends only on the seed and
``--seconds``, never on how fast the server answers, so neither does the
size of the server's in-memory trace and so its peak RSS.

Host-side reads of ``/proc`` happen between phases, outside the event
loop.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.core import HybridConfig
from repro.service.config import LoadGenConfig
from repro.service.loadgen import build_plan

#: ``repro serve`` defaults, which the plan must match.
SERVE_ITEMS = 50
SERVE_CUTOFF = 15
TIME_SCALE = 1e-6
INGRESS_CAPACITY = 10_000_000

WARMUP_REQUESTS = 2_000
#: Rounds of phase A then phase B in one run.
ROUNDS = 3
#: Share of ``--seconds`` meant for phase A; phase B gets the rest.
PHASE_A_SHARE = 0.4
#: Phase A sends this many requests per second of its share, about its
#: closed-loop throughput on a 2-core host; it takes as long as it takes.
PHASE_A_RATE = 2_400.0
#: About a fifth of phase A's closed-loop throughput on a 2-core host.
PHASE_B_RATE = 500.0
#: Phase-A verdicts per ``wall_s`` batch.
BATCH = 1_000
#: Distinct pre-encoded requests; the client cycles through them.
PLAN_REQUESTS = 40_000

#: Verdicts that count as a completed operation: served, or blocked by
#: the paper's bandwidth admission.
OK_STATUSES = (200, 502)

STARTUP_TIMEOUT_S = 120.0
PHASE_SLACK_S = 60.0


def server_command(python: str, seed: int, launcher: Optional[list[str]] = None) -> list[str]:
    """``repro serve`` with the benchmark's flags, or ``launcher`` given them."""
    flags = [
        "--host", "127.0.0.1",
        "--port", "0",
        "--items", str(SERVE_ITEMS),
        "--cutoff", str(SERVE_CUTOFF),
        "--time-scale", repr(TIME_SCALE),
        "--ingress-capacity", str(INGRESS_CAPACITY),
        "--seed", str(seed),
    ]
    if launcher is None:
        return [python, "-m", "repro", "serve", *flags]
    return [python, *launcher, *flags]


class Server:
    """One ``repro serve`` child; ``setup_s`` runs from spawn to first answer."""

    def __init__(self, command: list[str], env: dict[str, str], cwd: Path, log: Path) -> None:
        self.spawned_at = time.monotonic()
        with log.open("ab") as stderr:
            self.proc = subprocess.Popen(
                command, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=stderr
            )
        try:
            self.port = self._await_listening()
            self._await_answer()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.monotonic() - self.spawned_at

    def _await_listening(self) -> int:
        deadline = self.spawned_at + STARTUP_TIMEOUT_S
        stdout = self.proc.stdout
        while stdout is not None and time.monotonic() < deadline:
            readable, _, _ = select.select([stdout], [], [], 1.0)
            if not readable:
                if self.proc.poll() is not None:
                    break
                continue
            line = stdout.readline()
            if not line:
                break
            event = json.loads(line)
            if event.get("event") == "listening":
                self.listening_at = time.monotonic()
                return int(event["port"])
        raise RuntimeError("repro serve exited or never reported listening")

    def _await_answer(self) -> None:
        probe = b"GET /readyz HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as conn:
            conn.sendall(probe)
            head = conn.recv(64)
        if not head.startswith(b"HTTP/1.1 200"):
            raise RuntimeError(f"repro serve not ready: {head!r}")

    def cpu_s(self) -> float:
        """utime + stime of the server process so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> tuple[int, Optional[dict[str, Any]]]:
        """SIGTERM, wait for the drain; returns (exit code, drained ledger)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=PHASE_SLACK_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return self.proc.returncode, None
        ledger = None
        for line in out.decode().splitlines():
            event = json.loads(line)
            if event.get("event") == "drained":
                ledger = event["ledger"]
        return self.proc.returncode, ledger


def encoded_plan(seed: int) -> list[bytes]:
    """The loadgen plan for ``seed`` as ready-to-send HTTP requests."""
    hybrid = HybridConfig(num_items=SERVE_ITEMS, cutoff=SERVE_CUTOFF)
    rate = 1_000.0
    plan = build_plan(
        hybrid, LoadGenConfig(seed=seed, rate=rate, duration=PLAN_REQUESTS / rate)
    )
    payloads = []
    for request in plan:
        body = json.dumps(
            {
                "item_id": request.item_id,
                "class_rank": request.class_rank,
                "client_id": request.client_id,
                "priority": request.priority,
            }
        ).encode()
        head = (
            "POST /request HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        payloads.append(head.encode() + body)
    return payloads


class Client:
    """``connections`` keep-alive connections cycling through ``payloads``."""

    def __init__(self, port: int, payloads: list[bytes], connections: int) -> None:
        self.port = port
        self.payloads = payloads
        self.connections = connections
        self.streams: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.sent = 0
        self.statuses: dict[int, int] = {}

    async def connect(self) -> None:
        for _ in range(self.connections):
            self.streams.append(await asyncio.open_connection("127.0.0.1", self.port))

    async def close(self) -> None:
        for _, writer in self.streams:
            writer.close()
            await writer.wait_closed()

    async def _exchange(self, stream: tuple[asyncio.StreamReader, asyncio.StreamWriter]) -> int:
        reader, writer = stream
        payload = self.payloads[self.sent % len(self.payloads)]
        self.sent += 1
        writer.write(payload)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n"):
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        await reader.readexactly(length)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        return status

    async def closed_loop(self, count: int) -> list[float]:
        """Send ``count`` requests back to back; returns when each completed."""
        loop = asyncio.get_running_loop()
        done: list[float] = []
        budget = [count]

        async def worker(stream: tuple[asyncio.StreamReader, asyncio.StreamWriter]) -> None:
            while budget[0] > 0:
                budget[0] -= 1
                await self._exchange(stream)
                done.append(loop.time())

        await asyncio.gather(*(worker(stream) for stream in self.streams))
        return done

    async def open_loop(self, offsets: np.ndarray) -> tuple[list[float], list[float]]:
        """Send request ``i`` at ``start + offsets[i]`` on the first free connection."""
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.05
        latencies: list[float] = []
        lags: list[float] = []
        cursor = [0]

        async def worker(stream: tuple[asyncio.StreamReader, asyncio.StreamWriter]) -> None:
            while cursor[0] < len(offsets):
                due = start + float(offsets[cursor[0]])
                cursor[0] += 1
                wait = due - loop.time()
                if wait > 0:
                    await asyncio.sleep(wait)
                lags.append(loop.time() - due)
                await self._exchange(stream)
                latencies.append(loop.time() - due)

        await asyncio.gather(*(worker(stream) for stream in self.streams))
        return latencies, lags


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Due times (seconds from phase start) of a rate-``rate`` Poisson stream."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def drive(server: Server, seed: int, seconds: float, connections: int) -> dict[str, Any]:
    """Warm-up, then ``ROUNDS`` rounds of phase A and phase B; no shutdown.

    Splitting the phases into rounds spread over the run, and reporting
    the median round, keeps a burst of host slowness from moving a whole
    phase.
    """
    client = Client(server.port, encoded_plan(seed), connections)
    planned_a_s = PHASE_A_SHARE * seconds / ROUNDS
    phase_a_requests = max(1, round(PHASE_A_RATE * planned_a_s))
    phase_b_s = (1.0 - PHASE_A_SHARE) * seconds / ROUNDS
    # build_plan draws from the first three children of SeedSequence(seed).
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
    rounds = []
    loop = asyncio.new_event_loop()
    try:
        run = loop.run_until_complete
        run(asyncio.wait_for(client.connect(), PHASE_SLACK_S))
        run(asyncio.wait_for(client.closed_loop(WARMUP_REQUESTS), PHASE_SLACK_S))
        warm_statuses = dict(client.statuses)
        for _ in range(ROUNDS):
            cpu_before = server.cpu_s()
            began = loop.time()
            done = run(asyncio.wait_for(
                client.closed_loop(phase_a_requests), planned_a_s + PHASE_SLACK_S
            ))
            one = {
                "verdicts": len(done),
                "phase_a_s": done[-1] - began,
                "cpu_a_s": server.cpu_s() - cpu_before,
            }
            offsets = poisson_offsets(rng, PHASE_B_RATE, phase_b_s)
            one["latency_s"], one["lag_s"] = run(asyncio.wait_for(
                client.open_loop(offsets), phase_b_s + PHASE_SLACK_S
            ))
            rounds.append(one)
        peak_rss_mb = server.peak_rss_mb()
        run(client.close())
    finally:
        loop.close()
    measured = {
        status: count - warm_statuses.get(status, 0)
        for status, count in sorted(client.statuses.items())
    }
    return {
        "sent": client.sent,
        "statuses": client.statuses,
        "measured_statuses": measured,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
    }


def ledger_problems(exit_code: int, ledger: Optional[dict[str, Any]], sent: int) -> list[str]:
    """Why the server's final drain does not prove the run; empty if it does."""
    if ledger is None:
        return [f"no drained ledger (exit {exit_code})"]
    problems = []
    if exit_code != 0:
        problems.append(f"repro serve exited {exit_code}")
    if ledger["balance"] != 0 or ledger["queued"] or ledger["in_flight"]:
        problems.append(f"ledger does not balance: {ledger}")
    if ledger["submitted"] != sent:
        problems.append(f"server saw {ledger['submitted']} submissions, client sent {sent}")
    return problems
