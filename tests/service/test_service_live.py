"""End-to-end tests against a live in-process service instance.

Each test boots a real :class:`BroadcastService` on a loopback port and
talks actual HTTP over asyncio streams — the same wire path operators
use — then drains and proves the conservation ledger balanced.
"""

from __future__ import annotations

import asyncio
import json

from repro.core import HybridConfig
from repro.service import BroadcastService, ServiceConfig
from repro.service.http import WebSocketConnection, websocket_accept_key


async def raw_request(port: int, payload: bytes) -> tuple[int, dict[str, str], dict]:
    """Send raw bytes, return (status, headers, body) of the response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = json.loads(await reader.readexactly(length)) if length else {}
        return status, headers, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def post(port: int, payload: dict) -> tuple[int, dict[str, str], dict]:
    body = json.dumps(payload).encode()
    raw = (
        f"POST /request HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode() + body
    return await raw_request(port, raw)


async def get(port: int, path: str) -> tuple[int, dict[str, str], dict]:
    raw = f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode()
    return await raw_request(port, raw)


def quick_hybrid(**overrides) -> HybridConfig:
    # Zero bandwidth demand: admission never blocks, so functional tests
    # are deterministic.  The 502 path gets its own dedicated test.
    defaults = dict(num_items=20, cutoff=5, bandwidth_demand_mean=0.0)
    defaults.update(overrides)
    return HybridConfig(**defaults)


def quick_config(**overrides) -> ServiceConfig:
    defaults = dict(
        hybrid=quick_hybrid(),
        time_scale=0.005,
        ingress_capacity=16,
        brownout_window=0.05,
        drain_timeout=5.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_served_round_trip_and_probes() -> None:
    async def scenario():
        service = BroadcastService(quick_config())
        await service.start()
        try:
            status, _, body = await get(service.port, "/healthz")
            assert (status, body["state"]) == (200, "ready")
            status, _, body = await get(service.port, "/readyz")
            assert (status, body["ready"]) == (200, True)
            results = await asyncio.gather(
                *[post(service.port, {"item_id": i % 20, "class_rank": i % 3}) for i in range(8)]
            )
            for status, _, body in results:
                assert status == 200
                assert body["outcome"] == "served"
                assert body["delay"] >= 0
            status, _, metrics = await get(service.port, "/metrics")
            assert status == 200
            assert metrics["ledger"]["served"] == 8
            assert metrics["health"]["state"] == "ready"
            assert set(metrics["pool"]) == {"A", "B", "C"}
        finally:
            snapshot = await service.shutdown()
        assert snapshot.balance == 0 and snapshot.served == 8

    asyncio.run(scenario())


def test_error_paths_and_routing() -> None:
    async def scenario():
        service = BroadcastService(quick_config())
        await service.start()
        try:
            status, _, body = await get(service.port, "/nope")
            assert status == 404
            status, _, body = await get(service.port, "/request")
            assert status == 405
            status, _, body = await post(service.port, {"class_rank": 0})
            assert status == 400 and "item_id" in body["error"]
            status, _, body = await post(service.port, {"item_id": 999})
            assert status == 400 and "catalog" in body["error"]
            status, _, body = await post(service.port, {"item_id": 1, "class_rank": 7})
            assert status == 400
            status, _, body = await post(service.port, {"item_id": 1, "class_name": "Z"})
            assert status == 400 and "unknown class_name" in body["error"]
            raw = b"POST /request HTTP/1.1\r\nContent-Length: 7\r\nConnection: close\r\n\r\nnotjson"
            status, _, body = await raw_request(service.port, raw)
            assert status == 400 and "JSON" in body["error"]
        finally:
            snapshot = await service.shutdown()
        # The two in-range-but-invalid submissions were never admitted;
        # conservation covers them as terminal refusals or not at all.
        assert snapshot.balance == 0

    asyncio.run(scenario())


def test_malformed_fields_answer_400_and_keep_serving() -> None:
    """A non-integer client_id (or any unparsable field) is a 400, not a dropped connection."""

    async def scenario():
        service = BroadcastService(quick_config())
        await service.start()
        try:
            for bad in (
                {"item_id": 2, "client_id": "x"},
                {"item_id": 2, "client_id": None},
                {"item_id": 2, "client_id": [1]},
                {"item_id": 2, "class_rank": None},
                {"item_id": 2, "priority": "high"},
                {"item_id": None},
                {"item_id": float("inf")},
            ):
                status, _, body = await post(service.port, bad)
                assert status == 400, bad
                assert "integers" in body["error"], bad
            status, _, body = await post(service.port, {"item_id": 2, "client_id": 7})
            assert (status, body["outcome"]) == (200, "served")
        finally:
            snapshot = await service.shutdown()
        assert snapshot.balance == 0 and snapshot.submitted == 1

    asyncio.run(scenario())


def test_priority_must_be_finite_and_positive() -> None:
    """NaN, infinite, zero and negative priorities are refused before admission."""

    async def scenario():
        service = BroadcastService(quick_config())
        await service.start()
        try:
            for priority in (float("nan"), float("inf"), float("-inf"), 0.0, -2.0):
                status, _, body = await post(
                    service.port, {"item_id": 12, "class_rank": 0, "priority": priority}
                )
                assert status == 400, priority
                assert "priority must be finite and > 0" in body["error"]
            status, _, body = await post(
                service.port, {"item_id": 12, "class_rank": 0, "priority": 2.5}
            )
            assert (status, body["outcome"]) == (200, "served")
        finally:
            snapshot = await service.shutdown()
        assert snapshot.balance == 0 and snapshot.submitted == 1

    asyncio.run(scenario())


def test_class_name_is_accepted_as_alias_for_rank() -> None:
    async def scenario():
        service = BroadcastService(quick_config())
        await service.start()
        try:
            status, _, body = await post(
                service.port, {"item_id": 7, "class_name": "B"}
            )
            assert status == 200
        finally:
            snapshot = await service.shutdown()
        assert service.core.ledger.submitted_by_rank[1] == 1

    asyncio.run(scenario())


def test_deadline_expiry_is_504_and_booked_as_timed_out() -> None:
    async def scenario():
        # Slow channel (0.2 s per broadcast unit), millisecond budgets:
        # whichever pull request is still queued when its timer fires is
        # answered 504; the one on air is served.
        service = BroadcastService(
            quick_config(
                hybrid=quick_hybrid(cutoff=1),
                time_scale=0.2,
                class_deadlines=(0.05, 0.05, 0.05),
            )
        )
        await service.start()
        try:
            results = await asyncio.gather(
                post(service.port, {"item_id": 5, "class_rank": 0}),
                post(service.port, {"item_id": 9, "class_rank": 2}),
            )
        finally:
            snapshot = await service.shutdown()
        statuses = sorted(status for status, _, _ in results)
        assert 504 in statuses, statuses
        assert snapshot.timed_out >= 1
        assert snapshot.balance == 0

    asyncio.run(scenario())


def test_backpressure_is_429_with_retry_after() -> None:
    async def scenario():
        service = BroadcastService(
            quick_config(
                hybrid=quick_hybrid(cutoff=1),
                time_scale=0.05,
                ingress_capacity=2,
            )
        )
        await service.start()
        try:
            results = await asyncio.gather(
                *[post(service.port, {"item_id": 2 + i, "class_rank": 0}) for i in range(8)]
            )
        finally:
            snapshot = await service.shutdown()
        rejected = [
            (status, headers, body)
            for status, headers, body in results
            if status == 429
        ]
        assert rejected, "a 2-slot ingress queue must push back on 8 distinct items"
        for _, headers, body in rejected:
            assert int(headers["retry-after"]) >= 1
            assert body["outcome"] == "rejected"
            assert body["retry_after"] > 0
        assert snapshot.rejected == len(rejected)
        assert snapshot.balance == 0

    asyncio.run(scenario())


def test_folded_requests_share_an_entry_and_dodge_backpressure() -> None:
    async def scenario():
        service = BroadcastService(
            quick_config(
                hybrid=quick_hybrid(cutoff=1),
                time_scale=0.05,
                ingress_capacity=1,
            )
        )
        await service.start()
        try:
            # All ask for the same item: one queue entry, no rejections.
            results = await asyncio.gather(
                *[post(service.port, {"item_id": 7, "class_rank": r % 3}) for r in range(6)]
            )
        finally:
            snapshot = await service.shutdown()
        assert all(status == 200 for status, _, _ in results)
        assert snapshot.rejected == 0 and snapshot.served == 6

    asyncio.run(scenario())


def test_stream_websocket_delivers_hello_and_windows() -> None:
    async def scenario():
        service = BroadcastService(quick_config())
        await service.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            key = "dGhlIHNhbXBsZSBub25jZQ=="
            writer.write(
                (
                    "GET /stream HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n\r\n"
                ).encode()
            )
            await writer.drain()
            head = (await reader.readuntil(b"\r\n\r\n")).decode()
            assert head.startswith("HTTP/1.1 101")
            assert websocket_accept_key(key) in head
            ws = WebSocketConnection(reader, writer)

            async def read_server_frame():
                # Server frames are unmasked; reuse the codec's reader.
                opcode, payload = await ws.read_frame()
                assert opcode == WebSocketConnection.TEXT
                return json.loads(payload)

            hello = await asyncio.wait_for(read_server_frame(), 5)
            assert hello["kind"] == "hello"
            assert hello["classes"] == ["A", "B", "C"]
            window = await asyncio.wait_for(read_server_frame(), 5)
            assert window["kind"] == "window"
            assert {"occupancy", "brownout_level", "health"} <= set(window)
            writer.close()
        finally:
            await service.shutdown()

    asyncio.run(scenario())


def test_in_process_drain_resolves_every_pending_request() -> None:
    async def scenario():
        service = BroadcastService(
            quick_config(hybrid=quick_hybrid(cutoff=1), time_scale=0.08)
        )
        await service.start()
        posts = [
            asyncio.create_task(
                post(service.port, {"item_id": 2 + i, "class_rank": i % 3})
            )
            for i in range(6)
        ]
        await asyncio.sleep(0.05)  # let them reach the queue
        drain = asyncio.create_task(service.shutdown())
        await asyncio.sleep(0.05)
        # Mid-drain: readiness is already down, the listener still answers.
        status, _, body = await get(service.port, "/readyz")
        assert status == 503 and body["state"] == "draining"
        results = await asyncio.gather(*posts)
        snapshot = await drain
        assert all(status in (200, 502, 503, 504) for status, _, _ in results)
        assert snapshot.balance == 0
        assert snapshot.queued == 0 and snapshot.in_flight == 0
        # Nothing lost: every submission reached exactly one terminal outcome.
        assert snapshot.submitted == snapshot.terminal

    asyncio.run(scenario())


def test_bandwidth_blocking_is_502() -> None:
    async def scenario():
        # A demand mean far above every pool capacity: each pull entry
        # draws more bandwidth than its class reservation and is dropped
        # whole at admission, the simulator's blocking outcome.
        service = BroadcastService(
            quick_config(
                hybrid=quick_hybrid(cutoff=1, bandwidth_demand_mean=500.0),
                time_scale=0.02,
            )
        )
        await service.start()
        try:
            status, _, body = await post(service.port, {"item_id": 5, "class_rank": 2})
            assert status == 502
            assert body["outcome"] == "blocked"
        finally:
            snapshot = await service.shutdown()
        assert snapshot.blocked == 1 and snapshot.balance == 0

    asyncio.run(scenario())
