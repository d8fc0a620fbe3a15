"""The live broadcast service: HTTP front over :class:`SchedulerCore`.

:class:`BroadcastService` binds an asyncio TCP listener and routes:

============  ======  ====================================================
``/request``  POST    submit one request; blocks until its terminal
                      outcome (200 served, 429 backpressure + Retry-After,
                      503 brownout/drain, 504 deadline, 502 bandwidth)
``/healthz``  GET     liveness (500 only when FAILED)
``/readyz``   GET     readiness (200 only while accepting traffic)
``/metrics``  GET     ledger, brownout, pool, health history, windows
``/stream``   GET     WebSocket: live monitor windows as JSON frames
============  ======  ====================================================

Graceful shutdown (SIGTERM or :meth:`shutdown`) runs the documented
sequence: readiness flips to 503 *first* (DRAINING), queued and
in-flight requests finish (bounded by ``drain_timeout``), the listener
closes, the trace file is flushed, and the conservation ledger is
checked drained — a lost request raises before the process can exit 0.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Optional

from ..obs.recorder import TraceRecorder, write_trace
from .core import RequestOutcome, SchedulerCore
from .config import ServiceConfig
from .http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    WebSocketConnection,
    read_request,
    websocket_handshake_response,
)
from .ledger import LedgerSnapshot

__all__ = ["BroadcastService"]


class BroadcastService:
    """One service instance: core, listener, signal wiring.

    Parameters
    ----------
    config:
        Service configuration.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    trace_path:
        When given, the full obs trace is written there on shutdown so
        ``repro trace validate`` can audit the run.
    """

    def __init__(
        self,
        config: ServiceConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_path: Optional[str] = None,
    ) -> None:
        self.config = config
        self.host = host
        self.port = port
        self.trace_path = trace_path
        self.tracer = TraceRecorder()
        self.core = SchedulerCore(config, tracer=self.tracer)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._shutdown_done = False
        self.final_snapshot: Optional[LedgerSnapshot] = None

    # -- life-cycle -------------------------------------------------------------
    async def start(self) -> None:
        """Start the core loops and bind the listener."""
        await self.core.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> LedgerSnapshot:
        """Drain, close, flush the trace, prove conservation."""
        if self._shutdown_done:
            assert self.final_snapshot is not None
            return self.final_snapshot
        self._shutdown_done = True
        # DRAINING first: /readyz answers 503 while the listener is
        # still open, so balancers stop routing before we stop serving.
        await self.core.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.trace_path is not None:
            write_trace(self.tracer.trace(), self.trace_path)
        self.final_snapshot = self.core.ledger.check(drained=True)
        self._stop.set()
        return self.final_snapshot

    def request_stop(self) -> None:
        """Signal-safe shutdown trigger (SIGTERM/SIGINT handler)."""
        self._stop.set()

    async def serve_forever(self) -> LedgerSnapshot:
        """Run until SIGTERM/SIGINT (or :meth:`request_stop`), then drain."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await self._stop.wait()
        return await self.shutdown()

    # -- connection handling -----------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        HttpResponse(exc.status, {"error": exc.message}).encode()
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.path == "/stream" and request.wants_websocket():
                    await self._handle_stream(request, reader, writer)
                    break  # the connection is a websocket now; never HTTP again
                close = request.headers.get("connection", "").lower() == "close"
                response = await self._route(request)
                if close:
                    response.headers["Connection"] = "close"
                writer.write(response.encode())
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _route(self, request: HttpRequest) -> HttpResponse:
        handlers = {
            ("POST", "/request"): self._handle_request,
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/readyz"): self._handle_readyz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/control"): self._handle_control_status,
            ("POST", "/control/reset"): self._handle_control_reset,
            ("POST", "/control/kill"): self._handle_control_kill,
        }
        handler = handlers.get((request.method, request.path))
        if handler is None:
            known_paths = {path for _method, path in handlers} | {"/stream"}
            if request.path in known_paths:
                return HttpResponse(405, {"error": f"method {request.method} not allowed"})
            return HttpResponse(404, {"error": f"unknown path {request.path}"})
        try:
            return await handler(request)
        except HttpError as exc:
            return HttpResponse(exc.status, {"error": exc.message})

    # -- handlers -----------------------------------------------------------------
    async def _handle_request(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        if "item_id" not in payload:
            raise HttpError(400, "missing required field 'item_id'")
        priority = payload.get("priority")
        try:
            fields = dict(
                item_id=int(payload["item_id"]),
                class_rank=self._class_rank(payload),
                client_id=int(payload.get("client_id", 0)),
                priority=float(priority) if priority is not None else None,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise HttpError(
                400, f"item_id, class_rank, client_id need integers, priority a number: {exc}"
            ) from None
        try:
            outcome = await self.core.submit(**fields)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        return self._outcome_response(outcome)

    def _class_rank(self, payload: dict) -> int:
        """Accept ``class_rank`` (int) or ``class_name`` (e.g. ``"A"``)."""
        if "class_name" not in payload:
            return int(payload.get("class_rank", 0))
        names = self.config.hybrid.class_names()
        name = str(payload["class_name"])
        if name not in names:
            raise HttpError(400, f"unknown class_name {name!r}; known: {names}")
        return names.index(name)

    def _outcome_response(self, outcome: RequestOutcome) -> HttpResponse:
        headers = {}
        if outcome.retry_after is not None:
            # RFC 9110: Retry-After is integral seconds; keep the float
            # estimate in the JSON body.
            headers["Retry-After"] = str(max(1, round(outcome.retry_after)))
        return HttpResponse(outcome.http, outcome.body(), headers)

    async def _handle_healthz(self, request: HttpRequest) -> HttpResponse:
        status, body = self.core.health.healthz()
        return HttpResponse(status, body)

    async def _handle_readyz(self, request: HttpRequest) -> HttpResponse:
        status, body = self.core.health.readyz()
        return HttpResponse(status, body)

    async def _handle_metrics(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, self.core.metrics())

    # -- closed-loop control (docs/control.md) -----------------------------------
    def _control(self):
        if self.core.control is None:
            raise HttpError(
                404, "no SLO controller configured — start the service with --slo"
            )
        return self.core.control

    async def _handle_control_status(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(200, self._control().status())

    async def _handle_control_reset(self, request: HttpRequest) -> HttpResponse:
        """Operator re-arm of a degraded controller (audited as such)."""
        control = self._control()
        return HttpResponse(200, control.reset())

    async def _handle_control_kill(self, request: HttpRequest) -> HttpResponse:
        """Chaos hook: trip the stall watchdog as if the loop was killed."""
        control = self._control()
        decision = control.kill(self.core.clock.now())
        return HttpResponse(
            200,
            {
                "degraded": control.controller.degraded,
                "reason": decision.reason,
                "status": control.status(),
            },
        )

    async def _handle_stream(self, request: HttpRequest, reader, writer) -> None:
        """Upgrade to WebSocket and stream monitor windows until close."""
        key = request.headers.get("sec-websocket-key")
        if not key:
            writer.write(
                HttpResponse(400, {"error": "missing Sec-WebSocket-Key"}).encode()
            )
            await writer.drain()
            return
        writer.write(websocket_handshake_response(key))
        await writer.drain()
        ws = WebSocketConnection(reader, writer)
        feed = self.core.subscribe()
        try:
            await ws.send_json(
                {
                    "kind": "hello",
                    "window": self.config.brownout_window,
                    "classes": self.config.hybrid.class_names(),
                    "state": self.core.health.state.value,
                }
            )
            reader_task = asyncio.create_task(ws.read_frame())
            try:
                while True:
                    feed_task = asyncio.create_task(feed.get())
                    done, _pending = await asyncio.wait(
                        {reader_task, feed_task},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if reader_task in done:
                        feed_task.cancel()
                        try:
                            opcode, _payload = reader_task.result()
                        except ConnectionError:
                            return
                        if opcode == WebSocketConnection.CLOSE:
                            await ws.close()
                            return
                        reader_task = asyncio.create_task(ws.read_frame())
                        continue
                    window = feed_task.result()
                    await ws.send_json({"kind": "window", **window})
            finally:
                reader_task.cancel()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.core.unsubscribe(feed)
