"""The HTTP/1.1 gateway: ``asyncio.start_server`` front for any backend.

:class:`HttpGateway` puts a socket in front of the serving stack.  It is
transport only — no prediction logic lives here.  A connection is handled as:

1. **parse** — request line, headers (bounded by ``max_header_bytes``), body
   by ``Content-Length`` (bounded by ``max_body_bytes``; 413 beyond).  The
   monotonic instant the header block finishes parsing is stamped on the
   request context: it is the origin of the ``X-Deadline-Ms`` budget clock.
   A client that disconnects mid-body never reaches a handler — the
   connection is dropped and counted, no model work happens;
2. **middleware chain** — request-id, deadline, auth stub, admission gate
   (see :mod:`repro.serving.http.middleware`); then the router
   (:mod:`repro.serving.http.routes`);
3. **answer** — JSON body, ``X-Request-Id`` echo, keep-alive per HTTP/1.1
   defaults (``Connection: close`` honoured, HTTP/1.0 closes).

The gateway fronts *any* server satisfying the serving surface — in
practice a :class:`~repro.serving.server.PredictionServer` — because it only
uses ``submit_request`` (thread-safe, future-returning), ``snapshot`` and
the attached registry.  The gateway owns a private event loop on a daemon
thread, so ``start()``/``close()`` compose with any caller, and one process
can host several gateways.

Example::

    from repro.serving import PredictionServer
    from repro.serving.http import GatewayConfig, HttpGateway

    with PredictionServer(model) as server:
        with HttpGateway(server, config=GatewayConfig(port=0)) as gateway:
            print(gateway.url)          # http://127.0.0.1:<bound port>
            ...                         # serve until closed
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qsl, unquote

from repro.exceptions import InvalidParameterError, ServingError
from repro.serving.http.middleware import (
    InflightGauge,
    Middleware,
    RequestContext,
    Response,
    admission_middleware,
    allow_all_authenticator,
    auth_middleware,
    compose,
    deadline_middleware,
    error_response,
    request_id_middleware,
)
from repro.serving.http.routes import build_router
from repro.serving.http.schemas import GatewayHttpError

__all__ = ["GatewayConfig", "HttpGateway"]

#: Bound on how long close() waits for the loop thread / open connections.
_CLOSE_TIMEOUT_S = 10.0

_SUPPORTED_VERSIONS = {"HTTP/1.0", "HTTP/1.1"}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs of an :class:`HttpGateway`.

    Attributes
    ----------
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port (tests); the
        actual port is readable from :attr:`HttpGateway.port` after
        :meth:`HttpGateway.start`.
    max_header_bytes / max_body_bytes:
        Caps on the request head and body.  Oversized bodies answer 413
        with the body unread; oversized heads answer 431 and close.
    max_inflight:
        Concurrent requests admitted past the admission middleware; beyond
        it requests shed fast with 503 ``overloaded``.
    keep_alive:
        Whether HTTP/1.1 connections persist between requests.
    idle_timeout_s:
        How long a keep-alive connection may sit idle between requests
        before the gateway closes it.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_header_bytes: int = 16_384
    max_body_bytes: int = 16 * 1024 * 1024
    max_inflight: int = 256
    keep_alive: bool = True
    idle_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65_535:
            raise InvalidParameterError("port must be within [0, 65535]")
        if self.max_header_bytes < 512:
            raise InvalidParameterError("max_header_bytes must be >= 512")
        if self.max_body_bytes < 1:
            raise InvalidParameterError("max_body_bytes must be >= 1")
        if self.max_inflight < 1:
            raise InvalidParameterError("max_inflight must be >= 1")
        if self.idle_timeout_s <= 0.0:
            raise InvalidParameterError("idle_timeout_s must be > 0")


class HttpGateway:
    """HTTP/1.1 JSON gateway in front of a prediction server.

    Parameters
    ----------
    server:
        Any serving backend exposing ``submit_request`` / ``snapshot`` and
        carrying ``registry`` / ``model_name`` / ``telemetry`` attributes
        (both stock servers do).
    config:
        :class:`GatewayConfig`; defaults bind ``127.0.0.1:8080``.
    authenticator:
        The auth stub hook: ``authenticator(ctx) -> principal | None``;
        ``None`` rejects with 401.  Defaults to admit-all.
    middlewares:
        Extra middlewares, run *inside* the built-ins (after request-id,
        deadline, auth and admission; before the router).
    """

    def __init__(
        self,
        server: Any,
        *,
        config: GatewayConfig | None = None,
        authenticator: Any = allow_all_authenticator,
        middlewares: list[Middleware] | None = None,
    ) -> None:
        for attribute in ("submit_request", "snapshot", "registry", "model_name", "telemetry"):
            if not hasattr(server, attribute):
                raise InvalidParameterError(
                    f"gateway backend {type(server).__name__} lacks {attribute!r}; "
                    "expected a PredictionServer-shaped object"
                )
        self.server = server
        self.registry = server.registry
        self.model_name = server.model_name
        #: The backend's telemetry accumulator; gateway-side sheds (e.g. a
        #: request whose X-Deadline-Ms expired before its handler ran) are
        #: recorded here so one scrape covers the whole pipeline.
        self.telemetry = server.telemetry
        self.config = config or GatewayConfig()
        self._gauge = InflightGauge(self.config.max_inflight)
        self._router = build_router(self)
        chain: list[Middleware] = [
            request_id_middleware,
            deadline_middleware,
            auth_middleware(authenticator),
            admission_middleware(self._gauge),
        ]
        chain.extend(middlewares or [])
        self._handler = compose(chain, self._dispatch)

        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._connection_tasks: set[asyncio.Task] = set()
        self._bound_port: int | None = None
        self._started = False
        self._closed = False

        # Loop-confined counters (scraped via gateway_stats()).
        self._last_request_id = ""
        self._http_requests = 0
        self._http_responses_by_status: dict[int, int] = {}
        self._malformed_requests = 0
        self._aborted_connections = 0
        self._connections = 0

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "HttpGateway":
        """Bind the socket and start serving; returns self (chainable)."""
        if self._started:
            raise ServingError("HttpGateway.start() called twice")
        if self._closed:
            raise ServingError("cannot restart a closed HttpGateway")
        self._started = True
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="http-gateway-loop", daemon=True
        )
        self._thread.start()

        async def _bind() -> int:
            self._asyncio_server = await asyncio.start_server(
                self._serve_connection,
                host=self.config.host,
                port=self.config.port,
                limit=self.config.max_header_bytes,
            )
            sockets = self._asyncio_server.sockets or []
            return sockets[0].getsockname()[1] if sockets else self.config.port

        self._bound_port = asyncio.run_coroutine_threadsafe(_bind(), self._loop).result(
            timeout=_CLOSE_TIMEOUT_S
        )
        return self

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._bound_port is None:
            raise ServingError("gateway is not started; call start() first")
        return self._bound_port

    @property
    def url(self) -> str:
        """Base URL of the running gateway (``http://host:port``)."""
        return f"http://{self.config.host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, close open connections, and stop the loop."""
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        assert self._loop is not None

        async def _shutdown() -> None:
            if self._asyncio_server is not None:
                self._asyncio_server.close()
                await self._asyncio_server.wait_closed()
            # wait_closed() only covers the listeners; idle keep-alive
            # connections are still parked in readline and must be cancelled
            # explicitly or their tasks die noisily with the loop.
            for task in list(self._connection_tasks):
                task.cancel()
            if self._connection_tasks:
                await asyncio.gather(*self._connection_tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(_shutdown(), self._loop).result(
            timeout=_CLOSE_TIMEOUT_S
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=_CLOSE_TIMEOUT_S)
        self._loop.close()

    def __enter__(self) -> "HttpGateway":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ------------------------------------------------------------

    def gateway_stats(self) -> dict[str, Any]:
        """Transport-level counters (the ``gateway`` section of the scrape)."""
        return {
            "connections": self._connections,
            "http_requests": self._http_requests,
            "last_request_id": self._last_request_id,
            "responses_by_status": {
                str(status): count
                for status, count in sorted(self._http_responses_by_status.items())
            },
            "malformed_requests": self._malformed_requests,
            "aborted_connections": self._aborted_connections,
            "inflight": self._gauge.inflight,
            "peak_inflight": self._gauge.peak,
            "shed_overload": self._gauge.rejected,
            "routes": [f"{method} {path}" for method, path in self._router.routes()],
        }

    # -- request dispatch ---------------------------------------------------------

    async def _dispatch(self, ctx: RequestContext) -> Response:
        """Innermost handler: route, mapping exceptions to wire errors."""
        try:
            return await self._router(ctx)
        except Exception as exc:  # noqa: BLE001 - every failure becomes a wire error
            response = error_response(exc, ctx.request_id)
            allow = getattr(exc, "allow", None)
            if isinstance(allow, str):
                response.headers["Allow"] = allow
            return response
        finally:
            # Recorded after the handler ran so a /v1/telemetry scrape shows
            # the last *served* request's id, not the scrape's own.
            if ctx.request_id:
                self._last_request_id = ctx.request_id

    # -- the HTTP/1.1 connection loop ----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        self._connections += 1
        peername = writer.get_extra_info("peername")
        remote = f"{peername[0]}:{peername[1]}" if isinstance(peername, tuple) else ""
        try:
            while True:
                keep_going = await self._serve_one(reader, writer, remote)
                if not keep_going:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            self._aborted_connections += 1
        except (asyncio.LimitOverrunError, ValueError):
            # StreamReader.readline() reports over-long lines as ValueError.
            self._malformed_requests += 1
            await self._write_simple_error(writer, 431, "request head too large")
        except asyncio.TimeoutError:
            pass  # idle keep-alive connection: close quietly
        except asyncio.CancelledError:
            # close() cancels connections parked in readline.  Returning
            # normally ends the task uncancelled: a cancelled handler task
            # makes the stream protocol's done-callback log a traceback.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, remote: str
    ) -> bool:
        """Parse and answer one request; returns whether to keep the connection."""
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=self.config.idle_timeout_s
        )
        if not request_line:
            return False  # clean EOF between requests
        try:
            method, target, version = request_line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError):
            self._malformed_requests += 1
            await self._write_simple_error(writer, 400, "malformed request line")
            return False
        if version not in _SUPPORTED_VERSIONS:
            self._malformed_requests += 1
            await self._write_simple_error(writer, 400, f"unsupported {version}")
            return False

        headers: dict[str, str] = {}
        head_bytes = len(request_line)
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=self.config.idle_timeout_s)
            if not line:
                raise asyncio.IncompleteReadError(line, None)  # EOF mid-head
            head_bytes += len(line)
            if head_bytes > self.config.max_header_bytes:
                self._malformed_requests += 1
                await self._write_simple_error(writer, 431, "request head too large")
                return False
            if line in (b"\r\n", b"\n"):
                break
            try:
                name, _, value = line.decode("latin-1").partition(":")
            except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
                name, value = "", ""
            if not _ or not name.strip():
                self._malformed_requests += 1
                await self._write_simple_error(writer, 400, "malformed header line")
                return False
            headers[name.strip().lower()] = value.strip()

        # The deadline clock origin: the header block is fully parsed.  The
        # body read below (and any queueing after it) burns request budget.
        received_at = time.monotonic()

        content_length_text = headers.get("content-length", "0")
        try:
            content_length = int(content_length_text)
            if content_length < 0:
                raise ValueError
        except ValueError:
            self._malformed_requests += 1
            await self._write_simple_error(writer, 400, "invalid Content-Length")
            return False
        if "transfer-encoding" in headers:
            # Chunked bodies are not part of the wire contract; refuse
            # explicitly rather than misparse.
            self._malformed_requests += 1
            await self._write_simple_error(writer, 400, "Transfer-Encoding not supported")
            return False
        if content_length > self.config.max_body_bytes:
            # Answer before reading: the client learns the cap without the
            # gateway buffering an oversized upload.  The connection cannot
            # be reused (unread body), so close it.
            await self._write_simple_error(
                writer,
                413,
                f"body of {content_length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
                code="payload_too_large",
            )
            return False
        # A disconnect mid-body raises IncompleteReadError, which aborts the
        # connection in _serve_connection — the request never reaches a
        # handler, so no model work happens for half-uploaded bodies.
        body = await reader.readexactly(content_length) if content_length else b""

        path, _, query_text = target.partition("?")
        ctx = RequestContext(
            method=method.upper(),
            path=unquote(path) or "/",
            query={key: value for key, value in parse_qsl(query_text)},
            headers=headers,
            body=body,
            received_at=received_at,
            remote=remote,
        )
        self._http_requests += 1
        try:
            response = await self._handler(ctx)
        except Exception as exc:  # noqa: BLE001 - middleware bug: keep serving
            response = error_response(exc, ctx.request_id)

        wants_close = (
            not self.config.keep_alive
            or version == "HTTP/1.0"
            or headers.get("connection", "").lower() == "close"
        )
        await self._write_response(writer, response, close=wants_close)
        return not wants_close

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, *, close: bool
    ) -> None:
        self._http_responses_by_status[response.status] = (
            self._http_responses_by_status.get(response.status, 0) + 1
        )
        reason = _REASONS.get(response.status, "Unknown")
        head_lines = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        head_lines.extend(f"{name}: {value}" for name, value in response.headers.items())
        writer.write(("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(response.body)
        await writer.drain()

    async def _write_simple_error(
        self, writer: asyncio.StreamWriter, status: int, message: str, *, code: str = ""
    ) -> None:
        """A transport-level error answered outside the middleware chain."""
        if not code:
            code = "invalid_request" if status in (400, 431) else "serving_error"
        response = error_response(GatewayHttpError(message, code=code, status=status))
        try:
            await self._write_response(writer, response, close=True)
        except (ConnectionError, OSError):  # pragma: no cover - peer already gone
            self._aborted_connections += 1
