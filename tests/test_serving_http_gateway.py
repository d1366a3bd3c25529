"""Tests for the HTTP gateway: failure paths, middleware, end-to-end parity.

The failure-path tests drive raw HTTP (``http.client`` / bare sockets) so
the gateway's parsing and error mapping are exercised exactly as a foreign
client would hit them; the parity test drives a
:class:`~repro.serving.http.client.GatewayClient` and asserts the answers
are bit-identical to the in-process server on the same request stream.
"""

import http.client
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest
from oracle import CountingPredictor

from repro.api import CachePolicy, PredictionRequest
from repro.core.model import LearnedWMP
from repro.core.workload import make_workloads
from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    RequestValidationError,
    ServingError,
    UnknownModelError,
)
from repro.registry import ModelRegistry
from repro.serving import (
    GatewayClient,
    GatewayConfig,
    HttpGateway,
    PredictionServer,
    TelemetryReport,
)
from repro.serving.http.schemas import request_to_wire


@pytest.fixture(scope="module")
def workloads(tpcds_small):
    return make_workloads(tpcds_small.test_records, 5, seed=3)


def _raw_call(port, method, path, body=b"", headers=None):
    """One raw HTTP exchange; returns (status, parsed JSON body, response)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body or None, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None), response
    finally:
        conn.close()


class TestFailurePaths:
    """Every malformed input answers its mapped status without model work."""

    @pytest.fixture()
    def stack(self):
        model = CountingPredictor(42.0)
        with PredictionServer(model) as server:
            config = GatewayConfig(port=0, max_body_bytes=64 * 1024)
            with HttpGateway(server, config=config) as gateway:
                yield model, server, gateway

    def test_malformed_json_is_400_without_model_work(self, stack):
        model, _, gateway = stack
        status, body, _ = _raw_call(
            gateway.port, "POST", "/v1/predict", b"{this is not json"
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert model.calls == 0

    def test_strict_schema_violation_is_400(self, stack, workloads):
        model, _, gateway = stack
        wire = request_to_wire(PredictionRequest.of(workloads[0]))
        wire["extra_field"] = 1
        status, body, _ = _raw_call(
            gateway.port, "POST", "/v1/predict", json.dumps(wire).encode()
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "extra_field" in body["error"]["message"]
        assert model.calls == 0

    def test_oversized_body_is_413_unread(self, stack):
        model, _, gateway = stack
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            # Announce a body far over the cap without sending it: the
            # gateway must answer from the headers alone.
            conn.putrequest("POST", "/v1/predict")
            conn.putheader("Content-Length", str(10**9))
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 413
        assert payload["error"]["code"] == "payload_too_large"
        assert model.calls == 0

    def test_unknown_route_is_404(self, stack):
        model, _, gateway = stack
        status, body, _ = _raw_call(gateway.port, "POST", "/v1/nope", b"{}")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert model.calls == 0

    def test_wrong_method_is_405_with_allow(self, stack):
        model, _, gateway = stack
        status, body, response = _raw_call(gateway.port, "GET", "/v1/predict")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert response.getheader("Allow") == "POST"
        assert model.calls == 0

    def test_mid_body_disconnect_never_reaches_the_model(self, stack):
        model, _, gateway = stack
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/predict HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: 1000\r\n"
                b"\r\n"
                b"only a fragment"
            )
        # The disconnect is seen on the gateway loop shortly after close.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if gateway.gateway_stats()["aborted_connections"] >= 1:
                break
            time.sleep(0.01)
        assert gateway.gateway_stats()["aborted_connections"] >= 1
        assert model.calls == 0

    def test_expired_deadline_header_is_504_shed_into_telemetry(self, stack, workloads):
        model, server, gateway = stack
        wire = json.dumps(request_to_wire(PredictionRequest.of(workloads[0]))).encode()
        status, body, _ = _raw_call(
            gateway.port,
            "POST",
            "/v1/predict",
            wire,
            headers={"X-Deadline-Ms": "0"},
        )
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"
        assert model.calls == 0
        report = server.snapshot()
        assert report.deadline_misses == 1
        assert report.shed_requests == 1
        # The shed is also visible in the full scrape a dashboard would pull.
        scrape_status, scrape, _ = _raw_call(gateway.port, "GET", "/v1/telemetry")
        assert scrape_status == 200
        assert scrape["shed_requests"] == 1
        assert scrape["gateway"]["responses_by_status"]["504"] == 1

    def test_non_numeric_deadline_header_is_400(self, stack, workloads):
        model, _, gateway = stack
        wire = json.dumps(request_to_wire(PredictionRequest.of(workloads[0]))).encode()
        status, body, _ = _raw_call(
            gateway.port, "POST", "/v1/predict", wire, headers={"X-Deadline-Ms": "soon"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert model.calls == 0

    def test_malformed_request_line_is_400(self, stack):
        _, _, gateway = stack
        with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
            sock.sendall(b"COMPLETE NONSENSE\r\n\r\n")
            raw = sock.recv(4096)
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert gateway.gateway_stats()["malformed_requests"] >= 1


class TestMiddleware:
    def test_request_id_is_echoed_or_generated(self):
        with PredictionServer(CountingPredictor()) as server:
            with HttpGateway(server, config=GatewayConfig(port=0)) as gateway:
                _, _, response = _raw_call(
                    gateway.port, "GET", "/healthz", headers={"X-Request-Id": "mine-1"}
                )
                assert response.getheader("X-Request-Id") == "mine-1"
                _, _, response = _raw_call(gateway.port, "GET", "/healthz")
                generated = response.getheader("X-Request-Id")
                assert generated and generated.startswith("req-http-")

    def test_request_ids_are_visible_in_the_telemetry_scrape(self, workloads):
        with PredictionServer(CountingPredictor()) as server:
            with HttpGateway(server, config=GatewayConfig(port=0)) as gateway:
                wire = json.dumps(
                    request_to_wire(PredictionRequest.of(workloads[0]))
                ).encode()
                _raw_call(
                    gateway.port,
                    "POST",
                    "/v1/predict",
                    wire,
                    headers={"X-Request-Id": "traceable-7"},
                )
                _, scrape, _ = _raw_call(gateway.port, "GET", "/v1/telemetry")
                assert scrape["gateway"]["last_request_id"] == "traceable-7"

    def test_auth_hook_rejects_with_401_but_health_is_exempt(self):
        def deny_everyone(ctx):
            return None

        with PredictionServer(CountingPredictor()) as server:
            with HttpGateway(
                server, config=GatewayConfig(port=0), authenticator=deny_everyone
            ) as gateway:
                status, body, _ = _raw_call(gateway.port, "GET", "/v1/telemetry")
                assert status == 401
                assert body["error"]["code"] == "unauthorized"
                status, _, _ = _raw_call(gateway.port, "GET", "/healthz")
                assert status == 200

    def test_admission_gate_sheds_with_503(self, workloads):
        model = CountingPredictor(7.0, delay_s=0.5)
        with PredictionServer(model) as server:
            config = GatewayConfig(port=0, max_inflight=1)
            with HttpGateway(server, config=config) as gateway:
                with GatewayClient(gateway.url) as client:
                    first = client.submit_request(
                        PredictionRequest.of(workloads[0], cache_policy=CachePolicy.BYPASS)
                    )
                    time.sleep(0.1)  # let the first request occupy the slot
                    with pytest.raises(OverloadedError):
                        client.predict(
                            PredictionRequest.of(
                                workloads[1], cache_policy=CachePolicy.BYPASS
                            )
                        )
                    assert first.result(timeout=10).memory_mb == 7.0
                assert gateway.gateway_stats()["shed_overload"] >= 1

    def test_keep_alive_serves_many_requests_per_connection(self):
        with PredictionServer(CountingPredictor()) as server:
            with HttpGateway(server, config=GatewayConfig(port=0)) as gateway:
                conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
                try:
                    for _ in range(3):
                        conn.request("GET", "/healthz")
                        response = conn.getresponse()
                        assert response.status == 200
                        response.read()
                finally:
                    conn.close()
                assert gateway.gateway_stats()["connections"] == 1

    def test_close_with_open_keep_alive_connection_logs_nothing(self):
        """Regression: close() cancelled the parked connection task, and the
        stream protocol's done-callback then logged a CancelledError
        traceback through the ``asyncio`` logger."""
        records: list[logging.LogRecord] = []

        class Collect(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                records.append(record)

        handler = Collect(level=logging.DEBUG)
        asyncio_logger = logging.getLogger("asyncio")
        asyncio_logger.addHandler(handler)
        try:
            with PredictionServer(CountingPredictor()) as server:
                gateway = HttpGateway(server, config=GatewayConfig(port=0)).start()
                conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                    gateway.close()  # the connection is still open and idle
                finally:
                    conn.close()
        finally:
            asyncio_logger.removeHandler(handler)
        assert [record.getMessage() for record in records] == []


class TestAdminAndClient:
    def test_promote_rollback_lineage_over_http(self, workloads):
        registry = ModelRegistry()
        registry.register("default", CountingPredictor(10.0))
        registry.register("default", CountingPredictor(20.0))
        registry.promote("default", 1)
        with PredictionServer(registry, model_name="default") as server:
            with HttpGateway(server, config=GatewayConfig(port=0)) as gateway:
                with GatewayClient(gateway.url) as client:
                    request = PredictionRequest.of(
                        workloads[0], cache_policy=CachePolicy.BYPASS
                    )
                    assert client.predict(request).model_version == 1
                    assert client.promote("default", 2) == 2
                    fresh = PredictionRequest.of(
                        workloads[1], cache_policy=CachePolicy.BYPASS
                    )
                    result = client.predict(fresh)
                    assert result.model_version == 2
                    assert result.memory_mb == 20.0
                    assert client.rollback("default") == 1
                    lineage = client.lineage("default")
                    assert [entry["version"] for entry in lineage] == [1, 2]
                    assert [entry["active"] for entry in lineage] == [True, False]
                    with pytest.raises(UnknownModelError):
                        client.lineage("missing")
                    with pytest.raises(RequestValidationError):
                        client.promote("default", True)

    def test_client_surfaces_connection_failures_as_serving_errors(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = GatewayClient(f"http://127.0.0.1:{free_port}", timeout_s=2.0)
        with pytest.raises(ServingError, match="unreachable"):
            client.healthz()
        client.close()

    def test_snapshot_parses_the_scrape_into_a_telemetry_report(self, workloads):
        with PredictionServer(CountingPredictor()) as server:
            with HttpGateway(server, config=GatewayConfig(port=0)) as gateway:
                with GatewayClient(gateway.url) as client:
                    client.predict(PredictionRequest.of(workloads[0]))
                    report = client.snapshot()
                    assert isinstance(report, TelemetryReport)
                    assert report.n_requests == 1
                    assert report.to_dict() == server.snapshot().to_dict()
                    assert client.cache_stats() is None
                    assert client.batcher_stats() is None


class TestEndToEndParity:
    @pytest.fixture(scope="class")
    def model(self, tpcds_small):
        model = LearnedWMP(
            regressor="ridge", n_templates=8, batch_size=5, random_state=7, fast=True
        )
        model.fit(tpcds_small.train_records)
        return model

    def test_gateway_answers_are_bit_identical_to_in_process(self, model, workloads):
        # The same request stream (with repeats, so the cache participates)
        # through two fresh servers of the same model: once in-process, once
        # over the wire.  Floats must match bit-for-bit — JSON round-trips
        # doubles exactly and plans travel verbatim.
        stream = [workloads[i % 4] for i in range(12)]
        requests = [
            PredictionRequest.of(workload, request_id=f"parity-{i}")
            for i, workload in enumerate(stream)
        ]

        with PredictionServer(model) as reference:
            expected = [reference.predict(request) for request in requests]

        with PredictionServer(model) as backend:
            with HttpGateway(backend, config=GatewayConfig(port=0)) as gateway:
                with GatewayClient(gateway.url) as client:
                    got = [client.predict(request) for request in requests]
                    scrape = client.telemetry()

        for over_wire, in_process in zip(got, expected):
            assert over_wire.memory_mb == in_process.memory_mb  # bit-identical
            assert over_wire.request_id == in_process.request_id
            assert over_wire.model_name == in_process.model_name
            assert over_wire.model_version == in_process.model_version
            assert over_wire.cache_hit == in_process.cache_hit
        assert scrape["n_requests"] == len(requests)
        assert scrape["gateway"]["last_request_id"] == "parity-11"

    def test_batch_endpoint_matches_in_process_batch(self, model, workloads):
        requests = [
            PredictionRequest.of(workload, request_id=f"batch-{i}")
            for i, workload in enumerate(workloads[:6])
        ]
        with PredictionServer(model) as reference:
            expected = reference.predict_batch(requests)
        with PredictionServer(model) as backend:
            with HttpGateway(backend, config=GatewayConfig(port=0)) as gateway:
                with GatewayClient(gateway.url) as client:
                    got = client.predict_batch(requests)
        assert [r.memory_mb for r in got] == [r.memory_mb for r in expected]
        assert [r.request_id for r in got] == [r.request_id for r in expected]

    def test_deadline_misses_from_the_wire_land_in_the_scrape(self, model, workloads):
        with PredictionServer(model) as backend:
            with HttpGateway(backend, config=GatewayConfig(port=0)) as gateway:
                with GatewayClient(gateway.url) as client:
                    client.predict(PredictionRequest.of(workloads[0]))
                    with pytest.raises(DeadlineExceededError):
                        client.predict(
                            PredictionRequest.of(workloads[1], deadline_s=1e-9)
                        )
                    scrape = client.telemetry()
        assert scrape["deadline_misses"] == 1
        assert scrape["shed_requests"] == 1
        assert scrape["n_requests"] == 1
