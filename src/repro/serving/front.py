"""The serving-front facade: the public surface built on two submit primitives.

:class:`~repro.serving.server.PredictionServer` exposes its whole surface
through this facade — the typed :class:`repro.api.Predictor` protocol, the
legacy ``WorkloadMemoryPredictor`` surface, a coroutine surface for callers
on their own event loop, streaming, telemetry snapshots and the
context-manager lifecycle.  :class:`ServingFrontBase` keeps that facade
apart from the kernel driver: a subclass only implements the two submission
primitives (``submit`` / ``submit_request``) plus its stats accessors, and
inherits the rest — which is also what lets a test put a fake driver
beneath it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.api import PredictionRequest, PredictionResult
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import DeadlineExceededError
from repro.serving.kernel import ServerConfig
from repro.serving.telemetry import ServingTelemetry, TelemetryReport

__all__ = [
    "DEFAULT_MODEL_NAME",
    "ServingFrontBase",
    "submission_deadline",
    "await_within_budget",
]

#: Name used when a server is built directly from a predictor object.
DEFAULT_MODEL_NAME = "default"


def submission_deadline(request: PredictionRequest) -> float | None:
    """The request's absolute expiry if submitted *now* (monotonic domain).

    Captured once per request at submission so batch loops consume the
    remaining budget from there — request *i* never borrows the time spent
    waiting on requests before it.  Shared by every serving front and by
    both the blocking and the coroutine surface.
    """
    if request.deadline_s is None:
        return None
    return time.monotonic() + request.deadline_s


def await_within_budget(
    request: PredictionRequest,
    future: "Future[PredictionResult]",
    deadline_at: float | None,
) -> PredictionResult:
    """Wait for ``future``, bounded by the request's remaining budget.

    ``deadline_at`` is the absolute expiry captured at submission
    (:func:`submission_deadline`); ``None`` falls back to a fresh budget
    from now (the single-request path, where submission just happened).
    The future is *not* cancelled on expiry — the serving pipeline finishes
    (and accounts for) the request on its own; only the wait is abandoned.
    """
    if deadline_at is None and request.deadline_s is not None:
        deadline_at = time.monotonic() + request.deadline_s
    timeout = None if deadline_at is None else max(deadline_at - time.monotonic(), 0.0)
    try:
        return future.result(timeout=timeout)
    # concurrent.futures.TimeoutError only aliases the builtin from 3.11;
    # catch both so Python 3.10 deadline misses surface the same way.
    except (TimeoutError, FutureTimeoutError) as exc:
        raise DeadlineExceededError(
            f"request {request.request_id} missed its deadline "
            f"({request.deadline_s:.3f} s)"
        ) from exc


class ServingFrontBase:
    """The protocol facade of a serving front.

    Subclasses provide ``submit(queries)`` returning a ``Future[float]``,
    ``submit_request(request)`` returning a ``Future[PredictionResult]``, a
    ``config``, a ``telemetry`` accumulator, and ``feature_cache_stats()``;
    this base turns those into the full :class:`repro.api.Predictor` +
    legacy surface.
    """

    config: ServerConfig
    telemetry: ServingTelemetry

    # -- conversion helpers -----------------------------------------------------------

    @staticmethod
    def _as_workload(queries: Sequence[QueryRecord] | Workload) -> Workload:
        if isinstance(queries, Workload):
            return queries
        return Workload(queries=list(queries))

    # -- blocking surfaces ------------------------------------------------------------

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        """Blocking single prediction (WorkloadMemoryPredictor protocol)."""
        return self.submit(queries).result()

    def _await_result(
        self,
        request: PredictionRequest,
        future: "Future[PredictionResult]",
        *,
        deadline_at: float | None = None,
    ) -> PredictionResult:
        return await_within_budget(request, future, deadline_at)

    def predict_batch(self, requests: Sequence[PredictionRequest]) -> list[PredictionResult]:
        """Typed batch prediction (the :class:`repro.api.Predictor` protocol).

        All requests are submitted up front, so the micro-batcher can form
        full batches even though the caller is a single thread.  Each
        request's deadline clock starts at its submission, not when its turn
        comes in the await loop.
        """
        entries = [
            (request, submission_deadline(request), self.submit_request(request))
            for request in requests
        ]
        return [
            self._await_result(request, future, deadline_at=deadline_at)
            for request, deadline_at, future in entries
        ]

    def predict(
        self, workloads: Sequence[Workload] | PredictionRequest
    ) -> np.ndarray | PredictionResult:
        """Prediction in either convention.

        Given a typed :class:`~repro.api.PredictionRequest`, answers it with
        a :class:`~repro.api.PredictionResult` (the
        :class:`~repro.api.Predictor` protocol).  Given a sequence of
        workloads, returns the legacy vectorized array of estimates; the
        workloads are submitted up front, so the micro-batcher can form full
        batches even though the caller is a single thread.
        """
        if isinstance(workloads, PredictionRequest):
            request = workloads
            return self._await_result(request, self.submit_request(request))
        futures = [self.submit(workload) for workload in workloads]
        return np.array([future.result() for future in futures], dtype=np.float64)

    def predict_stream(
        self, workloads: Iterable[Sequence[QueryRecord] | Workload]
    ) -> Iterator[float]:
        """Streaming prediction: yields results in input order.

        Keeps up to ``config.stream_window`` requests in flight, which gives
        the micro-batcher enough concurrency to coalesce while bounding
        memory for unbounded streams.
        """
        window: list[Future] = []
        for item in workloads:
            window.append(self.submit(item))
            if len(window) >= self.config.stream_window:
                yield window.pop(0).result()
        for future in window:
            yield future.result()

    # -- coroutine surface ------------------------------------------------------------

    @staticmethod
    def _consume_abandoned(future: "asyncio.Future") -> None:
        """Mark an abandoned future's exception retrieved (no-op on success).

        An expired wait abandons its future rather than cancelling it (the
        pipeline must finish and account for the request on its own); the
        eventual ``DeadlineExceededError`` would otherwise be reported as a
        "Future exception was never retrieved" warning.
        """
        if not future.cancelled():
            future.exception()

    async def predict_async(self, request: PredictionRequest) -> PredictionResult:
        """Answer one typed request; awaitable from any event loop.

        The request is submitted to the server's own worker and awaited via
        :func:`asyncio.wrap_future`, so callers on any loop (or several
        tasks on the same one) compose freely.  A request ``deadline_s`` is
        enforced end-to-end (shed from the batch queue once expired) and
        bounds this wait, raising
        :class:`~repro.exceptions.DeadlineExceededError` on expiry.
        """
        results = await self.predict_batch_async([request])
        return results[0]

    async def predict_batch_async(
        self, requests: Sequence[PredictionRequest]
    ) -> list[PredictionResult]:
        """Typed batch form; all requests are submitted before any is awaited.

        Each request's deadline clock starts at its submission, not when its
        turn comes in the await loop below.  An expired wait abandons the
        request instead of cancelling it: the pipeline keeps the request,
        so the shed/miss is still executed-or-shed and counted exactly as
        on the blocking surface.
        """
        entries = [
            (
                request,
                submission_deadline(request),
                asyncio.wrap_future(self.submit_request(request)),
            )
            for request in requests
        ]
        for _, _, future in entries:
            future.add_done_callback(self._consume_abandoned)
        results: list[PredictionResult] = []
        for request, deadline_at, future in entries:
            if deadline_at is None:
                results.append(await future)
                continue
            try:
                results.append(
                    await asyncio.wait_for(
                        asyncio.shield(future),
                        timeout=max(deadline_at - time.monotonic(), 0.0),
                    )
                )
            except (TimeoutError, asyncio.TimeoutError) as exc:
                raise DeadlineExceededError(
                    f"request {request.request_id} missed its deadline "
                    f"({request.deadline_s:.3f} s)"
                ) from exc
        return results

    # -- telemetry --------------------------------------------------------------------

    def snapshot(self) -> TelemetryReport:
        """Current telemetry snapshot (latency percentiles, throughput, ...).

        When the served model carries a memoized featurizer, its
        plan-feature cache counters are folded into the report's
        ``feature_cache_*`` fields, so one snapshot covers both cache tiers:
        the prediction cache (repeated workloads) and the feature cache
        (repeated plans inside fresh workloads).
        """
        report = self.telemetry.snapshot()
        stats = self.feature_cache_stats()
        if stats is not None:
            report = dataclasses.replace(
                report,
                feature_cache_hits=stats.hits,
                feature_cache_misses=stats.misses,
                feature_cache_evictions=stats.evictions,
                feature_cache_hit_rate=stats.hit_rate,
            )
        return report

    # -- lifecycle --------------------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

