"""The thread-backed serving front: a condition-variable driver of the kernel.

:class:`PredictionServer` turns any registered ``WorkloadMemoryPredictor``
into an online service.  The request pipeline itself — prediction cache →
in-flight coalescing (singleflight) → micro-batcher → registry-resolved
model, with deadline shedding, EDF batch cuts and hot-swap invalidation —
lives in the pure :class:`~repro.serving.kernel.PipelineKernel`; this module
is only the I/O driver that feeds it events and performs its actions with
real clocks, locks and futures:

* callers submit under one lock, handing the kernel a ``Submit`` event and
  parking on a :class:`concurrent.futures.Future` the kernel's ``Complete``
  / ``Shed`` / ``Fail`` actions resolve;
* one worker thread waits on a condition variable and executes the
  kernel's ``FlushBatch`` actions (the batched model call) off-lock.  The
  kernel has one model slot, so at most one flush is ever waiting for the
  worker; requests that arrive while it runs form the next batch.

The server natively satisfies the unified :class:`repro.api.Predictor`
protocol (``submit_request`` / ``predict_batch`` answer typed
:class:`~repro.api.PredictionRequest` objects) and keeps the legacy
``predict_workload`` / ``predict(workloads)`` surfaces via the shared
:class:`~repro.serving.front.ServingFrontBase` facade, so both old and new
consumers can be pointed at a served model unchanged.  The same facade adds
``predict_async`` / ``predict_batch_async`` for callers on their own event
loop: the worker thread stays the one driver, and the coroutines await its
futures through :func:`asyncio.wrap_future`.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from typing import Any, Sequence

from repro.api import CachePolicy, PredictionRequest, PredictionResult, predict_values
from repro.core.features import FeatureCacheStats
from repro.core.features import feature_cache_stats as _model_feature_cache_stats
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import ServingError
from repro.registry import ModelRegistry
from repro.serving.cache import CacheStats
from repro.serving.front import DEFAULT_MODEL_NAME, ServingFrontBase
from repro.serving.kernel import (
    Action,
    BatcherStats,
    Complete,
    FlushBatch,
    PipelineKernel,
    ServerConfig,
    apply_actions,
    split_expired,
)
from repro.serving.telemetry import ServingTelemetry

__all__ = ["ServerConfig", "PredictionServer"]


class PredictionServer(ServingFrontBase):
    """Online workload-memory prediction service over a model registry.

    Parameters
    ----------
    source:
        Either a :class:`~repro.registry.ModelRegistry` (the model named
        ``model_name`` is served, tracking promotions) or a bare predictor
        object, which is wrapped in a fresh single-entry registry.
    model_name:
        Registry name to serve.
    config:
        Serving policy; defaults enable caching and micro-batching.
    """

    def __init__(
        self,
        source: ModelRegistry | Any,
        *,
        model_name: str = DEFAULT_MODEL_NAME,
        config: ServerConfig | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        if isinstance(source, ModelRegistry):
            self.registry = source
        else:
            self.registry = ModelRegistry()
            self.registry.register(model_name, source)
        self.model_name = model_name
        self.registry.get(model_name)  # fail fast on unknown names
        self.telemetry = ServingTelemetry()
        self._kernel = PipelineKernel(self.config)
        self._served_version: int | None = None
        self._feature_cache_active = False
        self._closed = False
        self._work = threading.Condition()
        self._waiters: dict[int, "Future[tuple[float, bool]]"] = {}
        # rid → tenant label for requests that carry one; consulted by
        # apply_actions when the resolving action feeds telemetry, dropped
        # with the waiter.  The kernel itself never sees tenants.
        self._tenants: dict[int, str] = {}
        self._ids = itertools.count(1)
        # The kernel's one outstanding flush, until the worker takes it.
        self._ready: FlushBatch | None = None
        self._worker = threading.Thread(
            target=self._run, name="serving-kernel-worker", daemon=True
        )
        self._worker.start()

    # -- action plumbing ----------------------------------------------------------------

    def _collect(self, actions: list[Action]) -> list[Action]:
        """Route flush actions (under the lock), defer the rest for off-lock.

        ``FlushBatch`` is parked for the worker; every other action is
        returned for :meth:`_dispatch` outside the lock, so future callbacks
        never run while the kernel lock is held.
        """
        deferred: list[Action] = []
        for action in actions:
            if isinstance(action, FlushBatch):
                self._ready = action
            else:
                deferred.append(action)
        return deferred

    def _dispatch(self, deferred: list[Action]) -> None:
        if deferred:
            apply_actions(
                deferred,
                telemetry=self.telemetry,
                complete=self._complete,
                fail=self._fail,
                flush=self._unexpected_flush,
                tenant_of=self._tenants.get,
            )

    @staticmethod
    def _unexpected_flush(action: FlushBatch) -> None:
        raise ServingError("FlushBatch leaked past _collect")  # pragma: no cover

    def _complete(self, action: Complete) -> None:
        self._tenants.pop(action.rid, None)
        future = self._waiters.pop(action.rid, None)
        if future is not None:
            future.set_result((action.value, action.cache_hit))

    def _fail(self, rid: int, error: BaseException) -> None:
        self._tenants.pop(rid, None)
        future = self._waiters.pop(rid, None)
        if future is not None:
            future.set_exception(error)

    # -- request path -------------------------------------------------------------------

    def _sync_version(self) -> None:
        """Poll the registry and feed the kernel a version event on change.

        Runs on the request path *before* admission, so a promoted model's
        answers are never shadowed by the previous model's cache entries;
        the kernel does the actual invalidation (cache + singleflight +
        generation bump).
        """
        version = self.registry.active_version(self.model_name)
        if version == self._served_version:
            return
        deferred: list[Action] = []
        with self._work:
            if version != self._served_version:
                deferred = self._collect(self._kernel.sync_version(version, time.monotonic()))
                self._served_version = version
                self._feature_cache_active = self._feature_cache_flag()
                self._work.notify_all()
        self._dispatch(deferred)

    def _submit(
        self,
        workload: Workload,
        *,
        use_cache: bool = True,
        deadline_at: float | None = None,
        tenant: str | None = None,
        priority: int = 0,
    ) -> "Future[tuple[float, bool]]":
        """Admit one request; the future resolves to ``(value, cache_hit)``.

        All pipeline semantics (cache provenance, BYPASS write-through,
        admission/queue/execution shedding, priority/fair-share scheduling,
        singleflight leadership rules) are the kernel's; see
        :meth:`PipelineKernel.submit`.  ``tenant`` labels this request's
        telemetry and keys the kernel's quotas; ``priority`` orders it in
        batch assembly and overload shedding.
        """
        if self._closed:
            raise ServingError("cannot submit to a closed PredictionServer")
        self._sync_version()
        with self._work:
            rid = next(self._ids)
            future: "Future[tuple[float, bool]]" = Future()
            self._waiters[rid] = future
            if tenant is not None:
                self._tenants[rid] = tenant
            actions = self._kernel.submit(
                rid,
                workload,
                now=time.monotonic(),
                deadline_at=deadline_at,
                use_cache=use_cache,
                tenant=tenant,
                priority=priority,
            )
            deferred = self._collect(actions)
            self._work.notify_all()
        self._dispatch(deferred)
        return future

    def submit(self, queries: Sequence[QueryRecord] | Workload) -> "Future[float]":
        """Asynchronously predict one workload's memory demand (MB).

        Cache hits resolve immediately; misses are handed to the kernel's
        micro-batcher.  The returned future also feeds telemetry and
        populates the cache.
        """
        inner = self._submit(self._as_workload(queries))
        outer: "Future[float]" = Future()

        def _unwrap(done: "Future[tuple[float, bool]]") -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            outer.set_result(done.result()[0])

        inner.add_done_callback(_unwrap)
        return outer

    def submit_request(self, request: PredictionRequest) -> "Future[PredictionResult]":
        """Asynchronously answer one typed :class:`~repro.api.PredictionRequest`.

        The resolved :class:`~repro.api.PredictionResult` carries the served
        model's name and version (the version active when the request was
        admitted), the request's observed latency, and provenance flags:
        ``cache_hit`` when the prediction cache or in-flight coalescing
        answered it, ``feature_cache_active`` when the served model carries
        a plan-feature cache below the prediction tier.

        A request ``deadline_s`` starts counting *here*, at admission: once
        the budget expires the request is shed from the batch queue (the
        future fails with :class:`~repro.exceptions.DeadlineExceededError`)
        instead of executing on the model.
        """
        arrival = time.monotonic()
        use_cache = request.cache_policy is not CachePolicy.BYPASS
        deadline_at = arrival + request.deadline_s if request.deadline_s is not None else None
        inner = self._submit(
            request.workload,
            use_cache=use_cache,
            deadline_at=deadline_at,
            tenant=request.tenant,
            priority=request.priority,
        )
        version = self._served_version
        feature_cache_active = self._feature_cache_active
        outer: "Future[PredictionResult]" = Future()

        def _wrap(done: "Future[tuple[float, bool]]") -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            value, cache_hit = done.result()
            outer.set_result(
                PredictionResult(
                    memory_mb=value,
                    request_id=request.request_id,
                    model_name=self.model_name,
                    model_version=version,
                    latency_s=time.monotonic() - arrival,
                    cache_hit=cache_hit,
                    feature_cache_active=feature_cache_active,
                )
            )

        inner.add_done_callback(_wrap)
        return outer

    def _predict_batch(self, workloads: list[Workload]) -> Sequence[float]:
        # Prefer the vectorized workload-batch convention, fall back to the
        # predict_workload protocol when the model's predict doesn't follow
        # it — the shared logic lives in repro.api.predict_values.  The
        # model is resolved from the registry *per batch*, so a promotion
        # takes effect on the next batch without restarting the server.
        model = self.registry.active(self.model_name)
        return predict_values(model, workloads)

    def _feature_cache_flag(self) -> bool:
        # Cached per swap so the typed request path does not pay a registry
        # resolution + stats snapshot per request just to stamp a boolean
        # on each PredictionResult.
        return _model_feature_cache_stats(self.registry.active(self.model_name)) is not None

    # -- worker -------------------------------------------------------------------------

    def _run(self) -> None:
        """Worker loop: tick the kernel on every wake-up, execute its flushes."""
        while True:
            deferred: list[Action] = []
            batch: FlushBatch | None = None
            with self._work:
                while True:
                    deferred = self._collect(self._kernel.tick(time.monotonic()))
                    if self._ready is not None:
                        batch, self._ready = self._ready, None
                        break
                    if deferred:
                        break
                    if self._closed and self._kernel.idle():
                        return
                    self._work.wait()
            self._dispatch(deferred)
            if batch is not None:
                self._execute(batch)

    def _execute(self, flush: FlushBatch) -> None:
        """Run one flushed batch on the model, off-lock, and feed back the result."""
        started_at = time.monotonic()
        live, _expired = split_expired(flush.entries, started_at)
        values: Sequence[float] = []
        error: Exception | None = None
        if live:
            try:
                values = self._predict_batch([entry.workload for entry in live])
            except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
                error = exc
        with self._work:
            if error is None:
                actions = self._kernel.batch_done(
                    flush.batch_id, started_at, values, time.monotonic()
                )
            else:
                actions = self._kernel.batch_failed(
                    flush.batch_id, started_at, error, time.monotonic()
                )
            deferred = self._collect(actions)
            self._work.notify_all()
        self._dispatch(deferred)

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight requests and stop the worker thread."""
        with self._work:
            if self._closed:
                return
            self._closed = True
            deferred = self._collect(self._kernel.close(time.monotonic()))
            self._work.notify_all()
        self._dispatch(deferred)
        self._worker.join()

    # -- stats --------------------------------------------------------------------------

    def cache_stats(self) -> CacheStats | None:
        """Prediction-cache counters, or ``None`` when caching is disabled."""
        return self._kernel.cache_stats()

    def feature_cache_stats(self) -> FeatureCacheStats | None:
        """The active model's plan-feature cache counters, if it has any.

        The cache lives on the model (not the server), so the counters are
        shared with every other consumer of the same model instance —
        admission control, the scheduler, direct calls.
        """
        return _model_feature_cache_stats(self.registry.active(self.model_name))

    def batcher_stats(self) -> BatcherStats:
        """Micro-batcher counters."""
        return self._kernel.batcher_stats()

    @property
    def coalesced_requests(self) -> int:
        """Requests answered by attaching to an identical in-flight request."""
        return self._kernel.coalesced_requests
