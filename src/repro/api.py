"""The unified prediction API: one protocol, typed requests and results.

Before this module existed the reproduction had three uncoordinated ways to
obtain a prediction — direct model calls (``LearnedWMP.predict`` /
``predict_workload``), the integration layer's cached/batched helpers, and
the serving layer's ``PredictionServer`` — each with its own calling
convention and none reporting *where* an answer came from.  This module
defines the one surface every consumer now programs against:

* :class:`PredictionRequest` — a frozen, typed request: the workload to
  price, a request id, an optional deadline, and a cache policy;
* :class:`PredictionResult` — a frozen, typed answer: the estimate in MB,
  the name+version of the model that produced it, the observed latency, and
  provenance flags for both cache tiers (prediction cache, plan-feature
  cache);
* :class:`Predictor` — the runtime-checkable protocol
  (``predict(request) -> result``, ``predict_batch(requests) -> results``)
  that admission control, the round scheduler, the simulation harness, the
  lifecycle manager and the CLI consume — never a concrete class;
* :func:`as_predictor` — coercion from any legacy predictor object (core
  models, reference predictors, :class:`CachedPredictor`, a
  :class:`~repro.serving.server.PredictionServer`) to the protocol, so the
  old objects keep working everywhere the new API is required.

This module sits at the *core* layer: it may import :mod:`repro.core` and
:mod:`repro.dbms` only, which is what lets both :mod:`repro.integration` and
:mod:`repro.serving` build on it without import cycles.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Protocol, Sequence, runtime_checkable

from repro.core.features import feature_cache_stats
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError

__all__ = [
    "CachePolicy",
    "PredictionRequest",
    "PredictionResult",
    "Predictor",
    "DirectPredictor",
    "as_predictor",
    "predict_values",
]


class CachePolicy(enum.Enum):
    """How a request may be answered by prediction caches.

    ``DEFAULT`` lets every cache tier the predictor has answer the request;
    ``BYPASS`` forces the request past prediction caches to the model (the
    plan-feature cache below the model is unaffected — it is exact, so there
    is never a correctness reason to bypass it).
    """

    DEFAULT = "default"
    BYPASS = "bypass"


_REQUEST_IDS = itertools.count(1)


def _next_request_id() -> str:
    return f"req-{next(_REQUEST_IDS)}"


@dataclass(frozen=True)
class PredictionRequest:
    """One typed prediction request.

    Attributes
    ----------
    workload:
        The workload (batch of queries) whose collective working memory is
        requested.
    request_id:
        Caller-meaningful identifier echoed on the result; generated
        (``req-<n>``) when omitted.
    deadline_s:
        Optional per-request deadline in seconds (finite, > 0), counted
        from admission.
        Serving-backed predictors enforce it end-to-end: a request whose
        budget expires is shed from the micro-batch queue *before* model
        execution (failing fast with
        :class:`~repro.exceptions.DeadlineExceededError`), near-expiring
        requests are prioritized into the next batch, and blocking waits on
        the answer are bounded by the remaining budget.  In-process
        predictors treat it as advisory metadata.
    cache_policy:
        See :class:`CachePolicy`.
    tenant:
        Optional name of the traffic stream (scenario tenant) the request
        belongs to.  Serving backends thread it into per-tenant telemetry
        (latency percentiles, ``deadline_misses`` / ``shed_requests`` per
        tenant in :class:`~repro.serving.telemetry.TelemetryReport`) and
        into the kernel's per-tenant quotas and weighted fair share of
        batch slots; it has no effect on routing, caching or prediction.
    priority:
        Scheduling priority (default 0; higher wins).  Serving backends
        fill batch slots priority-first (ties broken earliest-deadline-
        first) and shed lower-priority work first under overload.
        In-process predictors treat it as advisory metadata.
    """

    workload: Workload
    request_id: str = field(default_factory=_next_request_id)
    deadline_s: float | None = None
    cache_policy: CachePolicy = CachePolicy.DEFAULT
    tenant: str | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.workload, Workload):
            raise InvalidParameterError(
                "PredictionRequest.workload must be a Workload; "
                "use PredictionRequest.of(...) to coerce query sequences"
            )
        if self.deadline_s is not None and not 0.0 < self.deadline_s < math.inf:
            raise InvalidParameterError("deadline_s must be finite and > 0 (or None)")
        if self.tenant is not None and not self.tenant:
            raise InvalidParameterError("tenant must be a non-empty string (or None)")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise InvalidParameterError("priority must be an integer")

    @classmethod
    def of(
        cls,
        queries: Sequence[QueryRecord] | Workload,
        *,
        request_id: str | None = None,
        deadline_s: float | None = None,
        cache_policy: CachePolicy = CachePolicy.DEFAULT,
        tenant: str | None = None,
        priority: int = 0,
    ) -> "PredictionRequest":
        """Build a request from a :class:`Workload` or a plain query sequence."""
        workload = queries if isinstance(queries, Workload) else Workload(queries=list(queries))
        return cls(
            workload=workload,
            request_id=request_id if request_id is not None else _next_request_id(),
            deadline_s=deadline_s,
            cache_policy=cache_policy,
            tenant=tenant,
            priority=priority,
        )


@dataclass(frozen=True)
class PredictionResult:
    """One typed prediction answer.

    Attributes
    ----------
    memory_mb:
        The predicted collective working memory of the workload, in MB.
    request_id:
        Echo of :attr:`PredictionRequest.request_id`.
    model_name / model_version:
        Which registered model produced the answer.  Direct (un-registered)
        predictors report their class name and ``None``.
    latency_s:
        Wall-clock seconds from submission to answer as observed by the
        predictor that produced the result (for batched calls, the shared
        batch latency).
    cache_hit:
        ``True`` when a prediction cache (server LRU/TTL cache, in-flight
        coalescing, or a :class:`CachedPredictor` entry) answered the
        request without consulting the model.
    feature_cache_active:
        ``True`` when the answering model carries a plan-feature cache
        (:class:`~repro.core.features.MemoizedFeaturizer`), i.e. fresh
        workloads still reuse cached feature rows below the prediction
        cache.
    """

    memory_mb: float
    request_id: str
    model_name: str | None = None
    model_version: int | None = None
    latency_s: float = 0.0
    cache_hit: bool = False
    feature_cache_active: bool = False

    def __float__(self) -> float:
        return float(self.memory_mb)

    def with_provenance(self, **changes: Any) -> "PredictionResult":
        """A copy with provenance fields replaced (dataclasses.replace sugar)."""
        return replace(self, **changes)


@runtime_checkable
class Predictor(Protocol):
    """Anything that answers typed prediction requests.

    The one protocol the integration components, the simulation harness and
    the CLI consume.  Concrete models, cached wrappers and prediction
    servers are adapted to it with :func:`as_predictor`.
    """

    def predict(
        self, request: PredictionRequest
    ) -> PredictionResult:  # pragma: no cover - protocol definition
        """One typed request in, one typed result out."""
        ...

    def predict_batch(
        self, requests: Sequence[PredictionRequest]
    ) -> list[PredictionResult]:  # pragma: no cover - protocol definition
        """Batched form; backends answer it with one vectorized model call."""
        ...


def predict_values(model: Any, workloads: Sequence[Workload]) -> list[float]:
    """Raw per-workload estimates from any legacy predictor object, batched.

    The core models, the reference predictors and the serving layer all
    expose a vectorized ``predict(workloads)``; using it turns N model
    invocations into one (``LearnedWMP`` assigns templates over the
    concatenated queries and calls the regressor once).  Objects exposing
    only ``predict_workload`` are handled with a plain loop — including
    objects whose ``predict`` turns out not to follow the workload-batch
    convention (e.g. an sklearn-style ``predict(X)``): a vectorized call
    that raises or returns the wrong number of values falls back to the
    loop.
    """
    if not workloads:
        return []
    vectorized = getattr(model, "predict", None)
    if callable(vectorized):
        try:
            values = [float(value) for value in vectorized(list(workloads))]
        except Exception:  # noqa: BLE001 - foreign predict(); use the protocol
            values = None
        if values is not None and len(values) == len(workloads):
            return values
    return [float(model.predict_workload(workload)) for workload in workloads]


class DirectPredictor:
    """Adapter giving any in-process predictor object the typed surface.

    Wraps anything with ``predict_workload(workload) -> float`` (and
    optionally a vectorized ``predict(workloads)``): the core models, the
    oracle/constant reference predictors, and
    :class:`~repro.integration.predictors.CachedPredictor`.  Batches are
    answered with one vectorized model call whenever the wrapped object
    supports it.

    Cache provenance: when the wrapped object exposes ``is_cached(workload)``
    (``CachedPredictor`` does), results carry an accurate per-request
    ``cache_hit`` flag, and :attr:`CachePolicy.BYPASS` requests are routed
    through the object's ``predict_uncached`` path so they reach the model.

    Parameters
    ----------
    model:
        The wrapped predictor object.
    name / version:
        Reported on results; the wrapped object's class name (and ``None``)
        when omitted.
    """

    def __init__(self, model: Any, *, name: str | None = None, version: int | None = None) -> None:
        if not callable(getattr(model, "predict_workload", None)) and not callable(
            getattr(model, "predict", None)
        ):
            raise InvalidParameterError(
                f"{type(model).__name__} has neither predict_workload nor predict; "
                "it cannot answer prediction requests"
            )
        self.model = model
        self.model_name = name if name is not None else type(model).__name__
        self.model_version = version

    # -- typed surface ------------------------------------------------------------

    def predict(self, request: PredictionRequest) -> PredictionResult:
        """Answer one typed request (delegates to :meth:`predict_batch`)."""
        return self.predict_batch([request])[0]

    def predict_batch(self, requests: Sequence[PredictionRequest]) -> list[PredictionResult]:
        """Answer typed requests with one vectorized model call where possible.

        ``BYPASS`` requests are routed through the wrapped object's
        ``predict_uncached`` when it has one; per-request ``cache_hit``
        provenance comes from its ``is_cached`` probe when available.
        """
        if not requests:
            return []
        start = time.perf_counter()
        is_cached = getattr(self.model, "is_cached", None)
        probe = is_cached if callable(is_cached) else None
        hits = [
            probe(request.workload) if probe is not None else False for request in requests
        ]
        uncached = getattr(self.model, "predict_uncached", None)
        bypassed = [
            request.cache_policy is CachePolicy.BYPASS and callable(uncached)
            for request in requests
        ]
        values: list[float | None] = [None] * len(requests)
        through = [i for i, bypass in enumerate(bypassed) if bypass]
        if through:
            fresh = [
                float(value)
                for value in uncached([requests[i].workload for i in through])
            ]
            for i, value in zip(through, fresh):
                values[i] = value
                hits[i] = False
        remaining = [i for i in range(len(requests)) if values[i] is None]
        if remaining:
            fresh = predict_values(self.model, [requests[i].workload for i in remaining])
            for i, value in zip(remaining, fresh):
                values[i] = value
        latency = time.perf_counter() - start
        feature_cache_active = feature_cache_stats(self.model) is not None
        return [
            PredictionResult(
                memory_mb=float(value),  # type: ignore[arg-type]
                request_id=request.request_id,
                model_name=self.model_name,
                model_version=self.model_version,
                latency_s=latency,
                cache_hit=hit,
                feature_cache_active=feature_cache_active,
            )
            for request, value, hit in zip(requests, values, hits)
        ]

    # -- legacy interop -----------------------------------------------------------

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        """Legacy single-workload form, so adapters also satisfy the old protocol."""
        return self.predict(PredictionRequest.of(queries)).memory_mb

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DirectPredictor({type(self.model).__name__})"


def as_predictor(obj: Any, *, name: str | None = None, version: int | None = None) -> Predictor:
    """Coerce any predictor-shaped object to the :class:`Predictor` protocol.

    Objects that already satisfy the protocol (adapters, a
    :class:`~repro.serving.server.PredictionServer`) are returned unchanged;
    everything else with a ``predict_workload`` or vectorized ``predict`` is
    wrapped in a :class:`DirectPredictor`.  This is the single entry point
    the integration components call on their ``predictor`` argument, which
    is what lets them accept a raw model, a cached wrapper, or a served
    model interchangeably.

    Example::

        predictor = as_predictor(model)                      # fitted LearnedWMP
        result = predictor.predict(PredictionRequest.of(workload))
        result.memory_mb, result.model_name, result.cache_hit
    """
    if isinstance(obj, Predictor):
        return obj
    return DirectPredictor(obj, name=name, version=version)
