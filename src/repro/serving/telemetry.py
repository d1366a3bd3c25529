"""Serving telemetry: latency percentiles, throughput, cache and queue health.

The offline pipeline reports its bookkeeping through
:class:`~repro.core.model.TrainingReport`; this module is the online
counterpart.  :class:`ServingTelemetry` is a thread-safe accumulator the
server feeds one observation per completed request; :meth:`snapshot` distils
the observations into an immutable :class:`TelemetryReport` with the numbers
any serving dashboard starts from — p50/p95/p99 latency, sustained
throughput, cache hit rate, batch-size distribution and peak queue depth.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Mapping

import numpy as np

from repro.exceptions import SerializationError

__all__ = ["TenantReport", "TelemetryReport", "ServingTelemetry"]


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant slice of a serving window.

    One entry per distinct ``tenant`` label seen on
    :class:`~repro.api.PredictionRequest` traffic (scenario tenants); the
    label-free remainder of the traffic is not reported here.  Latencies are
    in milliseconds, measured the same way as the overall numbers.

    ``shed_requests`` splits by reason: ``shed_deadline`` (the request's
    own budget expired), ``shed_queue_full`` (rejected at admission by the
    bounded queue or a tenant quota) and ``shed_priority_evict`` (evicted
    from the queue for a scheduling-better newcomer).
    """

    n_requests: int
    n_errors: int
    deadline_misses: int
    shed_requests: int
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    shed_deadline: int = 0
    shed_queue_full: int = 0
    shed_priority_evict: int = 0

    def to_dict(self) -> dict[str, float]:
        """The per-tenant slice as a flat JSON-friendly dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TenantReport":
        """Rebuild one per-tenant slice from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping):
            raise SerializationError(
                f"tenant payload must be a mapping, got {type(payload).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        kwargs = {name: payload[name] for name in known if name in payload}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise SerializationError(
                f"tenant payload is missing required fields: {exc}"
            ) from exc


@dataclass(frozen=True)
class TelemetryReport:
    """Immutable snapshot of a serving window.

    Latencies are reported in milliseconds; throughput is requests per
    second over the window between the first and the last observation.

    ``deadline_misses`` counts every request whose ``deadline_s`` budget
    expired; ``shed_requests`` counts requests failed fast *before* model
    execution — deadline sheds (also misses) plus overload sheds
    (``shed_queue_full`` / ``shed_priority_evict``, whose budgets never
    expired and which are therefore *not* deadline misses).  All of these
    stay zero for deadline-free traffic under no overload control, and none
    is included in ``n_errors``.

    The ``feature_cache_*`` fields mirror the served model's plan-feature
    cache (:class:`~repro.core.features.MemoizedFeaturizer`) — the second
    cache tier below the prediction cache that ``cache_hit_rate`` reports
    on.  They stay zero for models without a memoized featurizer; only
    :meth:`~repro.serving.server.PredictionServer.snapshot` fills them in
    (a bare :class:`ServingTelemetry` never sees the model).
    """

    n_requests: int
    n_errors: int
    duration_s: float
    throughput_qps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_max_ms: float
    cache_hit_rate: float
    mean_batch_size: float
    max_queue_depth: int
    deadline_misses: int = 0
    shed_requests: int = 0
    shed_deadline: int = 0
    shed_queue_full: int = 0
    shed_priority_evict: int = 0
    feature_cache_hits: int = 0
    feature_cache_misses: int = 0
    feature_cache_evictions: int = 0
    feature_cache_hit_rate: float = 0.0
    tenants: dict[str, TenantReport] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The report as a JSON-friendly dict.

        Scalar fields stay flat (the ``BENCH_serving.json`` gating schema);
        per-tenant slices nest under ``tenants`` (info-only downstream).
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TelemetryReport":
        """Rebuild a report from :meth:`to_dict` output.

        The inverse the HTTP gateway client uses to parse a ``/v1/telemetry``
        scrape.  Extra keys (the scrape's ``gateway`` / ``model`` sections,
        or fields added by a newer server) are ignored; missing *required*
        fields raise :class:`~repro.exceptions.SerializationError`.
        """
        if not isinstance(payload, Mapping):
            raise SerializationError(
                f"telemetry payload must be a mapping, got {type(payload).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        kwargs: dict[str, Any] = {name: payload[name] for name in known if name in payload}
        tenants = kwargs.get("tenants")
        if tenants is not None:
            if not isinstance(tenants, Mapping):
                raise SerializationError(
                    f"telemetry tenants must be a mapping, got {type(tenants).__name__}"
                )
            kwargs["tenants"] = {
                str(name): (
                    slice_ if isinstance(slice_, TenantReport) else TenantReport.from_dict(slice_)
                )
                for name, slice_ in tenants.items()
            }
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise SerializationError(
                f"telemetry payload is missing required fields: {exc}"
            ) from exc

    def render(self) -> str:
        """Fixed-width text table in the style of the CLI train output."""
        lines = [
            f"requests            : {self.n_requests}",
            f"errors              : {self.n_errors}",
            f"duration            : {self.duration_s:.2f} s",
            f"throughput          : {self.throughput_qps:.1f} req/s",
            f"latency mean        : {self.latency_mean_ms:.2f} ms",
            f"latency p50         : {self.latency_p50_ms:.2f} ms",
            f"latency p95         : {self.latency_p95_ms:.2f} ms",
            f"latency p99         : {self.latency_p99_ms:.2f} ms",
            f"latency max         : {self.latency_max_ms:.2f} ms",
            f"cache hit rate      : {100.0 * self.cache_hit_rate:.1f} %",
            f"mean batch size     : {self.mean_batch_size:.2f}",
            f"max queue depth     : {self.max_queue_depth}",
        ]
        if self.deadline_misses or self.shed_requests:
            lines.extend(
                [
                    f"deadline misses     : {self.deadline_misses}",
                    f"shed requests       : {self.shed_requests}",
                ]
            )
        if self.shed_queue_full or self.shed_priority_evict:
            lines.extend(
                [
                    f"shed queue full     : {self.shed_queue_full}",
                    f"shed priority evict : {self.shed_priority_evict}",
                ]
            )
        if self.feature_cache_hits or self.feature_cache_misses:
            lines.extend(
                [
                    f"feature cache hits  : {self.feature_cache_hits}",
                    f"feature cache misses: {self.feature_cache_misses}",
                    f"feature cache hit % : {100.0 * self.feature_cache_hit_rate:.1f} %",
                ]
            )
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            lines.append(
                f"tenant {name:<13}: {tenant.n_requests} req, "
                f"p95 {tenant.latency_p95_ms:.2f} ms, "
                f"misses {tenant.deadline_misses}, shed {tenant.shed_requests}"
            )
        return "\n".join(lines)


#: The counters every slice keeps, named as in both report types.
_COUNTERS = (
    "n_errors",
    "deadline_misses",
    "shed_requests",
    "shed_deadline",
    "shed_queue_full",
    "shed_priority_evict",
)


class _Slice:
    """The counters of one slice of traffic: all of it, or one tenant's share."""

    __slots__ = ("latencies_s", *_COUNTERS)

    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self.n_errors = 0
        self.deadline_misses = 0
        self.shed_requests = 0
        self.shed_deadline = 0
        self.shed_queue_full = 0
        self.shed_priority_evict = 0

    def count_miss(self, shed: bool, reason: str) -> None:
        """Count one shed or late request (see ``record_deadline_miss``)."""
        if reason == "deadline":
            self.deadline_misses += 1
        if shed:
            self.shed_requests += 1
            if reason == "queue_full":
                self.shed_queue_full += 1
            elif reason == "priority_evict":
                self.shed_priority_evict += 1
            else:
                self.shed_deadline += 1

    def fields(self) -> dict[str, Any]:
        """The slice's report fields: request count, counters, latencies in ms."""
        latencies = np.asarray(self.latencies_s, dtype=np.float64)
        if len(latencies):
            p50, p95, p99 = np.percentile(latencies, [50.0, 95.0, 99.0])
            mean = float(latencies.mean())
            worst = float(latencies.max())
        else:
            p50 = p95 = p99 = mean = worst = 0.0
        return {
            "n_requests": len(latencies),
            **{name: getattr(self, name) for name in _COUNTERS},
            "latency_mean_ms": 1e3 * mean,
            "latency_p50_ms": 1e3 * float(p50),
            "latency_p95_ms": 1e3 * float(p95),
            "latency_p99_ms": 1e3 * float(p99),
            "latency_max_ms": 1e3 * worst,
        }


class ServingTelemetry:
    """Thread-safe accumulator of per-request serving observations.

    Every recording method takes an optional ``tenant`` label; labeled
    observations are additionally accumulated into the per-tenant slices
    reported as :attr:`TelemetryReport.tenants`.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.reset()

    def _slices(self, tenant: str | None) -> tuple[_Slice, ...]:
        """The slices one observation lands in (tenant's created lazily); lock held."""
        if tenant is None:
            return (self._all,)
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = _Slice()
        return (self._all, stats)

    def record(
        self, latency_s: float, *, cache_hit: bool = False, tenant: str | None = None
    ) -> None:
        """Record one completed request."""
        now = self._clock()
        with self._lock:
            for stats in self._slices(tenant):
                stats.latencies_s.append(float(latency_s))
            if cache_hit:
                self._cache_hits += 1
            if self._first_at is None:
                self._first_at = now
            self._last_at = now

    def record_error(self, *, tenant: str | None = None) -> None:
        """Count one failed request (model exception on the request path)."""
        with self._lock:
            for stats in self._slices(tenant):
                stats.n_errors += 1

    def record_deadline_miss(
        self,
        *,
        shed: bool = False,
        tenant: str | None = None,
        reason: str = "deadline",
    ) -> None:
        """Count one request shed or answered past its budget.

        ``shed=True`` marks requests failed fast *before* model execution;
        the remainder are requests that did execute but completed past their
        deadline.  ``reason`` says why a shed happened: ``"deadline"`` (the
        budget expired — also a deadline miss), ``"queue_full"`` or
        ``"priority_evict"`` (overload control rejected or evicted the
        request; its budget never expired, so no miss is counted).  Sheds
        are intentional load shedding, counted separately from
        :meth:`record_error`.
        """
        with self._lock:
            for stats in self._slices(tenant):
                stats.count_miss(shed, reason)

    def observe_batch(self, size: int) -> None:
        """Record the size of one model-call batch."""
        with self._lock:
            self._batch_sizes.append(int(size))

    def observe_queue_depth(self, depth: int) -> None:
        """Track the peak batcher queue depth seen so far."""
        with self._lock:
            self._max_queue_depth = max(self._max_queue_depth, int(depth))

    def reset(self) -> None:
        """Drop every observation (start a fresh measurement window)."""
        with self._lock:
            self._all = _Slice()
            self._tenants: dict[str, _Slice] = {}
            self._cache_hits = 0
            self._batch_sizes: list[int] = []
            self._max_queue_depth = 0
            self._first_at: float | None = None
            self._last_at: float | None = None

    def snapshot(self) -> TelemetryReport:
        """Distil the observations into an immutable :class:`TelemetryReport`."""
        with self._lock:
            overall = self._all.fields()
            n = overall["n_requests"]
            if n and self._first_at is not None and self._last_at is not None:
                duration = max(self._last_at - self._first_at, 1e-9)
            else:
                duration = 0.0
            return TelemetryReport(
                **overall,
                duration_s=duration,
                throughput_qps=n / duration if duration else 0.0,
                cache_hit_rate=self._cache_hits / n if n else 0.0,
                mean_batch_size=(
                    float(np.mean(self._batch_sizes)) if self._batch_sizes else 0.0
                ),
                max_queue_depth=self._max_queue_depth,
                # from_dict drops latency_max_ms, which only the overall
                # report carries.
                tenants={
                    name: TenantReport.from_dict(stats.fields())
                    for name, stats in sorted(self._tenants.items())
                },
            )
