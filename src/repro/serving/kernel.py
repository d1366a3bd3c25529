"""The sans-I/O serving pipeline kernel: typed events in, typed actions out.

Several serving fronts used to re-implement the same four-layer request
pipeline — prediction cache → in-flight coalescing (singleflight) →
micro-batcher → registry-resolved model — with parallel deadline and
telemetry logic, and every pipeline bug had to be patched once per front.
:class:`PipelineKernel` extracts that pipeline into one pure state machine
with **no threads, sockets, timers or clocks inside**: time is an input
carried on every event, and everything the outside world must do comes
back as a list of :data:`Action` values.

Events (what the world tells the kernel)
----------------------------------------
========================  ======================================================
:class:`Submit`           One request arrives: workload, deadline, cache policy.
:class:`Tick`             Time passed (a worker woke up).
:class:`SyncVersion`      The registry resolved this active model version.
:class:`BatchDone`        A flushed batch finished; here are its values.
:class:`BatchFailed`      A flushed batch raised; here is the error.
:class:`Close`            The server is shutting down; drain everything.
========================  ======================================================

Actions (what the kernel tells the world to do)
-----------------------------------------------
=========================  =====================================================
:class:`Complete`          Resolve this request with a value (+ provenance).
:class:`Shed`              Fail this request: deadline expired before the model.
:class:`Fail`              Fail this request with the given model/batch error.
:class:`FlushBatch`        Execute these entries as one model batch.
:class:`CacheWrite`        (informational) the kernel cached ``key -> value``.
:class:`CacheInvalidate`   (informational) a hot swap cleared cache + inflight.
:class:`ObserveBatch`      Telemetry: one model batch of this size ran.
:class:`ObserveQueueDepth` Telemetry: the pending queue reached this depth.
=========================  =====================================================

The kernel is deterministic: the same event sequence always yields the same
action sequence, which is what lets ``tests/test_kernel_differential.py``
drive it against the naive-loop oracle with hypothesis and assert
bit-identical answers and accounting.  The I/O
driver (:class:`~repro.serving.server.PredictionServer`) owns the real
clocks, locks and futures, and stays thin: feed events, perform actions.

Batching discipline
-------------------
Work-conserving, one model slot: the kernel cuts a batch (EDF order, up to
``max_batch_size``) whenever the slot is free and work is pending, so a
request that arrives at an idle kernel is flushed on its own ``Submit``.
Requests that arrive while a batch executes queue behind it and are cut
together when :meth:`PipelineKernel.batch_done` frees the slot — batches grow
with the backlog, never by waiting on a timer.  Expired pending requests are
shed on *every* event before anything else, and re-checked against the
batch's actual execution start (:func:`split_expired`), so expired work
never reaches the model.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence, Union

from repro.core.workload import Workload
from repro.exceptions import DeadlineExceededError, InvalidParameterError, ServingError
from repro.serving.cache import CacheStats, LRUTTLCache, workload_signature

__all__ = [
    "BatcherStats",
    "ServerConfig",
    "PipelineKernel",
    "STRIDE_SCALE",
    "Submit",
    "Tick",
    "SyncVersion",
    "BatchDone",
    "BatchFailed",
    "Close",
    "Event",
    "Complete",
    "Shed",
    "Fail",
    "BatchEntry",
    "FlushBatch",
    "CacheWrite",
    "CacheInvalidate",
    "ObserveBatch",
    "ObserveQueueDepth",
    "Action",
    "split_expired",
    "apply_actions",
    "SHED_MESSAGES",
]


#: Stride-scheduler scale: a tenant of weight ``w`` advances its pass value
#: by ``STRIDE_SCALE // w`` per batch slot it wins, so slot shares converge
#: to the weight ratio.  Pure integer arithmetic keeps the schedule bit-exact
#: between the kernel and the naive oracle.
STRIDE_SCALE = 1 << 16


@dataclass(frozen=True)
class BatcherStats:
    """Counters describing the batches the kernel's micro-batcher has formed."""

    requests: int
    batches: int
    size_flushes: int
    deadline_flushes: int
    close_flushes: int
    max_batch_size_seen: int
    shed_requests: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average *executed* requests per formed batch (0.0 before the first)."""
        if not self.batches:
            return 0.0
        return (self.requests - self.shed_requests) / self.batches


def _normalize_quota(value: Any, name: str) -> tuple[tuple[str, int], ...] | None:
    """Canonicalize a per-tenant quota mapping to a sorted tuple of pairs.

    Accepts a mapping or an iterable of ``(tenant, limit)`` pairs; the
    frozen config stores a hashable, order-independent tuple.  An empty
    mapping normalizes to ``None`` (the feature stays off).
    """
    if value is None:
        return None
    pairs = value.items() if hasattr(value, "items") else value
    normalized: list[tuple[str, int]] = []
    for tenant, limit in pairs:
        if not isinstance(tenant, str) or not tenant:
            raise InvalidParameterError(f"{name} tenant names must be non-empty strings")
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise InvalidParameterError(f"{name} values must be integers >= 1")
        normalized.append((tenant, limit))
    normalized.sort()
    for (left, _), (right, _) in zip(normalized, normalized[1:]):
        if left == right:
            raise InvalidParameterError(f"{name} repeats tenant {left!r}")
    return tuple(normalized) if normalized else None


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of a serving front (and of the kernel beneath it).

    Attributes
    ----------
    max_batch_size:
        Largest micro-batch the kernel cuts; ``1`` serves unbatched.
    max_wait_s:
        Accepted for compatibility and validated (finite, ``>= 0``), but
        read by nothing: batching is work-conserving, so no request waits
        on a timer for a batch to fill.
    cache_entries / cache_ttl_s:
        Prediction-cache capacity and optional time-to-live.
    enable_cache:
        Feature switch for the prediction cache and in-flight coalescing.
    stream_window:
        Maximum number of in-flight requests ``predict_stream`` keeps
        outstanding, which is what lets the batcher coalesce a stream.
    max_queue_depth:
        Bound on the pending queue.  When an admit would exceed it, the
        scheduling-worst queued request (lowest priority, then latest
        deadline, then newest) is shed to make room — or the newcomer
        itself is rejected when it *is* the worst.  ``None`` leaves the
        queue unbounded.
    tenant_weights:
        Optional per-tenant weighted fair share of batch slots.  When set,
        batch assembly stride-schedules across the tenants present at the
        highest pending priority instead of a global EDF sort.  Accepts a
        mapping or ``(tenant, weight)`` pairs; unlisted tenants weigh 1.
    tenant_max_inflight:
        Optional per-tenant cap on admitted-but-unresolved requests
        (pending + executing).  A tenant at its cap has further submits
        shed at admission with reason ``"queue_full"``.
    """

    max_batch_size: int = 32
    max_wait_s: float = 0.0
    cache_entries: int = 2048
    cache_ttl_s: float | None = None
    enable_cache: bool = True
    stream_window: int = 64
    max_queue_depth: int | None = None
    tenant_weights: Any = None
    tenant_max_inflight: Any = None

    def __post_init__(self) -> None:
        # Every knob is validated here, whether or not the feature it tunes
        # is enabled: a bad value should fail at construction, not deep in
        # the kernel once traffic arrives.
        if self.max_batch_size < 1:
            raise InvalidParameterError("max_batch_size must be >= 1")
        if not math.isfinite(self.max_wait_s) or self.max_wait_s < 0.0:
            raise InvalidParameterError("max_wait_s must be finite and >= 0")
        if self.cache_entries < 1:
            raise InvalidParameterError("cache_entries must be >= 1")
        if self.cache_ttl_s is not None and not 0.0 < self.cache_ttl_s < math.inf:
            raise InvalidParameterError(
                "cache_ttl_s must be finite and > 0 (or None to disable expiry)"
            )
        if self.stream_window < 1:
            raise InvalidParameterError("stream_window must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise InvalidParameterError("max_queue_depth must be >= 1 (or None for unbounded)")
        object.__setattr__(
            self, "tenant_weights", _normalize_quota(self.tenant_weights, "tenant_weights")
        )
        object.__setattr__(
            self,
            "tenant_max_inflight",
            _normalize_quota(self.tenant_max_inflight, "tenant_max_inflight"),
        )

    def weight_of(self, tenant: str | None) -> int:
        """Fair-share weight of ``tenant`` (1 for unlisted or unlabeled)."""
        if self.tenant_weights is not None and tenant is not None:
            for name, weight in self.tenant_weights:
                if name == tenant:
                    return weight
        return 1

    def inflight_cap(self, tenant: str | None) -> int | None:
        """Max-inflight quota of ``tenant``, or ``None`` for uncapped."""
        if self.tenant_max_inflight is not None and tenant is not None:
            for name, cap in self.tenant_max_inflight:
                if name == tenant:
                    return cap
        return None


# -- events ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Submit:
    """One request arrives.

    ``rid`` is a driver-chosen opaque request id (every action about this
    request echoes it back).  ``deadline_at`` is the absolute expiry in the
    same time domain as ``now``; ``use_cache=False`` is the BYPASS policy
    (skip the cache read and the singleflight attach, but still
    write-through-populate the cache).  ``signature`` is a precomputed cache
    key for the workload, if the caller has one.  ``tenant`` and ``priority``
    drive scheduling: higher priority fills batch slots (and survives
    overload shedding) first, and the tenant label is what quotas and
    weighted fair share key on.
    """

    rid: int
    workload: Workload
    now: float
    deadline_at: float | None = None
    use_cache: bool = True
    signature: Hashable | None = None
    tenant: str | None = None
    priority: int = 0


@dataclass(frozen=True)
class Tick:
    """Time passed: shed expired queued work (nothing ever waits on a timer)."""

    now: float


@dataclass(frozen=True)
class SyncVersion:
    """The registry currently resolves the served model to ``version``."""

    version: Any
    now: float


@dataclass(frozen=True)
class BatchDone:
    """A flushed batch finished.  ``started_at`` is when execution actually
    began (batches queue behind the model worker), and ``values`` are the
    model's answers for the entries still live at that moment, in
    :func:`split_expired` order."""

    batch_id: int
    started_at: float
    values: Sequence[float]
    now: float


@dataclass(frozen=True)
class BatchFailed:
    """A flushed batch raised ``error`` instead of producing values."""

    batch_id: int
    started_at: float
    error: BaseException
    now: float


@dataclass(frozen=True)
class Close:
    """The server is shutting down: flush and drain everything queued."""

    now: float


Event = Union[Submit, Tick, SyncVersion, BatchDone, BatchFailed, Close]


# -- actions --------------------------------------------------------------------------


@dataclass(frozen=True)
class Complete:
    """Resolve request ``rid`` with ``value``.

    ``cache_hit`` is the provenance flag (prediction-cache hit or
    singleflight attachment); ``late`` marks a request that was answered
    after its deadline (counted as a deadline miss, *not* a shed).
    ``arrival`` is the submission time, for latency accounting.
    """

    rid: int
    value: float
    cache_hit: bool
    arrival: float
    late: bool


@dataclass(frozen=True)
class Shed:
    """Fail request ``rid`` fast, before any model work runs on it.

    ``stage`` is where the pipeline caught it: ``"admission"`` (rejected on
    arrival), ``"queue"`` (dropped while pending) or ``"execution"``
    (expired by the time its batch actually started executing).  ``reason``
    says why: ``"deadline"`` (the request's own budget expired),
    ``"queue_full"`` (the bounded queue or a tenant quota rejected it at
    admission) or ``"priority_evict"`` (a queued request was evicted to
    admit a scheduling-better newcomer).
    """

    rid: int
    stage: str
    reason: str = "deadline"


@dataclass(frozen=True)
class Fail:
    """Fail request ``rid`` with a model/batch ``error``.

    ``shed=True`` only when the error is itself a deadline expiry raised by
    the model path — accounted as a shed, not a serving error.
    """

    rid: int
    error: BaseException
    shed: bool = False


@dataclass(frozen=True)
class BatchEntry:
    """One member of a flushed batch.

    The driver needs the workload (to call the model) and the expiry (to
    re-partition with :func:`split_expired` at execution start).
    """

    rid: int
    workload: Workload
    deadline_at: float | None


@dataclass(frozen=True)
class FlushBatch:
    """Execute ``entries`` as one model batch, then feed back
    :class:`BatchDone` / :class:`BatchFailed` with this ``batch_id``.

    The driver must re-check expiry at actual execution start with
    :func:`split_expired` and call the model only on the live entries —
    the kernel recomputes the identical partition from ``started_at``.

    ``reason`` is ``"size"`` for a full batch, ``"close"`` for a smaller
    cut after :class:`Close`, and ``"deadline"`` for a cut below
    ``max_batch_size`` because the model slot freed.  At most one flushed
    batch is outstanding at a time.
    """

    batch_id: int
    entries: tuple[BatchEntry, ...]
    reason: str  # "size" | "deadline" | "close"


@dataclass(frozen=True)
class CacheWrite:
    """Informational: the kernel write-through-populated ``key -> value``."""

    key: Hashable
    value: float


@dataclass(frozen=True)
class CacheInvalidate:
    """Informational: a hot swap cleared the cache and the inflight table."""

    generation: int


@dataclass(frozen=True)
class ObserveBatch:
    """Telemetry delta: one model batch of ``size`` live entries ran."""

    size: int


@dataclass(frozen=True)
class ObserveQueueDepth:
    """Telemetry delta: the pending queue reached ``depth`` after an admit."""

    depth: int


Action = Union[
    Complete,
    Shed,
    Fail,
    FlushBatch,
    CacheWrite,
    CacheInvalidate,
    ObserveBatch,
    ObserveQueueDepth,
]

#: Error message per shed stage / overload reason (stable strings, pinned by
#: tests).  Deadline sheds key on the stage; overload sheds key on the reason.
SHED_MESSAGES = {
    "admission": "request shed at admission: deadline already expired",
    "queue": "request shed before execution: deadline expired while queued",
    "execution": "request shed before execution: deadline expired while queued",
    "queue_full": "request shed under overload: queue depth or tenant quota exceeded",
    "priority_evict": "request shed under overload: evicted for a higher-priority request",
}


def split_expired(entries: Iterable[Any], now: float) -> tuple[list[Any], list[Any]]:
    """Partition batch entries into ``(live, expired)`` at time ``now``.

    The single expiry rule shared by the kernel and every driver: an entry
    whose ``deadline_at`` is not ``None`` and ``<= now`` is expired.  Order
    is preserved within each part, so the kernel's recomputed partition of
    a batch always matches the driver's partition at execution start.
    """
    live: list[Any] = []
    expired: list[Any] = []
    for entry in entries:
        if entry.deadline_at is not None and entry.deadline_at <= now:
            expired.append(entry)
        else:
            live.append(entry)
    return live, expired


def apply_actions(
    actions: Iterable[Action],
    *,
    telemetry: Any,
    complete: Callable[[Complete], None],
    fail: Callable[[int, BaseException], None],
    flush: Callable[[FlushBatch], None],
    clock: Callable[[], float] = time.monotonic,
    tenant_of: Callable[[int], str | None] | None = None,
) -> None:
    """Perform a kernel action list against real telemetry and futures.

    The one translation every driver shares: ``Complete``/``Shed``/``Fail``
    feed the :class:`~repro.serving.telemetry.ServingTelemetry` counters
    exactly as the pre-kernel fronts did, then resolve the caller-facing
    future via ``complete(action)`` / ``fail(rid, error)``; ``FlushBatch``
    is handed to ``flush``; the informational cache actions are no-ops.

    ``tenant_of`` is the driver's rid→tenant lookup (requests carrying a
    :attr:`~repro.api.PredictionRequest.tenant` label); when provided, the
    resolving observation is also accumulated into that tenant's telemetry
    slice.  The kernel itself never sees tenants — the label is pure
    accounting metadata owned by the drivers.
    """
    def _label(rid: int) -> dict[str, str]:
        # Passed as **kwargs only when a label exists, so duck-typed
        # telemetry doubles without the ``tenant`` parameter keep working.
        tenant = tenant_of(rid) if tenant_of is not None else None
        return {} if tenant is None else {"tenant": tenant}

    for action in actions:
        if isinstance(action, Complete):
            label = _label(action.rid)
            if action.late:
                telemetry.record_deadline_miss(**label)
            telemetry.record(
                clock() - action.arrival, cache_hit=action.cache_hit, **label
            )
            complete(action)
        elif isinstance(action, Shed):
            label = _label(action.rid)
            if action.reason != "deadline":
                # Overload sheds carry their reason into telemetry (and are
                # not deadline misses); the kwarg is only passed when it
                # deviates from the default so duck-typed telemetry doubles
                # without the parameter keep working on deadline sheds.
                label["reason"] = action.reason
            telemetry.record_deadline_miss(shed=True, **label)
            message_key = action.stage if action.reason == "deadline" else action.reason
            fail(action.rid, DeadlineExceededError(SHED_MESSAGES[message_key]))
        elif isinstance(action, Fail):
            label = _label(action.rid)
            if action.shed:
                telemetry.record_deadline_miss(shed=True, **label)
            else:
                telemetry.record_error(**label)
            fail(action.rid, action.error)
        elif isinstance(action, FlushBatch):
            flush(action)
        elif isinstance(action, ObserveBatch):
            telemetry.observe_batch(action.size)
        elif isinstance(action, ObserveQueueDepth):
            telemetry.observe_queue_depth(action.depth)
        # CacheWrite / CacheInvalidate are informational: the kernel already
        # mutated its own cache; nothing exists outside it to update.


# -- kernel internals -----------------------------------------------------------------


@dataclass
class _Follower:
    """A request coalesced onto an in-flight leader (singleflight)."""

    rid: int
    arrival: float
    deadline_at: float | None


@dataclass
class _Entry:
    """One admitted request owned by the kernel until it completes."""

    rid: int
    workload: Workload
    key: Hashable | None
    arrival: float
    deadline_at: float | None
    generation: int
    tenant: str | None
    priority: int
    seq: int
    leads: bool = False
    followers: list[_Follower] = field(default_factory=list)


def _sched_key(entry: _Entry) -> tuple[int, float, int]:
    """Total scheduling order: priority first (higher wins), then EDF
    (deadline-free items last), then admission sequence.

    The ``seq`` component makes the order total — equal deadlines no longer
    fall back on whatever insertion order the queue happens to hold — and
    its reverse is the eviction order under ``max_queue_depth``: the *last*
    entry in scheduling order is the first shed under overload.
    """
    deadline = entry.deadline_at if entry.deadline_at is not None else float("inf")
    return (-entry.priority, deadline, entry.seq)


@dataclass
class _Batch:
    """A flushed batch awaiting its BatchDone/BatchFailed event."""

    batch_id: int
    entries: list[_Entry]
    reason: str


class PipelineKernel:
    """Pure state machine for the four-layer serving pipeline.

    Feed events (either through the per-event methods or through
    :meth:`handle`); perform the returned actions.  The kernel's internal
    clock only moves forward, to the latest ``now`` it has seen — drivers
    pass real ``time.monotonic()`` readings, tests pass a virtual clock.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self._now = 0.0
        self._cache: LRUTTLCache | None = (
            LRUTTLCache(
                self.config.cache_entries,
                ttl_s=self.config.cache_ttl_s,
                clock=lambda: self._now,
            )
            if self.config.enable_cache
            else None
        )
        self._inflight: dict[Hashable, _Entry] = {}
        self._pending: list[_Entry] = []
        # The one model slot: the flushed batch awaiting BatchDone/BatchFailed.
        self._executing: _Batch | None = None
        self._batch_ids = itertools.count(1)
        self._seq = itertools.count()
        # Per-tenant accounting: admitted-but-unresolved requests (quota
        # enforcement) and stride-scheduler pass values (fair share).
        self._tenant_inflight: dict[str | None, int] = {}
        self._tenant_pass: dict[str | None, int] = {}
        self._vtime = 0
        self._generation = 0
        self._version: Any = None
        self._closing = False
        self._coalesced = 0
        # BatcherStats counters.
        self._requests = 0
        self._batches = 0
        self._size_flushes = 0
        self._deadline_flushes = 0
        self._close_flushes = 0
        self._max_batch_seen = 0
        self._shed = 0

    # -- event dispatch ---------------------------------------------------------------

    def handle(self, event: Event) -> list[Action]:
        """Process one typed event (the harness/driver-agnostic entrypoint)."""
        if isinstance(event, Submit):
            return self.submit(
                event.rid,
                event.workload,
                now=event.now,
                deadline_at=event.deadline_at,
                use_cache=event.use_cache,
                signature=event.signature,
                tenant=event.tenant,
                priority=event.priority,
            )
        if isinstance(event, Tick):
            return self.tick(event.now)
        if isinstance(event, SyncVersion):
            return self.sync_version(event.version, event.now)
        if isinstance(event, BatchDone):
            return self.batch_done(event.batch_id, event.started_at, event.values, event.now)
        if isinstance(event, BatchFailed):
            return self.batch_failed(event.batch_id, event.started_at, event.error, event.now)
        if isinstance(event, Close):
            return self.close(event.now)
        raise InvalidParameterError(f"unknown kernel event: {event!r}")

    # -- events -----------------------------------------------------------------------

    def submit(
        self,
        rid: int,
        workload: Workload,
        *,
        now: float,
        deadline_at: float | None = None,
        use_cache: bool = True,
        signature: Hashable | None = None,
        tenant: str | None = None,
        priority: int = 0,
    ) -> list[Action]:
        """Admit one request through cache → singleflight → quotas → batcher.

        Provenance and deadline semantics match the pre-kernel fronts: a
        cache hit or a singleflight attachment completes with
        ``cache_hit=True`` (an expired request that still hits the cache is
        answered *late*, not shed); BYPASS (``use_cache=False``) skips the
        read and the attach but still write-through-populates on
        completion; an already-expired miss is shed at admission.
        Deadline-carrying requests may attach to in-flight work but never
        lead it — a leader that could be shed would take its followers down
        with it.

        Overload control runs after the deadline check: a tenant at its
        max-inflight cap is shed ``"queue_full"``; a full bounded queue
        sheds whichever of {worst queued follower-free entry, newcomer} is
        last in scheduling order (``"priority_evict"`` / ``"queue_full"``).
        """
        if self._closing:
            raise ServingError("cannot submit to a closed serving kernel")
        actions = self._advance(now)
        key: Hashable | None = None
        if self._cache is not None:
            key = signature if signature is not None else workload_signature(workload)
        if self._cache is not None and use_cache:
            sentinel = object()
            cached = self._cache.get(key, sentinel)
            if cached is not sentinel:
                actions.append(
                    Complete(
                        rid,
                        float(cached),
                        cache_hit=True,
                        arrival=now,
                        late=self._late(deadline_at),
                    )
                )
                return actions
            leader = self._inflight.get(key)
            if leader is not None:
                # Singleflight: attach to the identical in-flight request
                # instead of enqueueing duplicate model work.
                self._coalesced += 1
                leader.followers.append(_Follower(rid, now, deadline_at))
                return actions
        if deadline_at is not None and self._now >= deadline_at:
            # Expired before any model work was enqueued: shed at admission
            # (not a batcher shed — the batcher never saw it).
            actions.append(Shed(rid, "admission"))
            return actions
        cap = self.config.inflight_cap(tenant)
        if cap is not None and self._tenant_inflight.get(tenant, 0) >= cap:
            # Tenant over its inflight quota: shed at admission (the
            # batcher never saw it), with the overload reason.
            actions.append(Shed(rid, "admission", "queue_full"))
            return actions
        if (
            self.config.max_queue_depth is not None
            and len(self._pending) >= self.config.max_queue_depth
        ):
            # Bounded queue: evict the scheduling-worst follower-free
            # queued entry, or reject the newcomer when it is the worst
            # (its prospective seq is newest, so it loses every tie).
            victim_index = -1
            for index, entry in enumerate(self._pending):
                if entry.followers:
                    continue
                if victim_index < 0 or _sched_key(entry) > _sched_key(self._pending[victim_index]):
                    victim_index = index
            newcomer_key = (
                -priority,
                deadline_at if deadline_at is not None else float("inf"),
                float("inf"),
            )
            if victim_index < 0 or newcomer_key > _sched_key(self._pending[victim_index]):
                actions.append(Shed(rid, "admission", "queue_full"))
                return actions
            victim = self._pending.pop(victim_index)
            self._shed_entry(victim, "queue", actions, reason="priority_evict")
        entry = _Entry(
            rid=rid,
            workload=workload,
            key=key,
            arrival=now,
            deadline_at=deadline_at,
            generation=self._generation,
            tenant=tenant,
            priority=priority,
            seq=next(self._seq),
        )
        self._requests += 1
        self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        if self._cache is not None and deadline_at is None and key not in self._inflight:
            self._inflight[key] = entry
            entry.leads = True
        self._pending.append(entry)
        actions.append(ObserveQueueDepth(len(self._pending)))
        actions.extend(self._maybe_flush())
        return actions

    def tick(self, now: float) -> list[Action]:
        """Advance time: shed expired queued work.

        Nothing else can be due: work only queues while the slot is busy,
        and the ``BatchDone`` / ``BatchFailed`` that frees it cuts the next
        batch.
        """
        return self._advance(now)

    def sync_version(self, version: Any, now: float) -> list[Action]:
        """Record the registry's active version; invalidate on a hot swap.

        The first resolution is not a swap.  A swap clears the cache *and*
        the singleflight table (a post-swap request must not coalesce onto
        a pre-swap computation) and bumps the generation that gates cache
        write-back, so a batch already executing during the swap cannot
        repopulate the fresh cache with the old model's values.  Followers
        already attached to an in-flight leader stay attached: their answer
        was admitted pre-swap.
        """
        actions = self._advance(now)
        if version != self._version:
            if self._version is not None:
                self._generation += 1
                if self._cache is not None:
                    self._cache.clear()
                self._inflight.clear()
                executing = self._executing.entries if self._executing is not None else []
                for entry in itertools.chain(self._pending, executing):
                    entry.leads = False
                actions.append(CacheInvalidate(self._generation))
            self._version = version
        return actions

    def batch_done(
        self, batch_id: int, started_at: float, values: Sequence[float], now: float
    ) -> list[Action]:
        """Complete a flushed batch with the model's values.

        Entries expired by ``started_at`` (execution start) are shed — the
        values cover only the live partition, in :func:`split_expired`
        order.  Live completions write through to the cache when their
        admission generation still matches (hot-swap gating), resolve their
        singleflight followers, and count a late completion as a deadline
        miss.
        """
        actions = self._advance(now)
        live, expired = self._finish_batch(batch_id, started_at, actions)
        if live:
            if len(values) != len(live):
                mismatch = ServingError(
                    f"predict_batch returned {len(values)} predictions "
                    f"for a batch of {len(live)}"
                )
                for entry in live:
                    self._fail_entry(entry, mismatch, actions)
            else:
                for entry, value in zip(live, values):
                    self._complete_entry(entry, float(value), actions)
        actions.extend(self._maybe_flush())
        return actions

    def batch_failed(
        self, batch_id: int, started_at: float, error: BaseException, now: float
    ) -> list[Action]:
        """Fail a flushed batch: every live entry (and its followers) errors."""
        actions = self._advance(now)
        live, _expired = self._finish_batch(batch_id, started_at, actions)
        for entry in live:
            self._fail_entry(entry, error, actions)
        actions.extend(self._maybe_flush())
        return actions

    def close(self, now: float) -> list[Action]:
        """Start draining: the batches cut from here on (as the slot frees)
        carry reason ``"close"`` unless full."""
        self._closing = True
        return self._advance(now)

    # -- introspection ----------------------------------------------------------------

    def idle(self) -> bool:
        """True when nothing is queued or executing (drained)."""
        return not self._pending and self._executing is None

    @property
    def generation(self) -> int:
        """Cache generation; bumped by every hot swap."""
        return self._generation

    @property
    def version(self) -> Any:
        """The served model version last seen via :meth:`sync_version`."""
        return self._version

    @property
    def coalesced_requests(self) -> int:
        """Requests answered by attaching to an identical in-flight request."""
        return self._coalesced

    def pending_count(self) -> int:
        """Requests currently queued for batching."""
        return len(self._pending)

    def executing_count(self) -> int:
        """Flushed batches whose BatchDone/BatchFailed has not arrived yet (0 or 1)."""
        return 0 if self._executing is None else 1

    def tenant_inflight(self) -> dict[str | None, int]:
        """Admitted-but-unresolved requests per tenant label (quota view)."""
        return {tenant: n for tenant, n in self._tenant_inflight.items() if n > 0}

    def batcher_stats(self) -> BatcherStats:
        """Micro-batching counters."""
        return BatcherStats(
            requests=self._requests,
            batches=self._batches,
            size_flushes=self._size_flushes,
            deadline_flushes=self._deadline_flushes,
            close_flushes=self._close_flushes,
            max_batch_size_seen=self._max_batch_seen,
            shed_requests=self._shed,
        )

    def cache_stats(self) -> CacheStats | None:
        """Prediction-cache counters, or ``None`` when caching is disabled."""
        return self._cache.stats() if self._cache is not None else None

    # -- internals --------------------------------------------------------------------

    def _late(self, deadline_at: float | None) -> bool:
        return deadline_at is not None and self._now > deadline_at

    def _advance(self, now: float) -> list[Action]:
        """Move the clock forward and shed expired queued requests."""
        if now > self._now:
            self._now = now
        actions: list[Action] = []
        if self._pending:
            live, expired = split_expired(self._pending, self._now)
            if expired:
                self._pending = live
                for entry in expired:
                    self._shed_entry(entry, "queue", actions)
        return actions

    def _shed_entry(
        self, entry: _Entry, stage: str, actions: list[Action], *, reason: str = "deadline"
    ) -> None:
        self._shed += 1
        self._release_entry(entry)
        self._clear_inflight(entry)
        actions.append(Shed(entry.rid, stage, reason))
        # Deadline sheds never carry followers (leaders are deadline-free by
        # construction) and queue-full eviction skips entries with followers,
        # so a shed entry never takes coalesced requests down with it.

    def _release_entry(self, entry: _Entry) -> None:
        """Drop one unit of the entry's tenant-inflight accounting.

        Every admitted entry leaves the kernel through exactly one of
        shed / complete / fail, so the incremental counters stay in lock
        step with the naive recount the oracle performs.
        """
        count = self._tenant_inflight.get(entry.tenant, 0) - 1
        if count > 0:
            self._tenant_inflight[entry.tenant] = count
        else:
            self._tenant_inflight.pop(entry.tenant, None)

    def _clear_inflight(self, entry: _Entry) -> None:
        if entry.leads and self._inflight.get(entry.key) is entry:
            del self._inflight[entry.key]
        entry.leads = False

    def _complete_entry(self, entry: _Entry, value: float, actions: list[Action]) -> None:
        self._release_entry(entry)
        if self._cache is not None and entry.generation == self._generation:
            self._cache.put(entry.key, value)
            actions.append(CacheWrite(entry.key, value))
        self._clear_inflight(entry)
        actions.append(
            Complete(
                entry.rid,
                value,
                cache_hit=False,
                arrival=entry.arrival,
                late=self._late(entry.deadline_at),
            )
        )
        for follower in entry.followers:
            actions.append(
                Complete(
                    follower.rid,
                    value,
                    cache_hit=True,
                    arrival=follower.arrival,
                    late=self._late(follower.deadline_at),
                )
            )

    def _fail_entry(self, entry: _Entry, error: BaseException, actions: list[Action]) -> None:
        self._release_entry(entry)
        self._clear_inflight(entry)
        # A deadline error raised on the model path counts as a shed; a
        # follower's failure is always a serving error (it was promised a
        # value, not a deadline) — both exactly as the pre-kernel fronts
        # accounted them.
        actions.append(Fail(entry.rid, error, shed=isinstance(error, DeadlineExceededError)))
        for follower in entry.followers:
            actions.append(Fail(follower.rid, error, shed=False))

    def _finish_batch(
        self, batch_id: int, started_at: float, actions: list[Action]
    ) -> tuple[list[_Entry], list[_Entry]]:
        """Retire a flushed batch: recompute the live/expired partition at
        execution start, shed the expired part, count the batch (live part
        only — an all-expired flush never reached the model)."""
        batch = self._executing
        if batch is None or batch.batch_id != batch_id:
            raise ServingError(f"unknown batch id {batch_id}")
        self._executing = None
        live, expired = split_expired(batch.entries, started_at)
        for entry in expired:
            self._shed_entry(entry, "execution", actions)
        if live:
            self._batches += 1
            self._max_batch_seen = max(self._max_batch_seen, len(live))
            if batch.reason == "size":
                self._size_flushes += 1
            elif batch.reason == "close":
                self._close_flushes += 1
            else:
                self._deadline_flushes += 1
            actions.append(ObserveBatch(len(live)))
        return live, expired

    def _maybe_flush(self) -> list[Action]:
        """Cut one batch from the pending queue if the model slot is free."""
        if not self._pending or self._executing is not None:
            return []
        entries = self._cut_batch()
        if len(entries) == self.config.max_batch_size:
            reason = "size"
        elif self._closing:
            reason = "close"
        else:
            reason = "deadline"
        batch_id = next(self._batch_ids)
        self._executing = _Batch(batch_id, entries, reason)
        return [
            FlushBatch(
                batch_id,
                tuple(BatchEntry(e.rid, e.workload, e.deadline_at) for e in entries),
                reason,
            )
        ]

    def _cut_batch(self) -> list[_Entry]:
        """Select up to ``max_batch_size`` pending entries for one batch.

        Default policy: sort the whole queue by :func:`_sched_key`
        (priority, then EDF, then admission seq — a total order) and take
        the head; with every priority equal and no deadlines this is
        exactly the original FIFO cut.  With ``tenant_weights`` configured,
        slots are instead awarded one at a time by a stride scheduler over
        the tenants present at the highest pending priority — priority
        still strictly dominates; fairness only arbitrates within a
        priority level.
        """
        if self.config.tenant_weights is None:
            self._pending.sort(key=_sched_key)
            batch = self._pending[: self.config.max_batch_size]
            del self._pending[: self.config.max_batch_size]
            return batch
        batch: list[_Entry] = []
        while self._pending and len(batch) < self.config.max_batch_size:
            top = max(entry.priority for entry in self._pending)
            chosen: tuple[tuple[int, str], str | None] | None = None
            for entry in self._pending:
                if entry.priority != top:
                    continue
                tenant_pass = max(self._tenant_pass.get(entry.tenant, 0), self._vtime)
                rank = (tenant_pass, entry.tenant if entry.tenant is not None else "")
                if chosen is None or rank < chosen[0]:
                    chosen = (rank, entry.tenant)
            tenant = chosen[1]
            pick_index = -1
            for index, entry in enumerate(self._pending):
                if entry.priority != top or entry.tenant != tenant:
                    continue
                if pick_index < 0 or _sched_key(entry) < _sched_key(self._pending[pick_index]):
                    pick_index = index
            batch.append(self._pending.pop(pick_index))
            start = max(self._tenant_pass.get(tenant, 0), self._vtime)
            self._tenant_pass[tenant] = start + STRIDE_SCALE // self.config.weight_of(tenant)
            self._vtime = start
        return batch
