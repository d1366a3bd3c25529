"""The naive-loop serving oracle, shared by tests and benchmarks.

Three kinds of "what should the serving stack have answered?" reference
logic used to be re-implemented inline across the serving test modules and
``benchmarks/test_serving_throughput.py``; this module is the single copy:

* :class:`LookupPredictor` / :class:`CountingPredictor` and
  :func:`make_lookup_pool` — deterministic toy models and workload pools
  whose correct answer is readable off the workload itself;
* :func:`naive_loop_values` / :func:`naive_loop_qps` — the naive
  one-call-at-a-time loop every serving front is differentially tested (and
  benchmarked) against;
* :class:`NaiveServingOracle` — a deliberately naive, loop-and-linear-scan
  re-implementation of the :class:`repro.serving.kernel.PipelineKernel`
  *specification*.  It consumes the same events and emits the same action
  dataclasses, but shares no pipeline code with the kernel: the cache is a
  plain list scanned front to back, the pending queue is a list of dicts,
  every rule is written out as an explicit loop.  The hypothesis harness in
  ``tests/test_kernel_differential.py`` drives both machines with the same
  event sequence and requires bit-identical actions and counters.

The oracle intentionally favors obviousness over speed; if the kernel and
the oracle disagree, the bug is in whichever one strayed from the docstring
contract they both implement.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import DeadlineExceededError, ServingError
from repro.serving.cache import CacheStats, workload_signature
from repro.serving.kernel import (
    BatcherStats,
    BatchDone,
    BatchEntry,
    BatchFailed,
    CacheInvalidate,
    CacheWrite,
    Close,
    Complete,
    Fail,
    FlushBatch,
    ObserveBatch,
    ObserveQueueDepth,
    ServerConfig,
    Shed,
    Submit,
    SyncVersion,
    Tick,
)

__all__ = [
    "LookupPredictor",
    "CountingPredictor",
    "make_lookup_pool",
    "naive_loop_values",
    "naive_loop_qps",
    "NaiveServingOracle",
    "normalize_actions",
]


class LookupPredictor:
    """Answers every workload with its own ``actual_memory_mb``.

    The simplest possible "model": the correct prediction is readable off
    the request, so any serving-layer transformation of the answer is
    detectable exactly.
    """

    def predict_workload(self, workload) -> float:
        return float(workload.actual_memory_mb or 0.0)

    def predict(self, workloads):
        return [float(w.actual_memory_mb or 0.0) for w in workloads]


class CountingPredictor:
    """Constant predictor that counts predict calls and batch sizes."""

    def __init__(self, value: float = 32.0, delay_s: float = 0.0) -> None:
        self.value = value
        self.delay_s = delay_s
        self.calls = 0
        self.batch_sizes: list[int] = []
        self._lock = threading.Lock()

    def predict_workload(self, queries) -> float:
        with self._lock:
            self.calls += 1
            self.batch_sizes.append(1)
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.value

    def predict(self, workloads):
        with self._lock:
            self.calls += 1
            self.batch_sizes.append(len(workloads))
        if self.delay_s:
            time.sleep(self.delay_s)
        return np.full(len(workloads), self.value)


class GatedLookupPredictor(LookupPredictor):
    """:class:`LookupPredictor` whose *first* batch blocks until released.

    Lets a test hold the server's one model slot busy, pile requests up
    behind it and observe — via ``order`` — the sequence they actually
    execute in.  ``inner``, when given, answers instead of the lookup (its
    errors propagate), so any predictor can be gated the same way.
    """

    def __init__(self, inner=None) -> None:
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()
        self.order: list[float] = []
        self._calls = 0
        self._lock = threading.Lock()

    def predict(self, workloads):
        with self._lock:
            self._calls += 1
            first = self._calls == 1
        if first:
            self.started.set()
            assert self.release.wait(5.0), "gated model never released"
        if self.inner is None:
            values = super().predict(workloads)
        else:
            values = list(self.inner.predict(workloads))
        self.order.extend(values)
        return values

    def predict_workload(self, workload) -> float:
        if self.inner is None:
            return super().predict_workload(workload)
        return self.inner.predict_workload(workload)


def make_lookup_pool(size: int = 6) -> list[Workload]:
    """``size`` distinct single-query workloads with known demands.

    Each entry carries a distinct query text (the prediction cache keys on
    query content) and demand ``10 * (index + 1)`` MB, so a served answer
    identifies exactly which pool entry produced it.
    """
    return [
        Workload(
            queries=[
                QueryRecord(
                    sql=f"select {i} from t",
                    plan=None,
                    actual_memory_mb=10.0 * (i + 1),
                    optimizer_estimate_mb=0.0,
                )
            ],
            actual_memory_mb=10.0 * (i + 1),
        )
        for i in range(size)
    ]


def naive_loop_values(model, workloads) -> np.ndarray:
    """The naive one-call-at-a-time answers (the serving differential oracle)."""
    return np.array([model.predict_workload(w) for w in workloads], dtype=np.float64)


def naive_loop_qps(model, workloads) -> float:
    """Throughput of the naive one-call-at-a-time loop on ``workloads``."""
    start = time.perf_counter()
    for workload in workloads:
        model.predict_workload(workload)
    return len(workloads) / (time.perf_counter() - start)


def normalize_actions(actions) -> list:
    """A comparable form of a kernel/oracle action list.

    Every action dataclass compares by value already except :class:`Fail`,
    which carries an exception instance: two independently constructed
    errors with the same type and message must compare equal, so it is
    flattened to ``(rid, type name, message, shed)``.
    """
    normalized = []
    for action in actions:
        if isinstance(action, Fail):
            normalized.append(
                ("Fail", action.rid, type(action.error).__name__, str(action.error), action.shed)
            )
        else:
            normalized.append(action)
    return normalized


class NaiveServingOracle:
    """Loop-and-linear-scan reference implementation of the pipeline kernel.

    Same events in, same actions out as
    :class:`repro.serving.kernel.PipelineKernel`, implemented the dumbest
    defensible way: the prediction cache is a list of ``[key, value,
    stored_at]`` rows in recency order (front = least recent), pending and
    executing work are lists of dicts, and every pipeline rule is an
    explicit loop over them.
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.now = 0.0
        self.closing = False
        self.version = None
        self.generation = 0
        self.coalesced = 0
        self.next_batch_id = 1
        self.next_seq = 0
        # Stride fair-share state (only consulted when tenant_weights is set).
        self.tenant_pass: dict = {}
        self.vtime = 0
        # Pipeline state: naive containers only.
        self.cache_rows: list[list] = []  # [key, value, stored_at], recency order
        self.cache_enabled = self.config.enable_cache
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.inflight: dict = {}  # key -> leader entry dict
        self.pending: list[dict] = []
        self.executing: dict[int, dict] = {}  # batch_id -> {"entries": [...], "reason": str}
        # BatcherStats counters.
        self.requests = 0
        self.batches = 0
        self.size_flushes = 0
        self.deadline_flushes = 0
        self.close_flushes = 0
        self.max_batch_seen = 0
        self.shed = 0

    # -- event dispatch (mirrors PipelineKernel.handle) -----------------------------

    def handle(self, event) -> list:
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
        raise ValueError(f"unknown oracle event: {event!r}")

    # -- naive cache (list scans; counters mirror LRUTTLCache exactly) --------------

    def _cache_get(self, key):
        """(found, value): TTL-expired rows are dropped and counted."""
        for i, row in enumerate(self.cache_rows):
            if row[0] == key:
                ttl = self.config.cache_ttl_s
                if ttl is not None and self.now - row[2] > ttl:
                    del self.cache_rows[i]
                    self.expirations += 1
                    self.misses += 1
                    return False, None
                # Refresh recency: move the row to the back of the list.
                del self.cache_rows[i]
                self.cache_rows.append(row)
                self.hits += 1
                return True, row[1]
        self.misses += 1
        return False, None

    def _cache_put(self, key, value):
        for i, row in enumerate(self.cache_rows):
            if row[0] == key:
                del self.cache_rows[i]
                break
        self.cache_rows.append([key, value, self.now])
        if len(self.cache_rows) > self.config.cache_entries:
            self._cache_sweep()
        while len(self.cache_rows) > self.config.cache_entries:
            del self.cache_rows[0]
            self.evictions += 1

    def _cache_sweep(self):
        ttl = self.config.cache_ttl_s
        if ttl is None:
            return
        kept = []
        for row in self.cache_rows:
            if self.now - row[2] > ttl:
                self.expirations += 1
            else:
                kept.append(row)
        self.cache_rows = kept

    def cache_stats(self) -> CacheStats | None:
        if not self.cache_enabled:
            return None
        self._cache_sweep()
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            expirations=self.expirations,
            size=len(self.cache_rows),
            max_entries=self.config.cache_entries,
        )

    # -- events ----------------------------------------------------------------------

    def submit(
        self,
        rid,
        workload,
        *,
        now,
        deadline_at=None,
        use_cache=True,
        signature=None,
        tenant=None,
        priority=0,
    ):
        if self.closing:
            raise ServingError("cannot submit to a closed serving kernel")
        actions = self._advance(now)
        key = None
        if self.cache_enabled:
            key = signature if signature is not None else workload_signature(workload)
        if self.cache_enabled and use_cache:
            found, value = self._cache_get(key)
            if found:
                late = deadline_at is not None and self.now > deadline_at
                actions.append(Complete(rid, float(value), cache_hit=True, arrival=now, late=late))
                return actions
            leader = self.inflight.get(key)
            if leader is not None:
                self.coalesced += 1
                leader["followers"].append((rid, now, deadline_at))
                return actions
        if deadline_at is not None and self.now >= deadline_at:
            actions.append(Shed(rid, "admission"))
            return actions
        # Per-tenant max-inflight quota: recount the tenant's live entries
        # the naive way (scan everything) on every submit.
        cap = self.config.inflight_cap(tenant)
        if cap is not None:
            inflight = 0
            for entry in self.pending:
                if entry["tenant"] == tenant:
                    inflight += 1
            for batch in self.executing.values():
                for entry in batch["entries"]:
                    if entry["tenant"] == tenant:
                        inflight += 1
            if inflight >= cap:
                actions.append(Shed(rid, "admission", "queue_full"))
                return actions
        if (
            self.config.max_queue_depth is not None
            and len(self.pending) >= self.config.max_queue_depth
        ):
            # Bounded queue: the scheduling-worst follower-free queued entry
            # and the newcomer compete; the loser of the scheduling order
            # (lowest priority, latest deadline, newest seq) is shed.
            victim = None
            for entry in self.pending:
                if entry["followers"]:
                    continue
                if victim is None or self._order_key(entry) > self._order_key(victim):
                    victim = entry
            newcomer_key = (
                -priority,
                deadline_at if deadline_at is not None else float("inf"),
                float("inf"),
            )
            if victim is None or newcomer_key > self._order_key(victim):
                actions.append(Shed(rid, "admission", "queue_full"))
                return actions
            kept = []
            for entry in self.pending:
                if entry is not victim:
                    kept.append(entry)
            self.pending = kept
            self._shed_entry(victim, "queue", actions, reason="priority_evict")
        entry = {
            "rid": rid,
            "workload": workload,
            "key": key,
            "arrival": now,
            "deadline_at": deadline_at,
            "generation": self.generation,
            "tenant": tenant,
            "priority": priority,
            "seq": self.next_seq,
            "leads": False,
            "followers": [],
        }
        self.next_seq += 1
        self.requests += 1
        if self.cache_enabled and deadline_at is None and key not in self.inflight:
            self.inflight[key] = entry
            entry["leads"] = True
        self.pending.append(entry)
        actions.append(ObserveQueueDepth(len(self.pending)))
        actions.extend(self._maybe_flush())
        return actions

    def tick(self, now):
        actions = self._advance(now)
        actions.extend(self._maybe_flush())
        return actions

    def sync_version(self, version, now):
        actions = self._advance(now)
        if version != self.version:
            if self.version is not None:
                self.generation += 1
                self.cache_rows = []
                self.inflight = {}
                for entry in self.pending:
                    entry["leads"] = False
                for batch in self.executing.values():
                    for entry in batch["entries"]:
                        entry["leads"] = False
                actions.append(CacheInvalidate(self.generation))
            self.version = version
        actions.extend(self._maybe_flush())
        return actions

    def batch_done(self, batch_id, started_at, values, now):
        actions = self._advance(now)
        live = self._finish_batch(batch_id, started_at, actions)
        if live:
            if len(values) != len(live):
                error = ServingError(
                    f"predict_batch returned {len(values)} predictions "
                    f"for a batch of {len(live)}"
                )
                for entry in live:
                    self._fail_entry(entry, error, actions)
            else:
                for entry, value in zip(live, values):
                    self._complete_entry(entry, float(value), actions)
        actions.extend(self._maybe_flush())
        return actions

    def batch_failed(self, batch_id, started_at, error, now):
        actions = self._advance(now)
        live = self._finish_batch(batch_id, started_at, actions)
        for entry in live:
            self._fail_entry(entry, error, actions)
        actions.extend(self._maybe_flush())
        return actions

    def close(self, now):
        self.closing = True
        actions = self._advance(now)
        actions.extend(self._maybe_flush())
        return actions

    # -- scheduling + introspection (compared against the kernel's) ------------------

    def idle(self) -> bool:
        return not self.pending and not self.executing

    def pending_count(self) -> int:
        return len(self.pending)

    def executing_count(self) -> int:
        return len(self.executing)

    def tenant_inflight(self) -> dict:
        """Per-tenant live entries, recounted naively from the containers."""
        counts: dict = {}
        for entry in self.pending:
            counts[entry["tenant"]] = counts.get(entry["tenant"], 0) + 1
        for batch in self.executing.values():
            for entry in batch["entries"]:
                counts[entry["tenant"]] = counts.get(entry["tenant"], 0) + 1
        return counts

    def batcher_stats(self) -> BatcherStats:
        return BatcherStats(
            requests=self.requests,
            batches=self.batches,
            size_flushes=self.size_flushes,
            deadline_flushes=self.deadline_flushes,
            close_flushes=self.close_flushes,
            max_batch_size_seen=self.max_batch_seen,
            shed_requests=self.shed,
        )

    # -- internal rules, written out as loops -----------------------------------------

    def _advance(self, now):
        if now > self.now:
            self.now = now
        actions = []
        still_pending = []
        for entry in self.pending:
            if entry["deadline_at"] is not None and entry["deadline_at"] <= self.now:
                self._shed_entry(entry, "queue", actions)
            else:
                still_pending.append(entry)
        self.pending = still_pending
        return actions

    def _order_key(self, entry):
        """The total scheduling order: priority desc, deadline asc, seq asc."""
        deadline = entry["deadline_at"] if entry["deadline_at"] is not None else float("inf")
        return (-entry["priority"], deadline, entry["seq"])

    def _shed_entry(self, entry, stage, actions, reason="deadline"):
        self.shed += 1
        self._clear_inflight(entry)
        actions.append(Shed(entry["rid"], stage, reason))

    def _clear_inflight(self, entry):
        if entry["leads"] and self.inflight.get(entry["key"]) is entry:
            del self.inflight[entry["key"]]
        entry["leads"] = False

    def _complete_entry(self, entry, value, actions):
        if self.cache_enabled and entry["generation"] == self.generation:
            self._cache_put(entry["key"], value)
            actions.append(CacheWrite(entry["key"], value))
        self._clear_inflight(entry)
        late = entry["deadline_at"] is not None and self.now > entry["deadline_at"]
        actions.append(
            Complete(entry["rid"], value, cache_hit=False, arrival=entry["arrival"], late=late)
        )
        for rid, arrival, deadline_at in entry["followers"]:
            late = deadline_at is not None and self.now > deadline_at
            actions.append(Complete(rid, value, cache_hit=True, arrival=arrival, late=late))

    def _fail_entry(self, entry, error, actions):
        self._clear_inflight(entry)
        actions.append(
            Fail(entry["rid"], error, shed=isinstance(error, DeadlineExceededError))
        )
        for rid, _arrival, _deadline_at in entry["followers"]:
            actions.append(Fail(rid, error, shed=False))

    def _finish_batch(self, batch_id, started_at, actions):
        batch = self.executing.pop(batch_id, None)
        if batch is None:
            raise ServingError(f"unknown batch id {batch_id}")
        live = []
        for entry in batch["entries"]:
            if entry["deadline_at"] is not None and entry["deadline_at"] <= started_at:
                self._shed_entry(entry, "execution", actions)
            else:
                live.append(entry)
        if live:
            self.batches += 1
            self.max_batch_seen = max(self.max_batch_seen, len(live))
            if batch["reason"] == "size":
                self.size_flushes += 1
            elif batch["reason"] == "close":
                self.close_flushes += 1
            else:
                self.deadline_flushes += 1
            actions.append(ObserveBatch(len(live)))
        return live

    def _maybe_flush(self):
        actions = []
        # One model slot: cut a batch whenever it is free and work is pending.
        if self.pending and not self.executing:
            batch = self._cut_batch()
            if len(batch) == self.config.max_batch_size:
                reason = "size"
            elif self.closing:
                reason = "close"
            else:
                reason = "deadline"
            actions.extend(self._flush(batch, reason))
        return actions

    def _cut_batch(self):
        if self.config.tenant_weights is None:
            self.pending.sort(key=self._order_key)
            batch = self.pending[: self.config.max_batch_size]
            self.pending = self.pending[self.config.max_batch_size :]
            return batch
        # Weighted fair share: award batch slots one at a time with a
        # stride scheduler over the tenants present at the highest pending
        # priority (priority strictly dominates fairness).
        stride_scale = 1 << 16
        batch = []
        while self.pending and len(batch) < self.config.max_batch_size:
            top = None
            for entry in self.pending:
                if top is None or entry["priority"] > top:
                    top = entry["priority"]
            tenant = None
            best_rank = None
            for entry in self.pending:
                if entry["priority"] != top:
                    continue
                tenant_pass = max(self.tenant_pass.get(entry["tenant"], 0), self.vtime)
                rank = (tenant_pass, entry["tenant"] if entry["tenant"] is not None else "")
                if best_rank is None or rank < best_rank:
                    best_rank = rank
                    tenant = entry["tenant"]
            pick = None
            for entry in self.pending:
                if entry["priority"] != top or entry["tenant"] != tenant:
                    continue
                if pick is None or self._order_key(entry) < self._order_key(pick):
                    pick = entry
            kept = []
            for entry in self.pending:
                if entry is not pick:
                    kept.append(entry)
            self.pending = kept
            batch.append(pick)
            start = max(self.tenant_pass.get(tenant, 0), self.vtime)
            self.tenant_pass[tenant] = start + stride_scale // self.config.weight_of(tenant)
            self.vtime = start
        return batch

    def _flush(self, entries, reason):
        batch_id = self.next_batch_id
        self.next_batch_id += 1
        self.executing[batch_id] = {"entries": entries, "reason": reason}
        return [
            FlushBatch(
                batch_id,
                tuple(
                    BatchEntry(entry["rid"], entry["workload"], entry["deadline_at"])
                    for entry in entries
                ),
                reason,
            )
        ]
