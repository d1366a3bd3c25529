"""LRU + TTL caching of workload predictions (the upper cache tier).

Production workload managers see heavily repeated traffic shapes: the same
report batches run every morning, the same dashboard queries arrive in
bursts.  Once a workload's template histogram has been seen, its predicted
memory demand does not change until the model is swapped, so the serving
layer can answer repeats without touching the featurizer or the regressor.

This module is the *prediction*-cache tier, keyed on whole workloads; the
per-plan *feature*-cache tier below it lives with the model
(:mod:`repro.core.features`) and accelerates workloads that miss here.

:class:`LRUTTLCache` is a small thread-safe cache combining a capacity bound
(least-recently-used eviction) with an optional time-to-live, so stale
entries age out even under a hot working set.  :func:`workload_signature`
derives the cache key for a workload: the multiset of generator template
seeds when available (cheap, plan-free), falling back to a digest of the
sorted SQL texts for ad-hoc queries.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError

__all__ = ["CacheStats", "LRUTTLCache", "workload_signature"]


@dataclass(frozen=True)
class CacheStats:
    """Counters accumulated over the lifetime of a cache."""

    hits: int
    misses: int
    evictions: int
    expirations: int
    size: int
    max_entries: int

    @property
    def requests(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.requests
        return self.hits / total if total else 0.0


class LRUTTLCache:
    """Bounded mapping with least-recently-used eviction and optional TTL.

    Parameters
    ----------
    max_entries:
        Capacity bound; inserting beyond it evicts the least recently used
        entry.
    ttl_s:
        Optional time-to-live in seconds.  Entries older than this are
        treated as absent (and removed) on lookup.  ``None`` disables expiry.
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        *,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise InvalidParameterError("max_entries must be >= 1")
        if ttl_s is not None and not 0.0 < ttl_s < math.inf:
            raise InvalidParameterError("ttl_s must be finite and > 0 (or None to disable expiry)")
        self.max_entries = int(max_entries)
        self.ttl_s = ttl_s
        self._clock = clock
        self._entries: OrderedDict[Hashable, tuple[Any, float]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for ``key``, refreshing its recency, or ``default``."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return default
            value, stored_at = entry
            if self.ttl_s is not None and now - stored_at > self.ttl_s:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable) -> bool:
        """Whether ``key`` is cached (honoring TTL) — no counters, no recency.

        Used for cache-provenance reporting: unlike :meth:`get` /
        ``__contains__`` a peek does not distort the hit/miss counters or
        the LRU order.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if self.ttl_s is not None and now - entry[1] > self.ttl_s:
                return False
            return True

    def _sweep_expired_locked(self, now: float) -> None:
        """Drop every TTL-dead entry (counted as expirations, not evictions)."""
        if self.ttl_s is None:
            return
        expired = [
            key
            for key, (_, stored_at) in self._entries.items()
            if now - stored_at > self.ttl_s
        ]
        for key in expired:
            del self._entries[key]
        self._expirations += len(expired)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting the LRU entry when full.

        When the insert overflows capacity, TTL-expired entries are swept
        first: dead entries must never cost a *live* entry its slot, and a
        sweep-then-evict also keeps the eviction counter honest (aging out
        is an expiration, not an eviction).
        """
        now = self._clock()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, now)
            if len(self._entries) > self.max_entries:
                self._sweep_expired_locked(now)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (used on model promotion: new model, new answers)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """Lifetime counters plus the current size and capacity.

        ``size`` counts only *live* entries: TTL-expired entries still
        occupying slots are swept (and counted as expirations) before the
        snapshot is taken.
        """
        now = self._clock()
        with self._lock:
            self._sweep_expired_locked(now)
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                size=len(self._entries),
                max_entries=self.max_entries,
            )


def workload_signature(queries: Sequence[QueryRecord] | Workload) -> Hashable:
    """An order-insensitive cache key identifying a workload's content.

    Two workloads that contain the same query texts (in any order) produce
    the same signature: template assignment depends only on each query's
    plan, and the histogram — hence the prediction — is order-insensitive.
    Hashing the sorted SQL texts is exact (no false sharing between distinct
    workloads) while staying far cheaper than planning + featurization.
    """
    records = queries.queries if isinstance(queries, Workload) else list(queries)
    digest = hashlib.sha1()
    for sql in sorted(record.sql for record in records):
        digest.update(sql.encode("utf-8"))
        digest.update(b"\x00")
    return (len(records), digest.hexdigest())
