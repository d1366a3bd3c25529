"""Memoized featurization pipeline: plan fingerprints + plan-feature caches.

Plan featurization is the per-query hot path of the whole system: every
:meth:`~repro.core.model.LearnedWMP.predict` call walks each query's plan
tree to build its (count, cardinality) feature vector before template
assignment, and the serving layer's prediction cache only helps on *exact
workload repeats* — the same plan appearing inside two different workloads is
re-walked both times.  Feature vectors, however, are pure functions of the
plan: the same plan always produces the same vector, bit for bit.  That makes
them ideal memoization targets.

This module provides the pieces of that pipeline:

* :func:`plan_fingerprint` — a stable structural hash of a
  :class:`~repro.dbms.plan.operators.PlanNode` tree covering exactly the
  fields the featurizer reads (operator types and estimated output
  cardinalities) plus the tree shape, so equal fingerprints imply
  bit-identical feature vectors.  Plans are immutable, so the digest is
  computed once per plan object and memoized on it;
* :class:`MemoizedFeaturizer` — a drop-in wrapper around
  :class:`~repro.core.featurizer.PlanFeaturizer` with a bounded, thread-safe
  LRU plan-feature cache and hit/miss/eviction counters
  (:class:`FeatureCacheStats`).  Each model owns one such cache;
* :func:`feature_cache_stats` — duck-typed extraction of those counters from
  any model object, used by the serving telemetry and the CLI;
* :func:`reconfigure_featurizer` — the single implementation behind the
  models' ``configure_feature_cache(max_entries)``.

The cache composes with the serving layer's prediction cache: the prediction
cache answers *repeated workloads* without touching the model at all, while
the feature cache accelerates *new workloads made of previously seen plans*
— the common case in production traffic, where a workload is a fresh
combination of recurring report and dashboard queries.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.featurizer import PlanFeaturizer
from repro.dbms.plan.operators import PlanNode
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError

__all__ = [
    "DEFAULT_FEATURE_CACHE_SIZE",
    "FeatureCacheStats",
    "MemoizedFeaturizer",
    "feature_cache_stats",
    "plan_fingerprint",
    "reconfigure_featurizer",
]

#: Default capacity of a :class:`MemoizedFeaturizer` cache.  Benchmarks use a
#: few hundred distinct generator templates, so this comfortably holds every
#: distinct plan of a serving session while bounding worst-case memory to a
#: few megabytes (one 26-float row per entry).
DEFAULT_FEATURE_CACHE_SIZE = 4096

_CARDINALITY_STRUCT = struct.Struct("<d")

# -- plan fingerprints -------------------------------------------------------------


def plan_fingerprint(plan: PlanNode) -> str:
    """A stable structural hash identifying a plan for featurization purposes.

    The fingerprint digests a pre-order traversal of the tree: each node
    contributes its operator type and its optimizer-estimated output
    cardinality, and the child lists are delimited so tree *shape* is part of
    the identity (``SORT(HSJOIN(a, b))`` and ``SORT(HSJOIN(b, a))`` differ).
    These are a superset of the fields
    :class:`~repro.core.featurizer.PlanFeaturizer` reads, so two plans with
    equal fingerprints always produce bit-identical feature vectors under any
    featurizer configuration — the invariant that makes
    :class:`MemoizedFeaturizer` exact rather than approximate.

    Fields the featurizer never reads (row widths, table names, true
    cardinalities, detail strings) are deliberately excluded: including them
    would only fragment the cache across plans that featurize identically.

    Plans are immutable, so the digest is computed once and stored in the
    plan's ``__dict__``; later calls on the same object (the warm
    feature-cache path) are a dict lookup.  The traversal is iterative, so
    fingerprinting is safe on plans deeper than the Python recursion limit.
    """
    memo = plan.__dict__.get("_fingerprint")
    if memo is not None:
        return memo
    digest = hashlib.blake2b(digest_size=16)
    # ``None`` on the stack marks "close the current node's child list".
    stack: list[PlanNode | None] = [plan]
    while stack:
        node = stack.pop()
        if node is None:
            digest.update(b")")
            continue
        digest.update(node.op_type.value.encode("ascii"))
        digest.update(_CARDINALITY_STRUCT.pack(float(node.est_cardinality)))
        digest.update(b"(")
        stack.append(None)
        stack.extend(reversed(node.children))
    fingerprint = digest.hexdigest()
    plan.__dict__["_fingerprint"] = fingerprint
    return fingerprint


@dataclass(frozen=True)
class FeatureCacheStats:
    """Counters accumulated over the lifetime of a feature cache.

    ``hits`` and ``misses`` count *rows served*, so a batch containing the
    same plan five times after eviction counts five misses even though the
    vector is computed once.  ``evictions`` counts entries dropped to honor
    the capacity bound (including shrinks via
    :meth:`MemoizedFeaturizer.resize`).
    """

    hits: int
    misses: int
    evictions: int
    size: int
    max_entries: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of featurized rows served from the cache (0.0 when unused)."""
        total = self.requests
        return self.hits / total if total else 0.0


class _FeatureRowStore:
    """Bounded, thread-safe LRU store of feature rows, keyed by plan fingerprint."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise InvalidParameterError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_many(self, keys: Sequence[str]) -> list[np.ndarray | None]:
        """Rows for ``keys`` (``None`` per miss), counting one hit/miss per key."""
        out: list[np.ndarray | None] = []
        with self._lock:
            for key in keys:
                row = self._entries.get(key)
                if row is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                else:
                    self._misses += 1
                out.append(row)
        return out

    def put_many(self, items: dict[str, np.ndarray]) -> None:
        with self._lock:
            for key, row in items.items():
                self._entries[key] = row
                self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def stats(self) -> FeatureCacheStats:
        with self._lock:
            return FeatureCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_entries=self.max_entries,
            )

    def clear(self) -> None:
        """Drop every cached row (counters survive)."""
        with self._lock:
            self._entries.clear()

    def resize(self, max_entries: int) -> None:
        if max_entries < 1:
            raise InvalidParameterError("max_entries must be >= 1")
        with self._lock:
            self.max_entries = int(max_entries)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1


class MemoizedFeaturizer:
    """A :class:`~repro.core.featurizer.PlanFeaturizer` with a plan-feature cache.

    Drop-in replacement for ``PlanFeaturizer`` (same ``featurize_plan`` /
    ``featurize_record`` / ``featurize_records`` / ``n_features`` /
    ``feature_names`` surface) that memoizes per-plan feature vectors keyed
    on :func:`plan_fingerprint`.  Memoization is exact: a cached row is the
    bit-identical array the base featurizer would have produced, so training
    and inference results are unchanged — only faster.

    Cached rows are returned as read-only arrays (callers that want to
    mutate a vector must copy it first); this is what lets cache hits skip
    the defensive copy as well as the plan walk.

    The cache is thread-safe — the serving layer's micro-batcher worker and
    caller threads featurize concurrently — and transient: pickling a
    memoized featurizer (e.g. inside a saved
    :class:`~repro.core.model.LearnedWMP`) persists only the configuration,
    and the cache rebuilds on first use after loading.

    Parameters
    ----------
    base:
        The wrapped featurizer; a default :class:`PlanFeaturizer` is created
        when omitted.  Wrapping an already-memoized featurizer is rejected.
    max_entries:
        Capacity bound; inserting beyond it evicts the least recently used
        fingerprint.
    """

    def __init__(
        self, base: PlanFeaturizer | None = None, *, max_entries: int | None = None
    ) -> None:
        if isinstance(base, MemoizedFeaturizer):
            raise InvalidParameterError("cannot memoize an already-memoized featurizer")
        self.base = base if base is not None else PlanFeaturizer()
        self._store = _FeatureRowStore(
            max_entries if max_entries is not None else DEFAULT_FEATURE_CACHE_SIZE
        )

    # -- PlanFeaturizer surface ------------------------------------------------------

    @property
    def max_entries(self) -> int:
        """Capacity of the cache."""
        return self._store.max_entries

    @property
    def log_cardinality(self) -> bool:
        """The wrapped featurizer's cardinality-compression setting."""
        return self.base.log_cardinality

    @property
    def n_features(self) -> int:
        """Length of a feature vector (delegates to the base featurizer)."""
        return self.base.n_features

    def feature_names(self) -> list[str]:
        """Human-readable names aligned with the feature vector layout."""
        return self.base.feature_names()

    def featurize_plan(self, plan: PlanNode) -> np.ndarray:
        """Feature vector of a single plan, served from the cache when possible.

        The returned array is read-only; copy it before mutating.
        """
        key = plan_fingerprint(plan)
        row = self._store.get_many([key])[0]
        if row is not None:
            return row
        row = self.base.featurize_plan(plan)
        row.setflags(write=False)
        self._store.put_many({key: row})
        return row

    def featurize_record(self, record: QueryRecord) -> np.ndarray:
        """Feature vector of a query-log record (its final plan), memoized."""
        return self.featurize_plan(record.plan)

    def featurize_records(self, records: Sequence[QueryRecord]) -> np.ndarray:
        """Feature matrix (n_records, n_features) assembled from cached rows.

        This is the vectorized batch path the prediction pipeline runs on:
        the output matrix is allocated once and cached rows are copied
        straight into it, so hits cost one fingerprint plus one row copy
        instead of a Python re-walk of the plan tree (a warm plan's
        fingerprint is a memo lookup), and records sharing the same
        fingerprint are featurized once per batch.
        """
        if not records:
            return np.zeros((0, self.n_features), dtype=np.float64)
        keys = [plan_fingerprint(record.plan) for record in records]
        out = np.empty((len(records), self.n_features), dtype=np.float64)
        rows = self._store.get_many(keys)
        misses: dict[str, list[int]] = {}
        for i, row in enumerate(rows):
            if row is not None:
                out[i] = row
            else:
                misses.setdefault(keys[i], []).append(i)
        if misses:
            fresh: dict[str, np.ndarray] = {}
            for key, indices in misses.items():
                row = self.base.featurize_record(records[indices[0]])
                row.setflags(write=False)
                fresh[key] = row
                for i in indices:
                    out[i] = row
            self._store.put_many(fresh)
        return out

    # -- cache management ------------------------------------------------------------

    def stats(self) -> FeatureCacheStats:
        """Hit/miss/eviction counters and the current occupancy."""
        return self._store.stats()

    def clear(self) -> None:
        """Drop cached rows (counters are preserved)."""
        self._store.clear()

    def resize(self, max_entries: int) -> None:
        """Change the capacity bound, evicting LRU entries when shrinking."""
        self._store.resize(max_entries)

    # -- pickling --------------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # Stores hold locks (unpicklable) and a cache inside a saved model
        # file would bloat it for no benefit (it rebuilds on first use):
        # persist only the configuration.
        return {"base": self.base, "max_entries": self.max_entries}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["base"], max_entries=state.get("max_entries"))  # type: ignore[misc]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"MemoizedFeaturizer(max_entries={self.max_entries}, "
            f"size={stats.size}, hit_rate={stats.hit_rate:.2f})"
        )


def reconfigure_featurizer(
    featurizer: PlanFeaturizer | MemoizedFeaturizer | None,
    max_entries: int | None = None,
) -> PlanFeaturizer | MemoizedFeaturizer | None:
    """The implementation behind the models' ``configure_feature_cache``.

    Returns the featurizer the model should use: ``max_entries <= 0``
    disables memoization (unwraps to the base featurizer), a positive
    ``max_entries`` enables the cache or resizes it in place, and ``None``
    leaves the featurizer as it is.  ``None`` input (a template method
    without a plan featurizer) is returned unchanged.
    """
    if featurizer is None or max_entries is None:
        return featurizer
    if isinstance(featurizer, MemoizedFeaturizer):
        if max_entries <= 0:
            return featurizer.base
        featurizer.resize(max_entries)
        return featurizer
    if max_entries <= 0:
        return featurizer
    return MemoizedFeaturizer(featurizer, max_entries=max_entries)


def feature_cache_stats(model: Any) -> FeatureCacheStats | None:
    """Extract feature-cache counters from any model object, if it has them.

    Tries, in order: a ``feature_cache_stats()`` method returning
    :class:`FeatureCacheStats` (``LearnedWMP``, ``SingleWMP`` and wrappers
    such as :class:`~repro.integration.predictors.CachedPredictor` expose
    one), then a ``featurizer`` attribute holding a
    :class:`MemoizedFeaturizer`.  Returns ``None`` for models without a
    memoized featurizer — telemetry callers treat that as "no feature cache".
    """
    getter = getattr(model, "feature_cache_stats", None)
    if callable(getter):
        try:
            stats = getter()
        except Exception:  # noqa: BLE001 - foreign model; treat as cache-less
            stats = None
        if isinstance(stats, FeatureCacheStats):
            return stats
    featurizer = getattr(model, "featurizer", None)
    if isinstance(featurizer, MemoizedFeaturizer):
        return featurizer.stats()
    return None
