"""Tests for the LRU+TTL cache and workload signatures."""

import pytest

from repro.core.workload import Workload
from repro.exceptions import InvalidParameterError
from repro.serving.cache import LRUTTLCache, workload_signature


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = LRUTTLCache(4)
        cache.put("a", 1.0)
        assert cache.get("a") == 1.0
        assert cache.get("b") is None
        assert cache.get("b", -1.0) == -1.0

    def test_eviction_is_least_recently_used(self):
        cache = LRUTTLCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUTTLCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes 'a'
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_capacity_bound_holds(self):
        cache = LRUTTLCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            LRUTTLCache(0)
        with pytest.raises(InvalidParameterError):
            LRUTTLCache(4, ttl_s=0.0)

    @pytest.mark.parametrize("ttl_s", [float("nan"), float("inf")])
    def test_non_finite_ttl_is_rejected(self, ttl_s):
        # A nan TTL compares false against every age, so nothing would expire.
        with pytest.raises(InvalidParameterError, match="finite"):
            LRUTTLCache(4, ttl_s=ttl_s)


class TestTTL:
    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = LRUTTLCache(8, ttl_s=10.0, clock=clock)
        cache.put("a", 1.0)
        clock.advance(9.0)
        assert cache.get("a") == 1.0
        clock.advance(2.0)
        assert cache.get("a") is None
        assert cache.stats().expirations == 1
        assert len(cache) == 0

    def test_put_resets_age(self):
        clock = FakeClock()
        cache = LRUTTLCache(8, ttl_s=10.0, clock=clock)
        cache.put("a", 1.0)
        clock.advance(8.0)
        cache.put("a", 2.0)
        clock.advance(8.0)
        assert cache.get("a") == 2.0

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = LRUTTLCache(8, clock=clock)
        cache.put("a", 1.0)
        clock.advance(1e9)
        assert cache.get("a") == 1.0

    def test_put_sweeps_expired_entries_before_evicting_live_ones(self):
        """Regression: a TTL-dead entry must never cost a live entry its slot."""
        clock = FakeClock()
        cache = LRUTTLCache(2, ttl_s=10.0, clock=clock)
        cache.put("dead", 1.0)
        clock.advance(11.0)  # "dead" has expired but still occupies a slot
        cache.put("a", 2.0)
        cache.put("b", 3.0)  # would overflow: the sweep must take "dead", not "a"
        assert cache.get("a") == 2.0
        assert cache.get("b") == 3.0
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.evictions == 0
        assert stats.size == 2

    def test_stats_size_counts_only_live_entries(self):
        """Regression: ``stats().size`` used to count TTL-expired entries."""
        clock = FakeClock()
        cache = LRUTTLCache(8, ttl_s=10.0, clock=clock)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        clock.advance(11.0)
        stats = cache.stats()
        assert stats.size == 0
        assert stats.expirations == 2

    def test_live_entries_still_evicted_lru_when_nothing_expired(self):
        clock = FakeClock()
        cache = LRUTTLCache(2, ttl_s=10.0, clock=clock)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.put("c", 3.0)  # all live: plain LRU eviction of "a"
        assert cache.get("a") is None
        assert cache.stats().evictions == 1


class TestStats:
    def test_hit_rate(self):
        cache = LRUTTLCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(2.0 / 3.0)

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = LRUTTLCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1


class TestWorkloadSignature:
    def test_order_insensitive(self, tpcds_small):
        records = tpcds_small.test_records[:10]
        forward = workload_signature(Workload(queries=list(records)))
        backward = workload_signature(Workload(queries=list(reversed(records))))
        assert forward == backward

    def test_distinct_workloads_differ(self, tpcds_small):
        first = Workload(queries=tpcds_small.test_records[:10])
        second = Workload(queries=tpcds_small.test_records[10:20])
        assert workload_signature(first) != workload_signature(second)

    def test_accepts_plain_record_sequence(self, tpcds_small):
        records = tpcds_small.test_records[:5]
        assert workload_signature(records) == workload_signature(Workload(queries=list(records)))

    def test_signature_is_hashable(self, tpcds_small):
        {workload_signature(tpcds_small.test_records[:5]): 1.0}
