"""Pinned regressions: front divergences surfaced by the differential harness.

Before the serving fronts were rewritten over the shared
:class:`~repro.serving.kernel.PipelineKernel`, each carried its own copy of
the pipeline rules, and replaying identical traces through them (see
``test_kernel_differential.py``) exposed behavioral drift.  Each test here
pins one unified behavior across every front, minimally, so a future front
(or a front-local "optimization") cannot silently diverge again:

* coalescing must work with batching disabled (the old thread front only
  coalesced inside the micro-batcher);
* an expired BYPASS request must always shed, on every front (a since
  deleted event-loop front once failed this path with a ``NameError``
  instead of the typed ``DeadlineExceededError``);
* admission sheds are telemetry sheds but never batcher sheds — the
  fronts used to disagree on which counter they landed in;
* a hot swap mid-batch must gate the stale write-back on every front, not
  just invalidate the cache at swap time;
* an expired request answerable from the cache is delivered late (counted
  as a deadline miss), never shed;
* EDF cuts on equal deadlines follow a *total* scheduling order (priority,
  deadline, admission seq) — they used to fall back on whatever insertion
  order the pending queue happened to hold.
"""

import threading
import time

import pytest
from oracle import make_lookup_pool

from repro.api import CachePolicy, PredictionRequest
from repro.exceptions import DeadlineExceededError
from repro.registry import ModelRegistry
from repro.serving import PredictionServer, ServerConfig
from repro.serving.kernel import FlushBatch, PipelineKernel

POOL = make_lookup_pool(4)
FRONTS = ["thread"]


def make_front(kind, model, config):
    return PredictionServer(model, config=config)


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class GatePredictor:
    """A model whose ``predict`` blocks until the test releases it.

    ``entered`` observes "the batch is now executing on me" (so the test can
    arrange events strictly inside the execution window); ``release`` lets
    it finish.  Thread-safe: fronts call it from worker/executor threads.
    """

    def __init__(self, value: float) -> None:
        self.value = value
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def predict(self, workloads):
        self.entered.set()
        assert self.release.wait(10.0), "GatePredictor never released"
        with self._lock:
            self.calls += 1
        return [self.value] * len(workloads)

    def predict_workload(self, workload):
        return self.predict([workload])[0]


class FreshPredictor:
    """The post-swap model: answers instantly with a distinguishable value."""

    def predict(self, workloads):
        return [2.0] * len(workloads)

    def predict_workload(self, workload):
        return 2.0


@pytest.mark.parametrize("front", FRONTS)
def test_unbatched_submits_still_coalesce(front):
    """Identical concurrent requests coalesce even when serving unbatched.

    The pre-kernel thread front only coalesced inside the micro-batcher, so
    serving without batching silently disabled singleflight too; the kernel
    registers leadership at admission, independent of the batch size.
    """
    gate = GatePredictor(value=7.0)
    config = ServerConfig(max_batch_size=1)
    workload = POOL[0]
    with make_front(front, gate, config) as server:
        leader = server.submit(workload)
        assert gate.entered.wait(5.0)

        followers = [server.submit(workload) for _ in range(2)]
        assert server.coalesced_requests == 2, front

        gate.release.set()
        assert leader.result(timeout=5.0) == 7.0, front
        assert [f.result(timeout=5.0) for f in followers] == [7.0, 7.0], front
        assert gate.calls == 1, front
        assert server.coalesced_requests == 2, front


@pytest.mark.parametrize("front", FRONTS)
def test_expired_bypass_always_sheds(front):
    """BYPASS + expired deadline raises ``DeadlineExceededError`` everywhere.

    A BYPASS request must never be rescued by the cache tier, so a spent
    budget has no late-delivery path: every front must shed it with the
    typed error (a since deleted front once raised ``NameError`` here).
    """
    from oracle import LookupPredictor

    workload = POOL[1]
    with make_front(front, LookupPredictor(), ServerConfig()) as server:
        server.predict_workload(workload)  # warm the cache: must not matter
        future = server.submit_request(
            PredictionRequest.of(workload, deadline_s=1e-9, cache_policy=CachePolicy.BYPASS)
        )
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=10.0)
        report = server.snapshot()
    assert report.shed_requests == 1, front
    assert report.n_errors == 0, front


@pytest.mark.parametrize("front", FRONTS)
def test_admission_sheds_count_in_telemetry_not_batcher(front):
    """A request dead on arrival is a telemetry shed, not a batcher shed.

    ``batcher_stats().shed_requests`` counts work shed *from the queue or at
    execution* — admission rejections never entered the batcher.  The three
    fronts used to disagree on which counter admission sheds landed in.
    """
    from oracle import LookupPredictor

    with make_front(front, LookupPredictor(), ServerConfig()) as server:
        future = server.submit_request(PredictionRequest.of(POOL[2], deadline_s=1e-9))
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=10.0)
        report = server.snapshot()
        batcher = server.batcher_stats()
    assert report.shed_requests == 1, front
    assert report.deadline_misses == 1, front
    assert batcher.shed_requests == 0, front
    assert batcher.batches == 0, front


def test_hot_swap_mid_batch_gates_stale_write_back():
    """A value computed by the pre-swap model is never written back.

    Invalidation at swap time is not enough: a batch already executing on
    the old model completes *after* the invalidation, and without generation
    gating its stale answer would repopulate the fresh cache.
    """
    stale = GatePredictor(value=1.0)
    registry = ModelRegistry()
    registry.register("default", stale)
    config = ServerConfig()
    workload, other = POOL[0], POOL[3]
    with PredictionServer(registry, config=config) as server:
        first = server.submit(workload)
        assert stale.entered.wait(5.0)  # batch is executing on the old model

        registry.register("default", FreshPredictor(), promote=True)
        # The driver observes the promotion at the next admission; queue an
        # unrelated request behind the busy slot to force the sync now.
        second = server.submit(other)
        assert wait_until(lambda: server._served_version == 2)

        stale.release.set()
        # The in-flight request still delivers its (stale) answer...
        assert first.result(timeout=5.0) == 1.0
        assert second.result(timeout=5.0) == 2.0
        # ...but the write-back was generation-gated: re-asking must execute
        # on the fresh model, not replay 1.0 from the cache.
        assert server.submit(workload).result(timeout=5.0) == 2.0
        assert server.cache_stats().hits == 0


@pytest.mark.parametrize("front", FRONTS)
def test_expired_cache_hit_delivers_late_instead_of_shedding(front):
    """An expired request the cache can answer is delivered, not shed.

    The answer is already paid for, so every front serves it and counts a
    deadline miss; shedding is reserved for requests that would otherwise
    occupy the model.
    """
    from oracle import LookupPredictor

    workload = POOL[2]
    expected = LookupPredictor().predict_workload(workload)
    with make_front(front, LookupPredictor(), ServerConfig()) as server:
        server.predict_workload(workload)  # warm the cache
        result = server.submit_request(
            PredictionRequest.of(workload, deadline_s=1e-9)
        ).result(timeout=10.0)
        report = server.snapshot()
    assert result.memory_mb == expected, front
    assert result.cache_hit, front
    assert report.shed_requests == 0, front
    assert report.deadline_misses == 1, front
    assert report.n_errors == 0, front


def _flushes(actions):
    return [a for a in actions if isinstance(a, FlushBatch)]


def _queued_same_deadline_kernel(priorities):
    """A kernel with a busy model slot and rids 1..n queued at one instant,
    all sharing one deadline, carrying ``priorities`` in admission order."""
    config = ServerConfig(enable_cache=False, max_batch_size=2)
    kernel = PipelineKernel(config)
    (first,) = _flushes(kernel.submit(0, POOL[0], now=0.0))  # the slot is now busy
    for rid, priority in enumerate(priorities, start=1):
        assert not _flushes(
            kernel.submit(rid, POOL[rid % len(POOL)], now=20.0, deadline_at=25.0,
                          priority=priority)
        )
    return kernel, first


def test_equal_deadline_ties_cut_in_admission_order():
    """EDF cuts on equal deadlines are broken by admission order, totally.

    The pre-fairness kernel ordered pending work by deadline, then
    admission time; requests admitted at the same instant with the same
    deadline tied completely, and the cut fell back on the queue's
    insertion history.  The scheduling key now ends in the admission
    sequence number, so equal deadlines always cut oldest-first.
    """
    kernel, first = _queued_same_deadline_kernel([0, 0, 0])
    (cut,) = _flushes(kernel.batch_done(first.batch_id, 10.0, [10.0], 20.0))
    assert [entry.rid for entry in cut.entries] == [1, 2]


def test_priority_outranks_admission_order_on_equal_deadlines():
    """A higher-priority request wins the cut over older equal-deadline work."""
    kernel, first = _queued_same_deadline_kernel([0, 0, 1])
    (cut,) = _flushes(kernel.batch_done(first.batch_id, 10.0, [10.0], 20.0))
    assert [entry.rid for entry in cut.entries] == [3, 1]
