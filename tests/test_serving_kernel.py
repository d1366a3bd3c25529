"""Unit tests for the sans-I/O serving pipeline kernel.

Every test drives :class:`PipelineKernel` with a virtual clock — no
threads, no sleeps — and asserts on the returned action lists.  The
cross-implementation behavior (kernel vs naive-loop oracle, kernel vs the
real I/O fronts) lives in ``test_kernel_differential.py``; this file pins
each lifecycle rule in isolation.
"""

import pytest
from oracle import make_lookup_pool

from repro.exceptions import DeadlineExceededError, InvalidParameterError, ServingError
from repro.serving.cache import workload_signature
from repro.serving.kernel import (
    SHED_MESSAGES,
    BatchDone,
    BatcherStats,
    BatchFailed,
    CacheInvalidate,
    CacheWrite,
    Close,
    Complete,
    Fail,
    FlushBatch,
    ObserveBatch,
    ObserveQueueDepth,
    PipelineKernel,
    ServerConfig,
    Shed,
    Submit,
    SyncVersion,
    Tick,
    apply_actions,
    split_expired,
)

POOL = make_lookup_pool(6)


def only(actions, kind):
    return [action for action in actions if isinstance(action, kind)]


def one(actions, kind):
    matches = only(actions, kind)
    assert len(matches) == 1, f"expected exactly one {kind.__name__}, got {actions}"
    return matches[0]


def make_kernel(**overrides):
    defaults = dict(max_batch_size=4, cache_entries=8)
    defaults.update(overrides)
    return PipelineKernel(ServerConfig(**defaults))


def busy_kernel(**overrides):
    """A kernel whose one model slot runs a blocker (rid 0, ``POOL[5]``).

    Every later submit queues behind it until :func:`run_batch` feeds the
    blocker's ``BatchDone`` back.  Returns ``(kernel, blocker_flush)``.
    """
    kernel = make_kernel(**overrides)
    return kernel, one(kernel.submit(0, POOL[5], now=0.0), FlushBatch)


def run_batch(kernel, flush, values, *, started_at, now=None):
    return kernel.batch_done(flush.batch_id, started_at, values, now if now is not None else started_at)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_batch_size": 0},
            {"max_wait_s": -0.1},
            {"max_wait_s": float("nan")},
            {"cache_entries": 0},
            {"cache_ttl_s": 0.0},
            {"cache_ttl_s": float("nan")},
            {"cache_ttl_s": float("inf")},
            {"stream_window": 0},
            {"max_queue_depth": 0},
            {"tenant_weights": {"": 1}},
            {"tenant_weights": {"a": 0}},
            {"tenant_weights": {"a": True}},
            {"tenant_max_inflight": {"a": "2"}},
            {"tenant_max_inflight": [("a", 1), ("a", 2)]},
        ],
    )
    def test_bad_knobs_raise(self, overrides):
        with pytest.raises(InvalidParameterError):
            ServerConfig(**overrides)

    def test_quota_mappings_normalize_to_sorted_pairs(self):
        config = ServerConfig(
            tenant_weights={"b": 1, "a": 3}, tenant_max_inflight=[("x", 2)]
        )
        assert config.tenant_weights == (("a", 3), ("b", 1))
        assert config.tenant_max_inflight == (("x", 2),)
        assert config.weight_of("a") == 3
        assert config.weight_of("unlisted") == 1
        assert config.inflight_cap("x") == 2
        assert config.inflight_cap("unlisted") is None

    def test_empty_quota_mappings_mean_feature_off(self):
        config = ServerConfig(tenant_weights={}, tenant_max_inflight=())
        assert config.tenant_weights is None
        assert config.tenant_max_inflight is None


class TestEventDispatch:
    def test_handle_routes_every_event_type(self):
        kernel = make_kernel()
        actions = kernel.handle(Submit(1, POOL[0], now=1.0))
        flush = one(actions, FlushBatch)
        kernel.handle(Tick(1.1))
        kernel.handle(SyncVersion(1, 1.2))
        kernel.handle(BatchDone(flush.batch_id, 1.3, [5.0], 1.3))
        actions = kernel.handle(Submit(2, POOL[1], now=1.4, use_cache=False))
        flush = one(actions, FlushBatch)
        kernel.handle(BatchFailed(flush.batch_id, 1.5, RuntimeError("boom"), 1.5))
        kernel.handle(Close(1.6))
        with pytest.raises(InvalidParameterError, match="unknown kernel event"):
            kernel.handle(object())

    def test_submit_after_close_raises(self):
        kernel = make_kernel()
        kernel.close(1.0)
        with pytest.raises(ServingError, match="closed"):
            kernel.submit(1, POOL[0], now=1.1)


class TestCacheTier:
    def test_miss_then_write_through_then_hit(self):
        kernel = make_kernel()
        actions = kernel.submit(1, POOL[0], now=1.0)
        flush = one(actions, FlushBatch)
        actions = run_batch(kernel, flush, [42.0], started_at=1.01)
        write = one(actions, CacheWrite)
        assert write.key == workload_signature(POOL[0])
        assert write.value == 42.0
        actions = kernel.submit(2, POOL[0], now=1.2)
        done = one(actions, Complete)
        assert done == Complete(2, 42.0, cache_hit=True, arrival=1.2, late=False)

    def test_expired_cache_hit_is_late_not_shed(self):
        kernel = make_kernel()
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        run_batch(kernel, flush, [42.0], started_at=1.01)
        actions = kernel.submit(2, POOL[0], now=2.0, deadline_at=1.5)
        done = one(actions, Complete)
        assert done.cache_hit and done.late
        assert only(actions, Shed) == []
        assert kernel.batcher_stats().shed_requests == 0

    def test_bypass_skips_read_and_attach_but_populates(self):
        kernel = make_kernel()
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        run_batch(kernel, flush, [42.0], started_at=1.01)
        # BYPASS ignores the cached 42.0 and goes to the model again...
        actions = kernel.submit(2, POOL[0], now=1.1, use_cache=False)
        flush = one(actions, FlushBatch)
        actions = run_batch(kernel, flush, [43.0], started_at=1.2)
        assert one(actions, CacheWrite).value == 43.0
        # ... and its answer replaced the cached value for later readers.
        assert one(kernel.submit(3, POOL[0], now=1.3), Complete).value == 43.0

    def test_cache_disabled_no_stats_no_coalescing(self):
        kernel, _blocker = busy_kernel(enable_cache=False)
        kernel.submit(1, POOL[0], now=1.0)
        kernel.submit(2, POOL[0], now=1.0)
        assert kernel.cache_stats() is None
        assert kernel.coalesced_requests == 0
        assert kernel.pending_count() == 2

    def test_cache_stats_counters(self):
        kernel = make_kernel()
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        run_batch(kernel, flush, [42.0], started_at=1.01)
        kernel.submit(2, POOL[0], now=1.1)
        stats = kernel.cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)


class TestSingleflight:
    def test_followers_attach_and_complete_as_hits(self):
        kernel, blocker = busy_kernel()
        kernel.submit(1, POOL[0], now=1.0)
        assert kernel.submit(2, POOL[0], now=1.1) == []  # attached, no actions
        assert kernel.submit(3, POOL[0], now=1.2, deadline_at=9.0) == []
        assert kernel.coalesced_requests == 2
        flush = one(run_batch(kernel, blocker, [60.0], started_at=1.3), FlushBatch)
        actions = run_batch(kernel, flush, [7.0], started_at=1.4)
        completes = only(actions, Complete)
        assert [c.rid for c in completes] == [1, 2, 3]
        assert [c.cache_hit for c in completes] == [False, True, True]

    def test_deadline_requests_never_lead(self):
        kernel, _blocker = busy_kernel()
        kernel.submit(1, POOL[0], now=1.0, deadline_at=50.0)
        # Not registered as leader: an identical deadline-free submit starts
        # its own pipeline entry instead of attaching.
        kernel.submit(2, POOL[0], now=1.1)
        assert kernel.coalesced_requests == 0
        assert kernel.pending_count() == 2

    def test_follower_failure_is_error_not_shed(self):
        kernel, blocker = busy_kernel()
        kernel.submit(1, POOL[0], now=1.0)
        kernel.submit(2, POOL[0], now=1.0)
        flush = one(run_batch(kernel, blocker, [60.0], started_at=1.1), FlushBatch)
        actions = kernel.batch_failed(
            flush.batch_id, 1.2, DeadlineExceededError("model-side expiry"), 1.2
        )
        fails = only(actions, Fail)
        assert (fails[0].rid, fails[0].shed) == (1, True)
        assert (fails[1].rid, fails[1].shed) == (2, False)


class TestDeadlines:
    def test_admission_shed_not_counted_by_batcher(self):
        kernel = make_kernel()
        actions = kernel.submit(1, POOL[0], now=2.0, deadline_at=1.5)
        assert one(actions, Shed).stage == "admission"
        assert kernel.batcher_stats().shed_requests == 0
        assert kernel.batcher_stats().requests == 0

    def test_queue_shed_on_any_event(self):
        # The request queues behind the blocker until time passes its deadline.
        kernel, _blocker = busy_kernel()
        kernel.submit(1, POOL[0], now=1.0, deadline_at=1.5)
        actions = kernel.tick(2.0)
        assert one(actions, Shed) == Shed(1, "queue")
        assert kernel.batcher_stats().shed_requests == 1
        assert kernel.pending_count() == 0

    def test_execution_shed_recomputed_at_started_at(self):
        kernel = make_kernel()
        actions = kernel.submit(1, POOL[0], now=1.0, deadline_at=1.5)
        flush = one(actions, FlushBatch)
        kernel.submit(2, POOL[1], now=1.0, deadline_at=1.8)
        # The second batch only starts executing after rid 2's expiry, so
        # the driver's split_expired leaves no live entries (values == []).
        flush2 = one(kernel.batch_done(flush.batch_id, 1.01, [5.0], 1.01), FlushBatch)
        actions = kernel.batch_done(flush2.batch_id, 2.0, [], 2.1)
        assert one(actions, Shed) == Shed(2, "execution")
        assert kernel.batcher_stats().shed_requests == 1

    def test_all_expired_batch_counts_no_batch(self):
        kernel = make_kernel()
        flush = one(kernel.submit(1, POOL[0], now=1.0, deadline_at=1.5), FlushBatch)
        actions = kernel.batch_done(flush.batch_id, 2.0, [], 2.0)
        assert only(actions, ObserveBatch) == []
        assert kernel.batcher_stats().batches == 0

    def test_late_batched_completion_is_late(self):
        kernel = make_kernel()
        flush = one(kernel.submit(1, POOL[0], now=1.0, deadline_at=1.5), FlushBatch)
        # Started before expiry (so it is live), finished after.
        actions = kernel.batch_done(flush.batch_id, 1.2, [5.0], 3.0)
        assert one(actions, Complete).late is True


class TestBatching:
    def test_idle_kernel_flushes_a_lone_submit_without_a_tick(self):
        # Default config, virtual clock: nothing waits on a timer.
        kernel = PipelineKernel(ServerConfig())
        actions = kernel.submit(1, POOL[0], now=1.0)
        flush = one(actions, FlushBatch)
        assert [entry.rid for entry in flush.entries] == [1]
        assert flush.reason == "deadline"
        assert kernel.pending_count() == 0 and kernel.executing_count() == 1

    def test_backlog_is_cut_as_edf_batches_at_each_batch_done(self):
        kernel = PipelineKernel(ServerConfig(max_batch_size=3, enable_cache=False))
        blocker = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        deadlines = {2: 9.0, 3: None, 4: 5.0, 5: 7.0, 6: 6.0}
        for rid, deadline_at in deadlines.items():
            actions = kernel.submit(rid, POOL[rid - 1], now=1.0, deadline_at=deadline_at)
            assert only(actions, FlushBatch) == []  # the slot is busy
        assert kernel.pending_count() == 5
        # BatchDone frees the slot: the tightest three deadlines, in EDF order.
        second = one(run_batch(kernel, blocker, [1.0], started_at=1.1), FlushBatch)
        assert [entry.rid for entry in second.entries] == [4, 6, 5]
        assert second.reason == "size"
        # The rest follow at the next BatchDone (deadline-free work last).
        third = one(run_batch(kernel, second, [1.0, 2.0, 3.0], started_at=1.2), FlushBatch)
        assert [entry.rid for entry in third.entries] == [2, 3]
        assert third.reason == "deadline"
        assert only(run_batch(kernel, third, [4.0, 5.0], started_at=1.3), FlushBatch) == []
        assert kernel.idle()

    def test_size_flush(self):
        kernel, blocker = busy_kernel(max_batch_size=2)
        kernel.submit(1, POOL[0], now=1.0)
        kernel.submit(2, POOL[1], now=1.0)
        flush = one(run_batch(kernel, blocker, [60.0], started_at=1.05), FlushBatch)
        assert flush.reason == "size" and len(flush.entries) == 2
        run_batch(kernel, flush, [1.0, 2.0], started_at=1.1)
        stats = kernel.batcher_stats()
        # The blocker was a batch of one; the backlog made one size flush.
        assert (stats.batches, stats.size_flushes, stats.max_batch_size_seen) == (2, 1, 2)

    def test_wait_clamp_on_inside_window_deadline(self):
        # A tight deadline never waits in the queue: the idle slot cuts it.
        kernel = make_kernel()
        actions = kernel.submit(1, POOL[0], now=1.0, deadline_at=1.005)
        assert one(actions, FlushBatch).reason == "deadline"

    def test_edf_cut_takes_tightest_deadlines_first(self):
        kernel = make_kernel(max_batch_size=2, enable_cache=False)
        # Occupy the execution slot so deadline work piles up behind it.
        first = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        kernel.submit(2, POOL[1], now=1.0, deadline_at=9.0)
        kernel.submit(3, POOL[2], now=1.0, deadline_at=5.0)
        kernel.submit(4, POOL[3], now=1.0, deadline_at=7.0)
        actions = run_batch(kernel, first, [1.0], started_at=1.1)
        flush = one(actions, FlushBatch)
        assert [entry.rid for entry in flush.entries] == [3, 4]
        assert kernel.pending_count() == 1  # the loosest deadline waits

    def test_capacity_gates_due_flushes_until_batch_done(self):
        kernel = make_kernel(max_batch_size=2)
        first = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        # Slot busy: further due work queues instead of flushing.
        assert only(kernel.submit(2, POOL[1], now=1.0), FlushBatch) == []
        assert only(kernel.submit(3, POOL[2], now=1.0), FlushBatch) == []
        assert kernel.executing_count() == 1 and kernel.pending_count() == 2
        actions = run_batch(kernel, first, [1.0], started_at=1.1)
        second = one(actions, FlushBatch)
        assert [entry.rid for entry in second.entries] == [2, 3]

    def test_queue_depth_observed_per_admit(self):
        kernel, _blocker = busy_kernel()
        assert one(kernel.submit(1, POOL[0], now=1.0), ObserveQueueDepth).depth == 1
        assert one(kernel.submit(2, POOL[1], now=1.0), ObserveQueueDepth).depth == 2

    def test_non_batching_flushes_singletons_immediately(self):
        # max_batch_size=1 is unbatched serving: every cut is a full batch.
        kernel = make_kernel(max_batch_size=1)
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        assert flush.reason == "size" and len(flush.entries) == 1
        run_batch(kernel, flush, [5.0], started_at=1.1)
        assert kernel.idle()

    def test_freed_slot_immediately_flushes_due_singleton(self):
        kernel = make_kernel(max_batch_size=1, enable_cache=False)
        first = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        kernel.submit(2, POOL[1], now=1.0)  # due (size) but slot is busy
        second = one(run_batch(kernel, first, [1.0], started_at=1.5), FlushBatch)
        assert [entry.rid for entry in second.entries] == [2]
        assert kernel.idle() is False  # the second batch is now executing


class TestBatchCompletion:
    def test_values_mismatch_fails_whole_batch(self):
        kernel = make_kernel()
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        actions = kernel.batch_done(flush.batch_id, 1.1, [1.0, 2.0], 1.1)
        fail = one(actions, Fail)
        assert isinstance(fail.error, ServingError) and not fail.shed
        # The mismatch still counts as an executed batch.
        assert kernel.batcher_stats().batches == 1

    def test_batch_failed_forwards_error(self):
        kernel = make_kernel()
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        boom = RuntimeError("boom")
        fail = one(kernel.batch_failed(flush.batch_id, 1.1, boom, 1.1), Fail)
        assert fail.error is boom and not fail.shed

    def test_deadline_error_from_model_counts_as_shed(self):
        kernel = make_kernel(enable_cache=False)
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        fail = one(
            kernel.batch_failed(flush.batch_id, 1.1, DeadlineExceededError("x"), 1.1), Fail
        )
        assert fail.shed is True

    def test_unknown_batch_id_raises(self):
        kernel = make_kernel()
        with pytest.raises(ServingError, match="unknown batch id"):
            kernel.batch_done(99, 1.0, [], 1.0)


class TestHotSwap:
    def test_first_resolution_is_not_a_swap(self):
        kernel = make_kernel()
        assert only(kernel.sync_version(3, 1.0), CacheInvalidate) == []
        assert kernel.version == 3 and kernel.generation == 0

    def test_swap_invalidates_cache_and_gates_write_back(self):
        kernel = make_kernel()
        kernel.sync_version(1, 1.0)
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        # Swap while the batch is still executing...
        invalidate = one(kernel.sync_version(2, 1.05), CacheInvalidate)
        assert invalidate.generation == 1 and kernel.generation == 1
        # ... so its completion must not repopulate the fresh cache.
        actions = kernel.batch_done(flush.batch_id, 1.1, [42.0], 1.1)
        assert only(actions, CacheWrite) == []
        assert one(actions, Complete).value == 42.0
        assert only(kernel.submit(2, POOL[0], now=1.2), Complete) == []  # miss

    def test_swap_clears_singleflight_but_keeps_followers(self):
        kernel = make_kernel()
        kernel.sync_version(1, 1.0)
        flush = one(kernel.submit(1, POOL[0], now=1.0), FlushBatch)
        kernel.submit(2, POOL[0], now=1.01)  # follower on the pre-swap leader
        kernel.sync_version(2, 1.05)
        # Post-swap identical request must NOT attach to pre-swap work.
        assert kernel.submit(3, POOL[0], now=1.06) != []
        assert kernel.coalesced_requests == 1
        # The already-attached follower still rides the old leader.
        completes = only(kernel.batch_done(flush.batch_id, 1.1, [42.0], 1.1), Complete)
        assert [c.rid for c in completes] == [1, 2]

    def test_resync_same_version_is_noop(self):
        kernel = make_kernel()
        kernel.sync_version(1, 1.0)
        assert kernel.sync_version(1, 1.1) == []
        assert kernel.generation == 0


class TestClose:
    def test_close_flushes_pending_as_close_reason(self):
        kernel, blocker = busy_kernel()
        kernel.submit(1, POOL[0], now=1.0)
        kernel.submit(2, POOL[1], now=1.0)
        assert kernel.close(1.1) == []  # the slot is busy: nothing to cut yet
        flush = one(run_batch(kernel, blocker, [60.0], started_at=1.15), FlushBatch)
        assert flush.reason == "close"
        run_batch(kernel, flush, [1.0, 2.0], started_at=1.2)
        assert kernel.idle()
        assert kernel.batcher_stats().close_flushes == 1


class TestHelpers:
    def test_split_expired_partitions_in_order(self):
        class E:
            def __init__(self, deadline_at):
                self.deadline_at = deadline_at

        entries = [E(None), E(1.0), E(3.0), E(2.0)]
        live, expired = split_expired(entries, 2.0)
        assert [e.deadline_at for e in live] == [None, 3.0]
        assert [e.deadline_at for e in expired] == [1.0, 2.0]

    def test_queue_bound_never_evicts_a_coalesced_lead(self):
        """Entries carrying followers are not eviction candidates.

        Shedding a lead would orphan every follower attached to it, so the
        victim search skips them: with the queue at depth, an equal-priority
        newcomer is rejected (it loses the seq tie), and a higher-priority
        newcomer evicts the worst *follower-free* entry instead.
        """
        kernel = make_kernel(max_queue_depth=2)
        one(kernel.submit(0, POOL[0], now=0.0), FlushBatch)  # the slot is now busy
        kernel.submit(1, POOL[1], now=20.0)
        kernel.submit(2, POOL[1], now=20.0)  # coalesces onto rid 1's entry
        assert kernel.coalesced_requests == 1
        kernel.submit(3, POOL[2], now=20.0)

        # Queue at depth, equal priority: the newcomer is the scheduling-worst
        # candidate (newest seq), so it is the one rejected.
        shed = one(kernel.submit(4, POOL[3], now=20.0), Shed)
        assert (shed.rid, shed.stage, shed.reason) == (4, "admission", "queue_full")

        # A higher-priority newcomer evicts the worst follower-free entry —
        # rid 3, never the older rid 1 that holds a follower.
        shed = one(kernel.submit(5, POOL[4], now=20.0, priority=1), Shed)
        assert (shed.rid, shed.stage, shed.reason) == (3, "queue", "priority_evict")
        assert [entry.rid for entry in kernel._pending] == [1, 5]

    def test_mean_batch_size_counts_executed_requests_only(self):
        stats = BatcherStats(17, 6, 1, 5, 0, 5, shed_requests=5)
        assert stats.mean_batch_size == pytest.approx((17 - 5) / 6)
        assert BatcherStats(0, 0, 0, 0, 0, 0).mean_batch_size == 0.0

    def test_shed_messages_cover_every_stage_and_reason(self):
        assert set(SHED_MESSAGES) == {
            "admission",
            "queue",
            "execution",
            "queue_full",
            "priority_evict",
        }


class FakeTelemetry:
    def __init__(self):
        self.calls = []

    def record(self, latency_s, cache_hit=False):
        self.calls.append(("record", round(latency_s, 6), cache_hit))

    def record_error(self):
        self.calls.append(("error",))

    def record_deadline_miss(self, shed=False):
        self.calls.append(("miss", shed))

    def observe_batch(self, size):
        self.calls.append(("batch", size))

    def observe_queue_depth(self, depth):
        self.calls.append(("depth", depth))


class TestApplyActions:
    def test_translates_every_action_kind(self):
        telemetry = FakeTelemetry()
        completed, failed, flushed = [], [], []
        error = RuntimeError("boom")
        actions = [
            Complete(1, 5.0, cache_hit=True, arrival=9.0, late=False),
            Complete(2, 5.0, cache_hit=False, arrival=9.5, late=True),
            Shed(3, "queue"),
            Fail(4, DeadlineExceededError("x"), shed=True),
            Fail(5, error, shed=False),
            FlushBatch(1, (), "size"),
            CacheWrite("k", 5.0),
            CacheInvalidate(1),
            ObserveBatch(3),
            ObserveQueueDepth(7),
        ]
        apply_actions(
            actions,
            telemetry=telemetry,
            complete=lambda action: completed.append(action.rid),
            fail=lambda rid, err: failed.append((rid, err)),
            flush=lambda action: flushed.append(action.batch_id),
            clock=lambda: 10.0,
        )
        assert completed == [1, 2]
        assert [rid for rid, _ in failed] == [3, 4, 5]
        shed_error = failed[0][1]
        assert isinstance(shed_error, DeadlineExceededError)
        assert str(shed_error) == SHED_MESSAGES["queue"]
        assert failed[2][1] is error
        assert flushed == [1]
        assert telemetry.calls == [
            ("record", 1.0, True),
            ("miss", False),  # late completion: miss, not shed
            ("record", 0.5, False),
            ("miss", True),  # queue shed
            ("miss", True),  # model-path deadline error
            ("error",),  # real model error
            ("batch", 3),
            ("depth", 7),
        ]

    def test_overload_sheds_carry_their_reason_into_telemetry(self):
        """``queue_full`` / ``priority_evict`` sheds pass their reason through.

        Deadline sheds deliberately omit the kwarg (so duck-typed telemetry
        doubles without the parameter keep working — the test above proves
        it); overload sheds must label both the counter and the error.
        """

        class ReasonTelemetry(FakeTelemetry):
            def record_deadline_miss(self, shed=False, tenant=None, reason="deadline"):
                self.calls.append(("miss", shed, tenant, reason))

        telemetry = ReasonTelemetry()
        failed = []
        apply_actions(
            [Shed(3, "admission", "queue_full"), Shed(4, "queue", "priority_evict")],
            telemetry=telemetry,
            complete=lambda action: None,
            fail=lambda rid, err: failed.append((rid, err)),
            flush=lambda action: None,
            tenant_of={3: "a"}.get,
        )
        assert telemetry.calls == [
            ("miss", True, "a", "queue_full"),
            ("miss", True, None, "priority_evict"),
        ]
        assert [str(err) for _, err in failed] == [
            SHED_MESSAGES["queue_full"],
            SHED_MESSAGES["priority_evict"],
        ]
        assert all(isinstance(err, DeadlineExceededError) for _, err in failed)
