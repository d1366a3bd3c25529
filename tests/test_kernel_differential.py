"""Differential testing: PipelineKernel vs the naive-loop oracle, and the
same random traces replayed through the real serving front.

Two layers of evidence that the serving pipeline does what its spec says:

* :class:`KernelVsOracleMachine` — a hypothesis ``RuleBasedStateMachine``
  that feeds one random event sequence (interleaved submits across cache
  policies and deadline mixes, clock advances, batch completions/failures
  in arbitrary order, hot swaps, value-count mismatches) to both the kernel
  and :class:`tests.oracle.NaiveServingOracle`, asserting **bit-identical
  action lists** after every event and identical counters (batcher, cache,
  queue depths) as a cross-checked invariant.  The two
  implementations share only the event/action dataclasses.
* ``test_trace_replay_*`` — random request traces replayed through a
  real :class:`PredictionServer` (real clocks, real locks), asserting
  every delivered value matches the naive one-call-at-a-time loop and the
  deadline/telemetry accounting invariants hold.

Example budgets come from the settings profiles in ``conftest.py``
(``HYPOTHESIS_PROFILE=ci`` runs the acceptance budget of 500 examples).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from oracle import (
    LookupPredictor,
    NaiveServingOracle,
    make_lookup_pool,
    normalize_actions,
)

from repro.api import CachePolicy, PredictionRequest
from repro.exceptions import DeadlineExceededError
from repro.serving import PredictionServer, ServerConfig
from repro.serving.kernel import Complete, Fail, FlushBatch, PipelineKernel, Shed

POOL = make_lookup_pool(5)

#: Tenant labels mixed into submits (None = unlabeled traffic).
TENANTS = [None, "a", "b", "c"]

configs = st.builds(
    ServerConfig,
    max_batch_size=st.integers(min_value=1, max_value=4),
    cache_entries=st.integers(min_value=1, max_value=3),
    cache_ttl_s=st.sampled_from([None, 0.02, 10.0]),
    enable_cache=st.booleans(),
    max_queue_depth=st.sampled_from([None, 1, 2, 4]),
    tenant_weights=st.sampled_from([None, {"a": 2, "b": 1}, {"a": 3, "b": 2, "c": 1}]),
    tenant_max_inflight=st.sampled_from([None, {"a": 1}, {"a": 2, "b": 1}]),
)

# Deadline shapes relative to the machine's virtual "now": absent, far out,
# tight (expires while a batch runs; exercises EDF and queue sheds), exactly
# now (the admission boundary), and already past.
DEADLINE_KINDS = ["none", "far", "tight", "now", "past"]


class KernelVsOracleMachine(RuleBasedStateMachine):
    """Drive kernel and oracle with one event stream; they must never differ."""

    @initialize(config=configs)
    def setup(self, config):
        self.kernel = PipelineKernel(config)
        self.oracle = NaiveServingOracle(config)
        self.now = 100.0
        self.rid = 0
        self.model_version = 0
        self.outstanding: list[FlushBatch] = []
        # A blocker holds the model slot, so the first submits queue behind it.
        self._submit_one(0, "none", False, None, 0)

    def _step(self, kernel_actions, oracle_actions):
        assert normalize_actions(kernel_actions) == normalize_actions(oracle_actions)
        for action in kernel_actions:
            if isinstance(action, FlushBatch):
                self.outstanding.append(action)

    def _deadline(self, kind):
        return {
            "none": None,
            "far": self.now + 1.0,
            "tight": self.now + 0.004,
            "now": self.now,
            "past": self.now - 0.01,
        }[kind]

    def _submit_one(self, pool_idx, kind, use_cache, tenant, priority):
        self.rid += 1
        workload = POOL[pool_idx]
        deadline_at = self._deadline(kind)
        self._step(
            self.kernel.submit(
                self.rid,
                workload,
                now=self.now,
                deadline_at=deadline_at,
                use_cache=use_cache,
                tenant=tenant,
                priority=priority,
            ),
            self.oracle.submit(
                self.rid,
                workload,
                now=self.now,
                deadline_at=deadline_at,
                use_cache=use_cache,
                tenant=tenant,
                priority=priority,
            ),
        )

    @rule(
        pool_idx=st.integers(min_value=0, max_value=len(POOL) - 1),
        kind=st.sampled_from(DEADLINE_KINDS),
        use_cache=st.booleans(),
        dt=st.sampled_from([0.0, 0.001, 0.01, 0.1]),
        tenant=st.sampled_from(TENANTS),
        priority=st.integers(min_value=0, max_value=2),
    )
    def submit(self, pool_idx, kind, use_cache, dt, tenant, priority):
        self.now += dt
        self._submit_one(pool_idx, kind, use_cache, tenant, priority)

    @rule(
        burst=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(POOL) - 1),
                st.sampled_from(["none", "far", "tight"]),
                st.sampled_from(TENANTS),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=2,
            max_size=6,
        )
    )
    def submit_burst(self, burst):
        # A same-instant burst across tenants and priorities: the fastest
        # way to overflow max_queue_depth and trip tenant quotas, since no
        # batch completes (and no deadline passes) to drain work.
        for pool_idx, kind, tenant, priority in burst:
            self._submit_one(pool_idx, kind, True, tenant, priority)

    @rule(dt=st.sampled_from([0.0, 0.001, 0.01, 0.1, 2.0]))
    def tick(self, dt):
        self.now += dt
        self._step(self.kernel.tick(self.now), self.oracle.tick(self.now))

    @rule()
    def hot_swap(self):
        self.model_version += 1
        self._step(
            self.kernel.sync_version(self.model_version, self.now),
            self.oracle.sync_version(self.model_version, self.now),
        )

    @rule()
    def resync_same_version(self):
        self._step(
            self.kernel.sync_version(self.model_version, self.now),
            self.oracle.sync_version(self.model_version, self.now),
        )

    def _pop_batch(self):
        return self.outstanding.pop()

    def _model_values(self, batch, started_at):
        """What the model answers for the live partition at execution start
        (the model's answer depends on the promoted version)."""
        return [
            float(entry.workload.actual_memory_mb) + 1000.0 * self.model_version
            for entry in batch.entries
            if entry.deadline_at is None or entry.deadline_at > started_at
        ]

    @precondition(lambda self: self.outstanding)
    @rule(
        start_delay=st.sampled_from([0.0, 0.002, 0.05]),
        duration=st.sampled_from([0.0, 0.001, 0.02]),
    )
    def complete_batch(self, start_delay, duration):
        batch = self._pop_batch()
        started_at = self.now + start_delay
        self.now = started_at + duration
        values = self._model_values(batch, started_at)
        self._step(
            self.kernel.batch_done(batch.batch_id, started_at, values, self.now),
            self.oracle.batch_done(batch.batch_id, started_at, values, self.now),
        )

    @precondition(lambda self: self.outstanding)
    @rule()
    def complete_batch_with_wrong_value_count(self):
        batch = self._pop_batch()
        started_at = self.now
        values = self._model_values(batch, started_at) + [0.0]
        self._step(
            self.kernel.batch_done(batch.batch_id, started_at, values, self.now),
            self.oracle.batch_done(batch.batch_id, started_at, values, self.now),
        )

    @precondition(lambda self: self.outstanding)
    @rule(deadline_error=st.booleans())
    def fail_batch(self, deadline_error):
        batch = self._pop_batch()
        error = (
            DeadlineExceededError("budget burned inside the model")
            if deadline_error
            else RuntimeError("model exploded")
        )
        self._step(
            self.kernel.batch_failed(batch.batch_id, self.now, error, self.now),
            self.oracle.batch_failed(batch.batch_id, self.now, error, self.now),
        )

    @invariant()
    def same_observable_state(self):
        if not hasattr(self, "kernel"):
            return
        assert self.kernel.pending_count() == self.oracle.pending_count()
        assert self.kernel.executing_count() == self.oracle.executing_count()
        assert self.kernel.coalesced_requests == self.oracle.coalesced
        assert self.kernel.generation == self.oracle.generation
        assert self.kernel.version == self.oracle.version
        assert self.kernel.idle() == self.oracle.idle()
        assert self.kernel.batcher_stats() == self.oracle.batcher_stats()
        assert self.kernel.cache_stats() == self.oracle.cache_stats()
        # The kernel's incremental per-tenant accounting must equal the
        # oracle's naive recount of its containers.
        assert self.kernel.tenant_inflight() == self.oracle.tenant_inflight()
        # One model slot: never more than one flushed batch outstanding, and
        # never queued work while the slot is free.
        assert len(self.outstanding) == self.kernel.executing_count() <= 1
        assert self.kernel.pending_count() == 0 or self.outstanding

    def teardown(self):
        if not hasattr(self, "kernel"):
            return
        # Drain: close both machines, then finish every outstanding batch
        # (completions can flush further batches, so loop until dry).
        self._step(self.kernel.close(self.now), self.oracle.close(self.now))
        while self.outstanding:
            batch = self.outstanding.pop(0)
            started_at = self.now
            values = self._model_values(batch, started_at)
            self._step(
                self.kernel.batch_done(batch.batch_id, started_at, values, self.now),
                self.oracle.batch_done(batch.batch_id, started_at, values, self.now),
            )
        assert self.kernel.idle() and self.oracle.idle()
        assert self.kernel.batcher_stats() == self.oracle.batcher_stats()


KernelVsOracleMachine.TestCase.settings = settings(stateful_step_count=40)
TestKernelVsOracle = KernelVsOracleMachine.TestCase


# -- fairness invariants, as direct properties of the kernel ---------------------------


def _busy_kernel(config):
    """A kernel whose single model slot is occupied, so submits only queue.

    Returns the kernel and the occupying FlushBatch (rid 0, no deadline);
    feeding its BatchDone back is what releases the slot.
    """
    kernel = PipelineKernel(config)
    actions = kernel.submit(0, POOL[0], now=0.0)  # an idle slot flushes rid 0 at once
    flushes = [a for a in actions if isinstance(a, FlushBatch)]
    assert len(flushes) == 1 and len(flushes[0].entries) == 1
    return kernel, flushes[0]


class TestSchedulingFairnessProperties:
    """The scheduler's fairness guarantees, asserted directly on the kernel
    (the differential machine checks kernel == oracle; these check that what
    they both do is actually *fair*)."""

    @given(
        priorities=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=12),
        depth=st.integers(min_value=1, max_value=4),
    )
    def test_overload_never_sheds_high_priority_while_lower_survives(self, priorities, depth):
        config = ServerConfig(
            enable_cache=False, max_batch_size=8, max_queue_depth=depth
        )
        kernel, _first = _busy_kernel(config)
        queued = {}  # rid -> priority, mirroring the kernel's pending queue
        for i, priority in enumerate(priorities):
            rid = i + 1
            actions = kernel.submit(rid, POOL[i % len(POOL)], now=10.0, priority=priority)
            sheds = [a for a in actions if isinstance(a, Shed)]
            newcomer_shed = any(a.rid == rid for a in sheds)
            for action in sheds:
                assert action.reason in ("queue_full", "priority_evict")
                shed_priority = priority if action.rid == rid else queued.pop(action.rid)
                survivors = list(queued.values())
                if action.rid != rid:
                    survivors.append(priority)  # the admitted newcomer
                # The fairness contract: an overload shed only ever takes
                # the (joint-)lowest priority present.
                assert all(shed_priority <= p for p in survivors)
            if not newcomer_shed:
                queued[rid] = priority
            assert len(queued) <= depth

    @given(
        weight_a=st.integers(min_value=1, max_value=4),
        weight_b=st.integers(min_value=1, max_value=4),
        max_batch=st.integers(min_value=2, max_value=8),
        n_batches=st.integers(min_value=2, max_value=6),
    )
    def test_weighted_share_honored_within_one_batch(
        self, weight_a, weight_b, max_batch, n_batches
    ):
        config = ServerConfig(
            enable_cache=False,
            max_batch_size=max_batch,
            tenant_weights={"a": weight_a, "b": weight_b},
        )
        kernel, first = _busy_kernel(config)
        total = n_batches * max_batch
        tenant_of = {}
        rid = 0
        for i in range(total):  # deep backlog for both tenants
            for tenant in ("a", "b"):
                rid += 1
                tenant_of[rid] = tenant
                kernel.submit(rid, POOL[i % len(POOL)], now=10.0, tenant=tenant)
        # Release the occupying singleton, then count who wins the slots of the next ``total`` flushed entries.
        now = 30.0
        actions = kernel.batch_done(first.batch_id, 10.0, [10.0], now)
        flushes = [a for a in actions if isinstance(a, FlushBatch)]
        slots = {"a": 0, "b": 0}
        measured = 0
        while flushes and measured < total:
            flush = flushes.pop(0)
            for entry in flush.entries:
                if measured < total:
                    slots[tenant_of[entry.rid]] += 1
                    measured += 1
            done = kernel.batch_done(flush.batch_id, now, [1.0] * len(flush.entries), now)
            flushes.extend(a for a in done if isinstance(a, FlushBatch))
        assert measured == total
        expected_a = total * weight_a / (weight_a + weight_b)
        assert abs(slots["a"] - expected_a) <= max_batch

    @given(
        config=configs,
        trace=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(POOL) - 1),
                st.sampled_from(DEADLINE_KINDS),
                st.sampled_from(TENANTS),
                st.integers(min_value=0, max_value=2),
                st.sampled_from([0.0, 0.001, 0.1]),
                st.booleans(),  # also complete the oldest outstanding batch?
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_starvation_freedom_every_request_terminates(self, config, trace):
        kernel = PipelineKernel(config)
        now = 100.0
        deadline = {
            "none": lambda: None,
            "far": lambda: now + 1.0,
            "tight": lambda: now + 0.004,
            "now": lambda: now,
            "past": lambda: now - 0.01,
        }
        outstanding = []
        terminal = []

        def collect(actions):
            for action in actions:
                if isinstance(action, (Complete, Shed, Fail)):
                    terminal.append(action.rid)
                elif isinstance(action, FlushBatch):
                    outstanding.append(action)

        def finish_oldest():
            batch = outstanding.pop(0)
            live = [
                e for e in batch.entries if e.deadline_at is None or e.deadline_at > now
            ]
            collect(kernel.batch_done(batch.batch_id, now, [1.0] * len(live), now))

        submitted = []
        for rid, (pool_idx, kind, tenant, priority, dt, drain) in enumerate(trace, start=1):
            now += dt
            if drain and outstanding:
                finish_oldest()
            submitted.append(rid)
            collect(
                kernel.submit(
                    rid,
                    POOL[pool_idx],
                    now=now,
                    deadline_at=deadline[kind](),
                    tenant=tenant,
                    priority=priority,
                )
            )
        collect(kernel.close(now))
        while outstanding:
            finish_oldest()
        assert kernel.idle()
        # Starvation-freedom: every submitted request reached exactly one
        # terminal action (completed, shed, or failed) — none got stuck.
        assert sorted(terminal) == submitted


# -- the same randomized traffic, through the real front -------------------------------


trace_entries = st.tuples(
    st.integers(min_value=0, max_value=len(POOL) - 1),
    st.sampled_from(["none", "generous", "expired"]),
    st.booleans(),  # BYPASS the cache?
)


class TestTraceReplayOnRealFronts:
    """Random traces through a real server: oracle answers, sane deadline
    accounting.  Capped below the profile budget: every example spins up a
    real server."""

    @settings(max_examples=8)
    @given(
        trace=st.lists(trace_entries, min_size=1, max_size=20),
        max_batch=st.integers(min_value=1, max_value=6),
    )
    def test_trace_replay_matches_naive_loop_oracle(self, trace, max_batch):
        deadlines = {"none": None, "generous": 30.0, "expired": 1e-9}
        expected = LookupPredictor()
        config = ServerConfig(max_batch_size=max_batch)
        n_expired = sum(1 for _, kind, _ in trace if kind == "expired")
        with PredictionServer(LookupPredictor(), config=config) as server:
            futures = [
                (
                    idx,
                    kind,
                    bypass,
                    server.submit_request(
                        PredictionRequest.of(
                            POOL[idx],
                            deadline_s=deadlines[kind],
                            cache_policy=(
                                CachePolicy.BYPASS if bypass else CachePolicy.DEFAULT
                            ),
                        )
                    ),
                )
                for idx, kind, bypass in trace
            ]
            raised = 0
            for idx, kind, bypass, future in futures:
                try:
                    result = future.result(timeout=10.0)
                except DeadlineExceededError:
                    raised += 1
                    # Only a genuinely expirable budget may be shed...
                    assert kind == "expired"
                else:
                    # ... and every delivered answer is the naive-loop
                    # oracle's, whatever path served it.
                    assert result.memory_mb == expected.predict_workload(POOL[idx])
                    if kind == "expired":
                        # Delivered late: only possible via the cache /
                        # coalescing tiers, never for a BYPASS request.
                        assert not bypass
            report = server.snapshot()
        assert report.n_errors == 0
        # Sheds can never exceed the expirable population, and every
        # shed is also a deadline miss (raised errors are sheds, and
        # late deliveries only add further misses).
        assert report.shed_requests <= n_expired
        assert report.shed_requests == raised
        assert report.deadline_misses >= report.shed_requests
