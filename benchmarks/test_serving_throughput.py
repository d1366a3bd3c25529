"""Serving throughput — served (cache + micro-batch + coalescing) vs naive loop.

Shape to demonstrate: the online serving stack answers a skewed replay
stream faster than calling ``predict_workload`` one request at a time on the
same predictor.  The win comes from three compounding mechanisms: repeated
workload shapes are answered from the LRU cache, identical in-flight
requests are coalesced into one computation, and the residual misses are
micro-batched into vectorized ``predict`` calls.

Each timed pass lasts only 20-50 ms, and the machine's speed can change
twofold between passes, so one pass proves nothing.  Naive and served
passes are interleaved ``TIMING_PASSES`` times, and a speedup is the median
of the per-pass ratios.
"""

import dataclasses
import gc
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
from conftest import run_once
from oracle import naive_loop_qps, naive_loop_values

from repro.api import CachePolicy, PredictionRequest
from repro.core.model import LearnedWMP
from repro.core.workload import Workload, make_workloads
from repro.exceptions import DeadlineExceededError
from repro.serving import PredictionServer, ServerConfig
from repro.serving.kernel import (
    Complete,
    Fail,
    FlushBatch,
    PipelineKernel,
    Shed,
    split_expired,
)
from repro.workloads.generator import generate_dataset
from repro.workloads.replay import replay_requests_from_workloads

N_QUERIES = 600
BATCH_SIZE = 10
N_REQUESTS = 400
REPEAT_FRACTION = 0.75
SEED = 7
TIMING_PASSES = 5


def _setup_full():
    dataset = generate_dataset("tpcds", N_QUERIES, seed=SEED)
    model = LearnedWMP(
        regressor="ridge",
        n_templates=24,
        batch_size=BATCH_SIZE,
        random_state=SEED,
        fast=True,
    )
    model.fit(dataset.train_records)
    pool = make_workloads(dataset.all_records, BATCH_SIZE, seed=SEED)
    requests = replay_requests_from_workloads(
        pool, N_REQUESTS, repeat_fraction=REPEAT_FRACTION, seed=SEED
    )
    return model, requests, pool


def _setup():
    model, requests, _ = _setup_full()
    return model, requests


def _served_qps(model, requests) -> tuple[float, PredictionServer]:
    config = ServerConfig(max_batch_size=64)
    with PredictionServer(model, config=config) as server:
        # Start from a collected heap: a full collection of earlier tests'
        # garbage takes 0.2-0.4 s, longer than this whole timed run.
        gc.collect()
        start = time.perf_counter()
        futures = [server.submit(workload) for workload in requests]
        for future in futures:
            future.result()
        elapsed = time.perf_counter() - start
    return len(requests) / elapsed, server


def _median_speedup(qps: list[float], naive: list[float]) -> float:
    """Median over the interleaved passes of each pass's ratio to naive."""
    return float(np.median(np.divide(qps, naive)))


def test_serving_throughput_beats_naive_loop(benchmark):
    model, requests = _setup()

    # Warm both paths once (JIT-free Python, but touches lazy caches fairly).
    model.predict_workload(requests[0])

    def _passes():
        naive, served = [], []
        for _ in range(TIMING_PASSES):
            naive.append(naive_loop_qps(model, requests))
            qps, server = _served_qps(model, requests)
            served.append(qps)
        return naive, served, server

    naive, served, server = run_once(benchmark, _passes)
    speedup = _median_speedup(served, naive)

    cache = server.cache_stats()
    batcher = server.batcher_stats()
    print()
    print(f"naive one-call-at-a-time : {np.median(naive):10.0f} req/s")
    print(f"served (cache+batching)  : {np.median(served):10.0f} req/s")
    print(f"speedup                  : {speedup:10.2f}x")
    print(f"coalesced requests       : {server.coalesced_requests:10d}")
    print(f"cache hit rate           : {100.0 * cache.hit_rate:9.1f} %")
    print(f"mean batch size          : {batcher.mean_batch_size:10.1f}")

    # The serving stack must beat the naive loop on skewed replay traffic.
    assert speedup > 1.0
    # And the win must come from the mechanisms under test, not noise:
    # repeats are answered without duplicate model work.
    assert server.coalesced_requests + cache.hits > 0
    assert batcher.requests < len(requests)


class _RecordingModel:
    """Wraps a fitted model, recording every workload that reaches it."""

    def __init__(self, model) -> None:
        self.model = model
        self.executed: list[Workload] = []
        self._lock = threading.Lock()

    def predict(self, workloads):
        with self._lock:
            self.executed.extend(workloads)
        return self.model.predict(workloads)

    def predict_workload(self, workload):
        with self._lock:
            self.executed.append(workload)
        return self.model.predict_workload(workload)


def test_deadline_traffic_sheds_expired_and_preserves_answers(benchmark):
    """The end-to-end deadline contract on the serving front.

    Interleave the replay stream (every request under a generous deadline)
    with doomed requests whose budget is already spent.  The doomed ones
    must fail fast with ``DeadlineExceededError`` and never reach the model
    (shed before occupying a batch slot); every surviving request must
    answer exactly what the naive one-call-at-a-time loop answers.
    """
    from repro.serving.cache import workload_signature

    model, requests, pool = _setup_full()
    expected = naive_loop_values(model, requests)
    # Doomed workloads are made distinct from every replayed workload (one
    # query dropped changes the signature), so "never executed" is checkable
    # from the model's own log.
    doomed_pool = [Workload(queries=w.queries[:-1]) for w in pool[:40]]
    doomed_signatures = {workload_signature(w) for w in doomed_pool}
    assert not doomed_signatures & {workload_signature(w) for w in requests}

    config = ServerConfig(max_batch_size=64)
    recorder = _RecordingModel(model)
    outcome: dict = {}

    def _run() -> None:
        with PredictionServer(recorder, config=config) as server:
            live = [
                server.submit_request(PredictionRequest.of(w, deadline_s=30.0))
                for w in requests
            ]
            doomed = [
                server.submit_request(PredictionRequest.of(w, deadline_s=1e-9))
                for w in doomed_pool
            ]
            shed_failures = 0
            start = time.perf_counter()
            for future in doomed:
                try:
                    future.result(timeout=10.0)
                except DeadlineExceededError:
                    shed_failures += 1
            outcome["doomed_wait_s"] = time.perf_counter() - start
            outcome["shed_failures"] = shed_failures
            outcome["values"] = np.array(
                [f.result(timeout=30.0).memory_mb for f in live], dtype=np.float64
            )
            outcome["snapshot"] = server.snapshot()

    run_once(benchmark, _run)

    report = outcome["snapshot"]
    print()
    print(
        f"shed {report.shed_requests:3d} / {len(doomed_pool)} doomed, "
        f"deadline misses {report.deadline_misses:3d}, "
        f"doomed failed in {1e3 * outcome['doomed_wait_s']:.1f} ms total"
    )

    # 1. Every doomed request failed fast instead of stretching the run.
    assert outcome["shed_failures"] == len(doomed_pool)
    assert outcome["doomed_wait_s"] < 5.0
    # 2. ...and was counted as shed, never executed on the model.
    assert report.shed_requests == len(doomed_pool)
    assert report.deadline_misses >= len(doomed_pool)
    assert report.n_errors == 0
    executed_signatures = {workload_signature(w) for w in recorder.executed}
    assert not executed_signatures & doomed_signatures
    # 3. Every non-expiring request answers exactly the naive loop.
    np.testing.assert_allclose(outcome["values"], expected, rtol=1e-9, atol=0.0)


# -- scenario-driven traffic (repro.workloads.scenarios) -------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def _scenario_model(compiled):
    """A fast ridge model fitted on the scenario's own source records."""
    model = LearnedWMP(
        regressor="ridge",
        n_templates=24,
        batch_size=BATCH_SIZE,
        random_state=SEED,
        fast=True,
    )
    model.fit(compiled.records)
    return model


def test_flash_crowd_scenario_sheds_during_spike(benchmark):
    """The committed flash-crowd scenario overloads the server mid-run.

    During the spike window arrivals outrun the model's service rate, the
    batch queue outgrows each request's 12 ms budget, and the serving tier
    must respond the way the deadline contract promises: shed expired work
    (instead of stretching the tail for everyone) while the micro-batcher
    rides the burst with multi-request batches.
    """
    from repro.serving import LoadGenerator
    from repro.workloads.scenarios import compile_scenario, load_scenario

    compiled = compile_scenario(load_scenario(SCENARIOS / "flash_crowd.toml"))
    model = _scenario_model(compiled)
    config = ServerConfig(max_batch_size=32)

    def _run():
        with PredictionServer(model, config=config) as server:
            return LoadGenerator.from_scenario(server, compiled).run()

    report = run_once(benchmark, _run)

    flash = report.tenants["flash"]
    print()
    print(f"scheduled requests       : {report.n_requests:10d}")
    print(f"offered load (mean)      : {report.offered_qps:10.0f} req/s")
    print(f"shed during spike        : {report.shed_requests:10d}")
    print(f"deadline misses          : {report.deadline_misses:10d}")
    print(f"mean batch size          : {report.mean_batch_size:10.2f}")
    print(f"flash tenant p95         : {flash.latency_p95_ms:10.2f} ms")

    # The spike must actually overwhelm the server: expired requests are
    # shed rather than served late...
    assert report.shed_requests > 0
    # ...and the batcher must be riding the burst, not trickling singletons.
    assert report.mean_batch_size > 1.0
    # Shedding is deliberate deadline enforcement, not failure.
    assert report.n_errors == 0
    # All traffic belongs to the single flash tenant.
    assert flash.shed_requests == report.shed_requests


#: Virtual model time per batch in the kernel replay.  At 32 requests per
#: batch this caps service at 3200 req/s, below the noisy tenant's 4000 req/s
#: bursts, so the replay is overloaded the way a live run is.
REPLAY_BATCH_S = 0.010


def _replay_through_kernel(compiled, config, service_s):
    """Replay a compiled schedule through a bare :class:`PipelineKernel`.

    Time is virtual: each request arrives at its compiled offset, and one
    model worker (as in the serving front) starts each flushed batch as
    soon as the kernel cuts it and runs it for a fixed ``service_s``.  The
    run is deterministic.  Returns per-tenant ``Counter``s of
    ``answered`` / ``late`` / ``shed`` / ``errors``.
    """
    kernel = PipelineKernel(config)
    schedule = compiled.schedule
    counts = {tenant: Counter() for tenant in compiled.tenant_counts()}
    flushed: list[FlushBatch] = []  # the kernel's one outstanding flush
    running: tuple[FlushBatch, float] | None = None

    def apply(actions):
        for action in actions:
            if isinstance(action, Complete):
                outcome = "late" if action.late else "answered"
                counts[schedule[action.rid].tenant][outcome] += 1
            elif isinstance(action, Shed):
                counts[schedule[action.rid].tenant]["shed"] += 1
            elif isinstance(action, Fail):
                counts[schedule[action.rid].tenant]["errors"] += 1
            elif isinstance(action, FlushBatch):
                flushed.append(action)

    now, i = 0.0, 0
    while i < len(schedule) or flushed or running is not None:
        if running is None and flushed:
            running = (flushed.pop(), now)
        due = [] if running is None else [running[1] + service_s]
        if i < len(schedule):
            due.append(schedule[i].at_s)
        now = max(now, min(due))
        if running is not None and running[1] + service_s <= now:
            flush, started = running
            running = None
            live, _ = split_expired(flush.entries, started)
            values = [entry.workload.actual_memory_mb for entry in live]
            apply(kernel.batch_done(flush.batch_id, started, values, now))
        else:
            item = schedule[i]
            apply(
                kernel.submit(
                    i,
                    item.workload,
                    now=now,
                    deadline_at=None if item.deadline_s is None else now + item.deadline_s,
                    use_cache=item.cache_policy is not CachePolicy.BYPASS,
                    tenant=item.tenant,
                    priority=item.priority,
                )
            )
            i += 1
    assert kernel.idle()
    return counts


def test_two_tenant_contention_keeps_steady_tenant_clean(benchmark):
    """A noisy neighbour's bursts must not cost the steady tenant its SLO.

    The 'noisy' tenant fires heavy-tailed ON/OFF bursts far above capacity
    under a 12 ms deadline with the cache bypassed and a max_inflight quota;
    the 'steady' tenant trickles cacheable traffic at priority 1 under a
    tight 200 ms budget.  That budget is short enough that queueing behind a
    burst would blow it: only the kernel's priority-first batch assembly and
    priority-aware overload shedding keep the steady tenant clean.

    The SLO claim is checked on a virtual-clock replay of the compiled
    schedule through the kernel, so it does not depend on how fast the
    machine runs the model.  The live server run then checks that every
    scheduled request is accounted for.
    """
    from repro.serving import LoadGenerator
    from repro.workloads.scenarios import compile_scenario, load_scenario

    compiled = compile_scenario(
        load_scenario(SCENARIOS / "two_tenant_contention.toml")
    )
    model = _scenario_model(compiled)
    config = ServerConfig(
        max_batch_size=32,
        max_queue_depth=128,
        tenant_weights=compiled.spec.tenant_weights(),
        tenant_max_inflight=compiled.spec.tenant_max_inflight(),
    )

    replayed = _replay_through_kernel(compiled, config, REPLAY_BATCH_S)
    noisy, steady = replayed["noisy"], replayed["steady"]
    # The noisy tenant overloads the kernel and pays for it...
    assert noisy["shed"] > 0
    # ...while the steady high-priority tenant keeps a zero deadline-miss
    # rate under its tightened budget, by scheduling rather than luck.
    assert steady["late"] == 0 and steady["shed"] == 0 and steady["errors"] == 0
    assert sum(steady.values()) == compiled.tenant_counts()["steady"]
    # Control: with every priority flattened to 0 the same replay costs the
    # steady tenant misses, so the clean run above is the scheduler's doing.
    flat = dataclasses.replace(
        compiled,
        schedule=[dataclasses.replace(item, priority=0) for item in compiled.schedule],
    )
    flat_steady = _replay_through_kernel(flat, config, REPLAY_BATCH_S)["steady"]
    assert flat_steady["late"] + flat_steady["shed"] > 0

    def _run():
        with PredictionServer(model, config=config) as server:
            return LoadGenerator.from_scenario(server, compiled).run()

    report = run_once(benchmark, _run)

    print()
    for name, tally in sorted(replayed.items()):
        print(f"replay   {name:<8}: {dict(sorted(tally.items()))}")
    for name, tenant in sorted(report.tenants.items()):
        print(
            f"live     {name:<8}: {tenant.n_requests:6d} req, "
            f"p95 {tenant.latency_p95_ms:8.2f} ms, "
            f"misses {tenant.deadline_misses:5d}, shed {tenant.shed_requests:5d} "
            f"(queue_full {tenant.shed_queue_full:4d}, "
            f"evicted {tenant.shed_priority_evict:4d})"
        )

    # Per-tenant conservation: every scheduled request is either answered or
    # shed (never lost), so the per-tenant totals are the scenario's.
    accounted = {
        name: t.n_requests + t.shed_requests + t.n_errors
        for name, t in report.tenants.items()
    }
    assert accounted == compiled.tenant_counts()
