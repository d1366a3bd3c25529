"""The traced run: per-layer metrics, timed from the benchmark's own files.

Nothing here changes the program.  The run drives one step at the
workload's ``high`` rate without tracing, then a warm-up and the same step
again on a fresh server whose kernel sits behind :class:`KernelRecorder` and
whose front sits behind :class:`TaggingFront`: every kernel event
(``Submit``, ``Tick``, ``BatchDone``, ...) of that server's life is recorded
with the request it belongs to, and :class:`traffic.BatchLog` records each
model call.  Afterwards:

* the recorded events are replayed through a fresh ``PipelineKernel``
  (deterministic, so it cuts the same batches again) to time each event
  type and to recover every request's queue wait;
* spans (request, queue wait, model batch) are written to
  ``perfbench/out/spans-<workload>-<seed>.jsonl``;
* each layer's public functions are timed on the step's own inputs: the
  signature, kernel admission at fixed backlogs, plan fingerprints and
  featurization per join band, template assignment, the regressor, the
  model at the recorded batch sizes, the naive loop, the wire codec, the
  gateway's health route and the telemetry snapshot.

The difference between the traced and the untraced step is reported as the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

from repro.api import PredictionResult
from repro.core.features import plan_fingerprint
from repro.serving import ServerConfig
from repro.serving.cache import workload_signature
from repro.serving.http import GatewayClient, GatewayConfig, HttpGateway
from repro.serving.http.schemas import (
    plan_from_wire,
    plan_to_wire,
    request_from_wire,
    request_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.serving.kernel import (
    BatchDone,
    BatchFailed,
    Close,
    FlushBatch,
    PipelineKernel,
    Submit,
    SyncVersion,
    Tick,
)

import openloop
import traffic

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: Share of ``--seconds`` for each of the two load steps.
STEP_SHARE = 0.2
#: Time box of each layer micro-measurement.
MICRO_S = 0.3
BACKLOGS = (("b10", 10), ("b1k", 1_000), ("b10k", 10_000))
WIRE_SAMPLE = 200


class KernelRecorder:
    """Stands in for a server's kernel and records every event fed to it.

    ``tag`` is set by :class:`TaggingFront` to the request id being
    submitted, so each ``Submit`` is stored with the request it belongs to.
    """

    def __init__(self, kernel: PipelineKernel) -> None:
        self.kernel = kernel
        self.events: list = []
        self.request_ids: dict[int, str] = {}
        self.tag: str | None = None

    @classmethod
    def install(cls, server) -> "KernelRecorder":
        with server._work:
            recorder = cls(server._kernel)
            server._kernel = recorder
        return recorder

    def submit(self, rid, workload, *, now, deadline_at=None, use_cache=True,
               signature=None, tenant=None, priority=0):
        self.events.append(
            Submit(rid, workload, now, deadline_at, use_cache, signature, tenant, priority)
        )
        if self.tag is not None:
            self.request_ids[rid] = self.tag
        return self.kernel.submit(
            rid, workload, now=now, deadline_at=deadline_at, use_cache=use_cache,
            signature=signature, tenant=tenant, priority=priority,
        )

    def tick(self, now):
        self.events.append(Tick(now))
        return self.kernel.tick(now)

    def sync_version(self, version, now):
        self.events.append(SyncVersion(version, now))
        return self.kernel.sync_version(version, now)

    def batch_done(self, batch_id, started_at, values, now):
        self.events.append(BatchDone(batch_id, started_at, list(values), now))
        return self.kernel.batch_done(batch_id, started_at, values, now)

    def batch_failed(self, batch_id, started_at, error, now):
        self.events.append(BatchFailed(batch_id, started_at, error, now))
        return self.kernel.batch_failed(batch_id, started_at, error, now)

    def close(self, now):
        self.events.append(Close(now))
        return self.kernel.close(now)

    def __getattr__(self, name):
        return getattr(self.kernel, name)


class TaggingFront:
    """A front before the server that tells the recorder which request the
    next kernel ``Submit`` belongs to (one submitting thread at a time: the
    load generator in-process, the gateway's event loop over the wire)."""

    def __init__(self, server, recorder: KernelRecorder) -> None:
        self.server = server
        self.recorder = recorder

    def submit_request(self, request, **kwargs):
        self.recorder.tag = request.request_id
        try:
            return self.server.submit_request(request, **kwargs)
        finally:
            self.recorder.tag = None

    def __getattr__(self, name):
        return getattr(self.server, name)


# -- timing helpers --------------------------------------------------------------------


def per_item_us(fn, items, *, budget_s: float = MICRO_S) -> float:
    """Median over repeated passes of ``fn(item)`` for every item, in µs/item."""
    rounds: list[float] = []
    deadline = time.perf_counter() + budget_s
    while not rounds or time.perf_counter() < deadline:
        started = time.perf_counter()
        for item in items:
            fn(item)
        rounds.append((time.perf_counter() - started) / len(items))
    return 1e6 * statistics.median(rounds)


def per_call_ms(fn, *, budget_s: float = MICRO_S) -> float:
    """Median time of ``fn()`` over repeated calls, in ms."""
    return per_item_us(lambda _: fn(), [None], budget_s=budget_s) / 1e3


def per_batch_us(fn, batches, sizes, *, budget_s: float = MICRO_S) -> float:
    """Median over passes of the time of ``fn(batch)`` per unit of ``sizes``."""
    total = sum(sizes)
    rounds: list[float] = []
    deadline = time.perf_counter() + budget_s
    while not rounds or time.perf_counter() < deadline:
        started = time.perf_counter()
        for batch in batches:
            fn(batch)
        rounds.append((time.perf_counter() - started) / total)
    return 1e6 * statistics.median(rounds)


# -- the kernel ------------------------------------------------------------------------


def replay_kernel(events, config: ServerConfig):
    """Feed recorded events through a fresh kernel, timing each call.

    Signatures are computed before the replay, so ``kernel.submit_us``
    excludes hashing (that is ``cache.signature_us``).  Returns the mean µs
    per event type, each batched request's ``(rid, submitted_at, started_at)``
    and each batch's ``(started_at, done_at, rids)``.
    """
    kernel = PipelineKernel(config)
    signatures: dict[int, object] = {}
    costs: dict[type, list[float]] = {Submit: [], Tick: [], BatchDone: []}
    submitted: dict[int, float] = {}
    batch_of: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    started_at: dict[int, float] = {}
    batch_spans: list[tuple[float, float, list[int]]] = []
    for event in events:
        kind = type(event)
        if kind is Submit:
            key = id(event.workload)
            if key not in signatures:
                signatures[key] = workload_signature(event.workload)
            signature = signatures[key]
            began = time.perf_counter()
            actions = kernel.submit(
                event.rid, event.workload, now=event.now, deadline_at=event.deadline_at,
                use_cache=event.use_cache, signature=signature,
                tenant=event.tenant, priority=event.priority,
            )
            elapsed = time.perf_counter() - began
            submitted[event.rid] = event.now
        else:
            began = time.perf_counter()
            actions = kernel.handle(event)
            elapsed = time.perf_counter() - began
            if kind is BatchDone:
                started_at[event.batch_id] = event.started_at
                batch_spans.append(
                    (event.started_at, event.now, members.get(event.batch_id, []))
                )
        if kind in costs:
            costs[kind].append(elapsed)
        for action in actions:
            if isinstance(action, FlushBatch):
                members[action.batch_id] = [entry.rid for entry in action.entries]
                for entry in action.entries:
                    batch_of[entry.rid] = action.batch_id
    waits = [
        (rid, submitted[rid], started_at[batch])
        for rid, batch in batch_of.items()
        if batch in started_at
    ]
    means = {kind: 1e6 * float(np.mean(c)) if c else 0.0 for kind, c in costs.items()}
    return means, waits, batch_spans


def submit_at_backlog(backlog: int, workloads, *, budget_s: float = MICRO_S) -> float:
    """µs per ``PipelineKernel.submit`` with ``backlog`` requests pending.

    The kernel's one batch slot is kept busy, so every admitted request
    stays pending; each pass fills a fresh kernel to ``backlog`` and times
    the next ``max(1, backlog // 100)`` admissions.
    """
    config = ServerConfig(max_batch_size=64, max_wait_s=0.002)
    timed = max(1, backlog // 100)
    samples: list[float] = []
    deadline = time.perf_counter() + budget_s
    while not samples or time.perf_counter() < deadline:
        kernel = PipelineKernel(config)
        now = 1.0
        kernel.submit(0, workloads[0], now=now, deadline_at=1e9, signature=("b", 0))
        kernel.tick(now + 0.01)  # flushes request 0: the slot is now busy
        for rid in range(1, backlog + 1):
            kernel.submit(rid, workloads[rid % len(workloads)], now=now,
                          deadline_at=1e9, signature=("b", rid))
        started = time.perf_counter()
        for rid in range(backlog + 1, backlog + 1 + timed):
            kernel.submit(rid, workloads[rid % len(workloads)], now=now,
                          deadline_at=1e9, signature=("b", rid))
        samples.append((time.perf_counter() - started) / timed)
        if backlog >= 1_000:
            break  # one fill is enough data, and filling is O(backlog²) today
    return 1e6 * statistics.median(samples)


# -- the run ---------------------------------------------------------------------------


def traced_run(bench, verifier, seconds, *, seed):
    spec = bench.spec
    model = bench.model
    offsets = openloop.fixed_rate(spec.high_qps, STEP_SHARE * seconds)
    warm = openloop.fixed_rate(spec.low_qps, 0.5)

    steps = [openloop.drive(bench, verifier, "warmup", warm)[0]]
    untraced = openloop.drive(bench, verifier, "untraced", offsets)[0]
    steps.append(untraced)

    holder: dict[str, KernelRecorder] = {}

    def _wrap(server):
        holder["recorder"] = KernelRecorder.install(server)
        return TaggingFront(server, holder["recorder"])

    bench.start_serving(wrap=_wrap)
    recorder = holder["recorder"]
    # The fresh server's whole life is traced: its warm-up sends replayed
    # workloads to the model once, so the model-path metrics of a mix the
    # cache answers afterwards still have batches to measure.
    cache_before = bench.server.cache_stats()
    features_before = model.feature_cache_stats()
    warmup, _, warm_batches = openloop.drive(bench, verifier, "traced-warmup", warm)
    traced, requests, batches = openloop.drive(bench, verifier, "traced", offsets)
    steps += [warmup, traced]
    batches = warm_batches + batches
    cache_after = bench.server.cache_stats()
    features_after = model.feature_cache_stats()

    metrics: dict[str, tuple[float, str]] = {}
    metrics["trace.p50_ms_untraced"] = (untraced.percentile_ms(50), "ms")
    metrics["trace.p50_ms_traced"] = (traced.percentile_ms(50), "ms")
    metrics["trace.overhead_ratio"] = (
        traced.percentile_ms(50) / untraced.percentile_ms(50), "ratio"
    )
    metrics["gen.lag_ms_p99"] = (traced.gen_lag_p99_ms, "ms")

    hits = cache_after.hits - cache_before.hits
    lookups = cache_after.requests - cache_before.requests
    metrics["cache.hit_rate"] = (hits / lookups if lookups else 0.0, "ratio")
    f_hits = features_after.hits - features_before.hits
    f_lookups = features_after.requests - features_before.requests
    metrics["features.hit_rate"] = (f_hits / f_lookups if f_lookups else 0.0, "ratio")

    # Kernel: replay the recorded event trace.
    means, waits, batch_spans = replay_kernel(recorder.events, traffic.SERVER_CONFIG)
    metrics["kernel.submit_us"] = (means[Submit], "us/event")
    metrics["kernel.tick_us"] = (means[Tick], "us/event")
    metrics["kernel.batch_done_us"] = (means[BatchDone], "us/event")
    metrics["server.queue_wait_ms_p50"] = (
        1e3 * float(np.median([started - submitted for _, submitted, started in waits])), "ms"
    )
    sizes = [len(workloads) for workloads, _, _, _ in batches]
    metrics["server.batch_size_mean"] = (float(np.mean(sizes)) if sizes else 0.0, "req/batch")
    busy = sum(end - begin for _, _, begin, end in batches)
    wall = float(np.nanmax(traced.done)) - float(warmup.due[0])
    metrics["server.model_busy_share"] = (busy / wall, "ratio")

    write_spans(spec.name, seed, traced, requests, recorder, waits, batch_spans)

    # Layer micro-measurements on this step's inputs.
    step_workloads = [request.workload for request in requests]
    sample = step_workloads[:: max(1, len(step_workloads) // 2000)]
    metrics["cache.signature_us"] = (per_item_us(workload_signature, sample), "us/req")
    for name, backlog in BACKLOGS:
        metrics[f"kernel.submit_us.{name}"] = (
            submit_at_backlog(backlog, step_workloads), "us/event"
        )
    metrics.update(feature_metrics(bench, batches))
    metrics.update(model_metrics(bench, batches, step_workloads))
    metrics.update(wire_metrics(bench, requests))
    metrics["telemetry.snapshot_ms"] = (per_call_ms(bench.server.telemetry.snapshot), "ms")
    return steps, metrics


def model_batches(batches, fallback):
    """The model calls of the traced step (or, when the cache answered every
    request, batches of the step's workloads at the server's batch size)."""
    if batches:
        return [workloads for workloads, _, _, _ in batches]
    size = traffic.SERVER_CONFIG.max_batch_size
    return [fallback[i : i + size] for i in range(0, min(len(fallback), 20 * size), size)]


def cold_fingerprint_us(plans) -> float:
    """µs per ``plan_fingerprint`` on plans fresh from ``plan_from_wire``
    (no memo yet, as on the gateway path); median over repeated passes."""
    wire = [plan_to_wire(plan) for plan in plans]
    rounds: list[float] = []
    deadline = time.perf_counter() + MICRO_S
    while not rounds or time.perf_counter() < deadline:
        fresh = [plan_from_wire(payload) for payload in wire]
        started = time.perf_counter()
        for plan in fresh:
            plan_fingerprint(plan)
        rounds.append((time.perf_counter() - started) / len(fresh))
    return 1e6 * statistics.median(rounds)


def feature_metrics(bench, batches):
    featurizer = bench.model.featurizer
    metrics = {}
    for name, records in bench.bands.items():
        plans = [record.plan for record in records]
        metrics[f"features.fingerprint_us.{name}"] = (
            per_item_us(plan_fingerprint, plans), "us/plan"
        )
        metrics[f"features.fingerprint_cold_us.{name}"] = (cold_fingerprint_us(plans), "us/plan")
        chunks = [records[i : i + 640] for i in range(0, len(records), 640)]
        metrics[f"features.featurize_us.{name}"] = (
            per_batch_us(featurizer.featurize_records, chunks, [len(c) for c in chunks]),
            "us/query",
        )
    metrics["features.fingerprint_cold_us"] = (
        cold_fingerprint_us([record.plan for record in bench.records]), "us/plan"
    )
    queries = [
        [record for workload in workloads for record in workload.queries]
        for workloads in model_batches(batches, bench.workloads(640))
    ]
    metrics["features.featurize_us"] = (
        per_batch_us(featurizer.featurize_records, queries, [len(q) for q in queries]),
        "us/query",
    )
    metrics["templates.assign_us"] = (
        per_batch_us(bench.model.templates.assign, queries, [len(q) for q in queries]),
        "us/query",
    )
    return metrics


def model_metrics(bench, batches, step_workloads):
    model = bench.model
    calls = model_batches(batches, step_workloads)
    sizes = [len(call) for call in calls]
    histograms = [np.stack([model.histogram(w) for w in call]) for call in calls]
    naive_items = step_workloads[:200]
    started = time.perf_counter()
    done = 0
    while time.perf_counter() - started < MICRO_S:
        for workload in naive_items:
            model.predict_workload(workload)
        done += len(naive_items)
    naive = done / (time.perf_counter() - started)
    return {
        "regressor.predict_us": (
            per_batch_us(model.regressor.predict, histograms, sizes), "us/workload"
        ),
        "model.predict_us": (per_batch_us(model.predict, calls, sizes), "us/workload"),
        "model.naive_wl_per_s": (naive, "workloads/s"),
    }


def wire_metrics(bench, requests):
    sample = requests[:: max(1, len(requests) // WIRE_SAMPLE)][:WIRE_SAMPLE]

    def encode(request):
        return json.dumps(request_to_wire(request), separators=(",", ":"),
                          sort_keys=True).encode("utf-8")

    bodies = [encode(request) for request in sample]
    results = [
        PredictionResult(memory_mb=1234.5678, request_id=request.request_id,
                         model_name="default", model_version=1, latency_s=0.001234)
        for request in sample
    ]

    def encode_result(result):
        return json.dumps(result_to_wire(result), separators=(",", ":"),
                          sort_keys=True).encode("utf-8")

    result_bodies = [encode_result(result) for result in results]
    metrics = {
        "wire.request_bytes": (float(np.mean([len(body) for body in bodies])), "bytes"),
        "wire.request_encode_us": (per_item_us(encode, sample), "us/req"),
        "wire.request_decode_us": (
            per_item_us(lambda body: request_from_wire(json.loads(body)), bodies), "us/req"
        ),
        "wire.result_encode_us": (per_item_us(encode_result, results), "us/req"),
        "wire.result_decode_us": (
            per_item_us(lambda body: result_from_wire(json.loads(body)), result_bodies),
            "us/req",
        ),
    }
    if bench.client is not None:
        metrics["http.healthz_ms"] = (healthz_ms(bench.client), "ms")
    else:
        gateway = HttpGateway(bench.server, config=GatewayConfig(port=0)).start()
        try:
            with GatewayClient(gateway.url, max_workers=1) as client:
                metrics["http.healthz_ms"] = (healthz_ms(client), "ms")
        finally:
            gateway.close()
    return metrics


def healthz_ms(client) -> float:
    client.healthz()  # opens the connection
    return per_call_ms(client.healthz)


def write_spans(workload, seed, step, requests, recorder, waits, batch_spans):
    """Spans of the traced step, one JSON object per line: a request span
    from due time to resolution, a queue span (child of the request) from
    admission to its batch's start, and a batch span around each model call
    listing the requests in it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    request_of = recorder.request_ids
    first_due = float(step.due[0])

    def emit(out, name, start, end, parent, request, **extra):
        out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                              "request": request, **extra}) + "\n")

    with open(path, "w", encoding="utf-8") as out:
        for request, due, done in zip(requests, step.due, step.done):
            end = None if np.isnan(done) else float(done)
            emit(out, "request", float(due), end, None, request.request_id)
        for rid, submitted, started in waits:
            if submitted >= first_due and rid in request_of:
                emit(out, "queue", submitted, started, "request", request_of[rid])
        for started, done, rids in batch_spans:
            emit(out, "batch", started, done, None, None,
                 requests=[request_of.get(rid) for rid in rids])
    print(f"spans written to {os.path.relpath(path)}", flush=True)
