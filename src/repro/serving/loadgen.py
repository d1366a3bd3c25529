"""Load-test harness: replay benchmark traffic against a prediction server.

The paper's motivating deployment is a workload manager consulting the
memory model for *every* arriving batch, so the serving layer has to be
measured the way online systems are: offered load at a target request rate,
observed throughput, and the latency distribution under that load.

:class:`LoadGenerator` drives a :class:`~repro.serving.server.PredictionServer`
open-loop: request ``i`` is *scheduled* at ``i / qps`` seconds and submitted
as soon as the wall clock reaches that point, whether or not earlier
requests have completed — exactly how traffic from independent users
behaves.  Latency is measured from the scheduled arrival, so queueing delay
caused by an overloaded server shows up in the percentiles instead of
silently stretching the run.  The resulting :class:`LoadTestReport` renders
the throughput/latency table the CLI prints and serializes to JSON for the
benchmark trajectory (``BENCH_serving.json``).
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.api import PredictionRequest
from repro.core.workload import Workload
from repro.exceptions import DeadlineExceededError, InvalidParameterError
from repro.serving.telemetry import TenantReport

__all__ = ["LoadTestReport", "LoadGenerator"]


@dataclass(frozen=True)
class LoadTestReport:
    """Result of one load-test run.

    ``achieved_qps`` counts completed requests over the whole run;
    ``offered_qps`` is the target arrival rate.  Latency percentiles are
    measured from each request's *scheduled* arrival time.
    """

    benchmark: str
    n_requests: int
    n_errors: int
    offered_qps: float
    achieved_qps: float
    duration_s: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    cache_hit_rate: float
    mean_batch_size: float
    deadline_misses: int = 0
    shed_requests: int = 0
    extras: dict[str, float] = field(default_factory=dict)
    seed: int | None = None
    scenario: str | None = None
    tenants: dict[str, TenantReport] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form (the ``BENCH_serving.json`` schema).

        ``seed`` and ``scenario`` appear when the run was provenance-tagged
        (scenario-driven runs always are); ``tenants`` nests one counter
        block per tenant label observed by the server.
        """
        payload: dict[str, object] = {
            "benchmark": self.benchmark,
            "n_requests": self.n_requests,
            "n_errors": self.n_errors,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "duration_s": self.duration_s,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "cache_hit_rate": self.cache_hit_rate,
            "mean_batch_size": self.mean_batch_size,
            "deadline_misses": self.deadline_misses,
            "shed_requests": self.shed_requests,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.scenario is not None:
            payload["scenario"] = self.scenario
        if self.tenants:
            payload["tenants"] = {
                name: report.to_dict() for name, report in self.tenants.items()
            }
        payload.update(self.extras)
        return payload

    def write_json(self, path: str | Path) -> Path:
        """Serialize :meth:`to_dict` to ``path`` and return it."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    def render(self) -> str:
        """Fixed-width text table in the style of the CLI train output."""
        lines = [
            f"benchmark           : {self.benchmark}",
            f"requests            : {self.n_requests}",
            f"errors              : {self.n_errors}",
            f"offered load        : {self.offered_qps:.1f} req/s",
            f"throughput          : {self.achieved_qps:.1f} req/s",
            f"duration            : {self.duration_s:.2f} s",
            f"latency mean        : {self.latency_mean_ms:.2f} ms",
            f"latency p50         : {self.latency_p50_ms:.2f} ms",
            f"latency p95         : {self.latency_p95_ms:.2f} ms",
            f"latency p99         : {self.latency_p99_ms:.2f} ms",
            f"cache hit rate      : {100.0 * self.cache_hit_rate:.1f} %",
            f"mean batch size     : {self.mean_batch_size:.2f}",
        ]
        if self.deadline_misses or self.shed_requests:
            lines.extend(
                [
                    f"deadline misses     : {self.deadline_misses}",
                    f"shed requests       : {self.shed_requests}",
                ]
            )
        if self.scenario is not None:
            lines.append(f"scenario            : {self.scenario}")
        if self.seed is not None:
            lines.append(f"seed                : {self.seed}")
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            lines.append(
                f"tenant {name:<13}: {tenant.n_requests} req, "
                f"p95 {tenant.latency_p95_ms:.2f} ms, "
                f"misses {tenant.deadline_misses}, shed {tenant.shed_requests}"
            )
        return "\n".join(lines)


class LoadGenerator:
    """Open-loop constant-rate replay of workload requests against a server.

    Parameters
    ----------
    server:
        The server under test: anything exposing the serving surface
        (``submit`` / ``submit_request`` returning futures, ``snapshot``,
        ``cache_stats`` / ``batcher_stats``) — an in-process
        :class:`~repro.serving.server.PredictionServer`-shaped backend or a
        :class:`~repro.serving.http.client.GatewayClient` pointed at a
        remote gateway (the HTTP transport: identical replay semantics,
        latencies then include the wire).
    requests:
        The workload sequence to replay (typically built with
        :func:`repro.workloads.replay.build_replay_requests`, which models
        production repetition so the cache has something to do).
    qps:
        Target arrival rate, requests per second.
    benchmark:
        Label carried into the report.
    deadline_s:
        Optional per-request deadline injected into the replayed traffic
        (the CLI's ``--deadline-ms``).  Requests are then submitted as typed
        :class:`~repro.api.PredictionRequest` objects, so the serving tier
        enforces the budget end-to-end: expired requests are shed (counted
        in the report's ``shed_requests`` / ``deadline_misses``, not in
        ``n_errors``) instead of stretching the tail.
    seed:
        Provenance tag recorded in the report (``LoadTestReport.seed``);
        the replay itself is already deterministic given ``requests``.
        Scenario-driven runs (:meth:`from_scenario`) record the scenario's
        own seed.
    """

    def __init__(
        self,
        server: Any,
        requests: Sequence[Workload],
        *,
        qps: float,
        benchmark: str = "",
        deadline_s: float | None = None,
        seed: int | None = None,
    ) -> None:
        if qps <= 0.0:
            raise InvalidParameterError("qps must be > 0")
        if not requests:
            raise InvalidParameterError("cannot load-test with zero requests")
        if deadline_s is not None and not 0.0 < deadline_s < math.inf:
            raise InvalidParameterError("deadline_s must be finite and > 0 (or None)")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise InvalidParameterError("seed must be an integer (or None)")
        self.server = server
        self.requests = list(requests)
        self.qps = float(qps)
        self.benchmark = benchmark
        self.deadline_s = deadline_s
        self.seed = seed
        self.scenario: str | None = None
        # Arrival offset of request i relative to the run start.  The fixed
        # mode is the constant-rate grid; from_scenario() replaces this with
        # the compiled scenario's absolute timestamps.
        self._offsets: list[float] = [i / self.qps for i in range(len(self.requests))]
        self._schedule: "list[Any] | None" = None

    @classmethod
    def from_scenario(cls, server: Any, scenario: Any) -> "LoadGenerator":
        """Drive a compiled scenario's schedule instead of a fixed-rate grid.

        ``scenario`` is a :class:`~repro.workloads.scenarios.CompiledScenario`;
        each :class:`~repro.workloads.scenarios.ScheduledRequest` is submitted
        as a typed request at its compiled absolute offset, carrying its
        tenant label, deadline and cache policy.  ``duration_s`` and the knob
        ranges were validated when the scenario was parsed; the report's
        ``offered_qps`` is the schedule's overall mean rate and ``tenants``
        holds the per-tenant counter blocks from the server's telemetry.
        """
        if not scenario.schedule:
            raise InvalidParameterError(
                f"scenario {scenario.name!r} compiled to zero requests; "
                "raise qps or duration_s"
            )
        if not scenario.duration_s > 0.0:
            raise InvalidParameterError("scenario duration_s must be > 0")
        generator = cls(
            server,
            [item.workload for item in scenario.schedule],
            qps=len(scenario.schedule) / scenario.duration_s,
            benchmark="+".join(scenario.spec.benchmarks),
            seed=scenario.seed,
        )
        generator.scenario = scenario.name
        generator._offsets = [item.at_s for item in scenario.schedule]
        generator._schedule = list(scenario.schedule)
        return generator

    def _submit(self, i: int, workload: Workload) -> Future:
        if self._schedule is not None:
            return self.server.submit_request(self._schedule[i].to_request())
        if self.deadline_s is None:
            return self.server.submit(workload)
        return self.server.submit_request(
            PredictionRequest.of(workload, deadline_s=self.deadline_s)
        )

    def run(self) -> LoadTestReport:
        """Replay every request at its scheduled offset and wait for completion."""
        n = len(self.requests)
        completed_at: list[float | None] = [None] * n
        start = time.monotonic()
        futures: list[Future] = []
        for i, workload in enumerate(self.requests):
            scheduled = start + self._offsets[i]
            delay = scheduled - time.monotonic()
            if delay > 0.0:
                time.sleep(delay)

            def _stamp(done: Future, index: int = i) -> None:
                # Completion time is captured in the callback (not after a
                # sequential result() wait) so latency of request i is not
                # inflated by time spent waiting on requests before it.
                completed_at[index] = time.monotonic()

            future = self._submit(i, workload)
            future.add_done_callback(_stamp)
            futures.append(future)

        latencies: list[float] = []
        errors = 0
        for i, future in enumerate(futures):
            try:
                future.result()
            except DeadlineExceededError:
                # Intentional load shedding, not a server failure; the
                # server-side counters land in the report below.
                continue
            except Exception:  # noqa: BLE001 - counted, not propagated
                errors += 1
                continue
            finished = completed_at[i]
            if finished is None:
                # result() can wake fractionally before the done callback runs
                # on the worker thread; fall back to "now".
                finished = time.monotonic()
            latencies.append(finished - (start + self._offsets[i]))
        duration = max(time.monotonic() - start, 1e-9)

        if latencies:
            values = np.asarray(latencies, dtype=np.float64)
            p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
            mean = float(values.mean())
        else:
            p50 = p95 = p99 = mean = 0.0
        cache_stats = self.server.cache_stats()
        batcher_stats = self.server.batcher_stats()
        telemetry = self.server.snapshot()
        # Remote transports (GatewayClient) have no local cache/batcher; the
        # backend's counters arrive through the telemetry scrape instead.
        cache_hit_rate = (
            cache_stats.hit_rate if cache_stats is not None else telemetry.cache_hit_rate
        )
        mean_batch_size = (
            batcher_stats.mean_batch_size
            if batcher_stats is not None
            else (telemetry.mean_batch_size or 1.0)
        )
        return LoadTestReport(
            benchmark=self.benchmark,
            n_requests=len(self.requests),
            n_errors=errors,
            offered_qps=self.qps,
            achieved_qps=len(latencies) / duration,
            duration_s=duration,
            latency_mean_ms=1e3 * mean,
            latency_p50_ms=1e3 * float(p50),
            latency_p95_ms=1e3 * float(p95),
            latency_p99_ms=1e3 * float(p99),
            cache_hit_rate=cache_hit_rate,
            mean_batch_size=mean_batch_size,
            deadline_misses=telemetry.deadline_misses,
            shed_requests=telemetry.shed_requests,
            seed=self.seed,
            scenario=self.scenario,
            tenants=dict(getattr(telemetry, "tenants", {}) or {}),
        )
