"""Scenario engine: declarative, seeded, bursty, multi-tenant traffic.

The serving stack (micro-batching, deadlines, caching, the HTTP
gateway) was built under one homogeneous fixed-QPS replay stream — which
never exercises burst shedding, cache churn under mixed workloads, or
tenant fairness.  This module turns a declarative scenario config (TOML or
JSON, stdlib-parsed) into a deterministic request *schedule* the
:class:`~repro.serving.loadgen.LoadGenerator` can drive open-loop.

A scenario composes four layers, each independently seeded so the whole
stream is reproducible bit-for-bit from ``(config, seed)``:

1. **Parameter streams** (:class:`ParameterStream`) — dsqgen-style
   per-template RNG streams instantiating SQL from the existing
   TPC-DS/JOB/TPC-C generators: template ``k`` of benchmark ``b`` always
   draws its literals from its own stream, so adding a tenant or reordering
   the mix never perturbs another template's queries.
2. **Arrival processes** (:func:`poisson_arrivals` and friends) — pure
   seeded iterators of absolute timestamps: Poisson, diurnal sine
   (inhomogeneous Poisson by thinning), flash-crowd spike, and heavy-tailed
   Pareto ON/OFF.
3. **Mixes** — redbench-style weighted compositions of benchmark streams
   on one timeline (each tenant draws its next workload's benchmark from
   its mix weights).
4. **Tenants** — named streams, each with its own mix, arrival shape,
   deadline, priority and :class:`~repro.api.CachePolicy`.  The tenant name
   is threaded onto every :class:`~repro.api.PredictionRequest` and
   surfaced as per-tenant counters in
   :class:`~repro.serving.telemetry.TelemetryReport`.

Entry points: :func:`load_scenario` (file → :class:`ScenarioSpec`),
:func:`parse_scenario` (mapping → spec) and :func:`compile_scenario`
(spec → :class:`CompiledScenario`: a time-sorted
:class:`ScheduledRequest` schedule plus the per-benchmark
:class:`WorkloadSource` pools).  Committed example configs live in
``examples/scenarios/``; the schema is documented in ``docs/SCENARIOS.md``.

``priority`` rides every :class:`ScheduledRequest` onto the
:class:`~repro.api.PredictionRequest` it produces, where the serving
kernel uses it for batch assembly and overload shedding; the optional
per-tenant ``weight`` / ``max_inflight`` quota knobs map onto
:class:`~repro.serving.kernel.ServerConfig` ``tenant_weights`` /
``tenant_max_inflight`` via :meth:`ScenarioSpec.tenant_weights` and
:meth:`ScenarioSpec.tenant_max_inflight`.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.api import CachePolicy, PredictionRequest
from repro.core.workload import Workload, make_workloads
from repro.dbms.executor import SimulatedDBMS
from repro.dbms.query_log import QueryRecord
from repro.exceptions import ScenarioError
from repro.workloads.base import BenchmarkGenerator, GeneratedQuery
from repro.workloads.generator import BENCHMARK_NAMES, build_benchmark
from repro.workloads.replay import _GEOMETRIC_P

__all__ = [
    "ARRIVAL_SHAPES",
    "ArrivalSpec",
    "SourceSpec",
    "TenantSpec",
    "ScenarioSpec",
    "ScheduledRequest",
    "WorkloadSource",
    "CompiledScenario",
    "ParameterStream",
    "steady_arrivals",
    "poisson_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "onoff_arrivals",
    "build_arrivals",
    "load_scenario",
    "parse_scenario",
    "compile_scenario",
]

#: Arrival shapes accepted by ``[tenants.arrival] shape = ...``.
ARRIVAL_SHAPES: tuple[str, ...] = ("steady", "poisson", "diurnal", "flash_crowd", "onoff")


def _derive_seed(*parts: int | str) -> list[int]:
    """A stable entropy list for :func:`numpy.random.default_rng`.

    Integers pass through; strings hash with CRC-32, which is stable across
    processes and platforms (unlike ``hash``) — so every sub-stream of a
    scenario is keyed by ``(seed, layer, tenant, benchmark, ...)`` labels
    without PYTHONHASHSEED sensitivity.
    """
    return [
        int(part) & 0xFFFFFFFF if isinstance(part, int) else zlib.crc32(part.encode("utf-8"))
        for part in parts
    ]


# -- layer 2: arrival processes --------------------------------------------------------
#
# Each sampler is a *pure* seeded iterator of absolute timestamps in
# ``[0, duration_s)``: no clocks, no shared state — the same arguments always
# yield the same stream, which is what the determinism acceptance test pins.


def steady_arrivals(qps: float, duration_s: float) -> Iterator[float]:
    """A deterministic fixed-interval grid: request ``i`` at ``i / qps``."""
    interval = 1.0 / qps
    for i in range(int(math.floor(duration_s * qps + 1e-9))):
        at = i * interval
        if at >= duration_s:
            break
        yield at


def poisson_arrivals(
    qps: float, duration_s: float, *, seed: int | Sequence[int] = 0
) -> Iterator[float]:
    """A homogeneous Poisson process: i.i.d. exponential inter-arrival gaps."""
    rng = np.random.default_rng(seed)
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / qps))
        if t >= duration_s:
            return
        yield t


def _thinned_arrivals(
    rate_at, max_rate: float, duration_s: float, rng: np.random.Generator
) -> Iterator[float]:
    """Inhomogeneous Poisson by Lewis–Shedler thinning against ``max_rate``."""
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / max_rate))
        if t >= duration_s:
            return
        if float(rng.random()) * max_rate < rate_at(t):
            yield t


def diurnal_arrivals(
    qps: float,
    duration_s: float,
    *,
    amplitude: float = 0.8,
    period_s: float = 60.0,
    seed: int | Sequence[int] = 0,
) -> Iterator[float]:
    """A diurnal sine: rate ``qps * (1 + amplitude * sin(2πt / period_s))``.

    An inhomogeneous Poisson process sampled by thinning; ``amplitude`` in
    ``[0, 1]`` swings the instantaneous rate between ``qps * (1 - a)`` and
    ``qps * (1 + a)`` over each period (one "day" compressed to seconds).
    """
    rng = np.random.default_rng(seed)
    two_pi = 2.0 * math.pi

    def rate_at(t: float) -> float:
        return qps * (1.0 + amplitude * math.sin(two_pi * t / period_s))

    return _thinned_arrivals(rate_at, qps * (1.0 + amplitude), duration_s, rng)


def flash_crowd_arrivals(
    qps: float,
    duration_s: float,
    *,
    peak_qps: float,
    spike_start_s: float,
    spike_duration_s: float,
    seed: int | Sequence[int] = 0,
) -> Iterator[float]:
    """A flash crowd: base-rate Poisson with one ``peak_qps`` spike window."""
    rng = np.random.default_rng(seed)
    spike_end_s = spike_start_s + spike_duration_s

    def rate_at(t: float) -> float:
        return peak_qps if spike_start_s <= t < spike_end_s else qps

    return _thinned_arrivals(rate_at, max(qps, peak_qps), duration_s, rng)


def onoff_arrivals(
    qps: float,
    duration_s: float,
    *,
    mean_on_s: float = 1.0,
    mean_off_s: float = 1.0,
    tail: float = 1.5,
    seed: int | Sequence[int] = 0,
) -> Iterator[float]:
    """A heavy-tailed ON/OFF source: Poisson bursts separated by silences.

    ON and OFF period lengths are Pareto-distributed with shape ``tail``
    (heavier tail for smaller values; ``tail`` must be > 1 so the requested
    means exist) and means ``mean_on_s`` / ``mean_off_s``.  During an ON
    period arrivals are Poisson at ``qps``; OFF periods are silent.  The
    long-run mean rate is ``qps * mean_on_s / (mean_on_s + mean_off_s)``.
    """
    rng = np.random.default_rng(seed)

    def pareto(mean: float) -> float:
        # Classical Pareto with shape ``tail`` and the requested mean:
        # scale x_m = mean * (tail - 1) / tail, sample x_m * (1 + Lomax).
        scale = mean * (tail - 1.0) / tail
        return scale * (1.0 + float(rng.pareto(tail)))

    t = 0.0
    while t < duration_s:
        on_end = t + pareto(mean_on_s)
        while True:
            t += float(rng.exponential(1.0 / qps))
            if t >= on_end or t >= duration_s:
                break
            yield t
        t = max(t, on_end) + pareto(mean_off_s)


@dataclass(frozen=True)
class ArrivalSpec:
    """Validated arrival-process configuration of one tenant.

    ``shape`` selects the sampler; ``qps`` is the base rate (during ON
    periods for ``onoff``).  The remaining knobs apply per shape — see
    :data:`_ARRIVAL_KNOBS` and ``docs/SCENARIOS.md``.
    """

    shape: str
    qps: float
    amplitude: float = 0.8
    period_s: float = 60.0
    peak_qps: float | None = None
    spike_start_s: float = 0.0
    spike_duration_s: float = 0.0
    mean_on_s: float = 1.0
    mean_off_s: float = 1.0
    tail: float = 1.5

    def __post_init__(self) -> None:
        if self.shape not in ARRIVAL_SHAPES:
            raise ScenarioError(
                f"unknown arrival shape {self.shape!r}; expected one of {ARRIVAL_SHAPES}"
            )
        if not self.qps > 0.0:
            raise ScenarioError("arrival qps must be > 0")
        if self.shape == "diurnal":
            if not 0.0 <= self.amplitude <= 1.0:
                raise ScenarioError("diurnal amplitude must be within [0, 1]")
            if not self.period_s > 0.0:
                raise ScenarioError("diurnal period_s must be > 0")
        if self.shape == "flash_crowd":
            if self.peak_qps is None or not self.peak_qps > 0.0:
                raise ScenarioError("flash_crowd requires peak_qps > 0")
            if self.spike_start_s < 0.0:
                raise ScenarioError("flash_crowd spike_start_s must be >= 0")
            if not self.spike_duration_s > 0.0:
                raise ScenarioError("flash_crowd requires spike_duration_s > 0")
        if self.shape == "onoff":
            if not self.mean_on_s > 0.0 or not self.mean_off_s > 0.0:
                raise ScenarioError("onoff mean_on_s and mean_off_s must be > 0")
            if not self.tail > 1.0:
                raise ScenarioError("onoff tail must be > 1 (finite mean period)")


def build_arrivals(
    spec: ArrivalSpec, *, duration_s: float, seed: int | Sequence[int]
) -> Iterator[float]:
    """Instantiate the seeded timestamp iterator an :class:`ArrivalSpec` describes."""
    if spec.shape == "steady":
        return steady_arrivals(spec.qps, duration_s)
    if spec.shape == "poisson":
        return poisson_arrivals(spec.qps, duration_s, seed=seed)
    if spec.shape == "diurnal":
        return diurnal_arrivals(
            spec.qps,
            duration_s,
            amplitude=spec.amplitude,
            period_s=spec.period_s,
            seed=seed,
        )
    if spec.shape == "flash_crowd":
        assert spec.peak_qps is not None  # __post_init__ guarantees it
        return flash_crowd_arrivals(
            spec.qps,
            duration_s,
            peak_qps=spec.peak_qps,
            spike_start_s=spec.spike_start_s,
            spike_duration_s=spec.spike_duration_s,
            seed=seed,
        )
    return onoff_arrivals(
        spec.qps,
        duration_s,
        mean_on_s=spec.mean_on_s,
        mean_off_s=spec.mean_off_s,
        tail=spec.tail,
        seed=seed,
    )


# -- layer 1: parameter streams --------------------------------------------------------


class ParameterStream:
    """dsqgen-style per-template parameter streams over one benchmark.

    dsqgen instantiates each query template from its own RNG stream keyed by
    ``(RNGSEED, template)``, so two runs with the same seed produce the same
    literals per template regardless of how many queries of *other*
    templates were drawn in between.  This class reproduces that discipline
    over the repo's :class:`~repro.workloads.base.BenchmarkGenerator`
    substrate: template ``k`` draws from ``default_rng([seed, "template", k])``
    and the uniform template-choice sequence has its own stream.
    """

    def __init__(self, generator: BenchmarkGenerator, *, seed: int) -> None:
        self.generator = generator
        self.seed = int(seed)
        self._streams: dict[int, np.random.Generator] = {}
        self._choice = np.random.default_rng(_derive_seed(self.seed, "template-choice"))

    def stream(self, template_id: int) -> np.random.Generator:
        """The dedicated RNG stream of one seed template (created lazily)."""
        count = self.generator.seed_template_count
        if not 0 <= template_id < count:
            raise ScenarioError(
                f"template_id {template_id} out of range [0, {count}) "
                f"for benchmark {self.generator.name!r}"
            )
        rng = self._streams.get(template_id)
        if rng is None:
            rng = self._streams[template_id] = np.random.default_rng(
                _derive_seed(self.seed, "template", template_id)
            )
        return rng

    def instantiate(self, template_id: int) -> GeneratedQuery:
        """One SQL statement from template ``template_id``'s own stream."""
        sql = self.generator.generate_one(template_id, self.stream(template_id))
        return GeneratedQuery(sql=sql, template_id=template_id)

    def take(self, n_queries: int) -> list[GeneratedQuery]:
        """``n_queries`` statements, templates sampled uniformly.

        Successive calls continue both the template-choice stream and the
        per-template parameter streams, so ``take(100)`` twice equals
        ``take(200)`` once.
        """
        if n_queries < 1:
            raise ScenarioError("n_queries must be >= 1")
        count = self.generator.seed_template_count
        return [
            self.instantiate(int(template_id))
            for template_id in self._choice.integers(count, size=n_queries)
        ]


# -- configuration dataclasses ---------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """How one benchmark's workload pool is materialized for a scenario."""

    benchmark: str
    n_queries: int = 400
    batch_size: int = 10
    seed: int | None = None  # parameter-stream seed; scenario seed when None

    def __post_init__(self) -> None:
        if self.benchmark not in BENCHMARK_NAMES:
            raise ScenarioError(
                f"unknown benchmark {self.benchmark!r}; expected one of {BENCHMARK_NAMES}"
            )
        if self.n_queries < 1:
            raise ScenarioError(f"source {self.benchmark}: n_queries must be >= 1")
        if self.batch_size < 1:
            raise ScenarioError(f"source {self.benchmark}: batch_size must be >= 1")
        if self.n_queries < self.batch_size:
            raise ScenarioError(
                f"source {self.benchmark}: n_queries ({self.n_queries}) must be >= "
                f"batch_size ({self.batch_size}) to form at least one workload"
            )


@dataclass(frozen=True)
class TenantSpec:
    """One named traffic stream: mix + arrival shape + service expectations."""

    name: str
    arrival: ArrivalSpec
    mix: tuple[tuple[str, float], ...]
    deadline_ms: float | None = None
    priority: int = 0
    cache_policy: CachePolicy = CachePolicy.DEFAULT
    repeat_fraction: float = 0.7
    weight: int = 1
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("tenant name must be a non-empty string")
        if self.weight < 1:
            raise ScenarioError(f"tenant {self.name!r}: weight must be >= 1")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ScenarioError(
                f"tenant {self.name!r}: max_inflight must be >= 1 (or omitted)"
            )
        if not self.mix:
            raise ScenarioError(f"tenant {self.name!r}: mix must not be empty")
        for benchmark, weight in self.mix:
            if benchmark not in BENCHMARK_NAMES:
                raise ScenarioError(
                    f"tenant {self.name!r}: unknown benchmark {benchmark!r} in mix; "
                    f"expected one of {BENCHMARK_NAMES}"
                )
            if not weight > 0.0:
                raise ScenarioError(
                    f"tenant {self.name!r}: mix weight for {benchmark!r} must be > 0"
                )
        if len({benchmark for benchmark, _ in self.mix}) != len(self.mix):
            raise ScenarioError(f"tenant {self.name!r}: duplicate benchmark in mix")
        if self.deadline_ms is not None and not self.deadline_ms > 0.0:
            raise ScenarioError(f"tenant {self.name!r}: deadline_ms must be > 0 (or omitted)")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise ScenarioError(
                f"tenant {self.name!r}: repeat_fraction must be within [0, 1]"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A parsed, validated scenario configuration (see ``docs/SCENARIOS.md``)."""

    name: str
    seed: int
    duration_s: float
    tenants: tuple[TenantSpec, ...]
    sources: tuple[SourceSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be a non-empty string")
        if not self.duration_s > 0.0:
            raise ScenarioError("scenario duration_s must be > 0")
        if not self.tenants:
            raise ScenarioError("scenario must declare at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ScenarioError(f"duplicate tenant names: {sorted(names)}")
        declared = {source.benchmark for source in self.sources}
        if len(declared) != len(self.sources):
            raise ScenarioError("duplicate source declarations for one benchmark")
        # Every benchmark named by a mix gets a source: declared or default.
        needed = {benchmark for tenant in self.tenants for benchmark, _ in tenant.mix}
        missing = sorted(needed - declared)
        if missing:
            object.__setattr__(
                self,
                "sources",
                self.sources + tuple(SourceSpec(benchmark=name) for name in missing),
            )

    @property
    def benchmarks(self) -> tuple[str, ...]:
        """Benchmarks participating in this scenario, in source order."""
        return tuple(source.benchmark for source in self.sources)

    def tenant_weights(self) -> dict[str, int] | None:
        """The ``ServerConfig.tenant_weights`` mapping this scenario implies.

        ``None`` when every tenant keeps the default weight of 1 (fair-share
        scheduling stays off); otherwise the full name → weight mapping, so
        defaults are explicit once any tenant opts in.
        """
        if all(tenant.weight == 1 for tenant in self.tenants):
            return None
        return {tenant.name: tenant.weight for tenant in self.tenants}

    def tenant_max_inflight(self) -> dict[str, int] | None:
        """The ``ServerConfig.tenant_max_inflight`` mapping (``None`` if unused)."""
        caps = {
            tenant.name: tenant.max_inflight
            for tenant in self.tenants
            if tenant.max_inflight is not None
        }
        return caps or None


# -- compiled form ---------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned request: absolute offset, tenant, workload and policies."""

    at_s: float
    tenant: str
    workload: Workload
    deadline_s: float | None
    cache_policy: CachePolicy
    priority: int

    def to_request(self) -> PredictionRequest:
        """The typed :class:`~repro.api.PredictionRequest` to submit."""
        return PredictionRequest.of(
            self.workload,
            deadline_s=self.deadline_s,
            cache_policy=self.cache_policy,
            tenant=self.tenant,
            priority=self.priority,
        )


@dataclass
class WorkloadSource:
    """One benchmark's materialized traffic substrate.

    ``records`` are the executed query-log rows (usable for model training);
    ``pool`` is the distinct-workload pool tenant replay streams draw from.
    """

    benchmark: str
    records: list[QueryRecord]
    pool: list[Workload]
    dbms: SimulatedDBMS


class _ReplayStream:
    """Incremental skewed replay over a workload pool.

    The same fresh-vs-repeat policy as
    :func:`repro.workloads.replay.replay_requests_from_workloads` (geometric
    popularity over introduced workloads), reshaped as a pull-based stream so
    mixes and arrival processes can interleave draws from several pools.
    """

    def __init__(
        self, pool: list[Workload], *, repeat_fraction: float, rng: np.random.Generator
    ) -> None:
        self._pool = pool
        self._repeat_fraction = repeat_fraction
        self._rng = rng
        self._introduced = 0

    def draw(self) -> Workload:
        fresh_available = self._introduced < len(self._pool)
        if self._introduced == 0 or (
            fresh_available and float(self._rng.random()) >= self._repeat_fraction
        ):
            workload = self._pool[self._introduced]
            self._introduced += 1
            return workload
        index = min(int(self._rng.geometric(p=_GEOMETRIC_P)) - 1, self._introduced - 1)
        return self._pool[index]


@dataclass
class CompiledScenario:
    """A scenario compiled to a concrete, deterministic request schedule."""

    spec: ScenarioSpec
    schedule: list[ScheduledRequest]
    sources: dict[str, WorkloadSource]

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def duration_s(self) -> float:
        return self.spec.duration_s

    @property
    def n_requests(self) -> int:
        return len(self.schedule)

    @property
    def records(self) -> list[QueryRecord]:
        """All executed records across sources (model-training substrate)."""
        return [record for source in self.sources.values() for record in source.records]

    def tenant_counts(self) -> dict[str, int]:
        """Scheduled requests per tenant."""
        counts: dict[str, int] = {}
        for item in self.schedule:
            counts[item.tenant] = counts.get(item.tenant, 0) + 1
        return dict(sorted(counts.items()))

    def fingerprint(self) -> str:
        """A stable digest of the full request stream.

        Hashes every scheduled request's arrival offset, tenant, policies
        and workload content (per-query SQL), so two compilations agree iff
        they would put byte-identical traffic on the wire in the same order.
        """
        digest = hashlib.sha256()
        for item in self.schedule:
            digest.update(
                f"{item.at_s:.9f}|{item.tenant}|{item.deadline_s}|"
                f"{item.cache_policy.value}|{item.priority}|".encode()
            )
            for record in item.workload.queries:
                digest.update(record.sql.encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"\x01")
        return digest.hexdigest()


def _build_source(spec: SourceSpec, scenario_seed: int) -> WorkloadSource:
    """Materialize one benchmark source: parameter streams → executed pool."""
    generator = build_benchmark(spec.benchmark)
    seed = spec.seed if spec.seed is not None else scenario_seed
    stream = ParameterStream(generator, seed=seed)
    queries = stream.take(spec.n_queries)
    dbms = SimulatedDBMS(generator.catalog())
    records = dbms.execute_many(
        [query.sql for query in queries],
        benchmark=generator.name,
        template_seeds=[query.template_id for query in queries],
    )
    pool = make_workloads(
        records,
        spec.batch_size,
        seed=zlib.crc32(f"{seed}|pool|{spec.benchmark}".encode("utf-8")),
        drop_last=True,
    )
    return WorkloadSource(
        benchmark=spec.benchmark, records=records, pool=pool, dbms=dbms
    )


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Compile a validated spec into its deterministic request schedule.

    Every random layer draws from its own stream derived from
    ``(spec.seed, layer, tenant, benchmark)`` labels, so the schedule — the
    arrival timestamps, each request's benchmark and workload, and the order
    after the stable time sort — is a pure function of the spec.
    """
    sources = {source.benchmark: _build_source(source, spec.seed) for source in spec.sources}
    schedule: list[ScheduledRequest] = []
    for tenant in spec.tenants:
        arrivals = build_arrivals(
            tenant.arrival,
            duration_s=spec.duration_s,
            seed=_derive_seed(spec.seed, "arrival", tenant.name),
        )
        mix_rng = np.random.default_rng(_derive_seed(spec.seed, "mix", tenant.name))
        benchmarks = [benchmark for benchmark, _ in tenant.mix]
        weights = np.asarray([weight for _, weight in tenant.mix], dtype=np.float64)
        weights = weights / weights.sum()
        streams = {
            benchmark: _ReplayStream(
                sources[benchmark].pool,
                repeat_fraction=tenant.repeat_fraction,
                rng=np.random.default_rng(
                    _derive_seed(spec.seed, "replay", tenant.name, benchmark)
                ),
            )
            for benchmark in benchmarks
        }
        deadline_s = tenant.deadline_ms / 1e3 if tenant.deadline_ms is not None else None
        for at_s in arrivals:
            benchmark = benchmarks[int(mix_rng.choice(len(benchmarks), p=weights))]
            schedule.append(
                ScheduledRequest(
                    at_s=float(at_s),
                    tenant=tenant.name,
                    workload=streams[benchmark].draw(),
                    deadline_s=deadline_s,
                    cache_policy=tenant.cache_policy,
                    priority=tenant.priority,
                )
            )
    # Stable total order: time, then tenant name (tenants are unique, and no
    # tenant emits two arrivals at the same instant with probability 1 — the
    # steady grid is the one deterministic shape, and it is per-tenant).
    schedule.sort(key=lambda item: (item.at_s, item.tenant))
    return CompiledScenario(spec=spec, schedule=schedule, sources=sources)


# -- parsing ---------------------------------------------------------------------------


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{where} must be a table/object, got {type(value).__name__}")
    return value


def _check_keys(data: Mapping[str, Any], where: str, allowed: frozenset[str]) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ScenarioError(
            f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {type(value).__name__}")
    return float(value)


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {type(value).__name__}")
    return value


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be a string, got {type(value).__name__}")
    return value


_SCENARIO_KEYS = frozenset({"name", "seed", "duration_s"})
_SOURCE_KEYS = frozenset({"n_queries", "batch_size", "seed"})
_TENANT_KEYS = frozenset(
    {
        "name",
        "arrival",
        "mix",
        "deadline_ms",
        "priority",
        "cache_policy",
        "repeat_fraction",
        "weight",
        "max_inflight",
    }
)
_ARRIVAL_KEYS = frozenset(
    {
        "shape",
        "qps",
        "amplitude",
        "period_s",
        "peak_qps",
        "spike_start_s",
        "spike_duration_s",
        "mean_on_s",
        "mean_off_s",
        "tail",
    }
)
_TOP_KEYS = frozenset({"scenario", "sources", "tenants"})


def _parse_arrival(data: Any, where: str) -> ArrivalSpec:
    mapping = _require_mapping(data, where)
    _check_keys(mapping, where, _ARRIVAL_KEYS)
    if "shape" not in mapping:
        raise ScenarioError(f"{where}: missing required key 'shape'")
    if "qps" not in mapping:
        raise ScenarioError(f"{where}: missing required key 'qps'")
    kwargs: dict[str, Any] = {
        "shape": _string(mapping["shape"], f"{where}.shape"),
        "qps": _number(mapping["qps"], f"{where}.qps"),
    }
    for knob in sorted(_ARRIVAL_KEYS - {"shape", "qps"}):
        if knob in mapping:
            kwargs[knob] = _number(mapping[knob], f"{where}.{knob}")
    return ArrivalSpec(**kwargs)


def _parse_tenant(data: Any, where: str) -> TenantSpec:
    mapping = _require_mapping(data, where)
    _check_keys(mapping, where, _TENANT_KEYS)
    for required in ("name", "arrival", "mix"):
        if required not in mapping:
            raise ScenarioError(f"{where}: missing required key {required!r}")
    name = _string(mapping["name"], f"{where}.name")
    mix_mapping = _require_mapping(mapping["mix"], f"{where}.mix")
    mix = tuple(
        (benchmark, _number(weight, f"{where}.mix.{benchmark}"))
        for benchmark, weight in mix_mapping.items()
    )
    policy_name = mapping.get("cache_policy", CachePolicy.DEFAULT.value)
    policy_name = _string(policy_name, f"{where}.cache_policy")
    try:
        cache_policy = CachePolicy(policy_name)
    except ValueError as exc:
        raise ScenarioError(
            f"{where}.cache_policy: unknown policy {policy_name!r}; "
            f"known: {[policy.value for policy in CachePolicy]}"
        ) from exc
    deadline_ms = mapping.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = _number(deadline_ms, f"{where}.deadline_ms")
    max_inflight = mapping.get("max_inflight")
    if max_inflight is not None:
        max_inflight = _integer(max_inflight, f"{where}.max_inflight")
    return TenantSpec(
        name=name,
        arrival=_parse_arrival(mapping["arrival"], f"{where}.arrival"),
        mix=mix,
        deadline_ms=deadline_ms,
        priority=_integer(mapping.get("priority", 0), f"{where}.priority"),
        cache_policy=cache_policy,
        repeat_fraction=_number(
            mapping.get("repeat_fraction", 0.7), f"{where}.repeat_fraction"
        ),
        weight=_integer(mapping.get("weight", 1), f"{where}.weight"),
        max_inflight=max_inflight,
    )


def parse_scenario(payload: Any) -> ScenarioSpec:
    """Validate a decoded config mapping into a :class:`ScenarioSpec`.

    Strict by design: unknown keys, wrong types, unknown benchmarks/shapes
    and out-of-range knobs all raise :class:`~repro.exceptions.ScenarioError`
    with the offending path — a scenario that parses is a scenario that runs.
    """
    data = _require_mapping(payload, "config")
    _check_keys(data, "config", _TOP_KEYS)
    if "scenario" not in data:
        raise ScenarioError("config: missing required [scenario] table")
    if "tenants" not in data:
        raise ScenarioError("config: missing required [[tenants]] tables")
    header = _require_mapping(data["scenario"], "scenario")
    _check_keys(header, "scenario", _SCENARIO_KEYS)
    if "name" not in header:
        raise ScenarioError("scenario: missing required key 'name'")
    name = _string(header["name"], "scenario.name")
    seed = _integer(header.get("seed", 0), "scenario.seed")
    duration_s = _number(header.get("duration_s", 10.0), "scenario.duration_s")

    sources: list[SourceSpec] = []
    if "sources" in data:
        sources_mapping = _require_mapping(data["sources"], "sources")
        for benchmark, body in sources_mapping.items():
            where = f"sources.{benchmark}"
            mapping = _require_mapping(body, where)
            _check_keys(mapping, where, _SOURCE_KEYS)
            kwargs: dict[str, Any] = {"benchmark": benchmark}
            if "n_queries" in mapping:
                kwargs["n_queries"] = _integer(mapping["n_queries"], f"{where}.n_queries")
            if "batch_size" in mapping:
                kwargs["batch_size"] = _integer(mapping["batch_size"], f"{where}.batch_size")
            if "seed" in mapping:
                kwargs["seed"] = _integer(mapping["seed"], f"{where}.seed")
            sources.append(SourceSpec(**kwargs))

    tenants_value = data["tenants"]
    if not isinstance(tenants_value, Sequence) or isinstance(tenants_value, (str, bytes)):
        raise ScenarioError("tenants must be an array of tables")
    tenants = tuple(
        _parse_tenant(entry, f"tenants[{index}]") for index, entry in enumerate(tenants_value)
    )
    return ScenarioSpec(
        name=name,
        seed=seed,
        duration_s=duration_s,
        tenants=tenants,
        sources=tuple(sources),
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read and validate a scenario config file (``.toml`` or ``.json``)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror or exc}") from exc
    suffix = path.suffix.lower()
    if suffix == ".toml":
        import tomllib

        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"{path}: invalid TOML: {exc}") from exc
    elif suffix == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    else:
        raise ScenarioError(
            f"{path}: unsupported scenario format {suffix or '(none)'!r}; "
            "expected .toml or .json"
        )
    try:
        return parse_scenario(payload)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
