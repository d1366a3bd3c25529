"""The benchmark's workloads: their definitions, set-up and request streams.

Every workload serves tpcds with 10-query workloads and 24 templates.  The
database (query log, model and replay pool) is fixed at ``DATASET_SEED``;
the run's ``--seed`` drives only the traffic: which workloads are requested,
in which order.  Arrivals are open-loop at fixed rates (evenly spaced due
times).  ``SPECS`` holds three workloads; ``BENCHMARK.json`` lists the two
the benchmark gates on, and ``replay_hot`` serves the sensitivity check.

About a fifth of the traffic is held out: workloads made only of the
dataset's test records, which the model never saw in training.
``mape_pct`` is scored on those answers alone.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api import PredictionRequest
from repro.core.model import LearnedWMP
from repro.core.workload import Workload, make_workloads
from repro.dbms.plan.operators import OperatorType
from repro.exceptions import ServingError
from repro.serving import PredictionServer, ServerConfig
from repro.serving.http import GatewayClient, GatewayConfig, HttpGateway
from repro.workloads.generator import generate_dataset
from repro.workloads.replay import replay_requests_from_workloads

BENCHMARK = "tpcds"
DATASET_SEED = 7
N_QUERIES = 600
BATCH_SIZE = 10
N_TEMPLATES = 24
REPEAT_FRACTION = 0.75
#: Share of fresh requests drawn only from the test records (the dataset's
#: own split), so the held-out slice has the test split's weight.
HELD_OUT_SHARE = 0.2
#: The serving policy the CLI deploys by default.
SERVER_CONFIG = ServerConfig()

#: Client threads and connections of the load: one per core, never more.
N_CLIENTS = len(os.sched_getaffinity(0))

#: A wire workload's monitor scrapes ``/v1/telemetry`` this often.
SCRAPE_INTERVAL_S = 1.0

#: Redbench-style join-count bands: (name, fewest joins, most joins or None).
JOIN_BANDS = (("j0-1", 0, 1), ("j2-4", 2, 4), ("j5up", 5, None))
_JOIN_OPS = frozenset({OperatorType.HSJOIN, OperatorType.NLJOIN, OperatorType.MSJOIN})


@dataclass(frozen=True)
class Spec:
    """One workload.

    ``low_qps``/``high_qps`` are frozen constants, set once at about one
    third and two thirds of the workload's ``max_qps_at_slo`` as measured
    on the seed while the shared 2-core machine ran slow (its speed drifts
    by 2x and more), so both stay below capacity in most slow spells.
    ``burst_qps``, the arrival rate inside a burst, is at least twice the
    highest capacity measured in a fast spell, so every burst overloads the
    server and ``fail_share`` never reads 0.
    """

    name: str
    regressor: str
    traffic: str  # "replay" | "fresh"
    wire: bool
    deadline_s: float
    slo_p99_ms: float
    low_qps: float
    high_qps: float
    burst_qps: float


SPECS = {
    spec.name: spec
    for spec in (
        # Skewed replay in-process (ridge): prediction cache, signature and kernel
        # admission do the work, the model little.
        Spec(
            "replay_hot",
            regressor="ridge",
            traffic="replay",
            wire=False,
            deadline_s=0.5,
            slo_p99_ms=50.0,
            low_qps=5000.0,
            high_qps=10000.0,
            burst_qps=75000.0,
        ),
        # Never-repeated workloads over the join bands in-process (xgb): the
        # cache hit rate is ~0, so the model path and micro-batching do the work.
        Spec(
            "fresh_mix",
            regressor="xgb",
            traffic="fresh",
            wire=False,
            deadline_s=0.5,
            slo_p99_ms=50.0,
            low_qps=300.0,
            high_qps=600.0,
            burst_qps=7200.0,
        ),
        # The replay_hot stream over the gateway with 1 Hz telemetry scrapes:
        # the wire codec, HTTP and the scrape do the work.
        Spec(
            "gateway_replay",
            regressor="ridge",
            traffic="replay",
            wire=True,
            deadline_s=0.5,
            slo_p99_ms=100.0,
            low_qps=35.0,
            high_qps=70.0,
            burst_qps=630.0,
        ),
    )
}


def join_count(record) -> int:
    """Join operators in a record's plan."""
    return sum(1 for node in record.plan.walk() if node.op_type in _JOIN_OPS)


def join_band(record) -> str:
    joins = join_count(record)
    for name, low, high in JOIN_BANDS:
        if joins >= low and (high is None or joins <= high):
            return name
    raise AssertionError(joins)  # pragma: no cover - the bands cover every count


class BatchLog:
    """A benchmark-side wrapper of the served model recording every batch.

    The serving stack calls ``predict(workloads)`` once per flushed batch;
    the wrapper keeps the batch, the values the model returned and the call's
    start and end (monotonic clock), so every served answer can be traced to
    the model call that computed it.  ``repeat`` runs the model call that
    many times (the last result is returned): ``repeat=2`` doubles the
    model's cost for the sensitivity self-check.
    """

    def __init__(self, model: LearnedWMP, *, repeat: int = 1) -> None:
        self.model = model
        self.repeat = repeat
        self.batches: list[tuple[list[Workload], np.ndarray, float, float]] = []

    def predict(self, workloads):
        started = time.monotonic()
        for _ in range(self.repeat):
            values = self.model.predict(workloads)
        self.batches.append((list(workloads), values, started, time.monotonic()))
        return values


class Monitor:
    """Scrapes the gateway's ``/v1/telemetry`` once per second on its own
    connection, as a monitoring agent would, while the load runs."""

    def __init__(self, url: str, scrape_s: list[float]) -> None:
        self.scrape_s = scrape_s
        self.failures = 0
        self._client = GatewayClient(url, max_workers=1)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-monitor", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(SCRAPE_INTERVAL_S):
            started = time.monotonic()
            try:
                self._client.telemetry()
            except ServingError:
                self.failures += 1
                continue
            self.scrape_s.append(time.monotonic() - started)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self._client.close()


class Bench:
    """One set-up workload: dataset, fitted model, server (and gateway)."""

    def __init__(self, spec: Spec, seed: int, *, model_repeat: int = 1) -> None:
        self.spec = spec
        self.seed = seed
        self.dataset = generate_dataset(BENCHMARK, N_QUERIES, seed=DATASET_SEED)
        self.model = LearnedWMP(
            regressor=spec.regressor,
            n_templates=N_TEMPLATES,
            batch_size=BATCH_SIZE,
            random_state=DATASET_SEED,
        ).fit(self.dataset.train_records)
        self.log = BatchLog(self.model, repeat=model_repeat)
        self.server: PredictionServer | None = None
        self.gateway: HttpGateway | None = None
        self.client: GatewayClient | None = None
        self.monitor: Monitor | None = None
        self.scrape_s: list[float] = []
        self.start_serving()
        self.records = self.dataset.all_records
        self.test_ids = {id(record) for record in self.dataset.test_records}
        self.bands: dict[str, list] = {name: [] for name, _, _ in JOIN_BANDS}
        self.test_bands: dict[str, list] = {name: [] for name, _, _ in JOIN_BANDS}
        for record in self.records:
            band = join_band(record)
            self.bands[band].append(record)
            if id(record) in self.test_ids:
                self.test_bands[band].append(record)
        # The replay pool is the database's, fixed like the model: workloads
        # of training records and held-out workloads of test records, in one
        # shuffled introduction order.  The seed picks the order of requests
        # and the repeats.
        self._pool = make_workloads(self.dataset.train_records, BATCH_SIZE) + make_workloads(
            self.dataset.test_records, BATCH_SIZE
        )
        np.random.default_rng(DATASET_SEED).shuffle(self._pool)
        self._rng = np.random.default_rng(seed)
        self._sql_ids = {sql: i for i, sql in enumerate(sorted({r.sql for r in self.records}))}
        self._seen: set[tuple[int, ...]] = set()

    def start_serving(self, wrap=None) -> None:
        """Start a fresh server over the model (plus gateway, client and
        telemetry monitor for a wire workload), closing any running one.  ``wrap(server)`` may put a
        benchmark-side front before the server; the load and the gateway
        then call the front."""
        self.close()
        self.server = PredictionServer(self.log, config=SERVER_CONFIG)
        self.front = wrap(self.server) if wrap is not None else self.server
        if self.spec.wire:
            self.gateway = HttpGateway(self.front, config=GatewayConfig(port=0)).start()
            self.client = GatewayClient(self.gateway.url, max_workers=N_CLIENTS)
            self.monitor = Monitor(self.gateway.url, self.scrape_s)
            self.submit = self.client.submit_request
        else:
            self.submit = self.front.submit_request

    def workloads(self, n: int) -> list[Workload]:
        """The next ``n`` workloads of this run's stream."""
        if self.spec.traffic == "replay":
            return replay_requests_from_workloads(
                self._pool,
                n,
                repeat_fraction=REPEAT_FRACTION,
                seed=int(self._rng.integers(2**31)),
            )
        return [self._fresh_workload() for _ in range(n)]

    def held_out(self, workload: Workload) -> bool:
        """Whether every query of ``workload`` is a test record."""
        return all(id(record) in self.test_ids for record in workload.queries)

    def _fresh_workload(self) -> Workload:
        """A workload never requested before in this run, drawn from recurring
        plans; each query picks a join band uniformly, then a plan in it.  A
        ``HELD_OUT_SHARE`` of the workloads draws from the test records only."""
        held_out = self._rng.random() < HELD_OUT_SHARE
        bands = list((self.test_bands if held_out else self.bands).values())
        while True:
            picks = []
            for band in self._rng.integers(len(bands), size=BATCH_SIZE):
                members = bands[band]
                picks.append(members[int(self._rng.integers(len(members)))])
            key = tuple(sorted(self._sql_ids[r.sql] for r in picks))
            if key not in self._seen:
                self._seen.add(key)
                return Workload(queries=picks)

    def requests(self, n: int) -> list[PredictionRequest]:
        return [
            PredictionRequest.of(workload, deadline_s=self.spec.deadline_s)
            for workload in self.workloads(n)
        ]

    def close(self) -> None:
        for part in (self.monitor, self.client, self.gateway, self.server):
            if part is not None:
                part.close()
        self.server = self.gateway = self.client = self.monitor = None
