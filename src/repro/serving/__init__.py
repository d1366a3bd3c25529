"""Online prediction serving for LearnedWMP models.

The offline pipeline (``repro.core``) answers one prediction per synchronous
call; this package is the online layer that serves those predictions at
production request rates:

* :mod:`repro.registry` — the unified named/versioned model registry with
  hot-swap promotion, rollback and retrain lineage (re-exported here);
* :mod:`~repro.serving.cache` — LRU+TTL prediction caching keyed on workload
  signatures (the per-plan feature-cache tier below it lives with the model,
  in :mod:`repro.core.features`);
* :mod:`~repro.serving.telemetry` — latency percentiles, throughput, cache
  hit rate and queue depth;
* :mod:`~repro.serving.kernel` — the sans-I/O :class:`PipelineKernel`: the
  whole request lifecycle (cache, singleflight, micro-batching, deadlines,
  hot-swap invalidation) as one pure events-in/actions-out state machine;
* :mod:`~repro.serving.server` — :class:`PredictionServer`, the one driver
  of the kernel (a condition-variable worker thread), with blocking and
  coroutine (``predict_async``) surfaces;
* :mod:`~repro.serving.loadgen` — an open-loop load-test harness replaying
  benchmark traffic at a target QPS;
* :mod:`~repro.serving.http` — the HTTP/1.1 gateway subsystem: a JSON wire
  protocol over any backend (:class:`HttpGateway`) plus the blocking
  :class:`GatewayClient` giving remote callers the in-process surface.

See ``docs/SERVING.md`` for the request lifecycle and the tuning guide.
"""

from repro.registry import ModelRegistry, ModelVersion
from repro.serving.cache import CacheStats, LRUTTLCache, workload_signature
from repro.serving.http import GatewayClient, GatewayConfig, HttpGateway
from repro.serving.kernel import BatcherStats, PipelineKernel
from repro.serving.loadgen import LoadGenerator, LoadTestReport
from repro.serving.server import PredictionServer, ServerConfig
from repro.serving.telemetry import ServingTelemetry, TelemetryReport, TenantReport

__all__ = [
    "BatcherStats",
    "CacheStats",
    "GatewayClient",
    "GatewayConfig",
    "HttpGateway",
    "LRUTTLCache",
    "LoadGenerator",
    "LoadTestReport",
    "ModelRegistry",
    "ModelVersion",
    "PipelineKernel",
    "PredictionServer",
    "ServerConfig",
    "ServingTelemetry",
    "TelemetryReport",
    "TenantReport",
    "workload_signature",
]
