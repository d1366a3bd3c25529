"""Sharded serving: fan requests out over per-shard prediction servers.

One :class:`~repro.serving.server.PredictionServer` scales until a single
cache + micro-batcher saturates; past that point the serving tier has to
grow *horizontally*.  :class:`ShardedPredictionServer` is that tier: it
fronts a :class:`~repro.registry.ShardedModelRegistry` with one
:class:`~repro.serving.server.PredictionServer` per shard and routes every
request on the registry's consistent-hash discipline:

* a **shard-routed** model name lives on exactly one shard; its requests all
  go to that shard's server (the front is a transparent proxy);
* a **replicated** model name (``register_replicated``) lives on every
  shard; requests are spread across the shard servers by the *workload
  signature* — the prediction-cache key — so each shard's cache and
  micro-batcher owns a stable, disjoint slice of the request space and a
  repeated workload always lands on the shard that already cached it.

The per-shard servers are thin drivers over the shared
:class:`~repro.serving.kernel.PipelineKernel`, so the pipeline semantics on
every shard are the kernel's — verified once, against the naive-loop
oracle, in ``tests/test_kernel_differential.py``.

Telemetry is exact, not approximated: every per-shard server records into
one shared :class:`~repro.serving.telemetry.ServingTelemetry`, so the
front's :meth:`~ShardedPredictionServer.snapshot` reports true fleet-wide
latency percentiles; per-layer counters (prediction cache, micro-batcher,
coalescing) are summed across shards.

The front satisfies the :class:`repro.api.Predictor` protocol and the
legacy surfaces via the shared :class:`~repro.serving.front.ServingFrontBase`
facade, so everything that drives a single server — the CLI, the
:class:`~repro.serving.loadgen.LoadGenerator`, admission control, the
benchmarks, coroutine callers of ``predict_async`` — drives a sharded fleet
unchanged.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Sequence

from repro.api import PredictionRequest, PredictionResult
from repro.core.features import FeatureCacheStats
from repro.core.features import feature_cache_stats as _model_feature_cache_stats
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError, ServingError
from repro.registry import ConsistentHashRing, ShardedModelRegistry
from repro.serving.cache import CacheStats, workload_signature
from repro.serving.front import ServingFrontBase
from repro.serving.kernel import BatcherStats
from repro.serving.server import PredictionServer, ServerConfig
from repro.serving.telemetry import ServingTelemetry

__all__ = ["ShardedPredictionServer"]


def _merge_cache_stats(parts: list[CacheStats]) -> CacheStats | None:
    if not parts:
        return None
    return CacheStats(
        hits=sum(part.hits for part in parts),
        misses=sum(part.misses for part in parts),
        evictions=sum(part.evictions for part in parts),
        expirations=sum(part.expirations for part in parts),
        size=sum(part.size for part in parts),
        max_entries=sum(part.max_entries for part in parts),
    )


def _merge_batcher_stats(parts: list[BatcherStats]) -> BatcherStats | None:
    if not parts:
        return None
    return BatcherStats(
        requests=sum(part.requests for part in parts),
        batches=sum(part.batches for part in parts),
        size_flushes=sum(part.size_flushes for part in parts),
        deadline_flushes=sum(part.deadline_flushes for part in parts),
        close_flushes=sum(part.close_flushes for part in parts),
        max_batch_size_seen=max(part.max_batch_size_seen for part in parts),
        shed_requests=sum(part.shed_requests for part in parts),
    )


class ShardedPredictionServer(ServingFrontBase):
    """Consistent-hash front over per-shard prediction servers.

    Parameters
    ----------
    registry:
        The sharded registry holding the served model.  For a replicated
        name every shard gets a server; for a shard-routed name only the
        owning shard does.
    model_name:
        Registry name to serve.
    config:
        Shared :class:`~repro.serving.kernel.ServerConfig` for every shard
        server.

    Example::

        registry = ShardedModelRegistry(n_shards=2)
        registry.register_replicated("default", model)
        with ShardedPredictionServer(registry) as server:
            print(server.predict_workload(workload))
    """

    def __init__(
        self,
        registry: ShardedModelRegistry,
        *,
        model_name: str = "default",
        config: ServerConfig | None = None,
    ) -> None:
        if not isinstance(registry, ShardedModelRegistry):
            raise InvalidParameterError(
                "ShardedPredictionServer requires a ShardedModelRegistry; "
                "wrap a single ModelRegistry in PredictionServer instead"
            )
        if model_name not in registry:
            raise ServingError(
                f"unknown model {model_name!r}; registered: {registry.names() or 'none'}"
            )
        self.registry = registry
        self.model_name = model_name
        self.config = config or ServerConfig()
        self.telemetry = ServingTelemetry()
        if registry.is_replicated(model_name):
            shard_ids = registry.shard_ids()
        else:
            shard_ids = [registry.route(model_name)]
        self._servers = {
            shard_id: PredictionServer(
                registry.shard(shard_id),
                model_name=model_name,
                config=self.config,
                telemetry=self.telemetry,
            )
            for shard_id in shard_ids
        }
        # Requests are placed on their own ring over the participating
        # shards, keyed by workload signature: the same workload always
        # lands on the same shard server, which is what keeps per-shard
        # prediction caches disjoint and repeat traffic cache-local.
        self._request_ring = ConsistentHashRing(shard_ids, virtual_nodes=registry.virtual_nodes)
        self._closed = False

    # -- routing --------------------------------------------------------------------

    def route_request(self, queries: Sequence[QueryRecord] | Workload) -> str:
        """The shard id a workload's requests are served by (signature-routed)."""
        signature = workload_signature(self._as_workload(queries))
        return self._request_ring.route(str(signature))

    def _dispatch(self, workload: Workload):
        """Route one workload; returns ``(shard server, signature)``.

        The signature is computed once here and handed down to the shard
        server, which uses it as its prediction-cache key — the hot path
        hashes each workload exactly once, sharded or not.
        """
        if self._closed:
            raise ServingError("cannot submit to a closed ShardedPredictionServer")
        signature = workload_signature(workload)
        return self._servers[self._request_ring.route(str(signature))], signature

    @property
    def shard_servers(self) -> dict[str, PredictionServer]:
        """The per-shard servers, keyed by shard id (introspection)."""
        return dict(self._servers)

    # -- submission primitives (the facade builds everything else on these) ---------

    def submit(self, queries: Sequence[QueryRecord] | Workload) -> "Future[float]":
        """Asynchronously predict one workload on its signature-routed shard."""
        workload = self._as_workload(queries)
        server, signature = self._dispatch(workload)
        return server.submit(workload, signature=signature)

    def submit_request(self, request: PredictionRequest) -> "Future[PredictionResult]":
        """Asynchronously answer one typed request on its routed shard."""
        server, signature = self._dispatch(request.workload)
        return server.submit_request(request, signature=signature)

    # -- aggregated introspection ---------------------------------------------------

    def cache_stats(self) -> CacheStats | None:
        """Prediction-cache counters summed over shards (``None`` if disabled)."""
        return _merge_cache_stats(
            [s for s in (server.cache_stats() for server in self._servers.values()) if s]
        )

    def batcher_stats(self) -> BatcherStats | None:
        """Micro-batcher counters summed over shards (``None`` if disabled)."""
        return _merge_batcher_stats(
            [s for s in (server.batcher_stats() for server in self._servers.values()) if s]
        )

    @property
    def coalesced_requests(self) -> int:
        """Singleflight attachments summed over every shard server."""
        return sum(server.coalesced_requests for server in self._servers.values())

    def feature_cache_stats(self) -> FeatureCacheStats | None:
        """The served model's plan-feature cache counters, if it has any."""
        return _model_feature_cache_stats(self.registry.active(self.model_name))

    def close(self) -> None:
        """Close every shard server (drain batches, stop workers)."""
        if self._closed:
            return
        self._closed = True
        for server in self._servers.values():
            server.close()
