"""Command-line interface of the LearnedWMP reproduction.

Installed as the ``learnedwmp`` console script (see ``pyproject.toml``); all
commands are also reachable with ``python -m repro.cli``.  Seven subcommands
cover the day-to-day tasks of working with the reproduction:

``generate``
    Generate and "execute" benchmark queries on the simulated DBMS and write
    a JSON summary of the resulting query log.

``train``
    Train a LearnedWMP model on a benchmark and save it to disk (versioned
    pickle via :mod:`repro.core.serialization`), printing the holdout metrics.

``evaluate``
    Load a saved model and score it on freshly generated workloads of the same
    (or a different) benchmark.

``serve``
    Stand up an online prediction server (model registry + micro-batching +
    LRU/TTL caching) around a trained or freshly trained model, drive it
    with replayed benchmark traffic and print the serving telemetry —
    including the model's plan-feature cache counters (sized with
    ``--feature-cache-size``).

``loadtest``
    Replay skewed benchmark traffic against a served model at a target QPS
    and report throughput, latency percentiles and the hit rates of both
    cache tiers — the prediction cache and the plan-feature cache
    (optionally as JSON for the benchmark trajectory).
    ``--deadline-ms`` injects a per-request deadline into the replayed
    traffic; the serving tier enforces it end-to-end (expired requests are
    shed before model execution) and the report carries
    ``deadline_misses`` / ``shed_requests``.  ``--url`` switches the
    transport to HTTP: the same open-loop replay is driven through a
    :class:`~repro.serving.http.client.GatewayClient` against a running
    ``learnedwmp gateway``, and the backend's counters are pulled from the
    ``/v1/telemetry`` scrape.  ``--section NAME`` merges the JSON report
    under key ``NAME`` of the ``--output`` file instead of replacing it
    (how the gateway leg lands next to the in-process numbers in
    ``BENCH_serving.json``).  ``--scenario FILE`` switches to a declarative
    traffic scenario (seeded multi-tenant mixes with bursty arrival shapes,
    see ``docs/SCENARIOS.md``); the report then carries per-tenant counters
    and the scenario's name and seed.

``gateway``
    Stand up an HTTP/1.1 JSON gateway (``repro.serving.http``) in front of a
    served model and block until ``--duration-s`` elapses (or Ctrl-C).
    Takes the same model/serving flags as ``serve`` plus ``--host`` /
    ``--port``; see ``docs/GATEWAY.md`` for the wire protocol.

``figures``
    Regenerate one or more of the paper's evaluation figures as text tables
    (the same runners the benchmark harness uses).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.core.features import DEFAULT_FEATURE_CACHE_SIZE, MemoizedFeaturizer
from repro.core.model import LearnedWMP
from repro.core.regressors import REGRESSOR_NAMES
from repro.core.serialization import load_model, save_model, serialized_size_kb
from repro.core.single_wmp import SingleWMPDBMS
from repro.core.workload import make_workloads
from repro.workloads.generator import BENCHMARK_NAMES, generate_dataset

__all__ = ["main", "build_parser"]


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``serve`` and ``loadtest`` subcommands."""
    parser.add_argument(
        "--benchmark", choices=BENCHMARK_NAMES, default="tpcds", help="traffic source"
    )
    parser.add_argument(
        "--model", type=Path, default=None, help="saved model (default: train a fresh fast model)"
    )
    parser.add_argument("--queries", type=int, default=600, help="generated queries for traffic")
    parser.add_argument("--requests", type=int, default=400, help="number of replayed requests")
    parser.add_argument("--batch-size", type=int, default=10, help="queries per workload request")
    parser.add_argument(
        "--repeat-fraction",
        type=float,
        default=0.7,
        help="fraction of requests re-issuing an already-seen workload",
    )
    parser.add_argument("--seed", type=int, default=7, help="traffic and training seed")
    parser.add_argument(
        "--max-batch", type=int, default=32, help="largest micro-batch (1 = unbatched)"
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the prediction cache")
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="bound the pending queue; overflow sheds the lowest-priority request "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--tenant-weight",
        action="append",
        default=None,
        metavar="TENANT=N",
        help="weighted fair share of batch slots for one tenant (repeatable); "
        "any use turns on stride scheduling, unlisted tenants weigh 1",
    )
    parser.add_argument(
        "--tenant-max-inflight",
        action="append",
        default=None,
        metavar="TENANT=N",
        help="cap one tenant's concurrently admitted requests (repeatable); "
        "overflow is shed with reason queue_full",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline (ms); expired requests are shed, misses reported",
    )
    parser.add_argument(
        "--feature-cache-size",
        type=int,
        default=DEFAULT_FEATURE_CACHE_SIZE,
        help="plan-feature cache entries on the served model (0 disables memoization)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="learnedwmp",
        description="LearnedWMP workload memory prediction (EDBT 2026 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate benchmark queries and dump a query-log summary"
    )
    generate.add_argument("benchmark", choices=BENCHMARK_NAMES)
    generate.add_argument("--queries", type=int, default=2000, help="number of queries")
    generate.add_argument("--seed", type=int, default=7, help="generator seed")
    generate.add_argument(
        "--output", type=Path, default=None, help="JSON summary path (default: stdout)"
    )

    train = subparsers.add_parser("train", help="train and save a LearnedWMP model")
    train.add_argument("benchmark", choices=BENCHMARK_NAMES)
    train.add_argument("--queries", type=int, default=4000, help="training queries to generate")
    train.add_argument(
        "--regressor", choices=REGRESSOR_NAMES, default="xgb", help="regression back end"
    )
    train.add_argument("--templates", type=int, default=40, help="number of query templates")
    train.add_argument("--batch-size", type=int, default=10, help="queries per workload")
    train.add_argument("--seed", type=int, default=7, help="generator and training seed")
    train.add_argument("--fast", action="store_true", help="use reduced model sizes")
    train.add_argument("--output", type=Path, required=True, help="path of the saved model")

    evaluate = subparsers.add_parser("evaluate", help="evaluate a saved model")
    evaluate.add_argument("model", type=Path, help="model file produced by 'train'")
    evaluate.add_argument("benchmark", choices=BENCHMARK_NAMES)
    evaluate.add_argument("--queries", type=int, default=2000, help="evaluation queries to generate")
    evaluate.add_argument("--batch-size", type=int, default=10, help="queries per workload")
    evaluate.add_argument("--seed", type=int, default=99, help="generator seed")
    evaluate.add_argument(
        "--compare-dbms",
        action="store_true",
        help="also report the DBMS heuristic (SingleWMP-DBMS) on the same workloads",
    )

    serve = subparsers.add_parser(
        "serve", help="serve a model online (registry + micro-batching + cache)"
    )
    _add_serving_options(serve)
    serve.add_argument(
        "--qps", type=float, default=100.0, help="request rate of the demo traffic"
    )

    loadtest = subparsers.add_parser(
        "loadtest", help="replay benchmark traffic against a served model at a target QPS"
    )
    _add_serving_options(loadtest)
    loadtest.add_argument("--qps", type=float, default=200.0, help="target request rate")
    loadtest.add_argument(
        "--output", type=Path, default=None, help="write the report as JSON (e.g. BENCH_serving.json)"
    )
    loadtest.add_argument(
        "--section",
        default=None,
        help="merge the JSON report under this key of --output instead of replacing the file",
    )
    loadtest.add_argument(
        "--url",
        default=None,
        help="drive a running gateway over HTTP (e.g. http://127.0.0.1:8080) "
        "instead of an in-process server",
    )
    loadtest.add_argument(
        "--compare-naive",
        action="store_true",
        help="also time the naive one-call-at-a-time loop on the same requests",
    )
    loadtest.add_argument(
        "--scenario",
        type=Path,
        default=None,
        help="drive a declarative traffic scenario (.toml/.json, see docs/SCENARIOS.md) "
        "instead of the fixed-rate replay; overrides --benchmark/--requests/--qps/"
        "--repeat-fraction/--deadline-ms",
    )

    gateway = subparsers.add_parser(
        "gateway", help="serve a model over HTTP/1.1 (see docs/GATEWAY.md)"
    )
    _add_serving_options(gateway)
    gateway.add_argument("--host", default="127.0.0.1", help="bind address")
    gateway.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    gateway.add_argument(
        "--max-inflight", type=int, default=256, help="concurrent requests before 503 shedding"
    )
    gateway.add_argument(
        "--duration-s",
        type=float,
        default=None,
        help="serve for this many seconds then exit (default: until Ctrl-C)",
    )

    figures = subparsers.add_parser(
        "figures", help="regenerate paper figures as text tables"
    )
    figures.add_argument(
        "names",
        nargs="*",
        default=[],
        help="figure names (e.g. figure4 figure11); empty = list available figures",
    )
    figures.add_argument("--quick", action="store_true", help="reduced query volumes")
    return parser


# -- subcommand implementations -------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_dataset(args.benchmark, args.queries, seed=args.seed)
    summary = [
        {
            "sql": record.sql,
            "actual_memory_mb": record.actual_memory_mb,
            "optimizer_estimate_mb": record.optimizer_estimate_mb,
            "template_seed": record.template_seed,
            "partition": partition,
        }
        for partition, records in (
            ("train", dataset.train_records),
            ("test", dataset.test_records),
        )
        for record in records
    ]
    payload = json.dumps(summary, indent=2)
    if args.output is None:
        print(payload)
    else:
        args.output.write_text(payload)
        print(f"wrote {len(summary)} records to {args.output}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = generate_dataset(args.benchmark, args.queries, seed=args.seed)
    model = LearnedWMP(
        regressor=args.regressor,
        n_templates=args.templates,
        batch_size=args.batch_size,
        random_state=args.seed,
        fast=args.fast,
    )
    model.fit(dataset.train_records)
    report = model.training_report_
    assert report is not None

    workloads = make_workloads(dataset.test_records, args.batch_size, seed=args.seed)
    metrics = model.evaluate(workloads)
    save_model(model, args.output)

    print(f"benchmark           : {args.benchmark}")
    print(f"regressor           : {args.regressor}")
    print(f"training queries    : {report.n_queries}")
    print(f"training workloads  : {report.n_workloads}")
    print(f"templates           : {report.n_templates}")
    print(f"training time       : {report.total_time_s:.2f} s")
    print(f"holdout RMSE        : {metrics['rmse']:.2f} MB")
    print(f"holdout MAPE        : {metrics['mape']:.2f} %")
    print(f"model size          : {serialized_size_kb(model.regressor):.1f} kB")
    print(f"saved to            : {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = generate_dataset(args.benchmark, args.queries, seed=args.seed)
    workloads = make_workloads(dataset.test_records, args.batch_size, seed=args.seed)
    metrics = model.evaluate(workloads)
    print(f"model               : {args.model}")
    print(f"benchmark           : {args.benchmark}")
    print(f"workloads evaluated : {len(workloads)}")
    print(f"RMSE                : {metrics['rmse']:.2f} MB")
    print(f"MAPE                : {metrics['mape']:.2f} %")
    if args.compare_dbms:
        dbms = SingleWMPDBMS().evaluate(workloads)
        print(f"DBMS heuristic RMSE : {dbms['rmse']:.2f} MB")
        print(f"DBMS heuristic MAPE : {dbms['mape']:.2f} %")
    return 0


def _parse_quota_flags(pairs, flag: str) -> dict[str, int] | None:
    """Parse repeatable ``TENANT=N`` quota flags into a mapping (or ``None``)."""
    if not pairs:
        return None
    quotas: dict[str, int] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise SystemExit(f"{flag} expects TENANT=N, got {item!r}")
        try:
            quotas[name] = int(value)
        except ValueError:
            raise SystemExit(f"{flag} expects an integer value, got {item!r}") from None
    return quotas


def _make_server(
    args: argparse.Namespace,
    model,
    *,
    tenant_weights: dict[str, int] | None = None,
    tenant_max_inflight: dict[str, int] | None = None,
):
    """Build (registry, server) around ``model`` from the shared serving flags.

    The model is registered as ``"default"`` in a fresh
    :class:`~repro.registry.ModelRegistry` behind one
    :class:`~repro.serving.server.PredictionServer`.  ``tenant_weights`` /
    ``tenant_max_inflight`` are scenario-derived quota defaults; explicit
    ``--tenant-weight`` / ``--tenant-max-inflight`` flags override them.
    """
    from repro.registry import ModelRegistry
    from repro.serving import PredictionServer, ServerConfig

    if hasattr(model, "configure_feature_cache"):
        model.configure_feature_cache(args.feature_cache_size)

    weights = _parse_quota_flags(args.tenant_weight, "--tenant-weight") or tenant_weights
    caps = (
        _parse_quota_flags(args.tenant_max_inflight, "--tenant-max-inflight")
        or tenant_max_inflight
    )
    config = ServerConfig(
        max_batch_size=args.max_batch,
        enable_cache=not args.no_cache,
        max_queue_depth=args.max_queue_depth,
        tenant_weights=weights,
        tenant_max_inflight=caps,
    )
    registry = ModelRegistry()
    registry.register("default", model)
    server = PredictionServer(registry, model_name="default", config=config)
    return registry, server


def _serving_setup(args: argparse.Namespace):
    """Build (registry, server, requests) for the serving subcommands."""
    from repro.workloads.replay import build_replay_requests

    dataset = generate_dataset(args.benchmark, args.queries, seed=args.seed)
    if args.model is not None:
        model = load_model(args.model)
        print(f"loaded model        : {args.model}")
    else:
        print(f"training a fast ridge model on {args.benchmark} ...")
        model = LearnedWMP(
            regressor="ridge",
            n_templates=24,
            batch_size=args.batch_size,
            random_state=args.seed,
            fast=True,
        )
        model.fit(dataset.train_records)

    registry, server = _make_server(args, model)
    requests = build_replay_requests(
        args.benchmark,
        dataset=dataset,
        batch_size=args.batch_size,
        n_requests=args.requests,
        repeat_fraction=args.repeat_fraction,
        seed=args.seed,
    )
    return registry, server, requests


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import PredictionRequest

    registry, server, requests = _serving_setup(args)
    print(
        f"serving model 'default' v{registry.active_version('default')} "
        f"(cache={'on' if not args.no_cache else 'off'}, max batch {args.max_batch})"
    )
    print(f"replaying {len(requests)} requests at {args.qps:.0f} req/s ...\n")
    with server:
        from repro.serving import LoadGenerator

        LoadGenerator(
            server,
            requests,
            qps=args.qps,
            benchmark=args.benchmark,
            deadline_s=args.deadline_ms / 1e3 if args.deadline_ms is not None else None,
        ).run()
        print(server.snapshot().render())
        sample = server.predict(PredictionRequest.of(requests[0]))
        print(
            f"sample typed result : {sample.memory_mb:.1f} MB from "
            f"{sample.model_name} v{sample.model_version} "
            f"(cache_hit={sample.cache_hit}, "
            f"feature_cache={'on' if sample.feature_cache_active else 'off'})"
        )
    return 0


def _parity_check(server, model, requests, n_samples: int = 8) -> float:
    """Max |served - direct| over a request sample, as PredictionResult objects.

    Both sides answer typed :class:`~repro.api.PredictionRequest` objects
    through the unified :class:`~repro.api.Predictor` protocol — the served
    path with :attr:`~repro.api.CachePolicy.BYPASS` so the comparison
    reaches the model rather than the prediction cache.
    """
    from repro.api import CachePolicy, PredictionRequest, as_predictor

    sample = requests[: max(1, min(n_samples, len(requests)))]
    direct = as_predictor(model)
    served_results = server.predict_batch(
        [PredictionRequest.of(w, cache_policy=CachePolicy.BYPASS) for w in sample]
    )
    direct_results = direct.predict_batch([PredictionRequest.of(w) for w in sample])
    return max(
        abs(served.memory_mb - computed.memory_mb)
        for served, computed in zip(served_results, direct_results)
    )


def _cmd_gateway(args: argparse.Namespace) -> int:
    import time

    from repro.serving.http import GatewayConfig, HttpGateway

    registry, server, _ = _serving_setup(args)
    config = GatewayConfig(host=args.host, port=args.port, max_inflight=args.max_inflight)
    with server, HttpGateway(server, config=config) as gateway:
        print(
            f"gateway listening on {gateway.url} "
            f"(model 'default' v{registry.active_version('default')})",
            flush=True,
        )
        try:
            if args.duration_s is None:
                while True:  # serve until interrupted
                    time.sleep(3600.0)
            else:
                time.sleep(args.duration_s)
        except KeyboardInterrupt:
            pass
    print("gateway stopped")
    return 0


def _write_loadtest_json(payload: dict, output: Path, section: str | None) -> None:
    """Write the report JSON, merging under ``section`` when requested.

    With ``--section NAME`` the report lands as ``{"NAME": payload}`` inside
    the existing ``--output`` document (other keys preserved), so several
    loadtest legs — in-process, gateway — accumulate in one
    ``BENCH_serving.json``.
    """
    if section is None:
        output.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return
    document: dict = {}
    if output.exists():
        try:
            existing = json.loads(output.read_text())
        except json.JSONDecodeError:
            existing = None
        if isinstance(existing, dict):
            document = existing
    document[section] = payload
    output.write_text(json.dumps(document, indent=2, sort_keys=True))


def _cmd_loadtest_http(args: argparse.Namespace) -> int:
    """The ``loadtest --url`` path: drive a running gateway over HTTP."""
    from repro.serving import LoadGenerator
    from repro.serving.http import GatewayClient
    from repro.workloads.replay import build_replay_requests

    dataset = generate_dataset(args.benchmark, args.queries, seed=args.seed)
    requests = build_replay_requests(
        args.benchmark,
        dataset=dataset,
        batch_size=args.batch_size,
        n_requests=args.requests,
        repeat_fraction=args.repeat_fraction,
        seed=args.seed,
    )
    with GatewayClient(args.url) as client:
        health = client.healthz()
        print(
            f"load-testing gateway {args.url} at {args.qps:.0f} req/s with "
            f"{len(requests)} requests (model {health.get('model')} "
            f"v{health.get('active_version')}, backend {health.get('backend')}) ...\n"
        )
        report = LoadGenerator(
            client,
            requests,
            qps=args.qps,
            benchmark=args.benchmark,
            deadline_s=args.deadline_ms / 1e3 if args.deadline_ms is not None else None,
        ).run()
        scrape = client.telemetry()
    print(report.render())
    gateway_stats = scrape.get("gateway", {})
    print(f"gateway requests    : {gateway_stats.get('http_requests', 0)}")
    print(f"gateway overloads   : {gateway_stats.get('shed_overload', 0)}")
    if args.output is not None:
        payload = report.to_dict()
        payload["transport"] = "http"
        payload["url"] = args.url
        if args.deadline_ms is not None:
            payload["deadline_ms"] = args.deadline_ms
        payload["gateway_http_requests"] = gateway_stats.get("http_requests", 0)
        payload["gateway_shed_overload"] = gateway_stats.get("shed_overload", 0)
        _write_loadtest_json(payload, args.output, args.section)
        print(f"wrote JSON report to {args.output}")
    return 0


def _cmd_loadtest_scenario(args: argparse.Namespace) -> int:
    """The ``loadtest --scenario`` path: drive a compiled traffic scenario.

    Config problems (missing file, bad TOML/JSON, schema violations) are
    user errors, not crashes: they print one actionable line on stderr and
    exit with status 2, matching argparse's usage-error convention.
    """
    from repro.exceptions import ScenarioError
    from repro.serving import LoadGenerator
    from repro.workloads.scenarios import compile_scenario, load_scenario

    try:
        spec = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    compiled = compile_scenario(spec)
    print(
        f"scenario '{spec.name}' (seed {spec.seed}): {compiled.n_requests} requests "
        f"over {spec.duration_s:.1f} s, tenants {compiled.tenant_counts()}"
    )

    if args.url is not None:
        from repro.serving.http import GatewayClient

        with GatewayClient(args.url) as client:
            health = client.healthz()
            print(
                f"driving gateway {args.url} (model {health.get('model')} "
                f"v{health.get('active_version')}, backend {health.get('backend')}) ...\n"
            )
            report = LoadGenerator.from_scenario(client, compiled).run()
    else:
        if args.model is not None:
            model = load_model(args.model)
            print(f"loaded model        : {args.model}")
        else:
            print(f"training a fast ridge model on sources {list(spec.benchmarks)} ...")
            model = LearnedWMP(
                regressor="ridge",
                n_templates=24,
                batch_size=args.batch_size,
                random_state=args.seed,
                fast=True,
            )
            model.fit(compiled.records)
        _, server = _make_server(
            args,
            model,
            tenant_weights=spec.tenant_weights(),
            tenant_max_inflight=spec.tenant_max_inflight(),
        )
        print("replaying ...\n")
        with server:
            report = LoadGenerator.from_scenario(server, compiled).run()

    print(report.render())
    if args.output is not None:
        payload = report.to_dict()
        payload["scenario_file"] = str(args.scenario)
        if args.url is not None:
            payload["transport"] = "http"
            payload["url"] = args.url
        _write_loadtest_json(payload, args.output, args.section)
        print(f"wrote JSON report to {args.output}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import time

    from repro.api import PredictionRequest, as_predictor

    if args.scenario is not None:
        return _cmd_loadtest_scenario(args)
    if args.url is not None:
        return _cmd_loadtest_http(args)

    _, server, requests = _serving_setup(args)
    print(
        f"load-testing at {args.qps:.0f} req/s with {len(requests)} requests ...\n"
    )
    with server:
        from repro.serving import LoadGenerator

        report = LoadGenerator(
            server,
            requests,
            qps=args.qps,
            benchmark=args.benchmark,
            deadline_s=args.deadline_ms / 1e3 if args.deadline_ms is not None else None,
        ).run()
        feature_stats = server.feature_cache_stats()
        model = server.registry.active("default")
        parity_delta = _parity_check(server, model, requests)
        naive_qps = None
        if args.compare_naive:
            # The serving run just warmed the model's plan-feature cache;
            # swap in the un-memoized base featurizer so the naive loop
            # actually re-featurizes, as the flag advertises.
            memoized = getattr(model, "featurizer", None)
            if isinstance(memoized, MemoizedFeaturizer):
                model.featurizer = memoized.base
            try:
                direct = as_predictor(model)
                start = time.monotonic()
                for workload in requests:
                    direct.predict(PredictionRequest.of(workload))
                naive_qps = len(requests) / max(time.monotonic() - start, 1e-9)
            finally:
                if isinstance(memoized, MemoizedFeaturizer):
                    model.featurizer = memoized
    print(report.render())
    print(f"server/direct parity: max |Δ| {parity_delta:.6f} MB over typed results")
    if feature_stats is not None:
        print(f"feature cache hits  : {feature_stats.hits}")
        print(f"feature cache hit % : {100.0 * feature_stats.hit_rate:.1f} %")
    if naive_qps is not None:
        print(f"naive loop          : {naive_qps:.1f} req/s")
        print(f"serving speedup     : {report.achieved_qps / naive_qps:.2f}x")
    if args.output is not None:
        payload = report.to_dict()
        payload["parity_max_delta_mb"] = parity_delta
        if args.deadline_ms is not None:
            payload["deadline_ms"] = args.deadline_ms
        if feature_stats is not None:
            payload["feature_cache_hits"] = feature_stats.hits
            payload["feature_cache_misses"] = feature_stats.misses
            payload["feature_cache_hit_rate"] = feature_stats.hit_rate
        if naive_qps is not None:
            payload["naive_qps"] = naive_qps
        _write_loadtest_json(payload, args.output, args.section)
        print(f"wrote JSON report to {args.output}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    # Imported lazily: the experiments package pulls in every model variant.
    from repro.experiments.config import ExperimentConfig, default_config
    from repro.experiments.figures import ALL_FIGURES

    if not args.names:
        print("available figures:")
        for name in ALL_FIGURES:
            print(f"  {name}")
        return 0
    unknown = [name for name in args.names if name not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        return 2
    config = (
        ExperimentConfig(
            query_counts={"tpcds": 1500, "job": 800, "tpcc": 800},
            template_counts={"tpcds": 40, "job": 30, "tpcc": 12},
        )
        if args.quick
        else default_config()
    )
    for name in args.names:
        print(f"\nRunning {name} ...")
        print(ALL_FIGURES[name](config).render())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "serve": _cmd_serve,
        "loadtest": _cmd_loadtest,
        "gateway": _cmd_gateway,
        "figures": _cmd_figures,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
