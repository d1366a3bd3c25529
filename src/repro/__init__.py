"""LearnedWMP reproduction: workload memory prediction from query-template distributions.

This package reproduces *LearnedWMP: Workload Memory Prediction Using
Distribution of Query Templates* (EDBT 2026).  The public API is organized in
the following layers:

* :mod:`repro.core` — the LearnedWMP model, the SingleWMP baselines, plan
  featurization, template learning, workload histograms and metrics.
* :mod:`repro.dbms` — the simulated DBMS substrate (SQL parsing, planning,
  cardinality estimation, working-memory model, heuristic estimator).
* :mod:`repro.workloads` — TPC-DS, JOB and TPC-C query generators and dataset
  construction.
* :mod:`repro.experiments` — runners regenerating every figure of the paper's
  evaluation (plus an extension experiment on the downstream impact of
  prediction quality).
* :mod:`repro.api` — the unified prediction API: the :class:`Predictor`
  protocol with typed :class:`PredictionRequest` / :class:`PredictionResult`
  objects every consumer programs against.
* :mod:`repro.registry` — the unified named/versioned model registry with
  hot-swap promotion, rollback and retrain lineage.
* :mod:`repro.integration` — the consumers of the predictions: admission
  control, workload scheduling, capacity planning, drift detection, the model
  retraining lifecycle and a concurrent-execution simulator.
* :mod:`repro.serving` — the online layer: micro-batched prediction serving
  over the registry, LRU+TTL caching, telemetry and a QPS load-test harness.
* :mod:`repro.ml` — the from-scratch ML substrate everything is built on.
* :mod:`repro.cli` — the ``learnedwmp`` command-line interface.

Quickstart::

    from repro import LearnedWMP, generate_dataset, make_workloads

    dataset = generate_dataset("tpcds", 2000, seed=7)
    model = LearnedWMP(regressor="xgb", n_templates=20, batch_size=10, random_state=0)
    model.fit(dataset.train_records)

    test_workloads = make_workloads(dataset.test_records, batch_size=10, seed=0)
    print(model.evaluate(test_workloads))
"""

from repro.api import (
    CachePolicy,
    DirectPredictor,
    PredictionRequest,
    PredictionResult,
    Predictor,
    as_predictor,
)
from repro.core import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_N_TEMPLATES,
    FeatureCacheStats,
    LearnedWMP,
    MemoizedFeaturizer,
    PlanFeaturizer,
    plan_fingerprint,
    QueryTemplateLearner,
    SingleWMP,
    SingleWMPDBMS,
    Workload,
    interquartile_range,
    make_regressor,
    make_template_method,
    make_variable_workloads,
    make_workloads,
    mape,
    rmse,
    summarize_residuals,
)
from repro.dbms import SimulatedDBMS
from repro.registry import ModelRegistry, ModelVersion
from repro.serving import (
    GatewayClient,
    GatewayConfig,
    HttpGateway,
    LoadGenerator,
    PredictionServer,
    ServerConfig,
)
from repro.workloads import (
    BenchmarkDataset,
    JOBGenerator,
    TPCCGenerator,
    TPCDSGenerator,
    build_benchmark,
    generate_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Predictor",
    "PredictionRequest",
    "PredictionResult",
    "CachePolicy",
    "DirectPredictor",
    "as_predictor",
    "LearnedWMP",
    "SingleWMP",
    "SingleWMPDBMS",
    "PlanFeaturizer",
    "MemoizedFeaturizer",
    "FeatureCacheStats",
    "plan_fingerprint",
    "QueryTemplateLearner",
    "Workload",
    "make_workloads",
    "make_variable_workloads",
    "make_regressor",
    "make_template_method",
    "rmse",
    "mape",
    "interquartile_range",
    "summarize_residuals",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_N_TEMPLATES",
    "SimulatedDBMS",
    "BenchmarkDataset",
    "generate_dataset",
    "build_benchmark",
    "TPCDSGenerator",
    "JOBGenerator",
    "TPCCGenerator",
    "ModelRegistry",
    "ModelVersion",
    "PredictionServer",
    "ServerConfig",
    "HttpGateway",
    "GatewayConfig",
    "GatewayClient",
    "LoadGenerator",
]
