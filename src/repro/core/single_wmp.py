"""Single-query baselines: SingleWMP-ML and SingleWMP-DBMS (paper Section IV).

The alternative to workload-level prediction is to estimate each query's
memory separately and sum the estimates over the workload (Eq. 11):

* :class:`SingleWMP` trains an ML regressor directly on per-query plan
  features and per-query actual memory, then sums per-query predictions;
* :class:`SingleWMPDBMS` is the state of practice — it simply sums the DBMS
  optimizer's own heuristic estimates recorded in the query log, with no
  learning involved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.features import FeatureCacheStats, MemoizedFeaturizer, reconfigure_featurizer
from repro.core.featurizer import PlanFeaturizer
from repro.core.workload import Workload
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.ml.base import BaseEstimator
from repro.core.regressors import make_regressor

__all__ = ["SingleWMP", "SingleWMPDBMS", "SingleTrainingReport"]


@dataclass(frozen=True)
class SingleTrainingReport:
    """Training bookkeeping of a SingleWMP model (for the overhead figures)."""

    n_queries: int
    regressor_time_s: float
    total_time_s: float


class SingleWMP:
    """Per-query ML memory model whose workload prediction is the per-query sum.

    Parameters
    ----------
    regressor:
        Regressor name (``"dnn"``, ``"ridge"``, ``"dt"``, ``"rf"``, ``"xgb"``)
        or an estimator instance.
    random_state, fast:
        Forwarded to :func:`~repro.core.regressors.make_regressor`.
    """

    def __init__(
        self,
        regressor: str | BaseEstimator = "xgb",
        *,
        random_state: int | None = None,
        fast: bool = False,
    ) -> None:
        self.regressor_name = regressor if isinstance(regressor, str) else type(regressor).__name__
        self._regressor = (
            make_regressor(regressor, random_state=random_state, fast=fast)
            if isinstance(regressor, str)
            else regressor
        )
        # Per-query memory is roughly proportional to the operators' raw
        # cardinalities, so SingleWMP feeds the regressor the raw (not
        # log-compressed) cardinality features, matching the paper's use of
        # plan features "as direct input" to the per-query model.
        self._featurizer: PlanFeaturizer | MemoizedFeaturizer = MemoizedFeaturizer(
            PlanFeaturizer(log_cardinality=False)
        )
        self._fitted = False
        self.training_report_: SingleTrainingReport | None = None

    @property
    def regressor(self) -> BaseEstimator:
        return self._regressor

    @property
    def featurizer(self) -> PlanFeaturizer | MemoizedFeaturizer:
        """The per-query plan featurizer (memoized by default)."""
        return self._featurizer

    @featurizer.setter
    def featurizer(self, value: PlanFeaturizer | MemoizedFeaturizer) -> None:
        self._featurizer = value

    def feature_cache_stats(self) -> FeatureCacheStats | None:
        """Plan-feature cache counters, or ``None`` when memoization is off."""
        featurizer = self._featurizer
        return featurizer.stats() if isinstance(featurizer, MemoizedFeaturizer) else None

    def configure_feature_cache(self, max_entries: int | None = None) -> None:
        """Configure the plan-feature cache; ``max_entries=0`` disables it."""
        new = reconfigure_featurizer(self._featurizer, max_entries)
        if new is not None:
            self._featurizer = new

    def fit(self, records: Sequence[QueryRecord]) -> "SingleWMP":
        """Train the per-query regressor on (plan features, actual memory) pairs."""
        if not records:
            raise InvalidParameterError("cannot fit SingleWMP on an empty record list")
        start = time.perf_counter()
        features = self._featurizer.featurize_records(records)
        targets = np.array([record.actual_memory_mb for record in records])
        regressor_start = time.perf_counter()
        self._regressor.fit(features, targets)
        regressor_time = time.perf_counter() - regressor_start
        self._fitted = True
        self.training_report_ = SingleTrainingReport(
            n_queries=len(records),
            regressor_time_s=regressor_time,
            total_time_s=time.perf_counter() - start,
        )
        return self

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("SingleWMP is not fitted; call fit() first")

    def predict_queries(self, records: Sequence[QueryRecord]) -> np.ndarray:
        """Per-query memory predictions (MB), computed as one vectorized call."""
        self._check_fitted()
        if not records:
            return np.zeros(0, dtype=np.float64)
        features = self._featurizer.featurize_records(records)
        return self._regressor.predict(features)

    def predict_query(self, record: QueryRecord) -> float:
        """Memory prediction (MB) of a single query."""
        self._check_fitted()
        features = self._featurizer.featurize_record(record).reshape(1, -1)
        return float(self._regressor.predict(features)[0])

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        """Workload prediction = sum of per-query predictions (Eq. 11).

        Each query is estimated with its own regressor invocation, mirroring
        how a per-query estimator is consumed in a DBMS: the estimate for a
        query is requested when that query is compiled/admitted, one query at
        a time — the per-query overhead the paper's inference comparison
        (Fig. 7) measures against LearnedWMP's single per-workload call.
        Batch scoring of many queries at once is available separately via
        :meth:`predict_queries`.
        """
        records = queries.queries if isinstance(queries, Workload) else list(queries)
        return float(sum(self.predict_query(record) for record in records))

    def predict(self, workloads: Sequence[Workload]) -> np.ndarray:
        """Workload predictions for the evaluation harness."""
        return np.array([self.predict_workload(workload) for workload in workloads])

    def evaluate(self, workloads: Sequence[Workload]) -> dict[str, float]:
        """RMSE / MAPE / MAE on labelled test workloads."""
        from repro.core.metrics import mape, mean_absolute_error, rmse

        predictions = self.predict(workloads)
        actuals = np.array([float(w.actual_memory_mb or 0.0) for w in workloads])
        return {
            "rmse": rmse(actuals, predictions),
            "mape": mape(actuals, predictions),
            "mae": mean_absolute_error(actuals, predictions),
        }


class SingleWMPDBMS:
    """State-of-practice baseline: sum the optimizer's heuristic estimates.

    There is nothing to train; the per-query estimate is whatever the DBMS
    optimizer produced when the query was planned (recorded in the query log).
    """

    def fit(self, records: Sequence[QueryRecord]) -> "SingleWMPDBMS":
        """No-op, present for interface parity with the ML models."""
        return self

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        records = queries.queries if isinstance(queries, Workload) else list(queries)
        return float(sum(record.optimizer_estimate_mb for record in records))

    def predict(self, workloads: Sequence[Workload]) -> np.ndarray:
        return np.array([self.predict_workload(workload) for workload in workloads])

    def evaluate(self, workloads: Sequence[Workload]) -> dict[str, float]:
        from repro.core.metrics import mape, mean_absolute_error, rmse

        predictions = self.predict(workloads)
        actuals = np.array([float(w.actual_memory_mb or 0.0) for w in workloads])
        return {
            "rmse": rmse(actuals, predictions),
            "mape": mape(actuals, predictions),
            "mae": mean_absolute_error(actuals, predictions),
        }
