"""The LearnedWMP model: workload-level memory prediction (paper Section III).

Training (steps TR1–TR6 of Fig. 1):

1. start from executed query records (the query log),
2. featurize every query's final plan,
3. learn ``k`` query templates from the plan features,
4. randomly partition the training queries into workloads of ``batch_size``
   queries,
5. represent each workload as a histogram over the templates and label it
   with its collective actual memory,
6. train a distribution regressor mapping histograms to memory.

Inference (steps IN1–IN5): plan features → template assignment → workload
histogram → regressor prediction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.features import FeatureCacheStats, MemoizedFeaturizer, reconfigure_featurizer
from repro.core.featurizer import PlanFeaturizer
from repro.core.histogram import bin_queries, build_histogram_dataset
from repro.core.regressors import make_regressor
from repro.core.template_methods import TemplateMethod, make_template_method
from repro.core.templates import DEFAULT_N_TEMPLATES
from repro.core.workload import DEFAULT_BATCH_SIZE, Workload, make_workloads
from repro.dbms.catalog import Catalog
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.ml.base import BaseEstimator

__all__ = ["LearnedWMP", "TrainingReport"]


@dataclass(frozen=True)
class TrainingReport:
    """Bookkeeping produced by :meth:`LearnedWMP.fit`.

    Attributes
    ----------
    n_queries / n_workloads / n_templates:
        Sizes of the training corpus, the derived workloads and the template
        set.
    template_time_s / regressor_time_s / total_time_s:
        Wall-clock seconds spent learning templates, training the regressor
        and in total (used by the Fig. 6 overhead experiment).
    """

    n_queries: int
    n_workloads: int
    n_templates: int
    template_time_s: float
    regressor_time_s: float
    total_time_s: float


class LearnedWMP:
    """Learned Workload Memory Prediction model.

    Parameters
    ----------
    regressor:
        Name of the regression back end (``"dnn"``, ``"ridge"``, ``"dt"``,
        ``"rf"``, ``"xgb"``) or an already-constructed estimator.
    n_templates:
        Number of query templates ``k``.
    batch_size:
        Queries per training workload ``s``.
    template_method:
        Template-learning method name (see
        :data:`~repro.core.template_methods.TEMPLATE_METHOD_NAMES`) or an
        object implementing the :class:`TemplateMethod` interface.
    catalog:
        Required only by the ``"text_mining"`` template method.
    random_state:
        Seed for workload batching, clustering and stochastic learners.
    fast:
        Forwarded to :func:`make_regressor`; sizes the regressor for tests.
    """

    def __init__(
        self,
        regressor: str | BaseEstimator = "xgb",
        *,
        n_templates: int = DEFAULT_N_TEMPLATES,
        batch_size: int = DEFAULT_BATCH_SIZE,
        template_method: str | TemplateMethod = "plan",
        catalog: Catalog | None = None,
        random_state: int | None = None,
        fast: bool = False,
    ) -> None:
        if batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1")
        self.regressor_name = regressor if isinstance(regressor, str) else type(regressor).__name__
        self._regressor = (
            make_regressor(regressor, random_state=random_state, fast=fast)
            if isinstance(regressor, str)
            else regressor
        )
        self.n_templates = n_templates
        self.batch_size = batch_size
        self._templates: TemplateMethod = (
            make_template_method(
                template_method,
                n_templates=n_templates,
                catalog=catalog,
                random_state=random_state,
            )
            if isinstance(template_method, str)
            else template_method
        )
        self.template_method_name = (
            template_method if isinstance(template_method, str) else type(template_method).__name__
        )
        self.random_state = random_state
        self.training_report_: TrainingReport | None = None
        self._fitted = False

    # -- training --------------------------------------------------------------------

    def fit(self, records: Sequence[QueryRecord]) -> "LearnedWMP":
        """Train templates and the distribution regressor from query records."""
        if len(records) < self.batch_size:
            raise InvalidParameterError(
                f"need at least batch_size={self.batch_size} training queries, "
                f"got {len(records)}"
            )
        start = time.perf_counter()
        self._templates.fit(records)
        template_time = time.perf_counter() - start

        workloads = make_workloads(
            records, self.batch_size, seed=self.random_state, drop_last=True
        )
        histograms, labels = build_histogram_dataset(workloads, self._templates)

        regressor_start = time.perf_counter()
        self._regressor.fit(histograms, labels)
        regressor_time = time.perf_counter() - regressor_start

        self._fitted = True
        self.training_report_ = TrainingReport(
            n_queries=len(records),
            n_workloads=len(workloads),
            n_templates=self._templates.k,
            template_time_s=template_time,
            regressor_time_s=regressor_time,
            total_time_s=time.perf_counter() - start,
        )
        return self

    def fit_workloads(self, workloads: Sequence[Workload]) -> "LearnedWMP":
        """Train from pre-built workloads (templates learned on their queries)."""
        records = [record for workload in workloads for record in workload.queries]
        if not records:
            raise InvalidParameterError("cannot fit from empty workloads")
        start = time.perf_counter()
        self._templates.fit(records)
        template_time = time.perf_counter() - start
        histograms, labels = build_histogram_dataset(list(workloads), self._templates)
        regressor_start = time.perf_counter()
        self._regressor.fit(histograms, labels)
        regressor_time = time.perf_counter() - regressor_start
        self._fitted = True
        self.training_report_ = TrainingReport(
            n_queries=len(records),
            n_workloads=len(workloads),
            n_templates=self._templates.k,
            template_time_s=template_time,
            regressor_time_s=regressor_time,
            total_time_s=time.perf_counter() - start,
        )
        return self

    # -- inference --------------------------------------------------------------------

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("LearnedWMP is not fitted; call fit() first")

    @property
    def templates(self) -> TemplateMethod:
        """The fitted template-learning component."""
        return self._templates

    @property
    def regressor(self) -> BaseEstimator:
        """The fitted distribution regressor."""
        return self._regressor

    # -- featurization cache ----------------------------------------------------------

    @property
    def featurizer(self) -> PlanFeaturizer | MemoizedFeaturizer | None:
        """The plan featurizer the template method runs on.

        ``None`` for template methods that never featurize plans (the
        SQL-text clustering ablations).  Plan-based methods default to a
        :class:`~repro.core.features.MemoizedFeaturizer`, so every
        ``predict`` / ``predict_workload`` call reuses cached feature rows
        for previously seen plans.
        """
        return getattr(self._templates, "featurizer", None)

    @featurizer.setter
    def featurizer(self, value: PlanFeaturizer | MemoizedFeaturizer) -> None:
        if not hasattr(self._templates, "featurizer"):
            raise InvalidParameterError(
                f"template method {self.template_method_name!r} has no plan featurizer"
            )
        self._templates.featurizer = value  # type: ignore[attr-defined]

    def feature_cache_stats(self) -> FeatureCacheStats | None:
        """Plan-feature cache counters, or ``None`` when memoization is off.

        The cache lives on the model's featurizer, so every consumer of this
        model instance — direct calls, a
        :class:`~repro.serving.server.PredictionServer`, admission control,
        the round scheduler — shares one cache and one set of counters.
        """
        featurizer = self.featurizer
        return featurizer.stats() if isinstance(featurizer, MemoizedFeaturizer) else None

    def configure_feature_cache(self, max_entries: int | None = None) -> None:
        """Configure the plan-feature cache; ``max_entries=0`` disables it.

        ``max_entries > 0`` wraps a plain featurizer in a
        :class:`~repro.core.features.MemoizedFeaturizer` or resizes an
        existing one.  No-op for template methods without a plan featurizer.
        """
        featurizer = self.featurizer
        new = reconfigure_featurizer(featurizer, max_entries)
        if new is not featurizer and new is not None:
            self.featurizer = new

    def histogram(self, queries: Sequence[QueryRecord] | Workload) -> np.ndarray:
        """The template histogram of a workload (inference steps IN1–IN4)."""
        self._check_fitted()
        records = queries.queries if isinstance(queries, Workload) else list(queries)
        return bin_queries(records, self._templates)

    def predict_workload(self, queries: Sequence[QueryRecord] | Workload) -> float:
        """Predicted collective memory (MB) of a single unseen workload."""
        histogram = self.histogram(queries)
        prediction = self._regressor.predict(histogram.reshape(1, -1))
        return float(prediction[0])

    def predict(self, workloads: Sequence[Workload]) -> np.ndarray:
        """Vectorized prediction for a sequence of workloads.

        Template assignment runs once over the concatenated queries of all
        workloads and the regressor once over the stacked histograms, so the
        per-workload cost is dominated by plan featurization rather than by
        repeated model invocations — and with the default memoized
        featurizer, plans already seen by any earlier call skip even that
        (see :meth:`feature_cache_stats`).
        """
        self._check_fitted()
        if not workloads:
            return np.zeros(0, dtype=np.float64)
        all_records = [record for workload in workloads for record in workload.queries]
        assignments = self._templates.assign(all_records)
        histograms = np.zeros((len(workloads), self._templates.k), dtype=np.float64)
        offset = 0
        for i, workload in enumerate(workloads):
            size = len(workload.queries)
            histograms[i] = np.bincount(
                assignments[offset : offset + size], minlength=self._templates.k
            )
            offset += size
        return self._regressor.predict(histograms)

    def evaluate(self, workloads: Sequence[Workload]) -> dict[str, float]:
        """RMSE / MAPE / MAE of the model on labelled test workloads."""
        from repro.core.metrics import mape, mean_absolute_error, rmse

        predictions = self.predict(workloads)
        actuals = np.array([float(w.actual_memory_mb or 0.0) for w in workloads])
        return {
            "rmse": rmse(actuals, predictions),
            "mape": mape(actuals, predictions),
            "mae": mean_absolute_error(actuals, predictions),
        }
