"""Model lifecycle: pre-train, ship, observe the query log, retrain.

The paper's deployment story ("DBMS Integration & Broader Impact"): the
vendor pre-trains a LearnedWMP model on sample workloads and ships it inside
the DBMS; on the operational site the DBMS keeps collecting its own query log
and periodically retrains the model so accuracy improves on the local
workload.  :class:`ModelLifecycleManager` is the controller of that loop: it
bootstraps the first model, accumulates fresh query-log records, consults the
drift detectors and decides when to retrain and promote a new version.

Versions live in the unified :class:`repro.registry.ModelRegistry` — the same
registry an online :class:`~repro.serving.server.PredictionServer` resolves
its active model from — so a retrain+promote here hot-swaps a running server
on its next batch, and the per-name lineage (training-record counts,
validation MAPE, retrain reasons) is recorded on the very versions the server
serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.api import PredictionRequest, as_predictor
from repro.core.model import LearnedWMP
from repro.core.workload import make_workloads
from repro.dbms.query_log import QueryRecord
from repro.exceptions import InvalidParameterError
from repro.integration.drift import DriftReport, ErrorDriftDetector, HistogramDriftDetector
from repro.registry import ModelRegistry, ModelVersion

__all__ = ["ModelVersion", "RetrainDecision", "ModelLifecycleManager"]


@dataclass(frozen=True)
class RetrainDecision:
    """The lifecycle manager's answer to "should we retrain now?"."""

    retrain: bool
    reason: str
    histogram_drift: DriftReport | None = None
    error_drift: DriftReport | None = None


@dataclass
class ModelLifecycleManager:
    """Drives the pre-train / observe / retrain loop of a deployed model.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh, unfitted
        :class:`~repro.core.model.LearnedWMP` (so every retrain starts from a
        clean model with the operator-chosen hyperparameters).
    registry:
        The unified :class:`repro.registry.ModelRegistry` fitted versions are
        registered (and promoted) in; a fresh registry is created when
        omitted.  Point a :class:`~repro.serving.server.PredictionServer` at
        the same registry and every retrain hot-swaps the served model on
        its next batch, with ``rollback`` available there.
    model_name:
        The registry name this manager owns; lineage queries
        (``registry.history(model_name)``) and server resolution use it.
    min_new_records:
        Never retrain before this many new query-log records have been
        observed since the deployed version was trained.
    histogram_drift_threshold:
        PSI threshold for the template-mix drift detector.
    error_drift_threshold_mape:
        Rolling-MAPE threshold for the feedback drift detector.
    validation_fraction:
        Fraction of the training records held out to measure the version's
        validation MAPE.
    batch_size:
        Workload batch size used for validation and feedback.
    seed:
        Seed for the validation split and workload batching.
    """

    model_factory: Callable[[], LearnedWMP]
    registry: ModelRegistry = field(default_factory=ModelRegistry)
    min_new_records: int = 500
    histogram_drift_threshold: float = 0.25
    error_drift_threshold_mape: float = 30.0
    validation_fraction: float = 0.2
    batch_size: int = 10
    seed: int = 0
    # model_name sits after every pre-unification field so positional callers
    # of the old signature keep meaning what they meant.
    model_name: str = "default"

    def __post_init__(self) -> None:
        if not 0.0 <= self.validation_fraction < 1.0:
            raise InvalidParameterError("validation_fraction must be in [0, 1)")
        if self.min_new_records < 1:
            raise InvalidParameterError("min_new_records must be >= 1")
        self._training_records: list[QueryRecord] = []
        self._new_records: list[QueryRecord] = []
        self._histogram_detector: HistogramDriftDetector | None = None
        self._error_detector = ErrorDriftDetector(
            threshold_mape=self.error_drift_threshold_mape
        )

    # -- lineage --------------------------------------------------------------------

    @property
    def versions(self) -> list[ModelVersion]:
        """The retrain lineage of this manager's model name, oldest first."""
        return self.registry.history(self.model_name)

    @property
    def n_versions(self) -> int:
        return len(self.registry.history(self.model_name))

    @property
    def current_version(self) -> ModelVersion:
        """The most recently trained version (the deployed model)."""
        return self.registry.latest(self.model_name)

    # -- training ------------------------------------------------------------------

    def _fit_version(self, records: Sequence[QueryRecord], reason: str) -> ModelVersion:
        records = list(records)
        if len(records) < 2 * self.batch_size:
            raise InvalidParameterError(
                f"need at least {2 * self.batch_size} records to train a version"
            )
        n_validation = int(len(records) * self.validation_fraction)
        n_validation -= n_validation % self.batch_size
        train_records = records[: len(records) - n_validation]
        validation_records = records[len(records) - n_validation :]

        model = self.model_factory()
        model.fit(train_records)

        validation_mape: float | None = None
        if validation_records:
            workloads = make_workloads(validation_records, self.batch_size, seed=self.seed)
            validation_mape = model.evaluate(workloads)["mape"]

        number = self.registry.register(
            self.model_name,
            model,
            promote=True,
            n_training_records=len(train_records),
            validation_mape=validation_mape,
            reason=reason,
        )
        version = self.registry.get(self.model_name, number)
        # Reset drift tracking against the new model's reference distribution.
        self._histogram_detector = HistogramDriftDetector(
            model.templates, threshold=self.histogram_drift_threshold
        ).fit_reference(train_records)
        self._error_detector.reset()
        self._training_records = list(records)
        self._new_records = []
        return version

    def bootstrap(self, records: Sequence[QueryRecord]) -> ModelVersion:
        """Pre-train the first version (the model the vendor ships)."""
        if self.n_versions > 0:
            raise InvalidParameterError("registry already has a bootstrapped model")
        return self._fit_version(records, reason="bootstrap")

    # -- observation ----------------------------------------------------------------

    def observe(self, records: Sequence[QueryRecord]) -> None:
        """Append freshly executed queries from the operational query log."""
        self._new_records.extend(records)

    def observe_feedback(self, predicted_mb: float, actual_mb: float) -> None:
        """Record one post-execution (prediction, actual) pair for drift tracking."""
        self._error_detector.observe(predicted_mb, actual_mb)

    @property
    def n_new_records(self) -> int:
        return len(self._new_records)

    def predictor(self):
        """The deployed model behind the unified :class:`repro.api.Predictor` protocol.

        Resolution happens through the registry's *active* version, so
        consumers holding this predictor follow promotions and rollbacks.
        """
        entry = self.registry.get(self.model_name)
        return as_predictor(entry.model, name=self.model_name, version=entry.version)

    def predict_workload(self, queries) -> float:
        """Predict with the currently deployed version (convenience passthrough)."""
        return self.predictor().predict(PredictionRequest.of(queries)).memory_mb

    # -- retraining -----------------------------------------------------------------

    def should_retrain(self) -> RetrainDecision:
        """Decide whether a retrain is warranted right now.

        A retrain requires ``min_new_records`` fresh records *and* at least one
        of: the template mix drifted (PSI), or the rolling prediction error
        drifted, or the new-record volume alone doubled the training corpus
        (a scheduled refresh).
        """
        if self.n_versions == 0:
            return RetrainDecision(retrain=False, reason="no bootstrapped model")
        if self.n_new_records < self.min_new_records:
            return RetrainDecision(
                retrain=False,
                reason=f"only {self.n_new_records} new records "
                f"(< {self.min_new_records})",
            )
        assert self._histogram_detector is not None
        histogram_report = self._histogram_detector.check(self._new_records)
        error_report = self._error_detector.check()
        if histogram_report.drifted:
            return RetrainDecision(
                retrain=True,
                reason="template-mix drift",
                histogram_drift=histogram_report,
                error_drift=error_report,
            )
        if error_report.drifted:
            return RetrainDecision(
                retrain=True,
                reason="prediction-error drift",
                histogram_drift=histogram_report,
                error_drift=error_report,
            )
        if self.n_new_records >= len(self._training_records):
            return RetrainDecision(
                retrain=True,
                reason="training corpus doubled",
                histogram_drift=histogram_report,
                error_drift=error_report,
            )
        return RetrainDecision(
            retrain=False,
            reason="no drift and corpus growth below refresh threshold",
            histogram_drift=histogram_report,
            error_drift=error_report,
        )

    def maybe_retrain(self) -> ModelVersion | None:
        """Retrain and promote a new version when :meth:`should_retrain` says so."""
        decision = self.should_retrain()
        if not decision.retrain:
            return None
        combined = [*self._training_records, *self._new_records]
        return self._fit_version(combined, reason=decision.reason)
