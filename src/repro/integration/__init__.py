"""DBMS-integration layer built on top of the LearnedWMP predictor.

The paper motivates workload memory prediction with the database operations
that consume it — admission control, workload management and capacity
planning — and sketches the deployment loop a DBMS vendor would use
(pre-train, ship, collect the query log on site, retrain).  This package
implements those consumers so the predictor can be exercised end to end:

* :mod:`repro.integration.predictors` — the small predictor protocol shared by
  every component plus oracle/constant reference predictors,
* :mod:`repro.integration.admission` — a greedy admission controller that
  gates workload batches on predicted memory,
* :mod:`repro.integration.scheduler` — a round-based workload scheduler that
  packs batches into execution rounds under a memory pool,
* :mod:`repro.integration.capacity` — capacity planning from predicted
  per-batch demand,
* :mod:`repro.integration.drift` — workload-drift detection on template
  histograms and on prediction-error feedback,
* :mod:`repro.integration.lifecycle` — the pre-train / deploy / observe /
  retrain loop over the unified :mod:`repro.registry`,
* :mod:`repro.integration.simulation` — a memory-governed concurrent-execution
  simulator that turns prediction quality into makespan / spill effects.
"""

from repro.integration.admission import (
    AdmissionController,
    AdmissionOutcome,
    AdmissionRecord,
    AdmissionReport,
)
from repro.integration.capacity import CapacityPlan, CapacityPlanner
from repro.integration.drift import (
    DriftReport,
    ErrorDriftDetector,
    HistogramDriftDetector,
    population_stability_index,
)
from repro.integration.lifecycle import ModelLifecycleManager, RetrainDecision
from repro.registry import ModelRegistry, ModelVersion
from repro.integration.predictors import (
    CachedPredictor,
    ConstantMemoryPredictor,
    OracleMemoryPredictor,
    WorkloadMemoryPredictor,
    batch_predict,
)
from repro.integration.scheduler import RoundScheduler, ScheduleReport, ScheduledRound
from repro.integration.simulation import (
    ConcurrentExecutionSimulator,
    SimulationReport,
    query_work_units,
)

__all__ = [
    "WorkloadMemoryPredictor",
    "OracleMemoryPredictor",
    "ConstantMemoryPredictor",
    "CachedPredictor",
    "batch_predict",
    "AdmissionController",
    "AdmissionOutcome",
    "AdmissionRecord",
    "AdmissionReport",
    "RoundScheduler",
    "ScheduledRound",
    "ScheduleReport",
    "ConcurrentExecutionSimulator",
    "SimulationReport",
    "query_work_units",
    "CapacityPlanner",
    "CapacityPlan",
    "HistogramDriftDetector",
    "ErrorDriftDetector",
    "DriftReport",
    "population_stability_index",
    "ModelRegistry",
    "ModelVersion",
    "ModelLifecycleManager",
    "RetrainDecision",
]
