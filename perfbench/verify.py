"""Answer checks: every served answer against the model's own answers.

The served model is wrapped in :class:`traffic.BatchLog`, which keeps each
batch the serving stack sent to the model and the values the model
returned.  After every step the :class:`Verifier` takes the logged batches
and checks the step's answers; at the end of the run it re-checks samples:

1. every answered request equals, bit for bit, a value the model computed
   for a workload with the same content (cache hits and coalesced answers
   included; over the gateway the value has made a JSON round trip);
2. a seeded sample of logged batches, recomputed with
   ``LearnedWMP.predict`` on the same batch, reproduces the logged values
   bit for bit;
3. a seeded sample of workloads matches ``LearnedWMP.predict_workload``
   within ``REL_TOL``.  Batched linear regressors can differ from the
   one-row call in the last bit (the matrix product runs another kernel),
   so this check allows rounding and no more.

The verifier keeps one hash and value set per distinct workload, not the
requests, so the benchmark's own memory stays small next to the server's.
It also scores ``mape_pct`` on the held-out answers: workloads made only
of test records (see ``traffic``), which the model never trained on.
"""

from __future__ import annotations

import numpy as np

from repro.serving.cache import workload_signature

REL_TOL = 1e-9
RECOMPUTE_BATCHES = 40
SINGLE_WORKLOADS = 100


class Verifier:
    def __init__(self, bench, *, seed: int) -> None:
        self.bench = bench
        self.rng = np.random.default_rng(seed)
        self.computed: dict[int, set[float]] = {}
        self.batch_sample: list = []
        self.single_sample: dict[int, object] = {}
        self.batches_seen = 0
        self.answered = 0
        self.held_out = 0
        self.mismatches = 0
        self.error_sum = 0.0

    def after_step(self, step) -> None:
        """Absorb the batches logged so far, check the step's answers, and
        release the step's per-request records."""
        keys: dict[int, int] = {}

        def key(workload) -> int:
            found = keys.get(id(workload))
            if found is None:
                found = keys[id(workload)] = hash(workload_signature(workload))
            return found

        batches = self.bench.log.batches
        taken, batches[:] = list(batches), []
        for batch in taken:
            self.batches_seen += 1
            if len(self.batch_sample) < RECOMPUTE_BATCHES:
                self.batch_sample.append(batch)
            else:
                slot = int(self.rng.integers(self.batches_seen))
                if slot < RECOMPUTE_BATCHES:
                    self.batch_sample[slot] = batch
            workloads, values = batch[0], batch[1]
            for workload, value in zip(workloads, values):
                k = key(workload)
                self.computed.setdefault(k, set()).add(float(value))
                if len(self.single_sample) < SINGLE_WORKLOADS:
                    self.single_sample.setdefault(k, workload)

        for workload, value, outcome in zip(step.workloads, step.values, step.outcome):
            if outcome != 0:
                continue
            self.answered += 1
            if self.bench.held_out(workload):
                self.held_out += 1
                label = workload.actual_memory_mb
                self.error_sum += abs(value - label) / label
            if float(value) not in self.computed.get(key(workload), ()):
                self.mismatches += 1
        step.workloads = []

    def finish(self) -> None:
        """Recompute the sampled batches and single workloads."""
        model = self.bench.model
        for workloads, values, _, _ in self.batch_sample:
            if not np.array_equal(model.predict(workloads), values):
                self.mismatches += 1
        for k, workload in self.single_sample.items():
            single = model.predict_workload(workload)
            if any(abs(v - single) > REL_TOL * abs(single) for v in self.computed[k]):
                self.mismatches += 1

    @property
    def mape_pct(self) -> float:
        """Mean absolute percentage error of the held-out answers against
        each workload's memory label."""
        return 100.0 * self.error_sum / max(self.held_out, 1)

    def line(self) -> str:
        return (
            f"check: {self.answered} answers ({self.held_out} held out) against the "
            f"model's batches, {len(self.batch_sample)} batches recomputed, {len(self.single_sample)} "
            f"workloads against predict_workload: {self.mismatches} mismatches"
        )
