"""Open-loop load: one generator thread submits each request at its due time.

Latency runs from a request's *due* time to the moment its future resolves,
so a stall that delays the generator is charged to every request behind it.
How late the generator itself ran (``lag``) is reported per step, and a
ladder rung whose generator lag breaks ``GEN_LAG_LIMIT_MS`` fails.
"""

from __future__ import annotations

import gc
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DeadlineExceededError

#: Adjacent ladder rungs differ by this factor (5%, below the metric's bound).
LADDER_STEP = 1.05
#: Rung ``k`` offers ``LADDER_BASE * LADDER_STEP ** k`` requests per second.
LADDER_BASE = 10.0
#: Most requests a rung may fail, shed or answer after their deadline.
MAX_FAIL_SHARE = 0.01
#: A rung fails when the generator's p99 lag exceeds this.
GEN_LAG_LIMIT_MS = 20.0
#: How long after its last due time a step waits for stragglers.
DRAIN_TIMEOUT_S = 30.0


def rung_rate(k: int) -> float:
    return LADDER_BASE * LADDER_STEP**k


def rung_of(rate: float) -> int:
    return int(round(math.log(rate / LADDER_BASE) / math.log(LADDER_STEP)))


@dataclass
class Step:
    """What one fixed-schedule step of load observed."""

    label: str
    offered_qps: float
    due: np.ndarray
    done: np.ndarray  # resolution time, NaN when never resolved
    lag: np.ndarray
    outcome: np.ndarray  # 0 answered, 1 shed, 2 failed
    deadline_s: float
    values: np.ndarray | None = field(repr=False, default=None)  # NaN unless answered
    workloads: list = field(repr=False, default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def latency_ms(self) -> np.ndarray:
        """Per-request latency from due time; misses count as infinite."""
        latency = 1e3 * (self.done - self.due)
        latency[self.outcome != 0] = np.inf
        return latency

    @property
    def answered(self) -> int:
        return int(np.sum(self.outcome == 0))

    @property
    def shed(self) -> int:
        return int(np.sum(self.outcome == 1))

    @property
    def failed(self) -> int:
        return int(np.sum(self.outcome == 2))

    @property
    def late(self) -> int:
        """Answered, but after the request's deadline (counted from due)."""
        return int(np.sum((self.outcome == 0) & (self.done - self.due > self.deadline_s)))

    @property
    def fail_share(self) -> float:
        return (self.shed + self.failed + self.late) / self.attempted

    def percentile_ms(self, q: float, *, answered_only: bool = False) -> float:
        latency = self.latency_ms
        if answered_only:
            latency = latency[self.outcome == 0]
        # "higher" never interpolates, so an infinite miss stays infinite.
        return float(np.percentile(latency, q, method="higher")) if len(latency) else math.inf

    @property
    def gen_lag_p99_ms(self) -> float:
        return float(np.percentile(1e3 * self.lag, 99, method="higher"))

    @property
    def drain_ms(self) -> float:
        """From the last due time to the last resolution: a growing backlog
        shows as a long drain."""
        if np.isnan(self.done).any():
            return math.inf
        return 1e3 * (float(np.max(self.done)) - float(self.due[-1]))

    @property
    def goodput_qps(self) -> float:
        """Answers delivered within their deadline, per scheduled second."""
        in_time = (self.outcome == 0) & (self.done - self.due <= self.deadline_s)
        span = float(self.due[-1] - self.due[0]) + 1.0 / self.offered_qps
        return float(np.sum(in_time)) / span

    def passes(self, slo_p99_ms: float) -> bool:
        return (
            self.percentile_ms(99) <= slo_p99_ms
            and self.fail_share <= MAX_FAIL_SHARE
            and self.drain_ms <= slo_p99_ms
            and self.gen_lag_p99_ms <= GEN_LAG_LIMIT_MS
        )

    def line(self) -> str:
        return (
            f"{self.label:<14} offered {self.offered_qps:8.1f}/s  attempted {self.attempted:6d}"
            f"  ok {self.answered:6d}  shed {self.shed:5d}  failed {self.failed:4d}"
            f"  late {self.late:5d}  p50 {self.percentile_ms(50):8.2f} ms"
            f"  p99 {self.percentile_ms(99):8.2f} ms  lag p99 {self.gen_lag_p99_ms:6.2f} ms"
            f"  drain {self.drain_ms:8.1f} ms"
        )


def run_step(submit, requests, offsets, *, label: str, deadline_s: float) -> Step:
    """Submit ``requests[i]`` at ``start + offsets[i]`` from this thread.

    ``submit`` is the front's ``submit_request``.  Waits until every future
    resolved (or ``DRAIN_TIMEOUT_S`` after the last due time passed).

    Objects alive before the step (the pre-built requests, earlier steps'
    records) are frozen out of the garbage collector for its duration, so a
    full collection during the step scans only what serving allocates.
    """
    gc.collect()
    gc.freeze()
    try:
        return _run_step(submit, requests, offsets, label, deadline_s)
    finally:
        gc.unfreeze()


def _run_step(submit, requests, offsets, label, deadline_s) -> Step:
    n = len(requests)
    due = np.empty(n)
    done = np.full(n, np.nan)
    lag = np.empty(n)
    outcome = np.full(n, 2, dtype=np.int8)
    values = np.full(n, np.nan)
    remaining = [n]
    all_done = threading.Event()
    lock = threading.Lock()

    def _resolved(index: int, future) -> None:
        done[index] = time.monotonic()
        error = future.exception()
        if error is None:
            values[index] = future.result().memory_mb
            outcome[index] = 0
        elif isinstance(error, DeadlineExceededError):
            outcome[index] = 1
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                all_done.set()

    start = time.monotonic() + 0.005
    for index, request in enumerate(requests):
        at = start + offsets[index]
        now = time.monotonic()
        if at > now:
            time.sleep(at - now)
            now = time.monotonic()
        due[index] = at
        lag[index] = now - at
        # The step keeps no reference to the future: retained futures would
        # make every full garbage collection during the step slower.
        submit(request).add_done_callback(lambda f, i=index: _resolved(i, f))
    # A request still unresolved after the drain timeout stays "failed".
    all_done.wait(timeout=max(due[-1] - time.monotonic(), 0.0) + DRAIN_TIMEOUT_S)
    rate = (n - 1) / offsets[-1] if n > 1 and offsets[-1] > 0 else float(n)
    workloads = [request.workload for request in requests]
    return Step(label, rate, due, done, lag, outcome, deadline_s, values, workloads)


def drive(bench, verifier, label: str, offsets):
    """Drive one step of ``bench``'s stream, print its line and check its
    answers; returns the step, its requests and the model calls it made."""
    requests = bench.requests(len(offsets))
    step = run_step(bench.submit, requests, offsets, label=label,
                    deadline_s=bench.spec.deadline_s)
    print(step.line(), flush=True)
    batches = list(bench.log.batches)
    verifier.after_step(step)
    return step, requests, batches


def fixed_rate(rate: float, seconds: float) -> np.ndarray:
    """Evenly spaced due offsets: ``rate`` requests per second for ``seconds``."""
    return np.arange(max(int(rate * seconds), 2)) / rate


def burst_schedule(low: float, burst: float, seconds: float) -> tuple[np.ndarray, slice]:
    """Low rate for a quarter, ``burst`` rate for half, low again for a quarter.

    Returns the due offsets and the slice of requests inside the burst.
    """
    quarter = seconds / 4
    head = np.arange(int(low * quarter)) / low
    body = quarter + np.arange(int(burst * 2 * quarter)) / burst
    tail = 3 * quarter + np.arange(int(low * quarter)) / low
    return np.concatenate([head, body, tail]), slice(len(head), len(head) + len(body))


def staircase(run_rung, start_rung: int, budget_s: float):
    """Max rate at SLO by a one-up/one-down staircase over the ladder.

    Each trial drives one rung for a short time; a pass moves up a rung, a
    failure down (four rungs at a time until the first failure).  The
    trials settle around the rung that passes half the time.  The estimate
    is the median rung of the trials from the first pass after the first
    failure on (the descent from an overshoot is not counted): a median
    over many trials spread through the run, so a short slow spell on the
    shared machine moves it little.  ``run_rung(k)`` drives rung ``k``
    and returns its :class:`Step` and whether it met the SLO.  Returns
    ``(max_qps, trials)``; ``trials`` holds ``(rung, step, passed)``.
    """
    deadline = time.monotonic() + budget_s
    trials: list[tuple[int, Step, bool]] = []
    k, stride = start_rung, 4
    while time.monotonic() < deadline:
        step, passed = run_rung(k)
        trials.append((k, step, passed))
        if not passed:
            stride = 1
        k = max(0, k + stride if passed else k - stride)
    outcomes = [passed for _, _, passed in trials]
    first_fail = outcomes.index(False) if False in outcomes else len(trials) - 1
    settled = next((i for i in range(first_fail, len(trials)) if outcomes[i]), first_fail)
    return statistics.median(step.offered_qps for _, step, _ in trials[settled:]), trials


def pooled(steps: list[Step]) -> Step:
    """The samples of all ``steps`` as one step.

    Many short windows spread through the run, all kept: a slow spell on
    the machine moves the pooled percentiles only by its share of the
    windows, and no window is dropped, so a stall the program causes in
    some windows counts in full.
    """
    return Step(
        steps[0].label, steps[0].offered_qps,
        *(np.concatenate([getattr(step, part) for step in steps])
          for part in ("due", "done", "lag", "outcome")),
        steps[0].deadline_s,
    )
