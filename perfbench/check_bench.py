"""Count-based self-checks of the benchmark itself (no wall-clock asserts).

    python3 perfbench/check_bench.py

Checks that the inputs follow the seed, that fresh traffic never repeats,
that the join bands cover every plan, that about a fifth of the traffic
is held out (test records only), that the kernel event replay of the
traced run reproduces the live run's answers, that the verifier catches a
wrong answer, and that ``--model-repeat`` really repeats each model call.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import openloop  # noqa: E402
import traffic  # noqa: E402
import verify  # noqa: E402
from repro.serving.cache import workload_signature  # noqa: E402
from repro.serving.kernel import Complete, PipelineKernel, Submit  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def stream(spec, seed, n):
    """Signatures of the first ``n`` requests of a workload at ``seed``."""
    bench = traffic.Bench(spec, seed)
    bench.close()
    return [workload_signature(w) for w in bench.workloads(n)]


def check_streams() -> None:
    for name in ("replay_hot", "fresh_mix"):
        spec = traffic.SPECS[name]
        first = stream(spec, 3, 500)
        again = stream(spec, 3, 500)
        other = stream(spec, 4, 500)
        expect(first == again, f"{name}: the same seed gives the same requests")
        expect(first != other, f"{name}: another seed gives other requests")
    fresh = stream(traffic.SPECS["fresh_mix"], 5, 3000)
    expect(len(set(fresh)) == len(fresh), "fresh_mix: 3000 requests, no workload repeats")
    bench = traffic.Bench(traffic.SPECS["fresh_mix"], 5)
    bench.close()
    sizes = {name: len(records) for name, records in bench.bands.items()}
    expect(sum(sizes.values()) == len(bench.records), f"join bands cover every plan {sizes}")
    held = sum(bench.held_out(workload) for workload in bench.workloads(3000))
    expect(500 <= held <= 700, f"fresh_mix: {held} of 3000 requests held out (about a fifth)")
    bench = traffic.Bench(traffic.SPECS["replay_hot"], 5)
    bench.close()
    held = sum(bench.held_out(workload) for workload in bench._pool)
    expect(held == len(bench.dataset.test_records) // traffic.BATCH_SIZE,
           f"replay pool: {held} of {len(bench._pool)} workloads held out")


def check_kernel_replay() -> None:
    """The recorded event trace, replayed through a fresh kernel, answers
    every request with the value the live server answered."""
    bench = traffic.Bench(traffic.SPECS["fresh_mix"], 6)
    holder = {}

    def _wrap(server):
        holder["recorder"] = layers.KernelRecorder.install(server)
        return layers.TaggingFront(server, holder["recorder"])

    bench.start_serving(wrap=_wrap)
    requests = bench.requests(300)
    step = openloop.run_step(bench.submit, requests, openloop.fixed_rate(600.0, 0.5),
                           label="check", deadline_s=bench.spec.deadline_s)
    bench.close()
    recorder = holder["recorder"]
    live = {rid: step.values[i] for i, rid in enumerate(
        event.rid for event in recorder.events if isinstance(event, Submit))}
    kernel = PipelineKernel(traffic.SERVER_CONFIG)
    replayed = {}
    for event in recorder.events:
        for action in kernel.handle(event):
            if isinstance(action, Complete):
                replayed[action.rid] = action.value
    expect(step.answered == len(requests), "every request of the check step answered")
    expect(replayed == live, f"kernel replay reproduces all {len(live)} live answers")
    tagged = set(recorder.request_ids.values())
    expect(tagged == {r.request_id for r in requests}, "every kernel submit carries its request id")


def check_verifier() -> None:
    bench = traffic.Bench(traffic.SPECS["fresh_mix"], 7)
    requests = bench.requests(200)
    step = openloop.run_step(bench.submit, requests, openloop.fixed_rate(400.0, 0.5),
                           label="check", deadline_s=bench.spec.deadline_s)
    bench.close()
    good = verify.Verifier(bench, seed=7)
    bad = verify.Verifier(bench, seed=7)
    batches = list(bench.log.batches)
    corrupted = openloop.Step(step.label, step.offered_qps, step.due, step.done, step.lag,
                            step.outcome, step.deadline_s, step.values.copy(),
                            list(step.workloads))
    corrupted.values[17] = np.nextafter(corrupted.values[17], np.inf)
    good.after_step(step)
    bench.log.batches[:] = batches
    bad.after_step(corrupted)
    expect(good.answered == 200 and good.mismatches == 0, "verifier accepts the served answers")
    expect(bad.mismatches == 1, "verifier catches one answer off by one ulp")


def check_model_repeat() -> None:
    bench = traffic.Bench(traffic.SPECS["fresh_mix"], 8, model_repeat=2)
    calls = []
    predict = bench.model.predict
    bench.model.predict = lambda workloads: calls.append(len(workloads)) or predict(workloads)
    openloop.run_step(bench.submit, bench.requests(100), openloop.fixed_rate(400.0, 0.25),
                    label="check", deadline_s=bench.spec.deadline_s)
    bench.close()
    expect(len(calls) == 2 * len(bench.log.batches),
           "model_repeat=2 calls the model twice per batch")


if __name__ == "__main__":
    check_streams()
    check_kernel_replay()
    check_verifier()
    check_model_repeat()
