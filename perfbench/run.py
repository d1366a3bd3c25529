"""Serving benchmark: max QPS at SLO on traffic mixes, plus a traced
per-layer table.

Run from the repository root:

    python3 perfbench/run.py --workload fresh_mix --seed 1 --seconds 45 --trace 0

``--trace 0`` drives the workload open-loop: a staircase over a fixed-rate
ladder for ``max_qps_at_slo``, windows at the frozen ``low`` rate, and
bursts; it prints every end-to-end metric.  ``--trace 1`` drives
one rate untraced and then traced and prints the per-layer table (see
``layers.py``).  Each step prints its requests attempted, answered, shed,
failed and late.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any served answer
that differs from the model's own answer makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perfbench: no repro package under {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)

import openloop  # noqa: E402
import traffic  # noqa: E402
import verify  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Shares of ``--seconds`` for the staircase, the fixed-rate windows and the
#: bursts of an untraced run.
STAIRCASE_SHARE, FIXED_SHARE, BURST_SHARE = 0.55, 0.25, 0.12
#: Length of one staircase trial and of one fixed-rate window.
TRIAL_S = WINDOW_S = 0.5
#: Length of one burst step: a quarter at ``low``, half at ``burst``, a quarter at ``low``.
BURST_S = 2.0
WARMUP_S = 0.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(traffic.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--model-repeat",
        type=int,
        default=1,
        help="run every model call this many times (2 = the sensitivity self-check)",
    )
    return parser.parse_args(argv)


def set_up(spec, seed, model_repeat, repeats):
    """Build the workload ``repeats`` times; keep the last, return the
    median set-up time.  Each set-up starts after the previous one is
    closed and released, so only one is ever in memory."""
    times, bench = [], None
    for _ in range(repeats):
        if bench is not None:
            bench.close()
            bench = None
        started = time.monotonic()
        bench = traffic.Bench(spec, seed, model_repeat=model_repeat)
        times.append(time.monotonic() - started)
    return bench, statistics.median(times)


def reset_peak_rss() -> None:
    """Restart the kernel's count of this process's peak resident memory
    (``VmHWM``) at its current size."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory of this process since the last reset, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(bench, verifier, seconds):
    """The untraced run: warm-up, staircase, fixed-rate windows and bursts.

    The machine's speed drifts from second to second, so the load comes in
    short pieces spread through the run: staircase trials, ``low`` windows
    and several bursts.  Latencies come from all ``low`` windows pooled and
    ``fail_share`` from all bursts pooled.  The tail is p90, which keeps
    more than ten samples beyond it in the pooled windows of the workload
    with the fewest requests.
    """
    spec = bench.spec
    warmup = openloop.fixed_rate(spec.low_qps, WARMUP_S)
    steps = [openloop.drive(bench, verifier, "warmup", warmup)[0]]

    def run_rung(k):
        offsets = openloop.fixed_rate(openloop.rung_rate(k), TRIAL_S)
        step = openloop.drive(bench, verifier, f"rung{k}", offsets)[0]
        steps.append(step)
        return step, step.passes(spec.slo_p99_ms)

    max_qps, trials = openloop.staircase(
        run_rung, openloop.rung_of(spec.high_qps), STAIRCASE_SHARE * seconds
    )
    print("staircase (req/s, +pass/-fail): "
          + " ".join(f"{openloop.rung_rate(k):.0f}{'+' if p else '-'}" for k, _, p in trials),
          flush=True)

    def repeat(share):
        """Yield until the phase's share of the run is spent, at least twice;
        a piece that would end past the budget is not started."""
        phase_end, count, last = time.monotonic() + share * seconds, 0, 0.0
        while count < 2 or time.monotonic() + last < phase_end:
            started = time.monotonic()
            yield
            count, last = count + 1, time.monotonic() - started

    lows = []
    for _ in repeat(FIXED_SHARE):
        offsets = openloop.fixed_rate(spec.low_qps, WINDOW_S)
        lows.append(openloop.drive(bench, verifier, "low", offsets)[0])

    bursts = []
    for _ in repeat(BURST_SHARE):
        offsets, inside = openloop.burst_schedule(spec.low_qps, spec.burst_qps, BURST_S)
        step = openloop.drive(bench, verifier, "burst", offsets)[0]
        bursts.append(step)
        inside_burst = openloop.Step(
            "burst only", spec.burst_qps, step.due[inside], step.done[inside],
            step.lag[inside], step.outcome[inside], step.deadline_s,
        )
        print(f"  inside the burst: goodput {inside_burst.goodput_qps:.1f} req/s, "
              f"p99 of answered {inside_burst.percentile_ms(99, answered_only=True):.1f} ms",
              flush=True)
    steps += lows + bursts

    low = openloop.pooled(lows)
    metrics = {
        "max_qps_at_slo": (max_qps, "req/s"),
        "p50_ms_low": (low.percentile_ms(50), "ms"),
        "p90_ms_low": (low.percentile_ms(90), "ms"),
        "fail_share": (openloop.pooled(bursts).fail_share, "ratio"),
    }
    return steps, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = traffic.SPECS[args.workload]
    print(
        f"workload {spec.name} seed {args.seed} seconds {args.seconds} trace {args.trace}"
        f" clients {traffic.N_CLIENTS} ladder {openloop.LADDER_BASE:g}*{openloop.LADDER_STEP:g}^k"
        f" low {spec.low_qps:g} high {spec.high_qps:g} burst {spec.burst_qps:g} req/s",
        flush=True,
    )
    repeats = 1 if args.trace else SETUP_REPEATS
    bench, setup_s = set_up(spec, args.seed, args.model_repeat, repeats)
    # From here on the peak covers the one set-up in memory plus serving.
    reset_peak_rss()
    verifier = verify.Verifier(bench, seed=args.seed)
    try:
        if args.trace:
            import layers

            steps, metrics = layers.traced_run(bench, verifier, args.seconds, seed=args.seed)
        else:
            steps, metrics = measure(bench, verifier, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["mape_pct"] = (verifier.mape_pct, "%")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        verifier.finish()
    finally:
        bench.close()
    if bench.scrape_s:
        print(f"telemetry scrapes: {len(bench.scrape_s)}, median "
              f"{1e3 * statistics.median(bench.scrape_s):.2f} ms", flush=True)
    print(verifier.line(), flush=True)
    attempted = sum(step.attempted for step in steps)
    failed = sum(step.failed for step in steps) + verifier.mismatches
    result = {
        "correct": verifier.mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if verifier.mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
