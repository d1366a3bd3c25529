"""Sensitivity self-check: a model call made twice as slow must show.

    python3 perfbench/sensitivity.py --seeds 1,2,3 --seconds 25

Runs ``fresh_mix`` and ``replay_hot`` with every model call once and twice
(``--model-repeat 2``), alternating the two on each seed, and compares the
medians of ``max_qps_at_slo``.  The check passes when ``fresh_mix`` (where
the model does the work) drops by more than the metric's bound in
``BENCHMARK.json`` and ``replay_hot`` (where the cache does) drops less
than ``fresh_mix``.  Exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def max_qps(workload: str, seed: int, seconds: str, repeat: int) -> float:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", seconds, "--trace", "0",
        "--model-repeat", str(repeat),
    ]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]["max_qps_at_slo"]["value"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "max_qps_at_slo")
    seeds = [int(seed) for seed in args.seeds.split(",")]
    drops = {}
    for workload in ("fresh_mix", "replay_hot"):
        runs: dict[int, list[float]] = {1: [], 2: []}
        for index, seed in enumerate(seeds):
            order = (1, 2) if index % 2 == 0 else (2, 1)
            for repeat in order:
                runs[repeat].append(max_qps(workload, seed, args.seconds, repeat))
        base, slow = statistics.median(runs[1]), statistics.median(runs[2])
        drops[workload] = 1.0 - slow / base
        print(f"{workload:<11} max_qps_at_slo median {base:10.1f} -> {slow:10.1f} req/s "
              f"with the model call doubled (drop {100 * drops[workload]:5.1f}%; "
              f"runs {runs[1]} / {runs[2]})")
    passed = drops["fresh_mix"] > bound and drops["replay_hot"] < drops["fresh_mix"]
    print(f"bound {100 * bound:.0f}%: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
