"""Write the golden files that pin the fitted tree regressors bit for bit.

Run from the repository root:

    PYTHONPATH=src python tools/make_tree_golden.py

It fits the default ``make_regressor`` dt/rf/xgb on LearnedWMP histograms
and the SingleWMP dt/xgb per-query regressors, all on perfbench's dataset
(tpcds, 600 queries, seed 7, 24 templates), saves each regressor with
``save_model`` under ``tests/data/tree_golden/`` and writes
``golden.json``: the fixed inputs and the expected outputs as
``float.hex`` strings.  ``tests/test_tree_golden.py`` loads the saved
regressors and checks every prediction against the file.

The inputs of each regressor are its test-split rows, plus rows that sit
exactly on split thresholds.  The non-finite rows (NaN, +inf, -inf) are
rejected by ``predict``; their expected leaf sums come from the reference
walker in ``tests/tree_oracle.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from repro.core.histogram import build_histogram_dataset  # noqa: E402
from repro.core.model import LearnedWMP  # noqa: E402
from repro.core.serialization import save_model  # noqa: E402
from repro.core.single_wmp import SingleWMP  # noqa: E402
from repro.core.workload import make_workloads  # noqa: E402
from repro.workloads.generator import generate_dataset  # noqa: E402
from tree_oracle import reference_predict  # noqa: E402

OUT_DIR = ROOT / "tests" / "data" / "tree_golden"
SEED = 7
N_QUERIES = 600
N_TEMPLATES = 24
BATCH_SIZE = 10
#: Threshold rows per regressor.
N_THRESHOLD_ROWS = 16
#: Leading rows whose every boosting stage is written out as hex.
N_STAGED_ROWS = 4


def hexes(values) -> list:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel()]


def rows_hex(X) -> list:
    return [hexes(row) for row in X]


def staged_digest(stages: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(stages, dtype="<f8").tobytes()).hexdigest()


def linked_roots(model) -> list:
    name = type(model).__name__
    if name == "DecisionTreeRegressor":
        return [model.tree_]
    if name == "RandomForestRegressor":
        return [estimator.tree_ for estimator in model.estimators_]
    return list(model.trees_)


def threshold_rows(model, base: np.ndarray) -> np.ndarray:
    """Copies of ``base`` with one feature set exactly to a split threshold."""
    splits = []
    for root in linked_roots(model):
        stack = [root]
        while stack:
            node = stack.pop()
            if node.feature >= 0:
                splits.append((node.feature, node.threshold))
                stack.extend((node.left, node.right))
    picks = np.linspace(0, len(splits) - 1, num=min(N_THRESHOLD_ROWS, len(splits))).astype(int)
    rows = []
    for i, pick in enumerate(picks):
        feature, threshold = splits[pick]
        row = base[i % len(base)].copy()
        row[feature] = threshold
        rows.append(row)
    return np.array(rows)


def nonfinite_rows(model, base: np.ndarray) -> np.ndarray:
    feature = next(r.feature for r in linked_roots(model) if r.feature >= 0)
    rows = []
    for value in (np.nan, np.inf, -np.inf):
        row = base[0].copy()
        row[feature] = value
        rows.append(row)
        rows.append(np.full_like(base[0], value))
    return np.array(rows)


def entry(name: str, model, X_test: np.ndarray) -> dict:
    path = OUT_DIR / f"{name}.lwmp"
    save_model(model, path)
    X = np.vstack([X_test, threshold_rows(model, X_test)])
    bad = nonfinite_rows(model, X_test)
    record = {
        "file": path.name,
        "class": type(model).__name__,
        "rows": rows_hex(X),
        "predict": hexes(model.predict(X)),
        "nonfinite_rows": rows_hex(bad),
        "nonfinite_reference": hexes(reference_predict(model, bad)),
    }
    if hasattr(model, "staged_predict"):
        stages = model.staged_predict(X)
        record["staged_head"] = [hexes(stage[:N_STAGED_ROWS]) for stage in stages]
        record["staged_sha256"] = staged_digest(stages)
    size_kb = path.stat().st_size / 1024
    print(f"{name:16s} {type(model).__name__:26s} rows={len(X):4d} {size_kb:7.1f} KB")
    return record


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset("tpcds", N_QUERIES, seed=SEED)
    golden = {}
    for regressor in ("dt", "rf", "xgb"):
        model = LearnedWMP(
            regressor=regressor,
            n_templates=N_TEMPLATES,
            batch_size=BATCH_SIZE,
            random_state=SEED,
        ).fit(dataset.train_records)
        X_test, _ = build_histogram_dataset(
            make_workloads(dataset.test_records, BATCH_SIZE), model.templates
        )
        golden[f"learnedwmp_{regressor}"] = entry(
            f"learnedwmp_{regressor}", model.regressor, X_test
        )
    for regressor in ("dt", "xgb"):
        model = SingleWMP(regressor, random_state=SEED).fit(dataset.train_records)
        X_test = model.featurizer.featurize_records(dataset.test_records)
        golden[f"singlewmp_{regressor}"] = entry(
            f"singlewmp_{regressor}", model.regressor, X_test
        )
    with (OUT_DIR / "golden.json").open("w") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
