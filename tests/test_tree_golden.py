"""Golden files: the fitted tree regressors predict bit for bit as recorded.

``tests/data/tree_golden/`` holds the default dt/rf/xgb regressors fitted
on LearnedWMP histograms and the SingleWMP dt/xgb per-query regressors
(perfbench's dataset: tpcds, 600 queries, seed 7, 24 templates), written
by ``tools/make_tree_golden.py`` with ``save_model``.  The files were
written before the regressors gained their flat-array form, so loading
them also exercises the conversion of old pickles.  The expected outputs
are ``float.hex`` strings; because the fitted trees are frozen in the
files, the check does not depend on the platform's fit arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialization import load_model, save_model
from repro.exceptions import InvalidParameterError
from repro.ml.flat_trees import accumulate
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from tree_oracle import reference_predict

DATA = Path(__file__).resolve().parent / "data" / "tree_golden"
GOLDEN = json.loads((DATA / "golden.json").read_text())


def unhex(values) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values], dtype=np.float64)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=np.float64).ravel()]


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def case(request):
    spec = GOLDEN[request.param]
    model = load_model(DATA / spec["file"], expected_class=spec["class"])
    X = np.array([unhex(row) for row in spec["rows"]])
    return spec, model, X


def test_predict_all_rows(case):
    spec, model, X = case
    assert hexes(model.predict(X)) == spec["predict"]


def test_predict_one_row_at_a_time(case):
    spec, model, X = case
    got = [model.predict(X[i : i + 1])[0] for i in range(X.shape[0])]
    assert hexes(got) == spec["predict"]


def test_predict_zero_rows_is_rejected(case):
    _, model, X = case
    with pytest.raises(InvalidParameterError):
        model.predict(X[:0])


def test_nonfinite_rows_are_rejected_and_walk_as_recorded(case):
    spec, model, _ = case
    bad = np.array([unhex(row) for row in spec["nonfinite_rows"]])
    for row in bad:
        with pytest.raises(InvalidParameterError):
            model.predict(row[None, :])
    assert hexes(reference_predict(model, bad)) == spec["nonfinite_reference"]


def flat_predict(model, X) -> np.ndarray:
    """The model's own sum over its flat leaf values, without the finite-input check."""
    leaves = model.flat_.leaf_values(X)
    if isinstance(model, GradientBoostingRegressor):
        return accumulate(model.base_score_, model.learning_rate * leaves)[:, -1]
    if isinstance(model, RandomForestRegressor):
        return accumulate(0.0, leaves)[:, -1] / len(model.estimators_)
    return leaves[:, 0]


def test_nonfinite_rows_traverse_as_recorded(case):
    spec, model, X = case
    bad = np.array([unhex(row) for row in spec["nonfinite_rows"]])
    assert hexes(flat_predict(model, bad)) == spec["nonfinite_reference"]
    assert hexes(flat_predict(model, X)) == spec["predict"]


def test_flat_arrays_stay_out_of_the_file(case, tmp_path):
    spec, model, X = case
    assert b"flat_" not in pickle.dumps(model)
    resaved = load_model(save_model(model, tmp_path / spec["file"]))
    assert hexes(resaved.predict(X)) == spec["predict"]


def test_reference_walker_agrees(case):
    spec, model, X = case
    assert hexes(reference_predict(model, X)) == spec["predict"]


def test_staged_predict(case):
    spec, model, X = case
    if "staged_sha256" not in spec:
        pytest.skip("only the boosted regressors have stages")
    stages = model.staged_predict(X)
    assert [hexes(stage[: len(head)]) for stage, head in zip(stages, spec["staged_head"])] == (
        spec["staged_head"]
    )
    digest = hashlib.sha256(np.ascontiguousarray(stages, dtype="<f8").tobytes()).hexdigest()
    assert digest == spec["staged_sha256"]
    assert hexes(stages[-1]) == spec["predict"]
