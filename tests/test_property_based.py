"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.metrics import interquartile_range, mape, mean_absolute_error, rmse, summarize_residuals
from repro.dbms.plan.cardinality import _hash_gaussian, _hash_unit
from repro.ml.kmeans import KMeans
from repro.ml.linear import Ridge
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.text import tokenize_sql
from repro.ml.tree import DecisionTreeRegressor

# Every field (example budget, deadline, health checks, failure-seed
# printing) comes from the settings profile registered in ``conftest.py``:
# ``dev`` locally, ``ci`` under ``HYPOTHESIS_PROFILE=ci``.
_SETTINGS = settings()

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)

feature_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(8, 40), st.integers(1, 5)),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


class TestMetricProperties:
    @_SETTINGS
    @given(finite_arrays)
    def test_rmse_zero_iff_equal(self, values):
        assert rmse(values, values) == 0.0

    @_SETTINGS
    @given(finite_arrays, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_rmse_at_least_mae(self, values, shift):
        predictions = values + shift
        assert rmse(values, predictions) >= mean_absolute_error(values, predictions) - 1e-9

    @_SETTINGS
    @given(finite_arrays)
    def test_rmse_symmetry(self, values):
        other = values[::-1].copy()
        assert np.isclose(rmse(values, other), rmse(other, values))

    @_SETTINGS
    @given(finite_arrays, st.floats(min_value=0.1, max_value=1000, allow_nan=False))
    def test_rmse_scales_linearly(self, values, factor):
        other = values + 1.0
        assert np.isclose(rmse(values * factor, other * factor), factor * rmse(values, other), rtol=1e-6)

    @_SETTINGS
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=40),
            elements=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        ),
        st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
    )
    def test_mape_scale_invariant(self, values, scale):
        predictions = values * 1.1
        assert np.isclose(mape(values, predictions), mape(values * scale, predictions * scale), rtol=1e-9)

    @_SETTINGS
    @given(finite_arrays)
    def test_iqr_nonnegative_and_translation_invariant(self, values):
        assert interquartile_range(values) >= 0.0
        assert np.isclose(interquartile_range(values + 17.0), interquartile_range(values))

    @_SETTINGS
    @given(finite_arrays, finite_arrays)
    def test_residual_summary_quartile_ordering(self, a, b):
        n = min(len(a), len(b))
        summary = summarize_residuals(a[:n], b[:n])
        assert summary.minimum <= summary.q1 <= summary.median <= summary.q3 <= summary.maximum
        assert summary.iqr >= 0.0


class TestScalerProperties:
    @_SETTINGS
    @given(feature_matrices)
    def test_standard_scaler_roundtrip(self, X):
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-6)

    @_SETTINGS
    @given(feature_matrices)
    def test_minmax_bounds(self, X):
        scaled = MinMaxScaler().fit_transform(X)
        assert scaled.min() >= -1e-9
        assert scaled.max() <= 1.0 + 1e-9


class TestClusteringProperties:
    @_SETTINGS
    @given(feature_matrices, st.integers(min_value=1, max_value=5))
    def test_kmeans_labels_within_range(self, X, k):
        k = min(k, X.shape[0])
        model = KMeans(n_clusters=k, n_init=1, random_state=0).fit(X)
        assert model.labels_.min() >= 0
        assert model.labels_.max() < k
        assert model.inertia_ >= 0.0

    @_SETTINGS
    @given(feature_matrices)
    def test_kmeans_single_cluster_centroid_is_mean(self, X):
        model = KMeans(n_clusters=1, n_init=1, random_state=0).fit(X)
        assert np.allclose(model.cluster_centers_[0], X.mean(axis=0), atol=1e-6)


class TestModelProperties:
    @_SETTINGS
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(10, 60), st.integers(1, 4)),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        )
    )
    def test_tree_training_predictions_bounded_by_target_range(self, X):
        y = X[:, 0] * 2.0 + 1.0
        model = DecisionTreeRegressor(max_depth=4).fit(X, y)
        predictions = model.predict(X)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    @_SETTINGS
    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_ridge_constant_target_predicts_constant(self, constant):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        y = np.full(30, constant)
        model = Ridge(alpha=1.0).fit(X, y)
        assert np.allclose(model.predict(X), constant, atol=1e-6)


class TestHashDeterminism:
    @_SETTINGS
    @given(st.text(min_size=0, max_size=50))
    def test_hash_unit_in_unit_interval_and_stable(self, key):
        value = _hash_unit(key)
        assert 0.0 <= value < 1.0
        assert value == _hash_unit(key)

    @_SETTINGS
    @given(st.text(min_size=0, max_size=50))
    def test_hash_gaussian_bounded(self, key):
        value = _hash_gaussian(key)
        assert -15.0 < value < 15.0
        assert value == _hash_gaussian(key)


class TestServingProperties:
    """Batched / served prediction must agree with the unbatched path."""

    @_SETTINGS
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_batched_serving_equals_unbatched(self, demands, max_batch):
        """For any request mix and batch size, serving returns the same
        predictions as calling the predictor one request at a time."""
        from oracle import LookupPredictor, naive_loop_values

        from repro.core.workload import Workload
        from repro.serving import PredictionServer, ServerConfig

        workloads = [Workload(queries=[], actual_memory_mb=d) for d in demands]
        unbatched = naive_loop_values(LookupPredictor(), workloads)
        config = ServerConfig(max_batch_size=max_batch, enable_cache=False)
        with PredictionServer(LookupPredictor(), config=config) as server:
            served = server.predict(workloads)
        assert np.allclose(served, unbatched)

    @_SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=6),
    )
    def test_cached_serving_equals_unbatched(self, picks, max_batch):
        """Caching + coalescing must not change any prediction, for any
        repetition pattern of a small workload pool."""
        from oracle import LookupPredictor, make_lookup_pool, naive_loop_values

        from repro.serving import PredictionServer, ServerConfig

        # Each pool entry carries a distinct query text: the cache keys on
        # query content, so distinct workloads must have distinct queries.
        pool = make_lookup_pool(6)
        requests = [pool[p] for p in picks]
        expected = naive_loop_values(LookupPredictor(), requests)
        config = ServerConfig(max_batch_size=max_batch)
        with PredictionServer(LookupPredictor(), config=config) as server:
            served = server.predict(requests)
        assert np.allclose(served, expected)


class TestDeadlineProperties:
    """Deadline enforcement must never change a delivered answer: under any
    random mix of deadline-free, generous and already-expired requests, every
    value that comes back equals the direct-model answer, and every
    ``DeadlineExceededError`` corresponds to a genuinely expired budget."""

    # Capped below the profile budget even under ``ci``: every example spins
    # up a real server; the kernel-level differential
    # suite is where the full example budget is spent.
    @settings(max_examples=12)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.sampled_from(["none", "generous", "expired"]),
            ),
            min_size=1,
            max_size=16,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_deadline_mix_preserves_answers_and_misses_are_genuine(self, mix, max_batch):
        from oracle import LookupPredictor, make_lookup_pool

        from repro.api import PredictionRequest
        from repro.exceptions import DeadlineExceededError
        from repro.serving import PredictionServer, ServerConfig

        pool = make_lookup_pool(6)
        # A generous budget cannot genuinely expire within this test; an
        # "expired" budget of 1 ns cannot survive even the admission path.
        deadlines = {"none": None, "generous": 30.0, "expired": 1e-9}
        config = ServerConfig(max_batch_size=max_batch)
        with PredictionServer(LookupPredictor(), config=config) as server:
            entries = [
                (
                    idx,
                    kind,
                    server.submit_request(
                        PredictionRequest.of(pool[idx], deadline_s=deadlines[kind])
                    ),
                )
                for idx, kind in mix
            ]
            failures = 0
            for idx, kind, future in entries:
                try:
                    result = future.result(timeout=10.0)
                except DeadlineExceededError:
                    failures += 1
                    # Only a request whose budget can genuinely expire may fail.
                    assert kind == "expired"
                else:
                    # Every delivered answer equals the direct-model answer,
                    # whatever path (cache, coalescing, batcher) served it.
                    assert result.memory_mb == 10.0 * (idx + 1)
            report = server.snapshot()
        # Every raised error was a shed; late-but-delivered expired requests
        # may add further misses, never fewer.
        assert report.shed_requests == failures
        assert report.deadline_misses >= failures
        assert report.n_errors == 0


class TestTokenizerProperties:
    @_SETTINGS
    @given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" _.,()*'=<>"), max_size=120))
    def test_tokenizer_never_crashes_and_lowercases(self, text):
        tokens = tokenize_sql(text)
        assert all(token == token.lower() for token in tokens)
