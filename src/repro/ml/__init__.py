"""From-scratch machine-learning substrate used by the LearnedWMP pipeline.

The paper's implementation sits on scikit-learn and XGBoost; this package
re-implements the required pieces on numpy/scipy so the reproduction has no
unavailable dependencies:

* clustering — :class:`~repro.ml.kmeans.KMeans` (+ elbow method) and
  :class:`~repro.ml.dbscan.DBSCAN`,
* regression — :class:`~repro.ml.linear.Ridge`,
  :class:`~repro.ml.tree.DecisionTreeRegressor`,
  :class:`~repro.ml.forest.RandomForestRegressor`,
  :class:`~repro.ml.gbm.GradientBoostingRegressor` (XGBoost-style) and
  :class:`~repro.ml.mlp.MLPRegressor`; the tree models predict from flat
  node arrays, all trees at once (:mod:`repro.ml.flat_trees`),
* utilities — preprocessing, model selection (train/test split, K-fold,
  randomized search) and SQL text featurization (bag of words, text mining,
  word embeddings).
"""

from repro.ml.base import BaseEstimator, ClusterMixin, RegressorMixin
from repro.ml.dbscan import DBSCAN
from repro.ml.embeddings import WordEmbeddingVectorizer
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.kmeans import KMeans, elbow_method
from repro.ml.linear import LinearRegression, Ridge
from repro.ml.mlp import MLPRegressor, PAPER_HIDDEN_LAYERS
from repro.ml.model_selection import (
    KFold,
    ParameterSampler,
    RandomizedSearchCV,
    cross_val_score,
    train_test_split,
)
from repro.ml.preprocessing import MinMaxScaler, StandardScaler, log1p_scale
from repro.ml.text import BagOfWordsVectorizer, TextMiningVectorizer, tokenize_sql
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "ClusterMixin",
    "RegressorMixin",
    "KMeans",
    "elbow_method",
    "DBSCAN",
    "LinearRegression",
    "Ridge",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "GradientBoostingRegressor",
    "MLPRegressor",
    "PAPER_HIDDEN_LAYERS",
    "train_test_split",
    "KFold",
    "cross_val_score",
    "ParameterSampler",
    "RandomizedSearchCV",
    "StandardScaler",
    "MinMaxScaler",
    "log1p_scale",
    "BagOfWordsVectorizer",
    "TextMiningVectorizer",
    "WordEmbeddingVectorizer",
    "tokenize_sql",
]
