"""Multilayer-perceptron regressor (the paper's DNN variant).

The paper trains an eight-layer MLP (input, six hidden layers of
48/39/27/16/7/5 units, scalar output) with squared-error loss plus an L2
penalty, and compares three aspects that this implementation also exposes:

* activation: ``"relu"`` vs ``"identity"`` (linear) hidden activations,
* optimizer: stochastic gradient descent, Adam, or L-BFGS (via scipy),
* L2 regularization strength ``alpha``.

Training minimizes the paper's loss (Eq. 9):

    L = 1/(2N) * sum ||y_hat - y||^2  +  alpha/(2N) * ||W||^2
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.ml.base import (
    BaseEstimator,
    RegressorMixin,
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)

__all__ = ["MLPRegressor", "PAPER_HIDDEN_LAYERS"]

#: Hidden-layer widths of the architecture found by the paper's randomized search.
PAPER_HIDDEN_LAYERS: tuple[int, ...] = (48, 39, 27, 16, 7, 5)

_ACTIVATIONS = ("relu", "identity")
_SOLVERS = ("sgd", "adam", "lbfgs")


class MLPRegressor(BaseEstimator, RegressorMixin):
    """Feed-forward neural network for regression.

    Parameters
    ----------
    hidden_layer_sizes:
        Width of each hidden layer.  Defaults to a small two-layer network;
        pass :data:`PAPER_HIDDEN_LAYERS` to reproduce the paper architecture.
    activation:
        ``"relu"`` or ``"identity"`` hidden activation.
    solver:
        ``"sgd"``, ``"adam"`` or ``"lbfgs"``.
    alpha:
        L2 penalty weight (Eq. 9 in the paper).
    learning_rate_init:
        Step size for sgd/adam.
    batch_size:
        Mini-batch size for sgd/adam; ``None`` means full batch.
    max_iter:
        Epochs (sgd/adam) or maximum L-BFGS iterations.
    tol:
        Minimum loss improvement; training stops after ``n_iter_no_change``
        epochs without an improvement of at least ``tol``.
    n_iter_no_change:
        Patience for the early-stopping rule above.
    random_state:
        Seed for weight initialization and mini-batch shuffling.
    """

    def __init__(
        self,
        hidden_layer_sizes: tuple[int, ...] = (32, 16),
        *,
        activation: str = "relu",
        solver: str = "adam",
        alpha: float = 1e-4,
        learning_rate_init: float = 1e-3,
        batch_size: int | None = 32,
        max_iter: int = 200,
        tol: float = 1e-6,
        n_iter_no_change: int = 10,
        random_state: int | None = None,
    ) -> None:
        if activation not in _ACTIVATIONS:
            raise InvalidParameterError(f"activation must be one of {_ACTIVATIONS}")
        if solver not in _SOLVERS:
            raise InvalidParameterError(f"solver must be one of {_SOLVERS}")
        if alpha < 0:
            raise InvalidParameterError("alpha must be non-negative")
        if max_iter < 1:
            raise InvalidParameterError("max_iter must be >= 1")
        self.hidden_layer_sizes = tuple(int(h) for h in hidden_layer_sizes)
        self.activation = activation
        self.solver = solver
        self.alpha = alpha
        self.learning_rate_init = learning_rate_init
        self.batch_size = batch_size
        self.max_iter = max_iter
        self.tol = tol
        self.n_iter_no_change = n_iter_no_change
        self.random_state = random_state
        self.coefs_: list[np.ndarray] | None = None
        self.intercepts_: list[np.ndarray] | None = None
        self.loss_curve_: list[float] = []
        self.n_iter_: int = 0

    # -- architecture helpers -------------------------------------------------

    def _layer_sizes(self, n_features: int) -> list[int]:
        return [n_features, *self.hidden_layer_sizes, 1]

    def _init_weights(
        self, n_features: int, rng: np.random.Generator
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        sizes = self._layer_sizes(n_features)
        coefs: list[np.ndarray] = []
        intercepts: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            # Glorot-uniform initialization.
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            coefs.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            intercepts.append(np.zeros(fan_out))
        return coefs, intercepts

    def _activate(self, Z: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return np.maximum(Z, 0.0)
        return Z

    def _activate_derivative(self, activated: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return (activated > 0.0).astype(np.float64)
        return np.ones_like(activated)

    # -- forward / backward ----------------------------------------------------

    def _forward(
        self, X: np.ndarray, coefs: list[np.ndarray], intercepts: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Return the list of layer activations, input first, output last."""
        activations = [X]
        current = X
        last = len(coefs) - 1
        for i, (W, b) in enumerate(zip(coefs, intercepts)):
            current = current @ W + b
            if i != last:
                current = self._activate(current)
            activations.append(current)
        return activations

    def _loss_and_gradients(
        self,
        X: np.ndarray,
        y: np.ndarray,
        coefs: list[np.ndarray],
        intercepts: list[np.ndarray],
    ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        n_samples = X.shape[0]
        activations = self._forward(X, coefs, intercepts)
        output = activations[-1].ravel()
        errors = output - y

        penalty = sum(float(np.sum(W * W)) for W in coefs)
        loss = float(np.sum(errors**2)) / (2.0 * n_samples) + self.alpha * penalty / (
            2.0 * n_samples
        )

        coef_grads: list[np.ndarray] = [np.empty_like(W) for W in coefs]
        intercept_grads: list[np.ndarray] = [np.empty_like(b) for b in intercepts]

        delta = errors[:, None] / n_samples
        for layer in range(len(coefs) - 1, -1, -1):
            coef_grads[layer] = activations[layer].T @ delta + (
                self.alpha / n_samples
            ) * coefs[layer]
            intercept_grads[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ coefs[layer].T) * self._activate_derivative(
                    activations[layer]
                )
        return loss, coef_grads, intercept_grads

    # -- parameter (un)packing for L-BFGS --------------------------------------

    @staticmethod
    def _pack(coefs: list[np.ndarray], intercepts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [W.ravel() for W in coefs] + [b.ravel() for b in intercepts]
        )

    def _unpack(
        self, flat: np.ndarray, n_features: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        sizes = self._layer_sizes(n_features)
        coefs: list[np.ndarray] = []
        intercepts: list[np.ndarray] = []
        offset = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            count = fan_in * fan_out
            coefs.append(flat[offset : offset + count].reshape(fan_in, fan_out))
            offset += count
        for fan_out in sizes[1:]:
            intercepts.append(flat[offset : offset + fan_out])
            offset += fan_out
        return coefs, intercepts

    # -- solvers ----------------------------------------------------------------

    def _fit_lbfgs(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> None:
        # Imported here: scipy.optimize alone costs ~49 MB of RSS and most of
        # the package's import time, and only this solver needs it.
        from scipy import optimize

        n_features = X.shape[1]
        coefs, intercepts = self._init_weights(n_features, rng)

        def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
            unpacked_coefs, unpacked_intercepts = self._unpack(flat, n_features)
            loss, coef_grads, intercept_grads = self._loss_and_gradients(
                X, y, unpacked_coefs, unpacked_intercepts
            )
            self.loss_curve_.append(loss)
            return loss, self._pack(coef_grads, intercept_grads)

        result = optimize.minimize(
            objective,
            self._pack(coefs, intercepts),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "ftol": self.tol},
        )
        self.coefs_, self.intercepts_ = self._unpack(result.x, n_features)
        self.n_iter_ = int(result.nit)

    def _fit_sgd_family(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> None:
        n_samples, n_features = X.shape
        coefs, intercepts = self._init_weights(n_features, rng)
        batch = n_samples if self.batch_size is None else min(self.batch_size, n_samples)

        use_adam = self.solver == "adam"
        if use_adam:
            m_coefs = [np.zeros_like(W) for W in coefs]
            v_coefs = [np.zeros_like(W) for W in coefs]
            m_ints = [np.zeros_like(b) for b in intercepts]
            v_ints = [np.zeros_like(b) for b in intercepts]
            beta1, beta2, eps = 0.9, 0.999, 1e-8
            adam_step = 0

        best_loss = np.inf
        stall = 0
        for epoch in range(1, self.max_iter + 1):
            order = rng.permutation(n_samples)
            epoch_losses: list[float] = []
            for start in range(0, n_samples, batch):
                idx = order[start : start + batch]
                loss, coef_grads, intercept_grads = self._loss_and_gradients(
                    X[idx], y[idx], coefs, intercepts
                )
                epoch_losses.append(loss)
                if use_adam:
                    adam_step += 1
                    for i in range(len(coefs)):
                        m_coefs[i] = beta1 * m_coefs[i] + (1 - beta1) * coef_grads[i]
                        v_coefs[i] = beta2 * v_coefs[i] + (1 - beta2) * coef_grads[i] ** 2
                        m_hat = m_coefs[i] / (1 - beta1**adam_step)
                        v_hat = v_coefs[i] / (1 - beta2**adam_step)
                        coefs[i] -= (
                            self.learning_rate_init * m_hat / (np.sqrt(v_hat) + eps)
                        )
                        m_ints[i] = beta1 * m_ints[i] + (1 - beta1) * intercept_grads[i]
                        v_ints[i] = (
                            beta2 * v_ints[i] + (1 - beta2) * intercept_grads[i] ** 2
                        )
                        m_hat_b = m_ints[i] / (1 - beta1**adam_step)
                        v_hat_b = v_ints[i] / (1 - beta2**adam_step)
                        intercepts[i] -= (
                            self.learning_rate_init * m_hat_b / (np.sqrt(v_hat_b) + eps)
                        )
                else:  # plain SGD (Eq. 10 in the paper)
                    for i in range(len(coefs)):
                        coefs[i] -= self.learning_rate_init * coef_grads[i]
                        intercepts[i] -= self.learning_rate_init * intercept_grads[i]

            epoch_loss = float(np.mean(epoch_losses))
            self.loss_curve_.append(epoch_loss)
            self.n_iter_ = epoch
            if epoch_loss < best_loss - self.tol:
                best_loss = epoch_loss
                stall = 0
            else:
                stall += 1
                if stall >= self.n_iter_no_change:
                    break

        self.coefs_ = coefs
        self.intercepts_ = intercepts

    # -- public API --------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        """Train the network on ``(X, y)``.

        Targets are internally standardized (zero mean, unit variance) so that
        the default learning rates behave across memory scales from megabytes
        to gigabytes; predictions are mapped back to the original scale.
        """
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.loss_curve_ = []

        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        y_scaled = (y - self._y_mean) / self._y_scale

        self._x_mean = X.mean(axis=0)
        x_scale = X.std(axis=0)
        x_scale[x_scale == 0.0] = 1.0
        self._x_scale = x_scale
        X_scaled = (X - self._x_mean) / self._x_scale

        if self.solver == "lbfgs":
            self._fit_lbfgs(X_scaled, y_scaled, rng)
        else:
            self._fit_sgd_family(X_scaled, y_scaled, rng)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "coefs_")
        X = check_array(X)
        X_scaled = (X - self._x_mean) / self._x_scale
        activations = self._forward(X_scaled, self.coefs_, self.intercepts_)
        return activations[-1].ravel() * self._y_scale + self._y_mean

    def parameter_count(self) -> int:
        """Number of trainable parameters (used for model-size accounting)."""
        check_is_fitted(self, "coefs_")
        return int(
            sum(W.size for W in self.coefs_) + sum(b.size for b in self.intercepts_)
        )
