"""Linear classifiers: support vector machine and logistic regression.

The paper selected a linear-kernel SVM by cross-validation, with
logistic regression and linear discriminant analysis as the other
candidates (Section 5.1).  Both gradient-based models here optimize a
smooth regularized loss with L-BFGS from scipy:

* :class:`LinearSVM` — squared hinge loss (the smooth SVM variant),
* :class:`LogisticRegression` — log loss.

scipy's optimizer is imported at the first :meth:`~_LinearModel.fit`,
not with this module: serving only evaluates ``w·x + b``, so a process
that loads a fitted model and classifies never loads scipy.

Labels are {0, 1} at the API boundary and mapped to {-1, +1}
internally.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearSVM", "LogisticRegression"]


class _LinearModel:
    """Shared fit/predict machinery for w·x + b models."""

    def __init__(self, C: float = 1.0, max_iter: int = 500) -> None:
        self.C = C
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def _loss_grad(self, params, X, y):  # pragma: no cover - overridden
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_LinearModel":
        from scipy.optimize import minimize

        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        signs = np.where(y > 0, 1.0, -1.0)
        n_features = X.shape[1]
        x0 = np.zeros(n_features + 1)
        result = minimize(
            self._loss_grad,
            x0,
            args=(X, signs),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x[:-1]
        self.intercept_ = float(result.x[-1])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model used before fit()")
        return np.asarray(X, dtype=np.float64) @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(int)


class LinearSVM(_LinearModel):
    """L2-regularized squared-hinge SVM.

    minimizes  ``0.5 ||w||^2 + C * sum(max(0, 1 - y_i (w x_i + b))^2)``
    """

    def _loss_grad(self, params, X, signs):
        w, b = params[:-1], params[-1]
        margins = signs * (X @ w + b)
        slack = np.maximum(0.0, 1.0 - margins)
        loss = 0.5 * w @ w + self.C * np.sum(slack**2)
        # d/dmargin of slack^2 is -2*slack where slack > 0
        coeff = -2.0 * self.C * slack * signs
        grad_w = w + X.T @ coeff
        grad_b = np.sum(coeff)
        return loss, np.concatenate([grad_w, [grad_b]])


class LogisticRegression(_LinearModel):
    """L2-regularized logistic regression.

    minimizes ``0.5/C ||w||^2 + sum(log(1 + exp(-y_i (w x_i + b))))``
    """

    def _loss_grad(self, params, X, signs):
        w, b = params[:-1], params[-1]
        z = signs * (X @ w + b)
        # log(1 + e^-z) computed stably
        loss_terms = np.logaddexp(0.0, -z)
        loss = 0.5 / self.C * (w @ w) + np.sum(loss_terms)
        sigma = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        coeff = -signs * sigma
        grad_w = w / self.C + X.T @ coeff
        grad_b = np.sum(coeff)
        return loss, np.concatenate([grad_w, [grad_b]])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        z = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        return np.column_stack([1.0 - p1, p1])
