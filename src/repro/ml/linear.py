"""Linear classifiers: support vector machine and logistic regression.

The paper selected a linear-kernel SVM by cross-validation, with
logistic regression and linear discriminant analysis as the other
candidates (Section 5.1).  Both gradient-based models here minimize a
smooth, convex, regularized loss over ``[w, b]``:

* :class:`LinearSVM` — squared hinge loss (the smooth SVM variant),
* :class:`LogisticRegression` — log loss.

Training sets are small (about a hundred labelled violations over at
most 17 features), so :meth:`_LinearModel.fit` solves them exactly with
a damped Newton method in numpy alone: each step solves the model's
(generalized) Hessian system with ``lstsq``, so a singular Hessian is
not an error; Armijo backtracking keeps the loss decreasing; the loop
stops once the gradient vanishes or after ``max_iter`` steps.  For the
squared hinge this is the finite Newton method of Keerthi & DeCoste
(JMLR 2005).  Neither fitting nor classifying imports scipy.

Labels are {0, 1} at the API boundary and mapped to {-1, +1}
internally.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinearSVM", "LogisticRegression"]

#: the fit stops once no gradient component exceeds this
GRAD_TOL = 1e-10
#: Armijo sufficient-decrease constant
ARMIJO = 1e-4
#: step halvings before a line search gives up: no decrease is left to
#: find above floating-point roundoff
MAX_HALVINGS = 50


class _LinearModel:
    """Shared fit/predict machinery for w·x + b models.

    Subclasses give the loss, its gradient and its Hessian over
    ``params = [w, b]`` for inputs ``X1 = [X, 1]``.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 500) -> None:
        self.C = C
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def _loss_grad(self, params, X1, signs):  # pragma: no cover - overridden
        raise NotImplementedError

    def _hessian(self, params, X1, signs):  # pragma: no cover - overridden
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_LinearModel":
        X = np.asarray(X, dtype=np.float64)
        signs = np.where(np.asarray(y) > 0, 1.0, -1.0)
        X1 = np.column_stack([X, np.ones(len(X))])
        params = np.zeros(X1.shape[1])
        loss, grad = self._loss_grad(params, X1, signs)
        for _ in range(self.max_iter):
            if np.max(np.abs(grad)) <= GRAD_TOL:
                break
            hessian = self._hessian(params, X1, signs)
            step = np.linalg.lstsq(hessian, -grad, rcond=None)[0]
            slope = grad @ step
            t = 1.0
            for _ in range(MAX_HALVINGS):
                trial = params + t * step
                trial_loss, trial_grad = self._loss_grad(trial, X1, signs)
                if trial_loss <= loss + ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                break  # optimal to within roundoff
            params, loss, grad = trial, trial_loss, trial_grad
        self.coef_ = params[:-1]
        self.intercept_ = float(params[-1])
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

    def _loss_grad(self, params, X1, signs):
        w = params[:-1]
        slack = np.maximum(0.0, 1.0 - signs * (X1 @ params))
        loss = 0.5 * w @ w + self.C * (slack @ slack)
        # d/dmargin of slack^2 is -2*slack where slack > 0
        grad = X1.T @ (-2.0 * self.C * slack * signs)
        grad[:-1] += w
        return loss, grad

    def _hessian(self, params, X1, signs):
        # generalized Hessian: only samples with margin < 1 curve the loss
        active = X1[signs * (X1 @ params) < 1.0]
        hessian = 2.0 * self.C * (active.T @ active)
        hessian[:-1, :-1] += np.eye(len(params) - 1)
        return hessian


class LogisticRegression(_LinearModel):
    """L2-regularized logistic regression.

    minimizes ``0.5/C ||w||^2 + sum(log(1 + exp(-y_i (w x_i + b))))``
    """

    def _loss_grad(self, params, X1, signs):
        w = params[:-1]
        z = signs * (X1 @ params)
        # log(1 + e^-z) computed stably
        loss = 0.5 / self.C * (w @ w) + np.sum(np.logaddexp(0.0, -z))
        sigma = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        grad = X1.T @ (-signs * sigma)
        grad[:-1] += w / self.C
        return loss, grad

    def _hessian(self, params, X1, signs):
        p = 1.0 / (1.0 + np.exp(-np.clip(X1 @ params, -500, 500)))
        hessian = (X1.T * (p * (1.0 - p))) @ X1
        hessian[:-1, :-1] += np.eye(len(params) - 1) / self.C
        return hessian

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        z = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        return np.column_stack([1.0 - p1, p1])
