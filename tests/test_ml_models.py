"""Tests for the linear classifiers (SVM, logistic regression, LDA)."""

import warnings

import numpy as np
import pytest

from repro.ml.lda import LinearDiscriminantAnalysis
from repro.ml.linear import LinearSVM, LogisticRegression
from repro.ml.pipeline import ClassifierPipeline


def separable_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=[-2, -2], scale=0.6, size=(n // 2, 2))
    X1 = rng.normal(loc=[2, 2], scale=0.6, size=(n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    order = rng.permutation(n)
    return X[order], y[order]


def noisy_data(n=200, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    w = np.array([1.5, -2.0, 0.5, 0.0])
    y = ((X @ w + 0.3 * rng.normal(size=n)) > 0).astype(int)
    return X, y


MODELS = [LinearSVM, LogisticRegression, LinearDiscriminantAnalysis]


@pytest.mark.parametrize("model_cls", MODELS)
class TestAllModels:
    def test_separable_perfect(self, model_cls):
        X, y = separable_data()
        model = model_cls().fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_noisy_above_chance(self, model_cls):
        X, y = noisy_data()
        model = model_cls().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.85

    def test_decision_function_sign_matches_predict(self, model_cls):
        X, y = separable_data()
        model = model_cls().fit(X, y)
        scores = model.decision_function(X)
        assert np.array_equal(model.predict(X), (scores >= 0).astype(int))

    def test_unfitted_raises(self, model_cls):
        with pytest.raises(RuntimeError):
            model_cls().predict(np.ones((2, 2)))


class TestLogisticRegression:
    def test_predict_proba_valid(self):
        X, y = separable_data()
        model = LogisticRegression().fit(X, y)
        probs = model.predict_proba(X)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_confident_on_separable(self):
        X, y = separable_data()
        model = LogisticRegression(C=10.0).fit(X, y)
        probs = model.predict_proba(X)
        assert probs.max(axis=1).mean() > 0.9


def objective_gradient(model, X, y):
    """Gradient over ``[w, b]`` of the loss the model's docstring states,
    at the fitted parameters (written out here, not taken from the
    model, so a wrong model gradient cannot pass)."""
    signs = np.where(y > 0, 1.0, -1.0)
    w, b = model.coef_, model.intercept_
    z = signs * (X @ w + b)
    if isinstance(model, LinearSVM):
        dz = -2.0 * model.C * np.maximum(0.0, 1.0 - z)
        reg = w
    else:
        dz = -1.0 / (1.0 + np.exp(z))
        reg = w / model.C
    return np.append(reg + X.T @ (dz * signs), np.sum(dz * signs))


def degenerate_inputs():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    y = (X[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(int)
    return {
        "all_negative": (X, np.zeros(40, dtype=int)),
        "all_positive": (X, np.ones(40, dtype=int)),
        "duplicated_column": (np.column_stack([X, X[:, 0]]), y),
        "zero_column": (np.column_stack([X, np.zeros(40)]), y),
        "fewer_samples_than_features": (X[:4].repeat(3, axis=1), y[:4]),
    }


@pytest.mark.parametrize("model_cls", [LinearSVM, LogisticRegression])
class TestNewtonSolver:
    def test_fit_is_stationary(self, model_cls):
        for X, y in (separable_data(), noisy_data()):
            for C in (0.1, 1.0, 10.0):
                model = model_cls(C=C).fit(X, y)
                assert np.abs(objective_gradient(model, X, y)).max() <= 1e-8

    @pytest.mark.parametrize("case", sorted(degenerate_inputs()))
    def test_degenerate_input_finishes_finite(self, model_cls, case):
        X, y = degenerate_inputs()[case]
        model = model_cls(max_iter=50)
        hessian = model._hessian
        steps = []

        def counted_hessian(*args):
            steps.append(args)
            return hessian(*args)

        model._hessian = counted_hessian
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.fit(X, y)
        assert len(steps) <= model.max_iter
        assert np.isfinite(model.coef_).all() and np.isfinite(model.intercept_)
        if len(set(y)) == 1:
            assert (model.predict(X) == y).all()
        else:
            assert np.abs(objective_gradient(model, X, y)).max() <= 1e-8


class TestLinearSVMClosedForm:
    def test_all_margins_active_is_a_linear_solve(self):
        # heavy class overlap and a small C keep every margin below 1,
        # where the squared hinge is the quadratic sum((y_i - x_i w - b)^2)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        y = (X[:, 1] + 2.0 * rng.normal(size=60) > 0).astype(int)
        signs = np.where(y > 0, 1.0, -1.0)
        C = 0.01
        model = LinearSVM(C=C).fit(X, y)
        assert (signs * model.decision_function(X) < 1.0).all()
        X1 = np.column_stack([X, np.ones(60)])
        lhs = 2.0 * C * X1.T @ X1 + np.diag([1.0, 1.0, 1.0, 0.0])
        expected = np.linalg.solve(lhs, 2.0 * C * X1.T @ signs)
        fitted = np.append(model.coef_, model.intercept_)
        assert np.allclose(fitted, expected, rtol=0, atol=1e-12)


class TestLDA:
    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            LinearDiscriminantAnalysis().fit(np.ones((4, 2)), np.zeros(4))

    def test_weights_direction(self):
        X, y = separable_data()
        model = LinearDiscriminantAnalysis().fit(X, y)
        # class 1 lies toward (+,+): both weights positive
        assert (model.coef_ > 0).all()


class TestPipeline:
    def test_fit_predict(self):
        X, y = noisy_data()
        pipe = ClassifierPipeline(LinearSVM(), n_components=0.99).fit(X, y)
        assert (pipe.predict(X) == y).mean() > 0.85

    def test_feature_weights_shape(self):
        X, y = noisy_data()
        pipe = ClassifierPipeline(LinearSVM(), n_components=3).fit(X, y)
        assert pipe.feature_weights().shape == (4,)

    def test_feature_weights_without_pca(self):
        X, y = noisy_data()
        pipe = ClassifierPipeline(LinearSVM()).fit(X, y)
        assert pipe.feature_weights().shape == (4,)

    def test_weights_identify_informative_features(self):
        X, y = noisy_data()
        pipe = ClassifierPipeline(LogisticRegression()).fit(X, y)
        w = np.abs(pipe.feature_weights())
        # feature 3 is pure noise: weakest weight
        assert w[3] == w.min()

    def test_decision_function(self):
        X, y = separable_data()
        pipe = ClassifierPipeline(LinearSVM(), n_components=2).fit(X, y)
        scores = pipe.decision_function(X)
        assert np.array_equal(pipe.predict(X), (scores >= 0).astype(int))
