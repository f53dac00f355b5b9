import numpy as np
import pytest

from soesn import ReadoutModel, nrmse, predict, train_ridge
from soesn.errors import DimensionError, InputError, UndefinedMetricError

from conftest import ridge_oracle


class TestNrmse:
    def test_identical_series(self, rng):
        y = rng.normal(0, 1, 50)
        assert nrmse(y, y) == 0.0

    def test_constant_mean_prediction_is_one(self, rng):
        y = rng.normal(0, 1, 200)
        prediction = np.full_like(y, y.mean())
        assert nrmse(y, prediction) == pytest.approx(1.0, rel=1e-12)

    def test_constant_offset(self, rng):
        y = rng.normal(0, 2, 100)
        c = 0.7
        assert nrmse(y, y + c) == pytest.approx(c / y.std(), rel=1e-12)

    def test_zero_variance_truth_rejected(self):
        with pytest.raises(UndefinedMetricError):
            nrmse(np.ones(10), np.zeros(10))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            nrmse(np.ones(5), np.ones(6))


class TestTrainRidge:
    def test_recovers_exact_linear_model(self, rng):
        # orthonormal columns, nearly no regularization: W_out ~ B
        Q, _ = np.linalg.qr(rng.normal(0, 1, (50, 8)))
        B = rng.normal(0, 1, (8, 3))
        model = train_ridge(Q, Q @ B, ridge_lambda=1e-12, washout=0)
        assert np.max(np.abs(model.W_out - B)) <= 1e-6

    def test_matches_normal_equation_oracle(self, rng):
        X = rng.normal(0, 1, (200, 20))
        Y = rng.normal(0, 1, (200, 3))
        model = train_ridge(X, Y, ridge_lambda=1e-8, washout=0)
        oracle = ridge_oracle(X, Y, 1e-8)
        assert np.max(np.abs(model.W_out - oracle)) / np.max(np.abs(oracle)) <= 1e-6

    def test_normal_equation_residual_bound(self, rng):
        X = rng.normal(0, 1, (300, 40))
        Y = rng.normal(0, 1, (300, 2))
        lam = 1e-8
        model = train_ridge(X, Y, ridge_lambda=lam, washout=0)
        A = X.T @ X + lam * np.eye(40)
        B = X.T @ Y
        assert np.linalg.norm(A @ model.W_out - B) <= 1e-8 * np.linalg.norm(B)

    def test_zero_target_gives_zero_weights(self, rng):
        X = rng.normal(0, 1, (100, 10))
        model = train_ridge(X, np.zeros((100, 2)), washout=10)
        assert np.max(np.abs(model.W_out)) <= 1e-12
        assert np.all(np.isnan(model.train_nrmse))

    def test_washout_drops_leading_rows(self, rng):
        X = rng.normal(0, 1, (150, 6))
        Y = rng.normal(0, 1, (150, 1))
        with_washout = train_ridge(X, Y, washout=50)
        pre_sliced = train_ridge(X[50:], Y[50:], washout=0)
        assert np.array_equal(with_washout.W_out, pre_sliced.W_out)

    def test_too_few_rows_for_washout(self, rng):
        X = rng.normal(0, 1, (100, 4))
        Y = rng.normal(0, 1, (100, 1))
        with pytest.raises(InputError):
            train_ridge(X, Y, washout=100)
        with pytest.raises(InputError):
            train_ridge(X, Y, washout=99)

    def test_lambda_zero_warns_but_solves(self, rng):
        X = rng.normal(0, 1, (60, 5))
        Y = rng.normal(0, 1, (60, 1))
        with pytest.warns(UserWarning, match="least squares"):
            model = train_ridge(X, Y, ridge_lambda=0.0, washout=0)
        assert np.all(np.isfinite(model.W_out))

    def test_negative_lambda_rejected(self, rng):
        with pytest.raises(InputError):
            train_ridge(np.ones((10, 2)), np.ones((10, 1)), ridge_lambda=-1.0)

    def test_ridge_residual_monotone_in_lambda(self, rng):
        X = rng.normal(0, 1, (120, 15))
        Y = rng.normal(0, 1, (120, 2))
        residuals = []
        for lam in (1e-8, 1e-4, 1e-1):
            model = train_ridge(X, Y, ridge_lambda=lam, washout=0)
            residuals.append(np.linalg.norm(X @ model.W_out - Y))
        assert residuals[0] <= residuals[1] <= residuals[2]

    def test_ridge_shrinkage(self, rng):
        X = rng.normal(0, 1, (120, 15))
        Y = rng.normal(0, 1, (120, 2))
        norms = [
            np.linalg.norm(train_ridge(X, Y, ridge_lambda=lam, washout=0).W_out)
            for lam in (1e-8, 1e-4, 1e-1)
        ]
        assert norms[0] >= norms[1] >= norms[2]

    def test_zero_variance_feature_columns_survive(self, rng):
        # damped units contribute constant (zero-variance) state columns
        X = rng.normal(0, 1, (100, 8))
        X[:, 3] = 0.42
        X[:, 6] = 0.0
        Y = rng.normal(0, 1, (100, 1))
        model = train_ridge(X, Y, ridge_lambda=1e-8, washout=0)
        assert np.all(np.isfinite(model.W_out))

    def test_oracle_equivalence_larger_instance(self, rng):
        X = rng.normal(0, 1, (400, 200))
        Y = rng.normal(0, 1, (400, 1))
        model = train_ridge(X, Y, ridge_lambda=1e-6, washout=0)
        oracle = ridge_oracle(X, Y, 1e-6)
        assert np.max(np.abs(model.W_out - oracle)) / np.max(np.abs(oracle)) <= 1e-6


class TestPredict:
    def test_zero_weights(self, rng):
        model = ReadoutModel(np.zeros((5, 2)), 1e-8, np.zeros(2))
        assert np.all(predict(model, rng.normal(0, 1, (10, 5))) == 0.0)

    def test_identity_weights_echo_state(self, rng):
        X = rng.normal(0, 1, (10, 4))
        model = ReadoutModel(np.eye(4), 1e-8, np.zeros(4))
        assert np.array_equal(predict(model, X), X)

    def test_self_consistency_with_recorded_nrmse(self, rng):
        X = rng.normal(0, 1, (200, 12))
        Y = rng.normal(0, 1, (200, 2))
        washout = 40
        model = train_ridge(X, Y, washout=washout)
        prediction = predict(model, X[washout:])
        from soesn import nrmse as metric
        for j in range(2):
            recorded = model.train_nrmse[j]
            assert metric(Y[washout:, j], prediction[:, j]) == pytest.approx(recorded, abs=1e-15)

    def test_dimension_mismatch_rejected(self, rng):
        model = ReadoutModel(np.zeros((5, 2)), 1e-8, np.zeros(2))
        with pytest.raises(DimensionError):
            predict(model, rng.normal(0, 1, (10, 4)))

