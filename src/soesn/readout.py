"""Linear readout trained by ridge regression on recorded unit states.

The output is a pure linear map of the state (no bias column, no output
nonlinearity): targets with a nonzero mean have to be carried by DC content
in the states themselves.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, UndefinedMetricError


@dataclass
class ReadoutModel:
    """Trained output weights plus the per-dimension training error.

    `train_nrmse` holds NaN for target dimensions with zero variance, where
    the metric is undefined.
    """

    W_out: np.ndarray
    ridge_lambda: float
    train_nrmse: np.ndarray


def nrmse(y_true, y_pred) -> float:
    """Root-mean-square error normalized by the standard deviation of the
    truth: 0 is perfect, 1 matches always predicting the mean."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.ndim != 1 or y_pred.ndim != 1:
        raise InputError("nrmse expects one-dimensional series")
    if y_true.shape != y_pred.shape:
        raise DimensionError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.shape[0] < 2:
        raise InputError("need at least two samples")
    sd = float(y_true.std())
    if sd == 0.0:
        raise UndefinedMetricError("nrmse is undefined for a zero-variance truth")
    return float(np.sqrt(np.mean((y_pred - y_true) ** 2)) / sd)


def train_ridge(X, Y, ridge_lambda: float = 1e-8, washout: int = 100) -> ReadoutModel:
    """Fit output weights by ridge regression on the post-washout rows.

    Solves (X'X + lambda*I) W = X'Y through a factorization of the
    regularized normal equations (never an explicit inverse), with one
    refinement pass to tighten the residual. For lambda = 0 the system may
    be singular, so that case falls back to a least-squares solve and emits
    a note instead of failing.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2:
        raise InputError("X and Y must be 2-D (rows are timesteps)")
    if X.shape[0] != Y.shape[0]:
        raise DimensionError(f"row mismatch: X has {X.shape[0]}, Y has {Y.shape[0]}")
    if not 0 <= ridge_lambda < np.inf:
        raise InputError(f"ridge parameter must be finite and non-negative, got {ridge_lambda}")
    if washout < 0:
        raise InputError("washout must be non-negative")
    if X.shape[0] - washout < 2:
        raise InputError(
            f"only {X.shape[0]} rows for washout {washout}; need at least washout + 2"
        )

    Xw = X[washout:]
    Yw = Y[washout:]

    if ridge_lambda == 0.0:
        warnings.warn(
            "ridge_lambda = 0: solving unregularized least squares; "
            "a singular state matrix is resolved by the minimum-norm solution",
            stacklevel=2,
        )
        W_out, *_ = np.linalg.lstsq(Xw, Yw, rcond=None)
    else:
        A = Xw.T @ Xw
        A.flat[:: A.shape[0] + 1] += ridge_lambda  # the diagonal, in place
        B = Xw.T @ Yw
        W_out = np.linalg.solve(A, B)
        W_out += np.linalg.solve(A, B - A @ W_out)

    prediction = Xw @ W_out
    errors = np.empty(Y.shape[1])
    for j in range(Y.shape[1]):
        sd = float(Yw[:, j].std())
        if sd == 0.0:
            errors[j] = np.nan
        else:
            errors[j] = nrmse(Yw[:, j], prediction[:, j])
    return ReadoutModel(W_out=W_out, ridge_lambda=ridge_lambda, train_nrmse=errors)


def predict(model: ReadoutModel, X) -> np.ndarray:
    """Readout outputs for a state matrix: X @ W_out, nothing else."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InputError("X must be 2-D (rows are timesteps)")
    if X.shape[1] != model.W_out.shape[0]:
        raise DimensionError(
            f"state width {X.shape[1]} does not match readout input {model.W_out.shape[0]}"
        )
    return X @ model.W_out
