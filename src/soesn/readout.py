"""Linear readout trained by ridge regression on recorded unit states.

The output is a pure linear map of the state (no bias column, no output
nonlinearity): targets with a nonzero mean have to be carried by DC content
in the states themselves.
"""

import ctypes
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, UndefinedMetricError
from .numerics import _openblas_call


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

    Solves (X'X + lambda*I) W = X'Y through one LU factorization of the
    regularized normal equations (never an explicit inverse), used for the
    solve and for one refinement pass that tightens the residual. With
    numpy's bundled OpenBLAS the factorization is LAPACK `getrf` and each
    solve `getrs`, which is what `np.linalg.solve` (LAPACK `gesv`) runs, so
    at one BLAS thread the weights are those of two `solve` calls bit for
    bit; under another BLAS the fit makes those two calls. An exactly
    singular system raises numpy's LinAlgError. For lambda = 0 the system
    may be singular, so that case falls back to a least-squares solve and
    emits a note instead of failing.
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
        W_out = _refined_solve(A, Xw.T @ Yw)

    prediction = Xw @ W_out
    errors = np.empty(Y.shape[1])
    for j in range(Y.shape[1]):
        sd = float(Yw[:, j].std())
        if sd == 0.0:
            errors[j] = np.nan
        else:
            errors[j] = nrmse(Yw[:, j], prediction[:, j])
    return ReadoutModel(W_out=W_out, ridge_lambda=ridge_lambda, train_nrmse=errors)


_DOUBLES = ctypes.POINTER(ctypes.c_double)
_INT64S = ctypes.POINTER(ctypes.c_int64)


def _refined_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # A^-1 B plus one refinement pass, A factorized once
    routines = _lu_routines()
    if routines is None:
        W = np.linalg.solve(A, B)
        W += np.linalg.solve(A, B - A @ W)
        return W
    getrf, getrs = routines
    n, k = B.shape
    # LAPACK's column-major float64 layout, as gesv gets it
    lu = np.array(A, dtype=np.float64, order="F")
    pivots = np.empty(n, dtype=np.int64)
    size, targets, lead = ctypes.c_int64(n), ctypes.c_int64(k), ctypes.c_int64(max(1, n))
    info = ctypes.c_int64(0)
    getrf(size, size, lu.ctypes.data_as(_DOUBLES), lead, pivots.ctypes.data_as(_INT64S), info)
    if info.value != 0:
        raise np.linalg.LinAlgError("Singular matrix")

    def solve(rhs):
        X = np.array(rhs, dtype=np.float64, order="F")
        getrs(b"N", size, targets, lu.ctypes.data_as(_DOUBLES), lead,
              pivots.ctypes.data_as(_INT64S), X.ctypes.data_as(_DOUBLES), lead, info)
        return np.ascontiguousarray(X)  # solve's layout, for the product with A

    W = solve(B)
    W += solve(B - A @ W)
    return W


@functools.cache
def _lu_routines():
    """LAPACK `dgetrf` and `dgetrs` of numpy's bundled OpenBLAS (64-bit
    integers, column-major matrices), looked up once per process, or None
    when numpy runs on another BLAS."""
    getrf = _openblas_call("scipy_dgetrf_64_")
    getrs = _openblas_call("scipy_dgetrs_64_")
    if getrf is None or getrs is None:
        return None
    # (m, n, a, lda, ipiv, info) and (trans, n, nrhs, a, lda, ipiv, b, ldb, info)
    getrf.argtypes = [_INT64S, _INT64S, _DOUBLES, _INT64S, _INT64S, _INT64S]
    getrs.argtypes = [ctypes.c_char_p, _INT64S, _INT64S, _DOUBLES, _INT64S, _INT64S,
                      _DOUBLES, _INT64S, _INT64S]
    getrf.restype = getrs.restype = None
    return getrf, getrs


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
