"""Numeric kernels used by every other module: spectral radius estimation,
matrix rescaling to a target radius, and periodogram computation."""

from dataclasses import dataclass

import numpy as np

from .errors import CannotScaleError, DimensionError, InputError, NumericError

# Fixed start seed so radius estimates are reproducible for a given matrix.
_START_SEED = 0x5EED


def _krylov_dim(n: int) -> int:
    # The top eigenvalue moduli of an i.i.d. random matrix cluster within
    # O(n^{-2/3}) of the edge, so the Krylov space must grow with n for the
    # dominant pair's residual to drop in a single pass.
    return min(n, max(40, min(250, n // 4 + 20)))


def _as_square(W) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise InputError("matrix entries must be finite")
    return W


def spectral_radius(W, tol: float = 1e-8, max_iter: int = 10_000) -> float:
    """Largest eigenvalue modulus of a square matrix.

    Arnoldi iteration with explicit restarts: repeated matrix-vector
    products build a Krylov subspace whose projected eigenvalues
    approximate the dominant ones. The random matrices used here typically
    carry a complex dominant pair with clustered top moduli, which defeats
    plain power iteration but is routine for a Krylov space sized with the
    matrix. Convergence is declared when the dominant Ritz pair's residual
    drops below `tol` relative to the estimate; `max_iter` caps the total
    number of matrix-vector products across restarts.

    Raises NumericError (reporting the last estimate) if the cap is reached
    without convergence.
    """
    W = _as_square(W)
    n = W.shape[0]
    if n == 1:
        return float(abs(W[0, 0]))
    scale = float(np.max(np.abs(W)))
    if scale == 0.0:
        return 0.0

    m = _krylov_dim(n)
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)

    floor = 1e-12 * scale
    estimate = 0.0
    matvecs = 0
    while matvecs < max_iter:
        V = np.empty((n, m + 1))
        H = np.zeros((m + 1, m))
        V[:, 0] = v
        exact = False
        k = m
        for j in range(m):
            w = W @ V[:, j]
            matvecs += 1
            # classical Gram-Schmidt with one reorthogonalization pass
            basis = V[:, : j + 1]
            h = basis.T @ w
            w -= basis @ h
            correction = basis.T @ w
            w -= basis @ correction
            H[: j + 1, j] = h + correction
            beta = np.linalg.norm(w)
            H[j + 1, j] = beta
            if beta <= floor:
                # the Krylov space is invariant: its Ritz values are exact
                exact = True
                k = j + 1
                break
            V[:, j + 1] = w / beta
        values, vectors = np.linalg.eig(H[:k, :k])
        top = int(np.argmax(np.abs(values)))
        theta = values[top]
        y = vectors[:, top]
        estimate = float(abs(theta))
        if exact:
            return estimate
        residual = H[k, k - 1] * abs(y[-1])
        if residual <= tol * max(estimate, floor):
            return estimate
        # restart from the dominant Ritz vector (its real span carries a
        # complex pair just as well)
        x = V[:, :k] @ y
        v = np.real(x)
        norm = np.linalg.norm(v)
        if norm <= floor:
            v = np.imag(x)
            norm = np.linalg.norm(v)
        v = v / norm
    raise NumericError(
        f"spectral radius did not converge within {max_iter} matrix-vector "
        f"products (last estimate {estimate!r})"
    )


def scale_to_spectral_radius(W, rho_target: float) -> np.ndarray:
    """Rescale W so its spectral radius equals `rho_target`.

    Eigenvalues are homogeneous in the matrix, so a single multiplicative
    factor suffices. A matrix with (numerically) zero radius cannot be
    scaled and raises CannotScaleError.
    """
    W = _as_square(W)
    if rho_target <= 0:
        raise InputError(f"target spectral radius must be positive, got {rho_target}")
    rho = spectral_radius(W)
    if rho < 1e-12:
        raise CannotScaleError(
            f"spectral radius {rho!r} is too close to zero to rescale"
        )
    return W * (rho_target / rho)


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided power spectrum of a real series: bins 0..floor(n/2)."""

    bin_power: np.ndarray
    sample_count: int

    @property
    def bin_count(self) -> int:
        return len(self.bin_power)

    def dominant_bin(self, skip_dc: bool = True) -> int:
        """Index of the strongest bin (by default ignoring DC)."""
        if skip_dc:
            return int(np.argmax(self.bin_power[1:])) + 1
        return int(np.argmax(self.bin_power))


def periodogram(signal) -> PowerSpectrum:
    """Rectangular-window periodogram of a mean-removed real series.

    bin_power[k] = |DFT_k(x - mean(x))|^2 / n for k = 0..floor(n/2).
    No zero padding and no taper, so the result is exactly checkable
    against a direct DFT. Mean removal leaves the DC bin at numerical
    zero rather than the signal's offset.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise InputError(f"signal must be one-dimensional, got shape {x.shape}")
    n = x.shape[0]
    if n < 8:
        raise InputError(f"signal too short for a periodogram: {n} < 8 samples")
    if not np.all(np.isfinite(x)):
        raise InputError("signal values must be finite")
    return PowerSpectrum(bin_power=_column_periodogram(x), sample_count=n)


def _column_periodogram(x: np.ndarray) -> np.ndarray:
    # periodogram's arithmetic down axis 0, one spectrum per column (the
    # classifier's batch path uses it unchecked)
    spectrum = np.fft.rfft(x - x.mean(axis=0), axis=0)
    return (spectrum.real**2 + spectrum.imag**2) / x.shape[0]
