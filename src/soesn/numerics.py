"""Numeric kernels used by every other module: spectral radius estimation,
matrix rescaling to a target radius, and periodogram computation."""

from dataclasses import dataclass

import numpy as np

from .errors import CannotScaleError, DimensionError, InputError, NumericError

# Fixed start seed so radius estimates are reproducible for a given matrix.
_START_SEED = 0x5EED

# Matrices with at most this many rows take their radius from LAPACK
# `eigvals`, larger ones from restarted Arnoldi: the side at which the two
# cost the same with one BLAS thread (measured on a 2-vCPU x86-64 host,
# numpy 2.4.6 / OpenBLAS 0.3.31).
EIGVALS_CUTOVER = 100

# Arnoldi stops when the dominant Ritz pair's residual is below ARNOLDI_TOL
# relative to the estimate, and gives up after ARNOLDI_MAX_ITER
# matrix-vector products across restarts.
ARNOLDI_TOL = 1e-8
ARNOLDI_MAX_ITER = 10_000


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


def spectral_radius(W) -> float:
    """Largest eigenvalue modulus of a square matrix: the one-matrix case of
    spectral_radii."""
    W = _as_square(W)
    return float(spectral_radii(W[None])[0])


def spectral_radii(stack) -> np.ndarray:
    """Largest eigenvalue modulus of each matrix of a (k, m, m) stack.

    Up to EIGVALS_CUTOVER rows the whole stack goes through one LAPACK
    `eigvals` call (exact to rounding); above it each matrix gets its own
    restarted Arnoldi estimate, which is cheaper there (to ARNOLDI_TOL,
    within ARNOLDI_MAX_ITER products). Raises DimensionError for a stack of
    non-square matrices and InputError for a non-finite entry.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(
            f"expected a (k, m, m) stack of square matrices, got shape {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise InputError("matrix entries must be finite")
    if stack.shape[1] <= EIGVALS_CUTOVER:
        return np.abs(np.linalg.eigvals(stack)).max(axis=-1)
    return np.array([_arnoldi_radius(W, ARNOLDI_TOL, ARNOLDI_MAX_ITER) for W in stack])


def _arnoldi_radius(W: np.ndarray, tol: float, max_iter: int) -> float:
    """Arnoldi iteration with explicit restarts: repeated matrix-vector
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
    n = W.shape[0]
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
        values = np.linalg.eigvals(H[:k, :k])
        theta = values[int(np.argmax(np.abs(values)))]
        estimate = float(abs(theta))
        if exact:
            return estimate
        y = _ritz_vector(H[:k, :k], theta)
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


def _ritz_vector(H: np.ndarray, theta: complex) -> np.ndarray:
    # One step of inverse iteration from the all-ones vector: theta is an
    # eigenvalue of H to rounding, so a single solve with H - theta I lands
    # on its eigenvector (unit norm, as eig would return it). A shift that
    # is exactly singular is nudged by a relative rounding step.
    shifted = H - theta * np.eye(len(H))
    ones = np.ones(len(H))
    try:
        y = np.linalg.solve(shifted, ones)
    except np.linalg.LinAlgError:
        nudge = np.finfo(float).eps * max(abs(theta), 1.0)
        y = np.linalg.solve(shifted - nudge * np.eye(len(H)), ones)
    return y / np.linalg.norm(y)


def scale_to_spectral_radius(W, rho_target: float) -> np.ndarray:
    """Rescale W so its spectral radius equals `rho_target`.

    Eigenvalues are homogeneous in the matrix, so a single multiplicative
    factor suffices. A matrix with (numerically) zero radius cannot be
    scaled and raises CannotScaleError.
    """
    W = _as_square(W)
    return W * _radius_factors(spectral_radius(W), rho_target)


def _radius_factors(radii, rho_target):
    """The factors `rho_target / radii` that take matrices of spectral radii
    `radii` to the radii `rho_target` (each a number or an array). Raises
    InputError for a non-positive target and CannotScaleError for a radius
    too close to zero to rescale."""
    if np.min(rho_target) <= 0:
        raise InputError(f"target spectral radius must be positive, got {np.min(rho_target)}")
    smallest = float(np.min(radii))
    if smallest < 1e-12:
        raise CannotScaleError(
            f"spectral radius {smallest!r} is too close to zero to rescale"
        )
    return rho_target / radii


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided power spectrum of a real series: bins 0..floor(n/2)."""

    bin_power: np.ndarray
    sample_count: int

    @property
    def bin_count(self) -> int:
        return len(self.bin_power)

    def dominant_bin(self) -> int:
        """Index of the strongest non-DC bin."""
        return int(np.argmax(self.bin_power[1:])) + 1


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
    return PowerSpectrum(bin_power=_centered_power(x - x.mean(axis=0)), sample_count=n)


def _centered_power(centered: np.ndarray) -> np.ndarray:
    # periodogram's arithmetic down axis 0 of mean-removed columns, one
    # spectrum per column (the classifier's batch path uses it unchecked);
    # the power is formed in the spectrum's own real parts, so a wide batch
    # allocates no more than its spectrum
    spectrum = np.fft.rfft(centered, axis=0)
    power, imag = spectrum.real, spectrum.imag
    power *= power
    imag *= imag
    power += imag
    power /= centered.shape[0]
    return power
