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
# relative to the estimate (a backward error, see _arnoldi_radius), and
# gives up after ARNOLDI_MAX_ITER matrix-vector products across restarts.
ARNOLDI_TOL = 1e-8
ARNOLDI_MAX_ITER = 10_000


def _krylov_dim(n: int) -> int:
    # The top eigenvalue moduli of an i.i.d. random matrix cluster within
    # O(n^{-2/3}) of the edge, so the Krylov space must grow with n for the
    # dominant pair's residual to drop in a single pass.
    return min(n, max(40, min(250, n // 4 + 20)))


def spectral_radius(W) -> float:
    """Largest eigenvalue modulus of a square matrix: the package's one
    radius call.

    Up to EIGVALS_CUTOVER rows it comes from LAPACK `eigvals` (exact to
    rounding). Above it, a matrix whose nonzero graph is not strongly
    connected (units whose row and column are both zero left out) takes the
    largest radius of its strongly connected diagonal blocks, each through
    this function, so a zero radius stays exactly zero; any other matrix
    goes to restarted Arnoldi, which is cheaper there. Arnoldi stops once
    the dominant Ritz pair's relative residual is below ARNOLDI_TOL (within
    ARNOLDI_MAX_ITER products): a backward error, so a non-normal matrix's
    radius can be off by more (an upper-triangular matrix plus 1e-12 times
    a random lower part gave 0.687 where `eigvals` gives 0.644). Raises
    DimensionError unless W is a square matrix of at least one row and
    InputError for a non-finite entry.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] == 0:
        raise DimensionError(f"expected a square matrix of at least one row, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise InputError("matrix entries must be finite")
    if W.shape[0] <= EIGVALS_CUTOVER:
        return float(np.abs(np.linalg.eigvals(W)).max())
    components = _strong_components(W)
    if components is None:
        return _arnoldi_radius(W, ARNOLDI_TOL, ARNOLDI_MAX_ITER)
    return max((spectral_radius(W[np.ix_(c, c)]) for c in components), default=0.0)


def _strong_components(W: np.ndarray) -> list[np.ndarray] | None:
    """The strongly connected components of W's nonzero graph (an edge
    i -> j where w_ij != 0) as index arrays, leaving out the units whose row
    and column are both zero; None if the other units form one component.

    Arnoldi rounds a k-fold eigenvalue of a reducible matrix to about the
    k-th root of a rounding error, so a nilpotent matrix's zero radius came
    out positive; eigvals avoids it by permuting W to block triangular
    form, and so does splitting W into these blocks. The check costs O(n^2):
    one reachability sweep each way from one unit. Only a reducible matrix
    pays for its components, by squaring the reachability matrix.
    """
    if W.all():  # no zero entry: one component
        return None
    A = W != 0
    live = np.flatnonzero(A.any(axis=0) | A.any(axis=1))
    if live.size == 0:  # the zero matrix
        return []
    A = A[np.ix_(live, live)]
    if _reaches_all(A) and _reaches_all(A.T):
        return None
    reach = (A | np.eye(live.size, dtype=bool)).astype(float)
    while True:
        closure = (reach @ reach > 0).astype(float)
        if np.array_equal(closure, reach):
            break
        reach = closure
    # a unit's component is labelled by its first mutually reachable unit
    labels = np.argmax((reach * reach.T) > 0, axis=1)
    return [live[labels == label] for label in np.unique(labels)]


def _reaches_all(A: np.ndarray) -> bool:
    """Whether every node of the graph with adjacency matrix A is reached
    from node 0 along its edges."""
    reached = np.zeros(len(A), dtype=bool)
    reached[0] = True
    frontier = np.array([0])
    while frontier.size:
        new = A[frontier].any(axis=0) & ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    return bool(reached.all())


def _arnoldi_radius(W: np.ndarray, tol: float, max_iter: int) -> float:
    """Arnoldi iteration with explicit restarts: repeated matrix-vector
    products build a Krylov subspace whose projected eigenvalues
    approximate the dominant ones. The random matrices used here typically
    carry a complex dominant pair with clustered top moduli, which defeats
    plain power iteration but is routine for a Krylov space sized with the
    matrix. Convergence is declared when the dominant Ritz pair's residual
    drops below `tol` relative to the estimate; `max_iter` caps the total
    number of matrix-vector products across restarts.

    That residual is a backward error: the estimate is an exact eigenvalue
    modulus of a matrix within tol * estimate of W in the 2-norm. For a
    non-normal W the radius itself can be off by far more than tol.

    Raises NumericError (reporting the last estimate) if the cap is reached
    without convergence.
    """
    n = W.shape[0]
    m = _krylov_dim(n)
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)

    floor = 1e-12 * float(np.max(np.abs(W)))
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
    W = np.asarray(W, dtype=float)
    return W * _radius_factors(spectral_radius(W), rho_target)


def _radius_factors(radius: float, rho_target):
    """The factors `rho_target / radius` that take a matrix of spectral
    radius `radius` to the radii `rho_target` (a number or an array). Raises
    InputError for a non-positive target and CannotScaleError for a radius
    too close to zero to rescale or a factor too large for a float."""
    if not np.all(rho_target > 0):  # NaN is not positive either
        raise InputError(f"target spectral radius must be positive, got {np.min(rho_target)}")
    if radius < 1e-12:
        raise CannotScaleError(f"spectral radius {radius!r} is too close to zero to rescale")
    with np.errstate(over="ignore"):
        factors = rho_target / radius
    if not np.all(np.isfinite(factors)):
        raise CannotScaleError(
            f"the scale factor to radius {float(np.max(rho_target))!r} overflows"
        )
    return factors


def _openblas_call(name: str):
    """The ctypes function `name` of numpy's bundled OpenBLAS (scipy-openblas,
    which numpy's core extension links, so its handle resolves the symbol),
    or None when numpy runs on another BLAS."""
    import ctypes  # only here: keeps `--version` fast

    try:
        return getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), name)
    except (AttributeError, OSError):
        return None


def _set_blas_threads(count: int | None) -> None:
    """Run this process's BLAS on `count` threads; None, or another BLAS
    than the bundled OpenBLAS, leaves it as it is."""
    if count is None:
        return
    set_threads = _openblas_call("scipy_openblas_set_num_threads64_")
    if set_threads is not None:
        set_threads(count)


def _blas_threads() -> int | None:
    """The bundled OpenBLAS's thread count in this process, or None when
    numpy runs on another BLAS."""
    get_threads = _openblas_call("scipy_openblas_get_num_threads64_")
    return None if get_threads is None else get_threads()


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
