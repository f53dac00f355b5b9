import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soesn import PowerSpectrum, periodogram, scale_to_spectral_radius, spectral_radius
from soesn.errors import CannotScaleError, DimensionError, InputError
from soesn.numerics import (
    ARNOLDI_MAX_ITER,
    ARNOLDI_TOL,
    EIGVALS_CUTOVER,
    _arnoldi_radius,
    _ritz_vector,
    _strong_components,
)
from soesn.topology import build_sparse

from conftest import naive_dft_power


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((2, 2))) == 0.0

    def test_complex_pair_analytic(self):
        # eigenvalues of [[1,1],[-1,1]] are 1 +/- i, modulus sqrt(2)
        W = np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert spectral_radius(W) == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            spectral_radius(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        W = np.eye(2)
        W[0, 1] = np.nan
        with pytest.raises(InputError):
            spectral_radius(W)

    def test_deterministic(self, rng):
        W = rng.uniform(-0.5, 0.5, (80, 80))
        assert spectral_radius(W) == spectral_radius(W.copy())

    @pytest.mark.parametrize("c", [-2.0, 0.5, 3.0])
    def test_homogeneity(self, rng, c):
        W = rng.uniform(-0.5, 0.5, (60, 60))
        base = spectral_radius(W)
        assert spectral_radius(c * W) == pytest.approx(abs(c) * base, rel=1e-6)

    def test_matches_dense_eigensolver(self):
        for seed in range(10):
            W = np.random.default_rng(seed).uniform(-0.5, 0.5, (100, 100))
            oracle = float(np.max(np.abs(np.linalg.eigvals(W))))
            assert spectral_radius(W) == pytest.approx(oracle, rel=1e-6)

    def test_invariant_krylov_space_is_exact(self):
        # two distinct eigenvalues: Arnoldi's Krylov space closes after two
        # vectors, and its Ritz values are the eigenvalues (the matrix is
        # reducible, so spectral_radius would split it into 1x1 blocks)
        W = np.diag([2.0] + [1.0] * EIGVALS_CUTOVER)
        assert _arnoldi_radius(W, ARNOLDI_TOL, ARNOLDI_MAX_ITER) == 2.0

    def test_irreducible_rank_one_space_is_exact(self):
        # all ones: irreducible, rank one, radius n; the space closes after
        # one vector
        n = EIGVALS_CUTOVER + 1
        assert spectral_radius(np.ones((n, n))) == pytest.approx(n, rel=1e-12)

    def test_arnoldi_of_the_zero_matrix_is_zero(self):
        # the first product is zero, so the space closes at once on the
        # Ritz value 0
        assert _arnoldi_radius(np.zeros((150, 150)), ARNOLDI_TOL, ARNOLDI_MAX_ITER) == 0.0

    def test_non_convergence_reports_last_estimate(self):
        # a circulant shift has every eigenvalue on the unit circle, so no
        # dominant pair can be isolated: the iteration must give up loudly
        from soesn.errors import NumericError

        n = 300
        shift = np.zeros((n, n))
        shift[np.arange(n - 1) + 1, np.arange(n - 1)] = 1.0
        shift[0, n - 1] = 1.0
        with pytest.raises(NumericError, match="last estimate"):
            spectral_radius(shift)


def _eigvals_radius(W):
    return float(np.max(np.abs(np.linalg.eigvals(W))))


class TestSpectralRadii:
    """spectral_radius on both sides of the cutover (LAPACK eigvals up to
    it, Arnoldi above it), and its one input check."""

    @pytest.mark.parametrize("m", [1, 4, 64, EIGVALS_CUTOVER, EIGVALS_CUTOVER + 1, 200])
    def test_matches_max_abs_eigvals(self, m):
        stack = np.random.default_rng(m).uniform(-0.5, 0.5, (3, m, m))
        stack[1] *= 7.0
        for W in stack:
            assert spectral_radius(W) == pytest.approx(_eigvals_radius(W), rel=1e-8)

    def test_zero_matrices(self):
        for m in (3, EIGVALS_CUTOVER + 1):
            assert spectral_radius(np.zeros((m, m))) == 0.0

    # a non-square matrix, a vector and a stack of matrices
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_non_square_stack_rejected(self, shape):
        with pytest.raises(DimensionError):
            spectral_radius(np.ones(shape))

    @pytest.mark.parametrize("radius", [
        spectral_radius, lambda W: scale_to_spectral_radius(W, 1.0),
    ], ids=["spectral_radius", "scale_to_spectral_radius"])
    def test_zero_rows_rejected(self, radius):
        with pytest.raises(DimensionError):
            radius(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_rejected(self, bad):
        for m in (4, EIGVALS_CUTOVER + 1):
            W = np.ones((m, m))
            W[0, m - 1] = bad
            with pytest.raises(InputError):
                spectral_radius(W)


def _triangular(kind, n):
    rng = np.random.default_rng(n)
    if kind == "jordan":  # 0.5 I plus a superdiagonal of ones: radius 0.5
        return 0.5 * np.eye(n) + np.eye(n, k=1)
    return np.triu(rng.uniform(-0.5, 0.5, (n, n)), 1 if kind == "strictly-upper" else 0)


def _assert_eigvals_radius(W):
    oracle = _eigvals_radius(W)
    if oracle == 0.0:
        assert spectral_radius(W) == 0.0
    else:
        assert spectral_radius(W) == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestReducibleAboveCutover:
    """A matrix whose nonzero graph is not strongly connected has repeated
    eigenvalues that Arnoldi rounds to about the k-th root of a rounding
    error: above the cutover it is split into its strongly connected
    blocks, so a zero radius stays zero (eigvals is the oracle)."""

    @pytest.mark.parametrize("n", [EIGVALS_CUTOVER + 1, 200])
    @pytest.mark.parametrize("kind", ["jordan", "strictly-upper", "upper"])
    def test_triangular(self, kind, n):
        _assert_eigvals_radius(_triangular(kind, n))

    @pytest.mark.parametrize("n", [EIGVALS_CUTOVER + 1, 200])
    @pytest.mark.parametrize("density", [0.001, 0.002, 0.004])
    def test_sparse(self, density, n):
        for seed in range(10):
            _assert_eigvals_radius(build_sparse(n, density, seed))

    def test_block_diagonal_is_its_largest_block(self):
        W = np.zeros((120, 120))
        W[:60, :60] = _uniform(1, 60)
        W[60:, 60:] = _uniform(2, 60, 3.0)
        assert spectral_radius(W) == _eigvals_radius(W[60:, 60:])

    def test_zero_rows_and_columns_do_not_split_a_matrix(self):
        # a zero row and column leave the rest one strongly connected
        # block, so the matrix keeps Arnoldi and is not split
        W = np.pad(_uniform(0, EIGVALS_CUTOVER + 1), (0, 1))
        assert _strong_components(W) is None
        assert spectral_radius(W) == _arnoldi_radius(W, ARNOLDI_TOL, ARNOLDI_MAX_ITER)


def test_ritz_vector_survives_an_exactly_singular_shift():
    # theta = 2 is an exact eigenvalue of this triangular H, so H - theta I
    # has an exact zero pivot; the nudged shift still finds e1
    H = np.array([[2.0, 1.0], [0.0, 1.0]])
    y = _ritz_vector(H, 2.0)
    assert np.linalg.norm(y) == pytest.approx(1.0)
    assert abs(y[0]) == pytest.approx(1.0, rel=1e-12)


# Radius properties over matrices drawn as the library draws them (i.i.d.
# uniform entries, seeded), at sizes where the Krylov space is the whole
# space. A defective matrix is left out on purpose: its eigenvalues move by
# the square root of a rounding error, which no estimator pins to 1e-10.
seeds = st.integers(0, 2**32 - 1)


def _uniform(seed, n, scale=1.0):
    return scale * np.random.default_rng(seed).uniform(-0.5, 0.5, (n, n))


class TestRadiusProperties:
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(seeds, st.permutations(range(n)))))
    def test_invariant_under_permutation_similarity(self, drawn):
        seed, perm = drawn
        W = _uniform(seed, len(perm))
        permuted = W[np.ix_(perm, perm)]  # P W P^T
        assert spectral_radius(permuted) == pytest.approx(spectral_radius(W), rel=1e-10)

    @given(st.lists(st.tuples(seeds, st.integers(1, 10), st.floats(0.1, 10.0)),
                    min_size=1, max_size=4))
    def test_block_diagonal_is_max_over_blocks(self, blocks):
        mats = [_uniform(seed, size, scale) for seed, size, scale in blocks]
        n = sum(len(m) for m in mats)
        W = np.zeros((n, n))
        start = 0
        for m in mats:
            W[start:start + len(m), start:start + len(m)] = m
            start += len(m)
        expected = max(spectral_radius(m) for m in mats)
        assert spectral_radius(W) == pytest.approx(expected, rel=1e-10)


class TestScaleToSpectralRadius:
    def test_identity_scaling(self):
        scaled = scale_to_spectral_radius(np.eye(3), 1.25)
        assert np.allclose(scaled, 1.25 * np.eye(3), rtol=1e-9)

    def test_linear_homogeneity(self):
        W = np.diag([2.0, -1.0, 0.5])
        scaled = scale_to_spectral_radius(W, 1.0)
        assert np.allclose(scaled, W / 2.0, rtol=1e-9)

    def test_random_matrix_hits_target(self):
        # independent dense eigensolver re-measures the scaled radius
        W = np.random.default_rng(123).uniform(-0.5, 0.5, (100, 100))
        scaled = scale_to_spectral_radius(W, 1.25)
        measured = float(np.max(np.abs(np.linalg.eigvals(scaled))))
        assert abs(measured - 1.25) <= 1.25e-5

    def test_zero_matrix_cannot_scale(self):
        with pytest.raises(CannotScaleError):
            scale_to_spectral_radius(np.zeros((4, 4)), 1.0)

    def test_bad_target_rejected(self):
        with pytest.raises(InputError):
            scale_to_spectral_radius(np.eye(2), 0.0)

    def test_nan_target_rejected(self):
        with pytest.raises(InputError, match="must be positive"):
            scale_to_spectral_radius(np.eye(2), float("nan"))


class TestPeriodogram:
    def test_constant_signal_all_zero(self):
        spectrum = periodogram(np.full(100, 3.7))
        assert spectrum.bin_count == 51
        assert np.all(spectrum.bin_power <= 1e-10)

    def test_pure_tone_bin(self):
        t = np.arange(100)
        spectrum = periodogram(np.sin(2 * np.pi * 5 * t / 100))
        peak = spectrum.bin_power[5]
        others = np.delete(spectrum.bin_power, 5)
        assert spectrum.dominant_bin() == 5
        assert np.all(others <= 1e-8 * peak)

    def test_two_tone_power_ratio(self):
        t = np.arange(100)
        x = np.sin(2 * np.pi * 3 * t / 100) + 0.5 * np.sin(2 * np.pi * 11 * t / 100)
        spectrum = periodogram(x)
        assert spectrum.bin_power[3] / spectrum.bin_power[11] == pytest.approx(4.0, rel=1e-6)
        oracle = naive_dft_power(x)
        assert np.max(np.abs(spectrum.bin_power - oracle)) <= 1e-9

    def test_against_naive_dft(self, rng):
        for length in (8, 17, 32, 100, 101):
            x = rng.normal(0.0, 1.0, length)
            spectrum = periodogram(x)
            oracle = naive_dft_power(x)
            assert spectrum.bin_count == length // 2 + 1
            assert np.max(np.abs(spectrum.bin_power - oracle)) <= 1e-9

    def test_parseval(self, rng):
        x = rng.normal(0.0, 1.0, 128)
        power = periodogram(x).bin_power
        # one-sided bins: double everything except DC and Nyquist
        total = power[0] + power[-1] + 2.0 * power[1:-1].sum()
        assert total == pytest.approx(x.var() * len(x), rel=1e-6)

    def test_offset_invariance(self, rng):
        x = rng.normal(0.0, 1.0, 100)
        shifted = periodogram(x + 5.0).bin_power
        base = periodogram(x).bin_power
        assert np.max(np.abs(shifted - base)) <= 1e-10

    def test_dc_bin_is_numerically_zero(self, rng):
        x = rng.normal(3.0, 1.0, 100)
        assert periodogram(x).bin_power[0] <= 1e-10

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            periodogram(np.ones(7))

    def test_non_finite_rejected(self):
        x = np.ones(32)
        x[3] = np.inf
        with pytest.raises(InputError):
            periodogram(x)

    def test_powers_non_negative(self, rng):
        spectrum = periodogram(rng.normal(0, 1, 64))
        assert np.all(spectrum.bin_power >= 0.0)
