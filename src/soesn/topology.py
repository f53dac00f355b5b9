"""Weight-matrix construction: dense and sparse random reservoirs, block
(sub-reservoir) layouts with optional weak inter-block coupling, and the
calibrated two-neuron oscillator ensemble that can be spliced into any of
them to seed oscillation."""

from dataclasses import asdict, dataclass, field, fields
from functools import cache

import numpy as np

from .errors import ConfigError, InputError
from .numerics import _radius_factors, scale_to_spectral_radius, spectral_radii
from .oscillation import classify_trajectory
from .reservoir import Reservoir, init_state
from .seeding import check_seed

VALID_KINDS = ("dense", "sparse", "block_diagonal", "weakly_coupled")

# Internal seed for the standalone oscillation check of candidate ensembles.
_ENSEMBLE_CHECK_SEED = 1912


def _conforms(value, kind) -> bool:
    if getattr(kind, "__origin__", None) is tuple:  # tuple[T, ...]: a JSON list
        element = kind.__args__[0]
        return isinstance(value, (list, tuple)) and all(_conforms(v, element) for v in value)
    if hasattr(kind, "__args__"):  # T | None
        return any(_conforms(value, k) for k in kind.__args__)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, int) or (isinstance(value, float) and bool(np.isfinite(value)))
    return isinstance(value, kind)


class ConfigFields:
    """JSON round trip for a config dataclass.

    `to_dict` is the payload a run echoes. `from_dict` fills omitted fields
    from the defaults and raises ConfigError for an unknown field, a value
    of the wrong type (a bool is not an int, an int is a float, a float must
    be finite, a list is a tuple, and a field typed as another config class
    takes a nested object) or a value the class's own checks reject. A list
    is stored as a tuple, its numbers as given, so the built config equals
    and hashes like one built in code and echoes the same bytes.
    """

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data, label: str | None = None):
        label = label or cls.__name__
        if not isinstance(data, dict):
            raise ConfigError(f"{label} must be a JSON object, got {data!r}")
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown {label} fields: {sorted(unknown)}")
        values = {}
        for name, value in data.items():
            kind = kinds[name]
            if hasattr(kind, "from_dict"):
                value = kind.from_dict(value, f"{label}.{name}")
            elif not _conforms(value, kind):
                expected = kind.__name__ if isinstance(kind, type) else kind
                raise ConfigError(f"{label}.{name} must be {expected}, got {value!r}")
            elif isinstance(value, list):  # only tuple fields take one
                value = tuple(value)
            values[name] = value
        try:
            return cls(**values)
        except ConfigError:
            raise
        except InputError as exc:
            raise ConfigError(f"{label}: {exc}") from exc


@dataclass(frozen=True)
class TopologySpec(ConfigFields):
    """Declarative recipe for a reservoir weight matrix; frozen, and checked
    once when built (dataclasses.replace builds a checked copy).

    `density` applies to the sparse kind, `sub_count` and the coupling fields
    to the block kinds. Population is split into near-equal contiguous blocks
    (sizes differ by at most one when `n` is not divisible by `sub_count`).
    """

    kind: str = "dense"
    n: int = 100
    density: float = 0.1
    sub_count: int = 1
    coupling_scale: float = 0.05
    coupling_density: float = 0.05
    inject_ensemble: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InputError(f"unknown topology kind {self.kind!r}; choose from {VALID_KINDS}")
        if self.n < 1:
            raise InputError("population n must be at least 1")
        if not 0.0 < self.density <= 1.0:
            raise InputError(f"density must lie in (0, 1], got {self.density}")
        if not 1 <= self.sub_count <= self.n:
            raise InputError(f"sub_count must lie in [1, n], got {self.sub_count}")
        if self.coupling_scale < 0.0:
            raise InputError("coupling_scale must be non-negative")
        if not 0.0 <= self.coupling_density <= 1.0:
            raise InputError(f"coupling_density must lie in [0, 1], got {self.coupling_density}")
        if self.inject_ensemble and self.n < 2:
            raise InputError(f"the two-unit ensemble needs n >= 2, got n={self.n}")
        check_seed(self.seed)


def block_sizes(n: int, sub_count: int) -> list[int]:
    """Near-equal contiguous block sizes; the first n % sub_count blocks take
    the extra unit."""
    if not 1 <= sub_count <= n:
        raise InputError(f"sub_count must lie in [1, n], got {sub_count} for n={n}")
    base, extra = divmod(n, sub_count)
    return [base + 1] * extra + [base] * (sub_count - extra)


def build_dense(n: int, seed: int) -> np.ndarray:
    """Fully connected weights, entries i.i.d. uniform on [-0.5, 0.5]."""
    if n < 1:
        raise InputError("population n must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, size=(n, n))


def build_sparse(n: int, density: float, seed: int) -> np.ndarray:
    """Each entry independently nonzero with probability `density`, nonzero
    values uniform on [-0.5, 0.5]."""
    if n < 1:
        raise InputError("population n must be at least 1")
    if not 0.0 < density <= 1.0:
        raise InputError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    mask = rng.random(size=(n, n)) < density
    values = rng.uniform(-0.5, 0.5, size=(n, n))
    return np.where(mask, values, 0.0)


def build_weakly_coupled(
    n: int,
    sub_count: int,
    coupling_scale: float,
    coupling_density: float,
    seed: int,
) -> np.ndarray:
    """Independent dense diagonal blocks plus sparse weak links between
    blocks: off-block entries nonzero with probability `coupling_density`,
    values uniform on [-0.5, 0.5] times `coupling_scale`.

    The diagonal blocks are drawn first from the stream, so for a given seed
    they do not depend on the coupling, and a zero density leaves every
    off-block entry exactly +0.0: that is the block-diagonal layout. Blocks
    come back unscaled; build_weights rescales each one to the working
    spectral radius.
    """
    if coupling_scale < 0.0:
        raise InputError("coupling_scale must be non-negative")
    if not 0.0 <= coupling_density <= 1.0:
        raise InputError(f"coupling_density must lie in [0, 1], got {coupling_density}")
    sizes = block_sizes(n, sub_count)
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for i, size in enumerate(sizes):
        block = slice(offsets[i], offsets[i + 1])
        W[block, block] = rng.uniform(-0.5, 0.5, size=(size, size))
    # The off-block stream runs pair by pair (i, j), j != i, row-major, each
    # pair drawing its mask block and then its value block. One row block's
    # pairs are drawn at once and split into runs of equal-width column
    # blocks (the widths change only at n % sub_count), each run a strided
    # view of W. uniform(-0.5, 0.5) is -0.5 + 1.0 * random(), so the values
    # are the very bits a per-pair draw gives.
    wide = n % sub_count
    for i, height in enumerate(sizes):
        rows = slice(offsets[i], offsets[i + 1])
        stream = rng.random(2 * height * (n - height))
        cuts = sorted({0, i, i + 1, wide, sub_count})
        start = 0
        for j0, j1 in zip(cuts, cuts[1:]):
            if j0 == i:
                continue
            count, width = j1 - j0, sizes[j0]
            draws = stream[start : start + 2 * count * height * width]
            draws = draws.reshape(count, 2, height, width)
            start += draws.size
            pairs = W[rows, offsets[j0] : offsets[j1]].reshape(height, count, width, copy=False)
            values = draws[:, 1] - 0.5
            values *= coupling_scale
            np.copyto(pairs.transpose(1, 0, 2), values, where=draws[:, 0] < coupling_density)
    return W


@dataclass(frozen=True)
class EnsembleSpec:
    """A small sub-network verified at construction to oscillate on its own
    (1000 steps at leak 0.5). The 2x2 case must carry three excitatory and
    one inhibitory synapse. The weights are a read-only copy."""

    size: int
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        weights.setflags(write=False)
        if weights.shape != (self.size, self.size):
            raise InputError(
                f"ensemble weights must be {self.size}x{self.size}, got {weights.shape}"
            )
        object.__setattr__(self, "weights", weights)
        if self.size == 2:
            positive = int(np.sum(weights > 0))
            negative = int(np.sum(weights < 0))
            if (positive, negative) != (3, 1):
                raise InputError(
                    "a 2x2 ensemble needs exactly 3 positive and 1 negative entry, "
                    f"got {positive} positive / {negative} negative"
                )
        reservoir = Reservoir(
            weights, leak=0.5, state=init_state(self.size, _ENSEMBLE_CHECK_SEED)
        )
        report = classify_trajectory(reservoir.run(1000))
        if not report.reservoir_is_self_oscillatory:
            raise InputError("candidate ensemble does not oscillate standalone")


@cache
def two_neuron_ensemble() -> EnsembleSpec:
    """The canonical reciprocal pair: each unit excites itself, one excites
    the other and is inhibited back. The unscaled matrix has eigenvalues
    1 +/- i, so the linearization rotates instead of settling; scaling to
    radius 1.25 matches the working point used everywhere else.

    Built, and its standalone oscillation verified, on the first call; later
    calls return that same immutable spec."""
    base = np.array([[1.0, 1.0], [-1.0, 1.0]])
    return EnsembleSpec(size=2, weights=scale_to_spectral_radius(base, 1.25))


def inject_ensemble(W: np.ndarray, ensemble: EnsembleSpec) -> np.ndarray:
    """Replace the leading block of W with the ensemble's weights; rows and
    columns coupling the ensemble to the rest are preserved."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise InputError(f"expected a square matrix, got shape {W.shape}")
    if W.shape[0] < ensemble.size:
        raise InputError(
            f"matrix side {W.shape[0]} is smaller than the ensemble ({ensemble.size})"
        )
    out = W.copy()
    out[: ensemble.size, : ensemble.size] = ensemble.weights
    return out


def sample_leak_vector(n: int, mu: float, sigma: float, seed: int) -> np.ndarray:
    """Per-unit leak rates ~ N(mu, sigma), clipped to [0.05, 1.0] so the
    update keeps its convex-combination form."""
    if n < 1:
        raise InputError("need at least one unit")
    if sigma < 0:
        raise InputError("sigma must be non-negative")
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(mu, sigma, size=n), 0.05, 1.0)


def build_weights(spec: TopologySpec, rho: float) -> np.ndarray:
    """Realize a TopologySpec as a weight matrix conditioned for a target
    spectral radius.

    Dense and sparse matrices are rescaled as a whole. Block layouts have
    each diagonal block rescaled independently -- the per-block radius is
    what governs each sub-oscillator -- and the weak coupling is left
    untouched. An injected ensemble is spliced in last so it keeps its own
    calibrated weights.
    """
    if rho <= 0:
        raise InputError(f"target spectral radius must be positive, got {rho}")

    if spec.kind == "dense":
        W = scale_to_spectral_radius(build_dense(spec.n, spec.seed), rho)
    elif spec.kind == "sparse":
        W = scale_to_spectral_radius(build_sparse(spec.n, spec.density, spec.seed), rho)
    else:
        coupled = spec.kind == "weakly_coupled"
        W = build_weakly_coupled(
            spec.n,
            spec.sub_count,
            spec.coupling_scale if coupled else 0.0,
            spec.coupling_density if coupled else 0.0,
            spec.seed,
        )
        # every diagonal block's radius from one call: the blocks stacked,
        # each zero-padded to the largest size (padding adds only zero
        # eigenvalues)
        sizes = block_sizes(spec.n, spec.sub_count)
        starts = np.cumsum([0] + sizes[:-1])
        blocks = np.zeros((spec.sub_count, sizes[0], sizes[0]))
        for block, start, size in zip(blocks, starts, sizes):
            block[:size, :size] = W[start : start + size, start : start + size]
        factors = _radius_factors(spectral_radii(blocks), rho)
        for factor, start, size in zip(factors, starts, sizes):
            W[start : start + size, start : start + size] *= factor

    if spec.inject_ensemble:
        W = inject_ensemble(W, two_neuron_ensemble())
    return W
