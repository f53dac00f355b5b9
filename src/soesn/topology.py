"""Weight-matrix construction: dense and sparse random reservoirs, block
(sub-reservoir) layouts with optional weak inter-block coupling, and the
calibrated two-neuron oscillator ensemble that can be spliced into any of
them to seed oscillation."""

import functools
import math
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, InputError, _shown
from .numerics import _radius_factors, spectral_radius
from .seeding import SEED_HELP, Seed, check_seed

VALID_KINDS = ("dense", "sparse", "block_diagonal", "weakly_coupled")

# The canonical reciprocal pair: each unit excites itself, one excites the
# other and is inhibited back. [[1, 1], [-1, 1]] has eigenvalues 1 +/- i, so
# the linearization rotates instead of settling; dividing by their modulus
# sqrt(2) sets the radius to 1.25, the working point used everywhere else,
# with the very bits scale_to_spectral_radius gives. Read-only.
TWO_NEURON_ENSEMBLE = np.array([[1.0, 1.0], [-1.0, 1.0]]) * (1.25 / np.sqrt(2.0))
TWO_NEURON_ENSEMBLE.setflags(write=False)


def unwrap(annotation) -> tuple:
    """(kind, many, optional) of a config field's annotation: `T | None` is
    an optional T, `tuple[T, ...]` holds many T, and the kind T is int,
    float, bool, str, Seed or a config class."""
    args = getattr(annotation, "__args__", ())
    optional = type(None) in args
    if optional:  # T | None
        (annotation,) = set(args) - {type(None)}
    many = getattr(annotation, "__origin__", None) is tuple
    if many:  # tuple[T, ...]
        annotation = annotation.__args__[0]
    return annotation, many, optional


def _conforms(value, kind) -> bool:
    """Whether `value` is of the field kind `kind` (see unwrap)."""
    if isinstance(value, bool) or kind is bool:  # a bool is not an int
        return kind is bool and isinstance(value, bool)
    if kind is float and isinstance(value, int):  # if a double can hold it
        return abs(value) <= sys.float_info.max
    if kind is int:  # it sizes an array or a loop, which stop at sys.maxsize
        return isinstance(value, int) and value <= sys.maxsize
    return isinstance(value, getattr(kind, "__supertype__", kind))  # a Seed is any int


def option(default, help: str | None = None, choices=None, *, above=None, low=None, high=None):
    """A config field defaulting to `default`; `help` and `choices` are its
    command-line flag's. Its valid values are `choices`, or the numbers
    greater than `above` and within [`low`, `high`], each bound optional.
    A tuple field must not be empty and holds each entry to them; None
    passes only an optional field. ConfigFields checks them."""
    return field(default=default, metadata={"help": help, "choices": choices,
                                            "above": above, "low": low, "high": high})


@functools.cache
def _declared(cls) -> tuple:
    """(name, kind, many, optional, choices, above, low, high) of each field
    of the config class `cls`: its unwrapped annotation and the values its
    `option` declares."""
    keys = ("choices", "above", "low", "high")
    return tuple((f.name, *unwrap(f.type), *map(f.metadata.get, keys)) for f in fields(cls))


def _check_field(name: str, value, kind, many, optional, choices, above, low, high):
    """`value` as the field stores it, a list as a tuple; InputError, naming
    the field, the rule and the value, if it breaks a rule of ConfigFields."""
    if value is None and optional:
        return value
    if many and not (isinstance(value, (list, tuple)) and value):
        raise InputError(f"{name} must be a non-empty list, got {_shown(value)}")
    items = tuple(value) if many else (value,)
    for i, item in enumerate(items):
        if not _conforms(item, kind):
            rule = getattr(kind, "__supertype__", kind).__name__
        elif isinstance(item, float) and not math.isfinite(item):
            rule = "finite"
        elif choices is not None and item not in choices:
            rule = f"one of {list(choices)}"
        elif ((above is not None and not item > above) or (low is not None and not item >= low)
              or (high is not None and not item <= high)):
            lo = f"({above}" if above is not None else f"[{low}" if low is not None else "(-inf"
            hi = "inf)" if high is None else f"{high}]"
            rule = f"in {lo}, {hi}"
        else:
            continue
        where = f"{name}[{i}]" if many else name
        raise InputError(f"{where} must be {rule}, got {_shown(item)}")
    if kind is Seed:
        check_seed(value)
    return items if many else value


class ConfigFields:
    """One check and a JSON round trip for a config dataclass.

    Building a config, in code or from JSON, checks each field once: its
    type (a bool is not an int, an int other than a Seed is at most
    sys.maxsize, an int is a float if a double can hold it, a float must be
    finite, a tuple field takes a non-empty list, and None only an optional
    field), then the values its `option` declares, and a Seed with
    check_seed. A list is stored as a tuple, its numbers as given, so a
    config equals, hashes and echoes alike however it was built. A
    subclass's `__post_init__` adds its cross-field rules after
    `super().__post_init__()`.

    `to_dict` is the payload a run echoes. `from_dict` fills omitted fields
    from the defaults, reads a nested object with its class's `from_dict`
    and raises ConfigError for an unknown field or a value the check rejects.
    """

    def __post_init__(self):
        for name, *declared in _declared(type(self)):
            object.__setattr__(self, name, _check_field(name, getattr(self, name), *declared))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data, label: str | None = None):
        label = label or cls.__name__
        if not isinstance(data, dict):
            raise ConfigError(f"{label} must be a JSON object, got {_shown(data)}")
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown {label} fields: {sorted(unknown)}")
        values = {name: kinds[name].from_dict(value, f"{label}.{name}")
                  if hasattr(kinds[name], "from_dict") else value for name, value in data.items()}
        try:
            return cls(**values)
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

    kind: str = option("dense", "weight-matrix layout", VALID_KINDS)
    n: int = option(100, "population size", low=1)
    density: float = option(0.1, "sparse connection probability", above=0.0, high=1.0)
    sub_count: int = option(1, "number of sub-reservoirs", low=1)
    coupling_scale: float = option(0.05, low=0.0)
    coupling_density: float = option(0.05, low=0.0, high=1.0)
    inject_ensemble: bool = option(False, "splice in the calibrated two-neuron ensemble")
    seed: Seed = option(0, SEED_HELP)

    def __post_init__(self):
        super().__post_init__()
        if self.sub_count > self.n:
            raise InputError(f"sub_count must be <= n ({self.n}), got {self.sub_count}")
        if self.inject_ensemble and self.n < 2:
            raise InputError(f"the two-unit ensemble needs n >= 2, got n={self.n}")


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
    if not 0.0 <= coupling_scale < math.inf:
        raise InputError(f"coupling_scale must be finite and non-negative, got {coupling_scale}")
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


def inject_ensemble(W: np.ndarray) -> np.ndarray:
    """Replace the leading 2x2 block of W with TWO_NEURON_ENSEMBLE; rows and
    columns coupling the pair to the rest are preserved."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise InputError(f"expected a square matrix, got shape {W.shape}")
    if W.shape[0] < 2:
        raise InputError(f"matrix side {W.shape[0]} is smaller than the ensemble (2)")
    out = W.copy()
    out[:2, :2] = TWO_NEURON_ENSEMBLE
    return out


def sample_leak_vector(n: int, mu: float, sigma: float, seed: int) -> np.ndarray:
    """Per-unit leak rates ~ N(mu, sigma), clipped to [0.05, 1.0] so the
    update keeps its convex-combination form."""
    if n < 1:
        raise InputError("need at least one unit")
    if not math.isfinite(mu):
        raise InputError(f"mu must be finite, got {mu}")
    if not 0 <= sigma < math.inf:
        raise InputError(f"sigma must be finite and non-negative, got {sigma}")
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(mu, sigma, size=n), 0.05, 1.0)


def build_weights(spec: TopologySpec, rho: float) -> np.ndarray:
    """Realize a TopologySpec as a weight matrix conditioned for a target
    spectral radius.

    Every diagonal block is rescaled independently -- the per-block radius
    is what governs each sub-oscillator; a dense or sparse matrix is one
    block -- and the weak coupling is left untouched. An injected ensemble
    is spliced in last so it keeps its own calibrated weights. A target
    `rho` that is not positive raises InputError.
    """
    sizes = [spec.n]
    if spec.kind == "dense":
        W = build_dense(spec.n, spec.seed)
    elif spec.kind == "sparse":
        W = build_sparse(spec.n, spec.density, spec.seed)
    else:
        sizes = block_sizes(spec.n, spec.sub_count)
        coupled = spec.kind == "weakly_coupled"
        W = build_weakly_coupled(
            spec.n,
            spec.sub_count,
            spec.coupling_scale if coupled else 0.0,
            spec.coupling_density if coupled else 0.0,
            spec.seed,
        )
    for start, size in zip(np.cumsum([0] + sizes[:-1]), sizes):
        block = W[start : start + size, start : start + size]
        block *= _radius_factors(spectral_radius(block), rho)

    if spec.inject_ensemble:
        W = inject_ensemble(W)
    return W
