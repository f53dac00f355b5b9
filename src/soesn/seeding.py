"""Deterministic 64-bit seed derivation for experiment trials."""

from typing import NewType

from .errors import InputError

_MASK = (1 << 64) - 1

# The type of a config's seed field: an int that check_seed bounds to
# [0, 2**64), where every other config int sizes an array or a loop and
# stops at sys.maxsize.
Seed = NewType("Seed", int)
# The help of a config seed's command-line flag: the CLI falls back on
# $SOESN_SEED when neither the flag nor a config file gives the seed.
SEED_HELP = "base seed (default: $SOESN_SEED or 0)"

# Sub-seed roles, mixed into a trial seed to decorrelate its random draws.
ROLE_WEIGHTS = 0
ROLE_STATE = 1
ROLE_LEAK = 2


def check_seed(seed: int) -> None:
    """A base seed names one stream only if derive_seed never masks it: it
    must lie in [0, 2**64)."""
    if not 0 <= seed <= _MASK:
        raise InputError(f"seed must lie in [0, 2**64), got {seed}")


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(base_seed: int, *indices: int) -> int:
    """Mix a base seed with any number of indices into a fresh 64-bit seed.

    Used to give every trial of every experiment its own reproducible seed:
    the same (base_seed, indices) always yields the same value, and distinct
    index tuples decorrelate through the splitmix64 finalizer.
    """
    z = _splitmix64(base_seed & _MASK)
    for ix in indices:
        z = _splitmix64(z ^ (ix & _MASK))
    return z
