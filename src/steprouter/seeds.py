"""Deterministic randomness plumbing.

Every stochastic component in the pipeline draws from a stream keyed by
integers and short strings, so reruns with the same config are bit-identical
and parallel workers never share rng state.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_IV = 0x243F6A8885A308D3  # the value mix() folds its first part into
_UNIT = float(1 << 64)


@functools.lru_cache(maxsize=4096)
def _fold_str(part: str) -> int:
    """First 8 bytes of sha256(part), little-endian; memoized, since a run
    keys its streams with a few fixed tags."""
    return int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "little")


def fold(h: int, *parts: int | str) -> int:
    """Fold key parts into the 64-bit value h, left to right: one SplitMix64
    step of h ^ part per part (strings hashed first). mix(*p, *q) equals
    fold(mix(*p), *q), so draws keyed by one prefix can fold it once."""
    for part in parts:
        if isinstance(part, str):
            part = _fold_str(part)
        z = ((h ^ (int(part) & _MASK64)) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
    return h


def mix(*parts: int | str) -> int:
    """Fold key parts into a 64-bit value: strings hashed, ints folded, the
    same value on every platform."""
    return fold(_IV, *parts)


def unit_uniform(*parts: int | str) -> float:
    """Uniform in [0, 1) as a pure function of the key parts."""
    return mix(*parts) / _UNIT


def fold_uniform(h: int, *parts: int | str) -> float:
    """unit_uniform of a key whose leading parts are already folded into h:
    fold_uniform(mix(*p), *q) equals unit_uniform(*p, *q)."""
    return fold(h, *parts) / _UNIT


def stream(*parts: int | str) -> np.random.Generator:
    """A fresh numpy Generator keyed by the parts."""
    return np.random.default_rng(mix(*parts))
