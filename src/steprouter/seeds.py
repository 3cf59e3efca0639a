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


def splitmix64(x: int) -> int:
    """One SplitMix64 step; stable across platforms."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@functools.lru_cache(maxsize=4096)
def _fold_str(part: str) -> int:
    """First 8 bytes of sha256(part), little-endian; memoized, since a run
    keys its streams with a few fixed tags."""
    return int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "little")


def mix(*parts: int | str) -> int:
    """Fold key parts into a 64-bit value. Strings are hashed, ints folded."""
    h = 0x243F6A8885A308D3
    for part in parts:
        if isinstance(part, str):
            part = _fold_str(part)
        h = splitmix64(h ^ (int(part) & _MASK64))
    return h


def unit_uniform(*parts: int | str) -> float:
    """Uniform in [0, 1) as a pure function of the key parts."""
    return mix(*parts) / float(1 << 64)


def stream(*parts: int | str) -> np.random.Generator:
    """A fresh numpy Generator keyed by the parts."""
    return np.random.default_rng(mix(*parts))
