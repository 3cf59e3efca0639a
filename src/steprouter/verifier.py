"""Process verifier: noisy [0,1] action scores and pseudo-entropy.

The base quality oracle reads the latent state, a privilege it shares with
the teacher: the caller passes the state its rollout already holds. The base
scores are then corrupted with per-candidate additive uniform jitter, whose
width is calibrated so that any good/bad pair is misranked with probability
at most eta_v: for independent U(-w, w) jitter the misrank probability of a
pair with base-score gap d is (2w - d)^2 / (8 w^2), so solving for the
minimal gap gives w = gap / (2 (1 - sqrt(2 eta_v))).

Base scores sit in a narrow band around 0.5 so the jitter never hits the
[0, 1] clip for eta_v <= 0.3; inside that range the pairwise misrank bound is
exact, not merely approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domain import require_number
from .env import ACTION_HAZARD, HazardChainEnv, LatentState

BASE_OPTIMAL = 0.62
BASE_NEUTRAL = 0.50
BASE_HAZARD = 0.38

# smallest good/bad base gap under the default gamma threshold
PAIR_GAP = BASE_OPTIMAL - BASE_NEUTRAL


def jitter_width(eta_v: float, gap: float = PAIR_GAP) -> float:
    """Uniform jitter half-width giving pairwise misrank probability eta_v."""
    if not (0.0 <= eta_v < 0.5):
        raise ValueError("eta_v must lie in [0, 0.5)")
    if eta_v == 0.0:
        return 0.0
    return gap / (2.0 * (1.0 - math.sqrt(2.0 * eta_v)))


@dataclass(frozen=True)
class EnvActionQuality:
    """Base scores for every action at a latent state."""

    env: HazardChainEnv

    def __call__(self, state: LatentState) -> np.ndarray:
        task = self.env.task_spec(state.task_id)
        base = np.full(self.env.config.action_count, BASE_NEUTRAL)
        base[self.env.optimal_action(task, state)] = BASE_OPTIMAL
        base[ACTION_HAZARD] = BASE_HAZARD
        return base


@dataclass(frozen=True)
class VerifierSpec:
    """Quality oracle + pairwise noise level + good-set threshold."""

    quality: Callable[[LatentState], np.ndarray]
    eta_v: float = 0.05
    gamma_threshold: float = 0.55
    jitter: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_number("eta_v", self.eta_v, False)
        if self.eta_v >= 0.5:
            raise ValueError("eta_v must lie in [0, 0.5)")
        require_number("gamma_threshold", self.gamma_threshold, False)
        if self.gamma_threshold > 1.0:
            raise ValueError("gamma_threshold must lie in [0, 1]")
        object.__setattr__(self, "jitter", jitter_width(self.eta_v))

    @classmethod
    def for_env(cls, env: HazardChainEnv, eta_v: float = 0.05,
                gamma_threshold: float = 0.55) -> "VerifierSpec":
        return cls(quality=EnvActionQuality(env), eta_v=eta_v,
                   gamma_threshold=gamma_threshold)


def score_candidates(spec: VerifierSpec, states, actions, rngs) -> np.ndarray:
    """Scores of a (rows, K) block of candidate actions, row i at states[i];
    one independent jitter draw per candidate, row i's from rngs[i].

    Each row's K draws come from one vector call, which consumes its rng
    exactly as K scalar draws would and yields the same values; rows that
    share a generator draw from it in row order. The clip to [0, 1] is
    elementwise.
    """
    actions = np.asarray(actions)
    base = np.empty(actions.shape)
    w = spec.jitter
    for row, state, acts, rng in zip(base, states, actions, rngs):
        row[:] = np.asarray(spec.quality(state), dtype=float)[acts]
        if w != 0.0:
            row += rng.uniform(-w, w, size=len(row))
    np.maximum(base, 0.0, out=base)
    return np.minimum(base, 1.0, out=base)  # the clip to [0, 1]


def pseudo_entropy(scores) -> np.ndarray:
    """Normalized entropy of the softmax over each row of verifier scores
    (the last axis), in [0, 1].

    Serves as the black-box uncertainty proxy when policy log-probabilities
    are unavailable.
    """
    s = np.asarray(scores, dtype=float)
    if s.shape[-1] < 2:
        raise ValueError("pseudo-entropy needs at least two scores")
    p = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True))
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    h = -np.add.reduce(p * np.log(p), axis=-1)
    return h / math.log(s.shape[-1])
