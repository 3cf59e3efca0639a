"""Process verifier: noisy [0,1] action scores and pseudo-entropy.

The base quality oracle peeks at the latent state (a test-only privilege: the
latent state is reconstructible from the context because latent dynamics are
deterministic) and is then corrupted with per-candidate additive uniform
jitter. The jitter width is calibrated so that any good/bad pair is misranked
with probability at most eta_v: for independent U(-w, w) jitter the misrank
probability of a pair with base-score gap d is (2w - d)^2 / (8 w^2), so
solving for the minimal gap gives w = gap / (2 (1 - sqrt(2 eta_v))).

Base scores sit in a narrow band around 0.5 so the jitter never hits the
[0, 1] clip for eta_v <= 0.3; inside that range the pairwise misrank bound is
exact, not merely approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Context
from .env import ACTION_HAZARD, HazardChainEnv

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
    """Latent-state-aware base scores for every action at a context."""

    env: HazardChainEnv

    def __call__(self, ctx: Context) -> np.ndarray:
        task = self.env.parse_goal(ctx.goal)
        state = self.env.replay(task, ctx.actions)
        base = np.full(self.env.config.action_count, BASE_NEUTRAL)
        base[self.env.optimal_action(task, state)] = BASE_OPTIMAL
        base[ACTION_HAZARD] = BASE_HAZARD
        return base


@dataclass(frozen=True)
class VerifierSpec:
    """Quality oracle + pairwise noise level + good-set threshold."""

    quality: Callable[[Context], np.ndarray]
    eta_v: float = 0.05
    gamma_threshold: float = 0.55

    def __post_init__(self):
        if not (0.0 <= self.eta_v < 0.5):
            raise ValueError("eta_v must lie in [0, 0.5)")
        if not (0.0 <= self.gamma_threshold <= 1.0):
            raise ValueError("gamma_threshold must lie in [0, 1]")

    @classmethod
    def for_env(cls, env: HazardChainEnv, eta_v: float = 0.05,
                gamma_threshold: float = 0.55) -> "VerifierSpec":
        return cls(quality=EnvActionQuality(env), eta_v=eta_v,
                   gamma_threshold=gamma_threshold)


def score_candidates(
    spec: VerifierSpec, ctx: Context, actions, rng: np.random.Generator
) -> np.ndarray:
    """Scores for a candidate list; one independent jitter draw per candidate.

    The K draws come from one vector call, which consumes the rng exactly as
    K scalar draws would and yields the same values.
    """
    base = np.asarray(spec.quality(ctx), dtype=float)[list(actions)]
    w = jitter_width(spec.eta_v)
    if w != 0.0:
        base = base + rng.uniform(-w, w, size=len(base))
    return np.clip(base, 0.0, 1.0)


def pseudo_entropy(scores) -> float:
    """Normalized entropy of the softmax over verifier scores, in [0, 1].

    Serves as the black-box uncertainty proxy when policy log-probabilities
    are unavailable.
    """
    s = np.asarray(scores, dtype=float)
    if s.size < 2:
        raise ValueError("pseudo-entropy needs at least two scores")
    z = s - s.max()
    p = np.exp(z)
    p /= p.sum()
    h = -float(np.sum(p * np.log(p)))
    return h / math.log(s.size)
