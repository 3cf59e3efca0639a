"""Risk feature map: 15 fixed slots consumed by the router.

Slot layout:
  0  policy entropy at the context, normalized by log(action count)
  1  mean candidate log-prob (clipped to [logprob_floor, 0])
  2  std of candidate log-probs (same clipping)
  3  verifier score mean          4  verifier score std
  5  verifier spread (max-min)    6  verifier best    7  verifier worst
  8  candidate consistency (fraction equal to the modal candidate)
  9  semantic entropy over distinct candidate actions, normalized by log K
  10 horizon fraction t/H         11 absolute step index t / H_max
  12 context length (tokens seen / max tokens, capped at 1)
  13 goal-length proxy (goal tokens / max goal length, capped at 1)
  14 pseudo-entropy of verifier scores (black-box entropy substitute)

Masks zero slots at inference time only; the router is never retrained for a
mask variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import FEATURE_DIM, Context
from .verifier import pseudo_entropy

_ENTROPY_SLOTS = (0, 1, 2, 9)
_VERIFIER_SLOTS = (3, 4, 5, 6, 7, 14)


class FeatureMask(Enum):
    FULL = "Full"
    NO_ENTROPY = "NoEntropy"
    PSEUDO_ENTROPY = "PseudoEntropy"
    VERIFIER_ONLY = "VerifierOnly"
    ENTROPY_ONLY = "EntropyOnly"
    LOGPROB_ONLY = "LogProbOnly"
    STEP_CONTEXT_ONLY = "StepContextOnly"
    NO_VERIFIER = "NoVerifier"


@dataclass(frozen=True)
class FeatureLimits:
    """Normalization constants shared by every extracted feature vector."""

    horizon: int
    horizon_max: int = 64
    max_context_tokens: int = 256
    max_goal_len: int = 5
    logprob_floor: float = -20.0


def extract(
    ctx: Context,
    action_probs,
    candidates,
    scores,
    limits: FeatureLimits,
) -> np.ndarray:
    """Deterministic feature vector for one step; layout as documented above.

    `action_probs` is the distribution the candidates were drawn from; the
    rollout loop computes it once per step and passes it here. Candidate
    log-probs and verifier scores are stacked into one (2, K) array and
    reduced along rows, bit-equal to reducing each 1-D array. Candidate
    actions are tallied in ascending action order, the order the consistency
    and semantic-entropy sums must keep to stay bit-identical.
    """
    k = len(candidates)
    if k < 2:
        raise ValueError("feature extraction needs K >= 2 candidates")
    if k != len(scores):
        raise ValueError("candidates and scores must align")
    probs = np.asarray(action_probs, dtype=float)

    nz = probs[probs > 0.0]
    entropy = min(1.0, -float(np.add.reduce(nz * np.log(nz))) / math.log(len(probs)))

    # row 0: clipped candidate log-probs, row 1: verifier scores; mean and std
    # spelled out as ndarray.mean/std compute them
    rows = np.empty((2, k))
    rows[0] = [lp for _, lp in candidates]
    rows[1] = scores
    np.maximum(rows[0], limits.logprob_floor, out=rows[0])
    np.minimum(rows[0], 0.0, out=rows[0])  # clipped to [logprob_floor, 0]
    mean = np.add.reduce(rows, axis=1, keepdims=True) / k
    dev = rows - mean
    std = np.sqrt(np.add.reduce(dev * dev, axis=1) / k)
    hi = np.maximum.reduce(rows[1])
    lo = np.minimum.reduce(rows[1])

    tally: dict[int, int] = {}
    for a, _ in candidates:
        tally[a] = tally.get(a, 0) + 1
    counts = [tally[a] for a in sorted(tally)]
    q = np.array(counts, dtype=float) / k
    semantic_entropy = min(1.0, -float(np.add.reduce(q * np.log(q))) / math.log(k))

    t = ctx.step_index
    f = np.array(
        [
            entropy,
            mean[0, 0],
            std[0],
            mean[1, 0],
            std[1],
            hi - lo,
            hi,
            lo,
            max(counts) / k,
            semantic_entropy,
            t / limits.horizon,
            t / limits.horizon_max,
            min(1.0, ctx.tokens_seen / limits.max_context_tokens),
            min(1.0, len(ctx.goal) / limits.max_goal_len),
            pseudo_entropy(rows[1]),
        ]
    )
    if not np.isfinite(f).all():
        raise ValueError("non-finite feature extracted")
    return f


def _only(*slots) -> np.ndarray:
    return np.setdiff1d(np.arange(FEATURE_DIM), slots)


# the slots each mask zeroes; PseudoEntropy also copies slot 14 into slot 0
_ZEROED = {
    FeatureMask.FULL: np.array([], dtype=np.intp),
    FeatureMask.NO_ENTROPY: np.array(_ENTROPY_SLOTS),
    FeatureMask.PSEUDO_ENTROPY: np.array([1, 2, 9]),
    FeatureMask.VERIFIER_ONLY: _only(*_VERIFIER_SLOTS),
    FeatureMask.ENTROPY_ONLY: _only(0, 9),
    FeatureMask.LOGPROB_ONLY: _only(1, 2),
    FeatureMask.STEP_CONTEXT_ONLY: _only(10, 11, 12, 13),
    FeatureMask.NO_VERIFIER: np.array(_VERIFIER_SLOTS),
}


def apply_mask(features, mask: FeatureMask) -> np.ndarray:
    """Inference-time ablation of feature groups; idempotent for every variant."""
    f = np.array(features, dtype=float, copy=True)
    f[_ZEROED[mask]] = 0.0
    if mask is FeatureMask.PSEUDO_ENTROPY:
        f[0] = f[14]
    return f
