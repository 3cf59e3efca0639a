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

from .domain import FEATURE_DIM
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
    contexts,
    action_probs: np.ndarray,
    cand_actions: np.ndarray,
    cand_logps: np.ndarray,
    scores: np.ndarray,
    limits: FeatureLimits,
) -> np.ndarray:
    """Feature rows, one per step, in the layout documented above: step i
    has context contexts[i], the action distribution action_probs[i] its K
    candidates cand_actions[i] were drawn from, their log-probabilities
    cand_logps[i] and their verifier scores scores[i].

    Every statistic is a reduction along one step's own contiguous row, so
    each row is bit-equal to extracting that step alone. An entropy sums
    only a row's positive entries, in column order: distinct candidate
    actions in ascending action order, positive action probabilities in
    action order. Rows that keep different numbers of entries are summed in
    separate groups, since padding a row with zero terms regroups numpy's
    pairwise sum.
    """
    k = cand_actions.shape[1]
    if k < 2:
        raise ValueError("feature extraction needs K >= 2 candidates")
    if scores.shape != cand_actions.shape or cand_logps.shape != cand_actions.shape:
        raise ValueError("candidates and scores must align")
    probs = np.asarray(action_probs, dtype=float)
    n, n_actions = probs.shape
    f = np.empty((n, FEATURE_DIM))

    present = probs > 0.0
    plogp = probs * np.log(np.where(present, probs, 1.0))
    np.minimum(-_row_sums(plogp, present) / math.log(n_actions), 1.0, out=f[:, 0])

    # [:, 0]: clipped candidate log-probs, [:, 1]: verifier scores; mean and
    # std spelled out as ndarray.mean/std compute them
    rows = np.empty((n, 2, k))
    np.maximum(cand_logps, limits.logprob_floor, out=rows[:, 0])
    np.minimum(rows[:, 0], 0.0, out=rows[:, 0])  # clipped to [logprob_floor, 0]
    rows[:, 1] = scores
    mean = np.add.reduce(rows, axis=2, keepdims=True) / k
    dev = rows - mean
    std = np.sqrt(np.add.reduce(dev * dev, axis=2) / k)
    hi = np.maximum.reduce(rows[:, 1], axis=1)
    lo = np.minimum.reduce(rows[:, 1], axis=1)
    f[:, 1], f[:, 2], f[:, 3], f[:, 4] = mean[:, 0, 0], std[:, 0], mean[:, 1, 0], std[:, 1]
    f[:, 5], f[:, 6], f[:, 7] = hi - lo, hi, lo

    # candidate tallies per action, in ascending action order
    offsets = n_actions * np.arange(n)[:, None]
    counts = np.bincount((cand_actions + offsets).ravel(),
                         minlength=n * n_actions).reshape(n, n_actions)
    f[:, 8] = np.maximum.reduce(counts, axis=1) / k
    q = counts / k
    tallied = counts > 0
    qlogq = q * np.log(np.where(tallied, q, 1.0))
    np.minimum(-_row_sums(qlogq, tallied) / math.log(k), 1.0, out=f[:, 9])

    t = np.array([ctx.step_index for ctx in contexts])
    f[:, 10] = t / limits.horizon
    f[:, 11] = t / limits.horizon_max
    np.minimum(np.array([ctx.tokens_seen for ctx in contexts]) / limits.max_context_tokens,
               1.0, out=f[:, 12])
    np.minimum(np.array([len(ctx.goal) for ctx in contexts]) / limits.max_goal_len,
               1.0, out=f[:, 13])
    f[:, 14] = pseudo_entropy(rows[:, 1])
    if not np.isfinite(f).all():
        raise ValueError("non-finite feature extracted")
    return f


def _row_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row, np.add.reduce over the entries of `terms` where `keep`
    holds, in column order, bit-equal to reducing a 1-D array of just those
    entries."""
    if keep.all():
        return np.add.reduce(terms, axis=1)
    width = np.add.reduce(keep, axis=1)
    packed = np.take_along_axis(terms, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    out = np.empty(len(terms))
    for w in np.unique(width).tolist():
        rows = width == w
        out[rows] = np.add.reduce(packed[rows, :w], axis=1)
    return out


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
    """Inference-time ablation of feature groups along the last axis, so of
    one row or a block of rows; idempotent for every variant."""
    f = np.array(features, dtype=float, copy=True)
    f[..., _ZEROED[mask]] = 0.0
    if mask is FeatureMask.PSEUDO_ENTROPY:
        f[..., 0] = f[..., 14]
    return f
