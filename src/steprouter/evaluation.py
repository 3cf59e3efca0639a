"""Metrics, calibration diagnostics, bootstrap intervals, ablation sweeps."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np


@dataclass(frozen=True)
class RunMetrics:
    """Headline numbers for one evaluated variant."""

    success_rate: float
    llm_rate: float
    ci_low: float
    ci_high: float
    ece: float | None = None
    brier: float | None = None
    auroc: float | None = None
    n_episodes: int = 0
    n_steps: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def ece(predictions, labels, bins: int = 15) -> float:
    """Equal-width, sample-weighted expected calibration error."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.size == 0:
        raise ValueError("ECE of an empty set is undefined")
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
        raise ValueError("predictions must lie in [0, 1]")
    idx = np.minimum((p * bins).astype(int), bins - 1)
    total = 0.0
    for b in range(bins):
        sel = idx == b
        n = int(sel.sum())
        if n:
            total += n * abs(p[sel].mean() - y[sel].mean())
    return float(total / p.size)


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of `values`; each group of ties gets the mean of the
    ranks it spans."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC with tie correction (ties share average ranks)."""
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("AUROC scores must be finite")
    y = np.asarray(labels, dtype=int)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both labels present")
    ranks = _average_ranks(s)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def bootstrap_ci(
    successes,
    resamples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean episode success."""
    v = np.asarray(successes, dtype=float)
    if v.size < 2:
        raise ValueError("bootstrap needs at least two episodes")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(resamples, v.size))
    means = v[idx].mean(axis=1)
    lo = (1.0 - level) / 2.0
    return (
        float(np.quantile(means, lo)),
        float(np.quantile(means, 1.0 - lo)),
    )


def compute_metrics(
    episodes,
    resamples: int = 1000,
    level: float = 0.95,
    bins: int = 15,
    bootstrap_seed: int = 0,
) -> RunMetrics:
    """Success rate, step-level escalation rate, and router diagnostics.

    Calibration numbers (ECE/Brier/AUROC) are computed over steps that carry a
    router probability, against the episode-failure label of their episode;
    they are None for variants that emit no probabilities.
    """
    episodes = list(episodes)
    if not episodes:
        raise ValueError("cannot evaluate an empty episode set")
    successes = np.array([1.0 if ep.success else 0.0 for ep in episodes])
    total_steps = sum(len(ep.actions) for ep in episodes)
    total_llm = sum(ep.llm_calls for ep in episodes)

    probs, labels = [], []
    for ep in episodes:
        scored = [p for p in ep.router_probs if p is not None]
        probs += scored
        labels += [0.0 if ep.success else 1.0] * len(scored)
    ece_v = brier_v = auroc_v = None
    if probs:
        p = np.asarray(probs)
        y = np.asarray(labels)
        ece_v = ece(p, y, bins=bins)
        brier_v = float(np.mean((p - y) ** 2))
        if len(np.unique(y)) == 2:
            auroc_v = auroc(p, y)

    if len(episodes) >= 2:
        lo, hi = bootstrap_ci(successes, resamples=resamples, level=level,
                              seed=bootstrap_seed)
    else:
        lo = hi = float(successes.mean())
    return RunMetrics(
        success_rate=float(successes.mean()),
        llm_rate=total_llm / total_steps if total_steps else 0.0,
        ci_low=lo,
        ci_high=hi,
        ece=ece_v,
        brier=brier_v,
        auroc=auroc_v,
        n_episodes=len(episodes),
        n_steps=total_steps,
    )


def sweep(points, run_fn) -> list[dict]:
    """One metrics row per grid point; grid coordinates lead each row."""
    rows = []
    for point in points:
        metrics = run_fn(point)
        row = dict(point)
        row.update(metrics.to_dict())
        rows.append(row)
    return rows
