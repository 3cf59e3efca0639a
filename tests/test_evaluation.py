import math

import numpy as np
import pytest

from steprouter import seeds
from steprouter.domain import Context, PerturbationSeed, PerturbedEpisode, StepRecord
from steprouter.evaluation import (
    _average_ranks, auroc, bootstrap_ci, compute_metrics, ece, sweep,
)


def episode(success, executors, probs=None, task=0, z=0):
    steps = []
    for t, executor in enumerate(executors):
        ctx = Context(
            goal=(35,),
            observations=tuple((4,) for _ in range(t + 1)),
            actions=tuple(0 for _ in range(t)),
            step_index=t,
        )
        steps.append(
            StepRecord(
                context=ctx,
                candidates=((0, -1.0), (1, -1.5)),
                verifier_scores=(0.5, 0.4),
                chosen_action=0,
                executor=executor,
                router_prob=None if probs is None else probs[t],
            )
        )
    return PerturbedEpisode(
        task_id=task,
        seed=PerturbationSeed(z),
        steps=tuple(steps),
        success=success,
        llm_calls=sum(e == "LLM" for e in executors),
    )


class TestComputeMetrics:
    def test_all_success_no_escalation(self):
        eps = [episode(True, ["SLM"] * 4, z=i) for i in range(5)]
        m = compute_metrics(eps)
        assert m.success_rate == 1.0
        assert m.llm_rate == 0.0

    def test_llm_only_rate_one(self):
        eps = [episode(True, ["LLM"] * 3, z=i) for i in range(4)]
        assert compute_metrics(eps).llm_rate == 1.0

    def test_hand_built_spreadsheet(self):
        # 10 episodes: 6 successes; 30 steps total, 12 on the teacher
        eps = []
        for i in range(10):
            execs = ["LLM", "SLM", "LLM"] if i < 4 else ["SLM", "SLM", "SLM"]
            eps.append(episode(i < 6, execs, z=i))
        m = compute_metrics(eps)
        assert m.success_rate == pytest.approx(0.6)
        assert m.llm_rate == pytest.approx(8 / 30)
        assert m.n_episodes == 10 and m.n_steps == 30

    def test_llm_rate_recount_invariant(self):
        rng = seeds.stream("recount")
        eps = []
        for i in range(20):
            execs = ["LLM" if rng.random() < 0.3 else "SLM" for _ in range(int(rng.integers(1, 6)))]
            eps.append(episode(bool(rng.random() < 0.7), execs, z=i))
        m = compute_metrics(eps)
        tally = sum(1 for ep in eps for s in ep.steps if s.executor == "LLM")
        assert m.llm_rate == pytest.approx(tally / sum(len(ep.steps) for ep in eps))

    def test_router_diagnostics_present_only_with_probs(self):
        eps = [episode(True, ["SLM"] * 2, z=i) for i in range(3)]
        m = compute_metrics(eps)
        assert m.ece is None and m.brier is None and m.auroc is None
        eps = [
            episode(i % 2 == 0, ["SLM", "SLM"], probs=[0.2, 0.8], z=i)
            for i in range(4)
        ]
        m = compute_metrics(eps)
        assert m.ece is not None and m.brier is not None and m.auroc is not None

    def test_ci_brackets_point_estimate(self):
        eps = [episode(i < 7, ["SLM"], z=i) for i in range(10)]
        m = compute_metrics(eps)
        assert m.ci_low <= m.success_rate <= m.ci_high


class TestEce:
    def test_perfect_predictor_zero(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert ece(y, y) == 0.0

    def test_base_rate_constant_single_bin(self):
        # constant prediction at the base rate: the one occupied bin matches
        y = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
        p = np.full(10, 0.5)
        assert ece(p, y) == pytest.approx(0.0, abs=1e-12)

    def test_matches_histogram_oracle(self):
        rng = seeds.stream("ece-oracle")
        p = rng.random(5000)
        y = (rng.random(5000) < np.clip(p + 0.1, 0, 1)).astype(float)
        bins = 15
        idx = np.minimum((p * bins).astype(int), bins - 1)
        expected = 0.0
        for b in range(bins):
            sel = idx == b
            if sel.sum():
                expected += sel.sum() * abs(p[sel].mean() - y[sel].mean())
        expected /= len(p)
        assert ece(p, y, bins=bins) == pytest.approx(expected, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ece(np.array([1.2]), np.array([1.0]))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_constant_scores_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_matches_pair_counting_oracle(self):
        rng = seeds.stream("auroc-oracle")
        for _ in range(5):
            n = 200
            s = np.round(rng.random(n), 2)  # rounding forces ties
            y = (rng.random(n) < 0.4).astype(int)
            if y.sum() in (0, n):
                continue
            pos = s[y == 1]
            neg = s[y == 0]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            expected = wins / (len(pos) * len(neg))
            assert auroc(s, y) == pytest.approx(expected, abs=1e-12)

    def test_rejects_single_label(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.9], [1, 1])

    def test_average_ranks_match_counting_reference(self):
        # rank = values below + the mean of the tie group's ranks; every rank
        # is an integer or a half, so equality is exact
        rng = seeds.stream("average-ranks")
        for n in (1, 2, 7, 150):
            v = rng.integers(0, 6, size=n) / 4.0
            expected = [float((v < x).sum()) + ((v == x).sum() + 1) / 2.0 for x in v]
            assert _average_ranks(v).tolist() == expected


class TestBootstrap:
    def test_degenerate_outcomes(self):
        lo, hi = bootstrap_ci(np.ones(10))
        assert lo == hi == 1.0

    def test_interval_contains_mean(self):
        v = np.array([1, 1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=float)
        lo, hi = bootstrap_ci(v, seed=4)
        assert lo <= v.mean() <= hi

    def test_deterministic_given_seed(self):
        v = (seeds.stream("bs").random(40) < 0.7).astype(float)
        assert bootstrap_ci(v, seed=9) == bootstrap_ci(v, seed=9)

    def test_width_close_to_normal_approximation(self):
        # 100 Bernoulli(0.8) episodes; mean width over 50 bootstrap seeds
        rng = seeds.stream("bs-width")
        v = (rng.random(100) < 0.8).astype(float)
        widths = []
        for s in range(50):
            lo, hi = bootstrap_ci(v, resamples=1000, seed=s)
            widths.append(hi - lo)
        p_hat = v.mean()
        analytic = 2 * 1.959964 * math.sqrt(p_hat * (1 - p_hat) / len(v))
        assert abs(np.mean(widths) - analytic) / analytic <= 0.2

    def test_rejects_single_episode(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0])


class TestSweep:
    def test_singleton_grid_matches_direct_call(self):
        eps = [episode(i < 7, ["SLM"], z=i) for i in range(10)]
        direct = compute_metrics(eps)
        rows = sweep([{"point": 1}], lambda pt: compute_metrics(eps))
        assert rows[0]["point"] == 1
        assert rows[0]["success_rate"] == direct.success_rate
        assert rows[0]["llm_rate"] == direct.llm_rate

    def test_grid_shapes(self):
        grid_cvar = [{"alpha": a, "epsilon": e} for a, e in
                     [(0.05, 0.02), (0.05, 0.10), (0.10, 0.02), (0.10, 0.10),
                      (0.20, 0.10), (0.20, 0.15), (0.50, 0.10), (0.50, 0.15)]]
        assert len(grid_cvar) == 8
        from steprouter.features import FeatureMask

        assert len(list(FeatureMask)) == 8
        eps = [episode(True, ["SLM"], z=i) for i in range(3)]
        rows = sweep(grid_cvar, lambda pt: compute_metrics(eps))
        assert len(rows) == 8
