import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steprouter import seeds
from steprouter.domain import EnvConfig, PerturbationSeed
from steprouter.env import ACTION_HAZARD, HazardChainEnv
from steprouter.verifier import (
    BASE_NEUTRAL,
    BASE_OPTIMAL,
    PAIR_GAP,
    VerifierSpec,
    jitter_width,
    pseudo_entropy,
    score_candidates,
)


def env_and_spec(eta_v=0.0):
    env = HazardChainEnv(EnvConfig(rng_seed=7), task_count=4)
    return env, VerifierSpec.for_env(env, eta_v=eta_v)


def fixed_quality(vec):
    arr = np.asarray(vec, dtype=float)
    return lambda ctx: arr


def score_one(spec, ctx, action, rng):
    return float(score_candidates(spec, ctx, [action], rng)[0])


def choose(spec, ctx, cands, rng):
    """The rollout's local choice: verifier argmax over the K candidates."""
    scores = score_candidates(spec, ctx, [a for a, _ in cands], rng)
    return cands[int(np.argmax(scores))][0], scores


class TestScore:
    def test_noiseless_optimal_clears_threshold(self):
        env, spec = env_and_spec(eta_v=0.0)
        _, ctx = env.reset(0, PerturbationSeed(0))
        task = env.task_spec(0)
        state = env.replay(task, ctx.actions)
        opt = env.optimal_action(task, state)
        s = score_one(spec, ctx, opt, seeds.stream("v0"))
        assert s >= spec.gamma_threshold

    def test_noiseless_hazard_below_threshold(self):
        env, spec = env_and_spec(eta_v=0.0)
        _, ctx = env.reset(0, PerturbationSeed(0))
        s = score_one(spec, ctx, ACTION_HAZARD, seeds.stream("v1"))
        assert s < spec.gamma_threshold

    def test_scores_clipped_to_unit_interval(self):
        spec = VerifierSpec(quality=fixed_quality([0.99, 0.01]), eta_v=0.45)
        rng = seeds.stream("v2")
        vals = [score_one(spec, None, a, rng) for a in (0, 1) for _ in range(500)]
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_misrank_rate_bounded_at_eta(self):
        # Monte Carlo pairwise rank test at the minimal good/bad gap
        eta = 0.1
        spec = VerifierSpec(
            quality=fixed_quality([BASE_OPTIMAL, BASE_NEUTRAL]), eta_v=eta
        )
        rng = seeds.stream("v3")
        n = 100_000
        mis = 0
        for _ in range(n):
            good = score_one(spec, None, 0, rng)
            bad = score_one(spec, None, 1, rng)
            mis += bad >= good
        assert mis / n <= eta + 0.01

    def test_jitter_width_formula(self):
        # misrank probability of the triangular difference equals eta exactly
        for eta in (0.05, 0.1, 0.2, 0.3):
            w = jitter_width(eta)
            analytic = (2 * w - PAIR_GAP) ** 2 / (8 * w * w)
            assert analytic == pytest.approx(eta, abs=1e-12)
        assert jitter_width(0.0) == 0.0
        with pytest.raises(ValueError):
            jitter_width(0.5)

    def test_score_candidates_matches_sequential_scores(self):
        spec = VerifierSpec(quality=fixed_quality([0.6, 0.5, 0.4]), eta_v=0.2)
        batch = score_candidates(spec, None, [0, 1, 2, 0], seeds.stream("v4"))
        rng = seeds.stream("v4")
        sequential = [score_one(spec, None, a, rng) for a in [0, 1, 2, 0]]
        assert batch.tolist() == sequential  # one vector draw == K scalar draws


class TestBestOfK:
    def test_single_candidate(self):
        env, spec = env_and_spec()
        _, ctx = env.reset(0, PerturbationSeed(0))
        action, scores = choose(spec, ctx, [(1, -0.1)], seeds.stream("b0"))
        assert action == 1 and len(scores) == 1

    def test_tie_breaks_lowest_index(self):
        spec = VerifierSpec(quality=fixed_quality([0.5, 0.5, 0.5]), eta_v=0.0)
        action, _ = choose(spec, None, [(2, -0.1), (0, -0.2), (1, -0.3)], seeds.stream("b1"))
        assert action == 2  # first in candidate order

    def test_noiseless_prefers_optimal(self):
        env, spec = env_and_spec(eta_v=0.0)
        _, ctx = env.reset(1, PerturbationSeed(0))
        task = env.task_spec(1)
        opt = env.optimal_action(task, env.replay(task, ctx.actions))
        cands = [(a, -1.0) for a in range(env.config.action_count)]
        action, _ = choose(spec, ctx, cands, seeds.stream("b2"))
        assert action == opt

    def test_selection_bound_spot_cell(self):
        # mu = 0.5, K = 5, eta 0: P(chosen in the good set) >= 1 - 0.5^5
        rng = seeds.stream("b3")
        spec = VerifierSpec(
            quality=fixed_quality([BASE_OPTIMAL, BASE_NEUTRAL]), eta_v=0.0
        )
        trials = 20_000
        hits = 0
        for _ in range(trials):
            cands = [(0 if rng.random() < 0.5 else 1, -1.0) for _ in range(5)]
            chosen, _ = choose(spec, None, cands, rng)
            hits += chosen == 0
        emp = hits / trials
        bound = 1 - 0.5**5
        sigma = math.sqrt(emp * (1 - emp) / trials)
        assert emp >= bound - 3 * sigma


class TestPseudoEntropy:
    def test_equal_scores_give_one(self):
        assert pseudo_entropy([0.3, 0.3, 0.3, 0.3]) == pytest.approx(1.0, abs=1e-12)

    def test_dominant_score_near_zero(self):
        s = 5.0
        assert pseudo_entropy([s, s - 20, s - 20, s - 20, s - 20]) < 0.01

    def test_direct_formula_oracle(self):
        scores = [0.9, 0.1, 0.1, 0.1, 0.1]
        e = np.exp(scores)
        p = e / e.sum()
        expected = -(p * np.log(p)).sum() / math.log(5)
        assert pseudo_entropy(scores) == pytest.approx(expected, abs=1e-9)

    def test_rejects_single_score(self):
        with pytest.raises(ValueError):
            pseudo_entropy([0.5])

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.floats(0, 1), min_size=2, max_size=10),
        shift=st.floats(-5, 5),
    )
    def test_permutation_and_shift_invariance(self, scores, shift):
        base = pseudo_entropy(scores)
        assert pseudo_entropy(list(reversed(scores))) == pytest.approx(base, abs=1e-9)
        assert pseudo_entropy([s + shift for s in scores]) == pytest.approx(
            base, abs=1e-9
        )
        assert 0.0 <= base <= 1.0 + 1e-12
