import math

import numpy as np
import pytest

from steprouter import seeds
from steprouter.domain import Context
from steprouter.features import (
    FEATURE_DIM,
    FeatureLimits,
    FeatureMask,
    apply_mask,
    extract,
)
from steprouter.verifier import pseudo_entropy

LIMITS = FeatureLimits(horizon=20, horizon_max=64, max_context_tokens=256, max_goal_len=5)


def ctx_at(t=4, goal_len=3):
    return Context(
        goal=tuple(35 + i for i in range(goal_len)),
        observations=tuple((4, 16, 29, 31) for _ in range(t + 1)),
        actions=tuple(1 for _ in range(t)),
        step_index=t,
    )


def hand_built_step():
    """K=5 candidates with scores 0.2/0.4/0.6/0.8/1.0 and uniform policy."""
    probs = np.full(6, 1 / 6)
    candidates = [(0, -1.0), (1, -2.0), (2, -3.0), (3, -1.5), (4, -0.5)]
    scores = [0.2, 0.4, 0.6, 0.8, 1.0]
    return probs, candidates, scores


class TestExtract:
    def test_uniform_policy_max_entropy(self):
        probs, cands, scores = hand_built_step()
        f = extract(ctx_at(), probs, cands, scores, LIMITS)
        assert f[0] == pytest.approx(1.0, abs=1e-12)

    def test_verifier_statistics_oracle(self):
        probs, cands, scores = hand_built_step()
        f = extract(ctx_at(), probs, cands, scores, LIMITS)
        assert f[3] == pytest.approx(0.6)   # mean
        assert f[5] == pytest.approx(0.8)   # spread
        assert f[6] == pytest.approx(1.0)   # best
        assert f[7] == pytest.approx(0.2)   # worst
        assert f[4] == pytest.approx(np.std(scores))

    def test_identical_candidates_consistency(self):
        probs = np.full(6, 1 / 6)
        cands = [(2, -1.0)] * 5
        scores = [0.5] * 5
        f = extract(ctx_at(), probs, cands, scores, LIMITS)
        assert f[8] == pytest.approx(1.0)
        assert f[9] == pytest.approx(0.0)

    def test_distinct_candidates_semantic_entropy_one(self):
        probs = np.full(6, 1 / 6)
        cands = [(a, -1.0) for a in range(5)]
        scores = [0.5, 0.6, 0.7, 0.4, 0.3]
        f = extract(ctx_at(), probs, cands, scores, LIMITS)
        assert f[9] == pytest.approx(1.0, abs=1e-12)
        assert f[8] == pytest.approx(1 / 5)

    def test_step_and_context_slots(self):
        probs, cands, scores = hand_built_step()
        t = 4
        ctx = ctx_at(t=t, goal_len=3)
        f = extract(ctx, probs, cands, scores, LIMITS)
        assert f[10] == pytest.approx(t / 20)
        assert f[11] == pytest.approx(t / 64)
        assert f[12] == pytest.approx(ctx.tokens_seen() / 256)
        assert f[13] == pytest.approx(3 / 5)

    def test_logprob_stats_clipped(self):
        probs = np.full(6, 1 / 6)
        cands = [(0, -50.0), (1, -0.5)]
        scores = [0.4, 0.6]
        f = extract(ctx_at(), probs, cands, scores, LIMITS)
        assert f[1] == pytest.approx(np.mean([-20.0, -0.5]))
        assert f[2] == pytest.approx(np.std([-20.0, -0.5]))

    def test_pseudo_entropy_slot_matches_module(self):
        probs, cands, scores = hand_built_step()
        f = extract(ctx_at(), probs, cands, scores, LIMITS)
        assert f[14] == pytest.approx(pseudo_entropy(scores), abs=1e-12)

    def test_permutation_invariance(self):
        probs, cands, scores = hand_built_step()
        f = extract(ctx_at(), probs, cands, scores, LIMITS)
        rng = seeds.stream("perm")
        for _ in range(5):
            order = rng.permutation(len(cands))
            f2 = extract(
                ctx_at(),
                probs,
                [cands[i] for i in order],
                [scores[i] for i in order],
                LIMITS,
            )
            assert np.allclose(f, f2)

    def test_bounded_norm(self):
        probs, cands, scores = hand_built_step()
        f = extract(ctx_at(), probs, cands, scores, LIMITS)
        assert np.all(np.isfinite(f))
        assert np.linalg.norm(f) <= math.sqrt(FEATURE_DIM) * 20.0
        in_unit = [0, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14]
        assert np.all(f[in_unit] >= 0.0) and np.all(f[in_unit] <= 1.0)

    def test_rejects_single_candidate(self):
        probs = np.full(6, 1 / 6)
        with pytest.raises(ValueError):
            extract(ctx_at(), probs, [(0, -1.0)], [0.5], LIMITS)


def reference_extract(ctx, action_probs, candidates, scores, limits):
    """Per-array reductions and np.unique: the layout's direct definition."""
    probs = np.asarray(action_probs, dtype=float)
    k = len(candidates)
    nz = probs[probs > 0.0]
    entropy = min(1.0, -float(np.sum(nz * np.log(nz))) / math.log(len(probs)))
    logps = np.clip([lp for _, lp in candidates], limits.logprob_floor, 0.0)
    s = np.asarray(scores, dtype=float)
    _, counts = np.unique([a for a, _ in candidates], return_counts=True)
    q = counts / k
    t = ctx.step_index
    return np.array([
        entropy, logps.mean(), logps.std(), s.mean(), s.std(), s.max() - s.min(),
        s.max(), s.min(), counts.max() / k,
        min(1.0, -float(np.sum(q * np.log(q))) / math.log(k)),
        t / limits.horizon, t / limits.horizon_max,
        min(1.0, ctx.tokens_seen() / limits.max_context_tokens),
        min(1.0, len(ctx.goal) / limits.max_goal_len),
        pseudo_entropy(s),
    ])


class TestExtractMatchesReference:
    def test_bit_equal_on_random_steps(self):
        rng = seeds.stream("extract-reference")
        for _ in range(3000):
            k = int(rng.integers(2, 12))
            logits = rng.normal(size=6) * rng.uniform(0.1, 40.0)
            logp = logits - logits.max()
            logp -= np.log(np.exp(logp).sum())
            probs = np.exp(logp) / np.exp(logp).sum()
            cands = [(int(a), float(logp[a])) for a in rng.choice(6, size=k, p=probs)]
            scores = rng.uniform(0.0, 1.0, size=k)
            ctx = ctx_at(t=int(rng.integers(0, 20)))
            got = extract(ctx, probs, cands, scores, LIMITS)
            want = reference_extract(ctx, probs, cands, scores, LIMITS)
            assert got.tobytes() == want.tobytes()


class TestMasks:
    def full_vector(self):
        probs, cands, scores = hand_built_step()
        return extract(ctx_at(), probs, cands, scores, LIMITS)

    def test_full_is_identity(self):
        f = self.full_vector()
        assert np.array_equal(apply_mask(f, FeatureMask.FULL), f)

    def test_no_verifier_zeroes_slots(self):
        f = apply_mask(self.full_vector(), FeatureMask.NO_VERIFIER)
        assert np.all(f[3:8] == 0.0)
        assert f[14] == 0.0
        assert f[8] != 0.0  # candidate consistency is not a verifier slot

    def test_no_entropy_zeroes_slots(self):
        f = apply_mask(self.full_vector(), FeatureMask.NO_ENTROPY)
        assert np.all(f[[0, 1, 2, 9]] == 0.0)
        assert f[3] != 0.0

    def test_pseudo_entropy_copies_slot(self):
        raw = self.full_vector()
        f = apply_mask(raw, FeatureMask.PSEUDO_ENTROPY)
        assert f[0] == pytest.approx(pseudo_entropy([0.2, 0.4, 0.6, 0.8, 1.0]), abs=1e-9)
        assert np.all(f[[1, 2, 9]] == 0.0)
        assert f[14] == raw[14]

    def test_keep_only_variants(self):
        raw = self.full_vector()
        cases = {
            FeatureMask.VERIFIER_ONLY: {3, 4, 5, 6, 7, 14},
            FeatureMask.ENTROPY_ONLY: {0, 9},
            FeatureMask.LOGPROB_ONLY: {1, 2},
            FeatureMask.STEP_CONTEXT_ONLY: {10, 11, 12, 13},
        }
        for mask, keep in cases.items():
            f = apply_mask(raw, mask)
            for i in range(FEATURE_DIM):
                if i in keep:
                    assert f[i] == raw[i]
                else:
                    assert f[i] == 0.0

    def test_masking_idempotent(self):
        raw = self.full_vector()
        for mask in FeatureMask:
            once = apply_mask(raw, mask)
            twice = apply_mask(once, mask)
            assert np.array_equal(once, twice)

    def test_mask_does_not_mutate_input(self):
        raw = self.full_vector()
        copy = raw.copy()
        apply_mask(raw, FeatureMask.NO_VERIFIER)
        assert np.array_equal(raw, copy)
