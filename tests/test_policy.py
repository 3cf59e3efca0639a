import math

import numpy as np
import pytest

from steprouter import seeds
from steprouter.domain import EnvConfig, PerturbationSeed
from steprouter.env import HazardChainEnv
from steprouter.policy import (
    PolicyFeaturizer,
    SoftmaxPolicy,
    TeacherPolicy,
    bc_dataset,
    bc_loss_and_grad,
    collect_teacher_trajectories,
    train_bc,
)


def make_env(intensities=None, **kw):
    cfg = EnvConfig(family_intensities=intensities or {}, **kw)
    return HazardChainEnv(cfg, task_count=8)


def sample_context(env, task_id=0, z=0):
    _, ctx = env.reset(task_id, PerturbationSeed(z))
    return ctx


class TestActionDistribution:
    def test_zero_parameters_uniform(self):
        env = make_env()
        policy = SoftmaxPolicy.zeros(PolicyFeaturizer.for_env(env))
        probs = policy.action_distribution(sample_context(env))
        assert np.allclose(probs, 1.0 / env.config.action_count, atol=1e-12)

    def test_normalization_tight(self):
        env = make_env({"PartialObs": 0.5})
        rng = seeds.stream("norm-test")
        feat = PolicyFeaturizer.for_env(env)
        policy = SoftmaxPolicy(
            rng.normal(size=(feat.dim, feat.action_count)) * 3,
            rng.normal(size=feat.action_count),
            feat,
        )
        for task in range(4):
            probs = policy.action_distribution(sample_context(env, task))
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(np.isfinite(np.log(probs + 1e-300)))

    def test_high_temperature_limit_uniform(self):
        # logits scaled by 1e-4: the softmax at temperature 1e4
        env = make_env()
        rng = seeds.stream("temp-test")
        feat = PolicyFeaturizer.for_env(env)
        policy = SoftmaxPolicy(
            rng.normal(size=(feat.dim, feat.action_count)) * 1e-4,
            rng.normal(size=feat.action_count) * 1e-4,
            feat,
        )
        probs = policy.action_distribution(sample_context(env))
        assert np.max(np.abs(probs - 1.0 / env.config.action_count)) < 1e-3

    def test_matches_logsumexp_oracle(self):
        # independent exponentiate-normalize oracle
        env = make_env({"PartialObs": 0.3})
        rng = seeds.stream("oracle-test")
        feat = PolicyFeaturizer.for_env(env)
        for trial in range(20):
            policy = SoftmaxPolicy(
                rng.normal(size=(feat.dim, feat.action_count)) * 2,
                rng.normal(size=feat.action_count),
                feat,
            )
            ctx = sample_context(env, trial % 4, trial)
            logits = feat(ctx) @ policy.theta + policy.bias
            expected = np.exp(logits) / np.exp(logits).sum()
            assert np.allclose(policy.action_distribution(ctx), expected, atol=1e-9)


class TestSampling:
    def test_near_deterministic_policy_collapses(self):
        env = make_env()
        feat = PolicyFeaturizer.for_env(env)
        policy = SoftmaxPolicy.zeros(feat)
        policy.bias[2] = 50.0
        cands = policy.sample_candidates(sample_context(env), 5, seeds.stream("s1"))
        assert all(a == 2 for a, _ in cands)

    def test_k_one_singleton(self):
        env = make_env()
        policy = SoftmaxPolicy.zeros(PolicyFeaturizer.for_env(env))
        assert len(policy.sample_candidates(sample_context(env), 1, seeds.stream("s2"))) == 1

    def test_logprobs_match_distribution(self):
        env = make_env()
        feat = PolicyFeaturizer.for_env(env)
        rng = seeds.stream("s3")
        policy = SoftmaxPolicy(
            rng.normal(size=(feat.dim, feat.action_count)),
            rng.normal(size=feat.action_count),
            feat,
        )
        ctx = sample_context(env)
        logp = np.log(policy.action_distribution(ctx))
        for a, lp in policy.sample_candidates(ctx, 8, seeds.stream("s4")):
            assert lp == pytest.approx(logp[a], abs=1e-9)

    def test_uniform_frequency_binomial_ci(self):
        # 1e5 draws from the uniform policy: each action within +-3 sigma
        env = make_env()
        policy = SoftmaxPolicy.zeros(PolicyFeaturizer.for_env(env))
        ctx = sample_context(env)
        rng = seeds.stream("s5")
        n = 100_000
        draws = [a for a, _ in policy.sample_candidates(ctx, n, rng)]
        counts = np.bincount(draws, minlength=env.config.action_count)
        p = 1.0 / env.config.action_count
        sigma = math.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 3 * sigma)


class TestTeacherCollection:
    def test_zero_error_zero_intensity_all_succeed(self):
        env = make_env()
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.0), range(8), 5)
        assert all(ep.success for ep in pool)

    def test_pool_counts(self):
        env = make_env({"PartialObs": 0.4})
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.02), range(8), 5)
        assert sum(1 for ep in pool if ep.kind == "pert") == 5 * 8
        assert sum(1 for ep in pool if ep.kind == "exp") == 8

    def test_collection_byte_identical(self, tmp_path):
        from steprouter.domain import episode_to_dict, write_rljson

        env = make_env({"PartialObs": 0.4, "ToolFlaky": 0.2})
        teacher = TeacherPolicy(0.05)
        paths = [tmp_path / "a.rljson", tmp_path / "b.rljson"]
        for path in paths:
            pool = collect_teacher_trajectories(env, teacher, range(4), 3)
            write_rljson(path, [episode_to_dict(ep) for ep in pool], {"schema": "episodes@1"})
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_teacher_steps_are_llm(self):
        env = make_env()
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.0), range(2), 1)
        for ep in pool:
            assert ep.llm_calls == len(ep.steps)


class TestBehavioralCloning:
    def test_loss_at_zero_is_log_action_count(self):
        env = make_env()
        feat = PolicyFeaturizer.for_env(env)
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.0), range(4), 2)
        x, y, _ = bc_dataset(pool, feat)
        loss, _, _ = bc_loss_and_grad(
            np.zeros((feat.dim, feat.action_count)), np.zeros(feat.action_count), x, y
        )
        assert loss == pytest.approx(math.log(env.config.action_count), abs=1e-12)

    def test_single_pair_memorization(self):
        env = make_env()
        feat = PolicyFeaturizer.for_env(env)
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.0), [0], 0)
        one_step = pool[0].steps[:1]
        from steprouter.domain import PerturbedEpisode

        tiny = PerturbedEpisode(
            task_id=0, seed=pool[0].seed, steps=one_step, success=True, llm_calls=1
        )
        policy, _ = train_bc([tiny], feat, epochs=400, lr=8.0)
        probs = policy.action_distribution(one_step[0].context)
        assert probs[one_step[0].chosen_action] >= 0.99

    def test_loss_trace_non_increasing(self):
        env = make_env({"PartialObs": 0.5})
        feat = PolicyFeaturizer.for_env(env)
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.02), range(8), 4)
        _, trace = train_bc(pool, feat, epochs=50, lr=4.0)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = seeds.stream("bc-fd")
        dim, n_act, n = 7, 4, 18
        x = rng.normal(size=(n, dim))
        y = rng.integers(0, n_act, size=n)
        theta = rng.normal(size=(dim, n_act))
        bias = rng.normal(size=n_act)
        _, g_theta, g_bias = bc_loss_and_grad(theta, bias, x, y)
        h = 1e-6
        for i in range(dim):
            for j in range(n_act):
                theta[i, j] += h
                up, _, _ = bc_loss_and_grad(theta, bias, x, y)
                theta[i, j] -= 2 * h
                dn, _, _ = bc_loss_and_grad(theta, bias, x, y)
                theta[i, j] += h
                fd = (up - dn) / (2 * h)
                assert abs(fd - g_theta[i, j]) <= 1e-5 * max(1.0, abs(fd))

    def test_failed_episodes_excluded(self):
        env = make_env({"ToolFlaky": 0.5})
        feat = PolicyFeaturizer.for_env(env)
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.3), range(8), 5)
        assert any(not ep.success for ep in pool)
        _, _, sources = bc_dataset(pool, feat)
        failed = {(ep.task_id, ep.seed.z) for ep in pool if not ep.success}
        assert not failed & set(sources)

    def test_rejects_pool_without_successes(self):
        env = make_env()
        feat = PolicyFeaturizer.for_env(env)
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.0), range(2), 0)
        failed_pool = [
            type(ep)(
                task_id=ep.task_id,
                seed=ep.seed,
                steps=ep.steps,
                success=False,
                llm_calls=ep.llm_calls,
                kind=ep.kind,
            )
            for ep in pool
        ]
        with pytest.raises(ValueError):
            train_bc(failed_pool, feat)


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        env = make_env()
        feat = PolicyFeaturizer.for_env(env)
        rng = seeds.stream("ckpt")
        policy = SoftmaxPolicy(
            rng.normal(size=(feat.dim, feat.action_count)),
            rng.normal(size=feat.action_count),
            feat,
            stage="bc",
        )
        path = tmp_path / "p.bin"
        policy.save(path)
        loaded = SoftmaxPolicy.load(path)
        assert loaded.param_hash() == policy.param_hash()
        assert loaded.stage == "bc"

    def test_frozen_reference_immutable(self):
        env = make_env()
        policy = SoftmaxPolicy.zeros(PolicyFeaturizer.for_env(env))
        ref = policy.frozen_reference()
        with pytest.raises(ValueError):
            ref.theta[0, 0] = 1.0
