import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steprouter import seeds
from steprouter.distill import recovery_objective
from steprouter.domain import EnvConfig, PerturbationSeed
from steprouter.env import HazardChainEnv
from steprouter.policy import (
    PolicyFeaturizer,
    SoftmaxPolicy,
    TeacherPolicy,
    bc_dataset,
    bc_loss_and_grad,
    collect_teacher_trajectories,
    descend,
    draw_candidates,
    probabilities,
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
        [probs] = policy.action_distribution([sample_context(env)])
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
            [probs] = policy.action_distribution([sample_context(env, task)])
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
        [probs] = policy.action_distribution([sample_context(env)])
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
            assert np.allclose(policy.action_distribution([ctx])[0], expected, atol=1e-9)


class TestDistributionRows:
    def test_rows_equal_one_row_calls(self):
        # each row's logits are its own gemv, and the softmax runs along it
        env = make_env({"PartialObs": 0.5, "Distractor": 0.3})
        rng = seeds.stream("rows-test")
        feat = PolicyFeaturizer.for_env(env)
        policy = SoftmaxPolicy(rng.normal(size=(feat.dim, feat.action_count)) * 4,
                               rng.normal(size=feat.action_count), feat)
        contexts = []  # mid-episode contexts: a gemm over their rows rounds differently
        for task in range(8):
            seed = PerturbationSeed(task)
            state, ctx = env.reset(task, seed)
            for t in range(6):
                contexts.append(ctx)
                action = int(rng.integers(feat.action_count))
                state, obs, _, _ = env.step(state, action, seed, t)
                ctx = ctx.advanced(action, obs)
        block = policy.log_distribution(contexts)
        probs = policy.action_distribution(contexts)
        for i, ctx in enumerate(contexts):
            z = feat(ctx) @ policy.theta + policy.bias
            z = z - np.max(z)
            assert (z - np.log(np.sum(np.exp(z)))).tobytes() == block[i].tobytes()
            assert policy.log_distribution([ctx]).tobytes() == block[i:i + 1].tobytes()
            assert policy.action_distribution([ctx]).tobytes() == probs[i:i + 1].tobytes()


class TestSampling:
    def test_near_deterministic_policy_collapses(self):
        env = make_env()
        feat = PolicyFeaturizer.for_env(env)
        policy = SoftmaxPolicy.zeros(feat)
        policy.bias[2] = 50.0
        actions, _ = policy.sample_candidates([sample_context(env)], 5, [seeds.stream("s1")])
        assert actions.tolist() == [[2] * 5]

    def test_k_one_singleton(self):
        env = make_env()
        policy = SoftmaxPolicy.zeros(PolicyFeaturizer.for_env(env))
        actions, logps = policy.sample_candidates([sample_context(env)], 1, [seeds.stream("s2")])
        assert actions.shape == logps.shape == (1, 1)

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
        logp = np.log(policy.action_distribution([ctx])[0])
        actions, logps = policy.sample_candidates([ctx], 8, [seeds.stream("s4")])
        for a, lp in zip(actions[0], logps[0]):
            assert lp == pytest.approx(logp[a], abs=1e-9)

    def test_uniform_frequency_binomial_ci(self):
        # 1e5 draws from the uniform policy: each action within +-3 sigma
        env = make_env()
        policy = SoftmaxPolicy.zeros(PolicyFeaturizer.for_env(env))
        ctx = sample_context(env)
        rng = seeds.stream("s5")
        n = 100_000
        [draws], _ = policy.sample_candidates([ctx], n, [rng])
        counts = np.bincount(draws, minlength=env.config.action_count)
        p = 1.0 / env.config.action_count
        sigma = math.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 3 * sigma)


class TestDrawCandidates:
    """Inverse-CDF draws equal Generator.choice's, state after included."""

    @staticmethod
    def random_log_distribution(rng, n):
        logits = rng.normal(size=n) * rng.uniform(0.1, 60.0)
        zeros = rng.random(n) < 0.3
        zeros[int(rng.integers(n))] = False  # one action keeps mass
        logits[zeros] = -np.inf  # probability exactly 0
        z = logits - logits.max()
        return z - np.log(np.exp(z).sum())

    def test_matches_choice_and_its_generator_state(self):
        rng = seeds.stream("draw-reference")
        zero_entries = 0
        for _ in range(5000):
            logp = self.random_log_distribution(rng, int(rng.integers(2, 10)))
            probs = probabilities(logp)
            zero_entries += int((probs == 0.0).any())
            k = int(rng.integers(1, 12))
            key = int(rng.integers(1 << 62))
            ref, got = np.random.default_rng(key), np.random.default_rng(key)
            want = ref.choice(len(probs), size=k, p=probs)
            actions, logps = draw_candidates(logp[None], probs[None], k, [got])
            assert actions[0].tolist() == want.tolist()
            assert logps[0].tolist() == [float(logp[a]) for a in want]
            assert got.bit_generator.state == ref.bit_generator.state
        assert zero_entries > 1000

    def test_rows_draw_as_alone(self):
        # row i draws from its own generator: a block of rows gives the
        # draws, log-probs and generator states that one call per row gives
        rng = seeds.stream("draw-rows")
        zero_rows = 0
        for _ in range(300):
            n, width = int(rng.integers(1, 13)), int(rng.integers(2, 12))
            logp = np.stack([self.random_log_distribution(rng, width) for _ in range(n)])
            probs = probabilities(logp)
            zero_rows += int((probs == 0.0).any(axis=1).sum())
            k = int(rng.integers(1, 16))
            keys = rng.integers(1 << 62, size=n).tolist()
            block_rngs = [np.random.default_rng(key) for key in keys]
            actions, logps = draw_candidates(logp, probs, k, block_rngs)
            for i, key in enumerate(keys):
                alone = np.random.default_rng(key)
                one = slice(i, i + 1)
                assert probabilities(logp[i]).tobytes() == probs[i].tobytes()
                got = draw_candidates(logp[one], probs[one], k, [alone])
                assert got[0].tobytes() == actions[one].tobytes()
                assert got[1].tobytes() == logps[one].tobytes()
                assert alone.bit_generator.state == block_rngs[i].bit_generator.state
        assert zero_rows > 100

    def test_each_row_draws_exactly_k(self):
        # the step tree positions a run's cand stream by depth alone: t*K
        # draws after t expansions, whatever the row's distribution
        rng = seeds.stream("draw-count")
        for k in (1, 5, 9):
            logp = np.stack([self.random_log_distribution(rng, 6) for _ in range(4)])
            rngs = [seeds.stream("draw-count", i) for i in range(4)]
            draw_candidates(logp, probabilities(logp), k, rngs)
            for i, got in enumerate(rngs):
                fresh = seeds.stream("draw-count", i)
                fresh.bit_generator.advance(k)
                assert got.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("probs", [
        [0.5, 0.6, -0.1],  # a negative entry, sum 1
        [0.5, np.nan, 0.5],
        [0.5, np.inf, 0.5],
        [0.5, 0.5 + 1e-7, 0.0],  # sum off 1 beyond choice's tolerance
        [0.0, 0.0, 0.0],
    ])
    def test_refuses_what_choice_refuses(self, probs):
        p = np.array(probs)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, size=2, p=p)
        with pytest.raises(ValueError):
            draw_candidates(np.zeros((1, 3)), p[None], 2, [np.random.default_rng(0)])


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
        from steprouter.domain import EPISODE_SCHEMA, episode_to_dict, write_rljson

        env = make_env({"PartialObs": 0.4, "ToolFlaky": 0.2})
        teacher = TeacherPolicy(0.05)
        paths = [tmp_path / "a.rljson", tmp_path / "b.rljson"]
        for path in paths:
            pool = collect_teacher_trajectories(env, teacher, range(4), 3)
            write_rljson(path, [episode_to_dict(ep) for ep in pool], {"schema": EPISODE_SCHEMA})
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
        loss, _ = bc_loss_and_grad(
            np.zeros((feat.dim, feat.action_count)), np.zeros(feat.action_count), x, y
        )
        assert loss == pytest.approx(math.log(env.config.action_count), abs=1e-12)

    def test_single_pair_memorization(self):
        env = make_env()
        feat = PolicyFeaturizer.for_env(env)
        pool = collect_teacher_trajectories(env, TeacherPolicy(0.0), [0], 0)
        ep = pool[0]
        tiny = replace(ep, observations=ep.observations[:1], actions=ep.actions[:1],
                       executors=("LLM",), candidates=((),), router_probs=(None,),
                       decisions=(None,), success=True)
        [step] = tiny.steps
        policy, _ = train_bc([tiny], feat, epochs=400, lr=8.0)
        [probs] = policy.action_distribution([step.context])
        assert probs[step.chosen_action] >= 0.99

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
        g_theta, g_bias = bc_loss_and_grad(theta, bias, x, y)[1]()
        h = 1e-6
        for i in range(dim):
            for j in range(n_act):
                theta[i, j] += h
                up, _ = bc_loss_and_grad(theta, bias, x, y)
                theta[i, j] -= 2 * h
                dn, _ = bc_loss_and_grad(theta, bias, x, y)
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
        failed_pool = [replace(ep, success=False) for ep in pool]
        with pytest.raises(ValueError):
            train_bc(failed_pool, feat)


def eager_descend(objective, theta, bias, epochs, lr, halvings, grad_tol=0.0):
    """The line search with a gradient at every trial point, accepted or
    not: (theta, bias, trace, accepted epochs)."""
    loss, grad = objective(theta, bias)
    g_theta, g_bias = grad()
    trace, accepted_epochs = [loss], 0
    for _ in range(epochs):
        step = lr
        accepted = False
        for _ in range(halvings):
            theta2 = theta - step * g_theta
            bias2 = bias - step * g_bias
            loss2, grad2 = objective(theta2, bias2)
            g_theta2, g_bias2 = grad2()
            if loss2 <= loss:
                theta, bias, loss = theta2, bias2, loss2
                g_theta, g_bias = g_theta2, g_bias2
                accepted = True
                break
            step /= 2.0
        trace.append(loss)
        if not accepted:
            break
        accepted_epochs += 1
        if np.sqrt((g_theta**2).sum() + (g_bias**2).sum()) < grad_tol:
            break
    return theta, bias, trace, accepted_epochs


def random_problem(kind, seed):
    """(objective, theta0, bias0): a BC or a DPO + consistency objective on
    random data, the start drawn at random too."""
    rng = seeds.stream("descend-problem", kind, seed)
    dim, n_act = 6, 4
    if kind == "bc":
        x = rng.normal(size=(30, dim))
        y = rng.integers(0, n_act, size=30)
        objective = lambda theta, bias: bc_loss_and_grad(theta, bias, x, y)  # noqa: E731
    else:
        pair_x = rng.normal(size=(20, dim))
        plus = rng.integers(0, n_act, size=20)
        minus = (plus + rng.integers(1, n_act, size=20)) % n_act
        margin = rng.normal(size=20)
        cons_a, cons_b = rng.normal(size=(12, dim)), rng.normal(size=(12, dim))
        objective = lambda theta, bias: recovery_objective(  # noqa: E731
            theta, bias, pair_x, plus, minus, margin, 0.5, 0.7, cons_a, cons_b)
    return objective, rng.normal(size=(dim, n_act)), rng.normal(size=n_act)


def lazy_against_eager(kind, seed, epochs, lr, halvings, grad_tol):
    """Run `descend` and the eager loop on one problem; assert bit-equal
    results and one gradient at the start plus one per accepted epoch.
    Returns (trace, accepted epochs)."""
    objective, theta0, bias0 = random_problem(kind, seed)
    grads = []

    def counted(theta, bias):
        loss, grad = objective(theta, bias)
        return loss, lambda: grads.append(1) or grad()

    theta, bias, trace = descend(counted, theta0, bias0, epochs, lr, halvings, grad_tol)
    want_theta, want_bias, want_trace, accepted = eager_descend(
        objective, theta0, bias0, epochs, lr, halvings, grad_tol)
    assert theta.tobytes() == want_theta.tobytes()
    assert bias.tobytes() == want_bias.tobytes()
    assert trace == want_trace
    assert len(grads) == 1 + accepted
    return trace, accepted


class TestDescend:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["bc", "distill"]), seed=st.integers(0, 2**16),
           epochs=st.integers(0, 12), lr=st.sampled_from([0.5, 4.0, 64.0, 256.0]),
           halvings=st.integers(1, 8), grad_tol=st.sampled_from([0.0, 1e-3, 0.05, 1e3]))
    @example(kind="bc", seed=1, epochs=6, lr=256.0, halvings=1, grad_tol=0.0)
    @example(kind="distill", seed=2, epochs=6, lr=4.0, halvings=4, grad_tol=1e3)
    def test_lazy_gradients_equal_eager(self, kind, seed, epochs, lr, halvings, grad_tol):
        lazy_against_eager(kind, seed, epochs, lr, halvings, grad_tol)

    @pytest.mark.parametrize("kind", ["bc", "distill"])
    def test_an_epoch_without_descent_stops(self, kind):
        # a step of 256 with no halving overshoots: the epoch takes no step,
        # its trace entry repeats the loss, and its gradient is never taken
        trace, accepted = lazy_against_eager(kind, 1, 6, 256.0, 1, 0.0)
        assert accepted == 0 and trace[0] == trace[1] and len(trace) == 2

    @pytest.mark.parametrize("kind", ["bc", "distill"])
    def test_gradient_tolerance_stops(self, kind):
        # a tolerance above every gradient norm stops after the first step
        trace, accepted = lazy_against_eager(kind, 2, 6, 4.0, 8, 1e3)
        assert accepted == 1 and len(trace) == 2 and trace[1] < trace[0]


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
