import math

import numpy as np
import pytest

from steprouter import seeds
from steprouter.distill import (
    DistillConfig,
    PreferencePair,
    SOURCE_TEACHER,
    SOURCE_VERIFIER,
    _objective_and_grad,
    build_preferences,
    dpo_margin,
    jsd,
    total_variation,
    train_recovery,
)
from steprouter.domain import Context, EnvConfig
from steprouter.env import HazardChainEnv
from steprouter.policy import (
    PolicyFeaturizer,
    SoftmaxPolicy,
    TeacherPolicy,
    collect_teacher_trajectories,
    train_bc,
)
from steprouter.verifier import VerifierSpec


def make_env(intensities=None, **kw):
    cfg = EnvConfig(family_intensities=intensities or {}, rng_seed=5, **kw)
    return HazardChainEnv(cfg, task_count=6)


def trained_bc(env, pert=4):
    teacher = TeacherPolicy(0.02)
    pool = collect_teacher_trajectories(env, teacher, range(env.task_count), pert)
    policy, _ = train_bc(pool, PolicyFeaturizer.for_env(env), epochs=50, lr=4.0)
    return policy, pool, teacher


def simple_context():
    return Context(goal=(0,), observations=((1,),), actions=(), step_index=0)


def two_action_world():
    feat = PolicyFeaturizer(vocab_size=4, action_count=2, horizon=2, prog_base=3)
    return feat, simple_context()


def objective(policy, ref, pairs, views, beta=1.0, lambda_cons=0.0):
    """The trained DPO + consistency objective at the policy's parameters."""
    feat = policy.featurizer
    pair_x = feat.matrix([p.context for p in pairs])
    plus = np.array([p.a_plus for p in pairs], dtype=int)
    minus = np.array([p.a_minus for p in pairs], dtype=int)
    ref_logits = pair_x @ ref.theta + ref.bias
    rows = np.arange(len(pairs))
    ref_margin = ref_logits[rows, plus] - ref_logits[rows, minus]
    cons_a = feat.matrix([a for a, _ in views])
    cons_b = feat.matrix([b for _, b in views])
    loss, _, _ = _objective_and_grad(
        policy.theta, policy.bias, ref, pair_x, plus, minus, ref_margin, beta,
        lambda_cons, cons_a, cons_b,
    )
    return loss


def mean_jsd(policy, views):
    """The consistency term alone: mean JSD across the paired views."""
    return objective(policy, policy.frozen_reference(), [], views, lambda_cons=1.0)


class TestBuildPreferences:
    def test_all_above_threshold_verifier_ranked(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.0, gamma_threshold=0.0)
        pairs, views, counters = build_preferences(bc, pool, spec, teacher, env, k=5)
        assert counters["teacher_recovered"] == 0
        assert all(p.source == SOURCE_VERIFIER for p in pairs)

    def test_all_below_threshold_teacher_recovered(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.0, gamma_threshold=1.0)
        pairs, _, counters = build_preferences(bc, pool, spec, teacher, env, k=5)
        assert counters["verifier_ranked"] == 0
        assert all(p.source == SOURCE_TEACHER for p in pairs)

    def test_pair_count_bounded_by_contexts(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.1)
        pairs, _, counters = build_preferences(bc, pool, spec, teacher, env, k=5)
        n_contexts = sum(len(ep.steps) for ep in pool)
        assert len(pairs) <= n_contexts
        assert len(pairs) + counters["skipped"] == n_contexts

    def test_requires_bc_stage(self):
        env = make_env()
        bc, pool, teacher = trained_bc(env)
        with pytest.raises(ValueError):
            build_preferences(bc.clone(stage="distilled"), pool,
                              VerifierSpec.for_env(env), teacher, env)

    def test_pairs_are_distinct_actions(self):
        env = make_env({"PartialObs": 0.5})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.2)
        pairs, _, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        assert all(p.a_plus != p.a_minus for p in pairs)


class TestDpoLoss:
    def test_zero_margin_gives_log_two(self):
        feat, ctx = two_action_world()
        bc = SoftmaxPolicy.zeros(feat, stage="bc")
        ref = bc.frozen_reference()
        pair = PreferencePair(ctx, 0, 1, SOURCE_VERIFIER)
        assert objective(bc, ref, [pair], [], beta=0.1) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_margin_vanishes(self):
        feat, ctx = two_action_world()
        bc = SoftmaxPolicy.zeros(feat, stage="bc")
        ref = bc.frozen_reference()
        policy = bc.clone()
        policy.bias[0] = 400.0  # huge preferred-action logit
        pair = PreferencePair(ctx, 0, 1, SOURCE_VERIFIER)
        assert objective(policy, ref, [pair], [], beta=1.0) < 1e-12

    def test_margin_accounts_for_reference(self):
        feat, ctx = two_action_world()
        bc = SoftmaxPolicy.zeros(feat, stage="bc")
        bc.bias[0] = 2.0
        ref = bc.frozen_reference()
        # policy identical to the reference: margin is exactly zero
        u = dpo_margin(bc.theta, bc.bias, ref, feat(ctx), 0, 1, beta=0.5)
        assert u == pytest.approx(0.0, abs=1e-12)


class TestConsistencyLoss:
    def test_identical_views_zero(self):
        env = make_env()
        bc, pool, _ = trained_bc(env)
        views = [(pool[0].steps[0].context, pool[0].steps[0].context)]
        assert mean_jsd(bc, views) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_log_two(self):
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_jsd_bounds(self):
        rng = seeds.stream("jsd-bounds")
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(dim))
            q = rng.dirichlet(np.ones(dim))
            v = jsd(p, q)
            assert -1e-12 <= v <= math.log(2) + 1e-12

    def test_tv_jsd_inequality_sample(self):
        rng = seeds.stream("tv-jsd-sample")
        for _ in range(2000):
            dim = int(rng.integers(2, 11))
            p = rng.dirichlet(np.ones(dim))
            q = rng.dirichlet(np.ones(dim))
            assert total_variation(p, q) <= math.sqrt(2 * jsd(p, q)) + 1e-9


class TestTrainRecovery:
    def test_noisy_margin_matches_flip_rate(self):
        # population minimizer of the flipped-pair logistic risk
        from steprouter.theory import noisy_margin

        u = noisy_margin(0.1)
        assert u == pytest.approx(math.log(9.0), abs=1e-3)

    def test_separable_margin_grows(self):
        feat, ctx = two_action_world()
        bc = SoftmaxPolicy.zeros(feat, stage="bc")
        ref = bc.frozen_reference()
        pairs = [PreferencePair(ctx, 0, 1, SOURCE_VERIFIER)] * 50
        margins = []
        for epochs in (5, 20, 80):
            policy, _ = train_recovery(
                bc, pairs, [], DistillConfig(beta=0.1, lambda_cons=0.0,
                                             epochs=epochs, lr=10.0)
            )
            margins.append(dpo_margin(policy.theta, policy.bias, ref, feat(ctx), 0, 1, 0.1))
        assert margins[0] < margins[1] < margins[2]

    def test_strong_consistency_collapses_jsd(self):
        env = make_env({"PartialObs": 0.6, "ToolFlaky": 0.3})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.1)
        pairs, views, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        assert views
        policy, _ = train_recovery(
            bc, pairs, views, DistillConfig(beta=2.0, lambda_cons=1e3, epochs=120, lr=4.0)
        )
        assert mean_jsd(policy, views) < 0.01

    def test_reference_hash_unchanged(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.1)
        pairs, views, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        before = bc.param_hash()
        _, report = train_recovery(bc, pairs, views, DistillConfig(epochs=30))
        assert bc.param_hash() == before
        assert report["reference_hash"] == before

    def test_objective_non_increasing(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.1)
        pairs, views, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        _, report = train_recovery(bc, pairs, views, DistillConfig(epochs=40))
        trace = report["loss_trace"]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_distilled_stage_tag(self):
        env = make_env()
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.0)
        pairs, views, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        policy, _ = train_recovery(bc, pairs, views, DistillConfig(epochs=5))
        assert policy.stage == "distilled"
        assert bc.stage == "bc"
