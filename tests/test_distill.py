import json
import math
import warnings

import numpy as np
import pytest

from steprouter import distill, seeds
from steprouter.distill import (
    DistillConfig,
    build_consistency_views,
    build_preferences,
    dpo_margin,
    jsd,
    recovery_objective,
    total_variation,
    train_recovery,
)
from steprouter.domain import (
    SOURCE_TEACHER,
    SOURCE_VERIFIER,
    Context,
    EnvConfig,
    PreferencePair,
    pair_from_dict,
    pair_record,
)
from steprouter.env import HazardChainEnv
from steprouter.policy import (
    PolicyFeaturizer,
    SoftmaxPolicy,
    TeacherPolicy,
    collect_teacher_trajectories,
    train_bc,
)
from steprouter.verifier import VerifierSpec, score_candidates


def make_env(intensities=None, **kw):
    cfg = EnvConfig(family_intensities=intensities or {}, rng_seed=5, **kw)
    return HazardChainEnv(cfg, task_count=6)


def trained_bc(env, pert=4):
    teacher = TeacherPolicy(0.02)
    pool = collect_teacher_trajectories(env, teacher, range(env.task_count), pert)
    policy, _ = train_bc(pool, PolicyFeaturizer.for_env(env), epochs=50, lr=4.0)
    return policy, pool, teacher


def simple_context():
    return Context(goal=(0,), observation=(1,), actions=(), tokens_seen=2)


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
    loss, _ = recovery_objective(
        policy.theta, policy.bias, pair_x, plus, minus, ref_margin, beta,
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
        pairs, counters = build_preferences(bc, pool, spec, teacher, env, k=5)
        assert counters["teacher_recovered"] == 0
        assert all(p.source == SOURCE_VERIFIER for p in pairs)

    def test_all_below_threshold_teacher_recovered(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.0, gamma_threshold=1.0)
        pairs, counters = build_preferences(bc, pool, spec, teacher, env, k=5)
        assert counters["verifier_ranked"] == 0
        assert all(p.source == SOURCE_TEACHER for p in pairs)

    def test_teacher_recovers_the_episodes_own_task(self):
        # a noiseless teacher's recovered action is the optimal action of the
        # pooled episode's task at that context's latent state
        env = make_env({"PartialObs": 0.4})
        bc, pool, _ = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.0, gamma_threshold=1.0)
        pairs, counters = build_preferences(bc, pool, spec, TeacherPolicy(0.0), env, k=5)
        task_of = {step.context: ep.task_id for ep in pool for step in ep.steps}
        recovered = [p for p in pairs if p.source == SOURCE_TEACHER]
        assert len(recovered) == counters["teacher_recovered"] > 0
        for pair in recovered:
            task = env.task_spec(task_of[pair.context])
            state = env.replay(task, pair.context.actions)
            assert pair.a_plus == env.optimal_action(task, state)

    def test_pair_count_bounded_by_contexts(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.1)
        pairs, counters = build_preferences(bc, pool, spec, teacher, env, k=5)
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
        pairs, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        assert all(p.a_plus != p.a_minus for p in pairs)


    def test_states_equal_a_replay_of_every_context(self, monkeypatch):
        # each pooled episode is advanced one transition per step; the states
        # scored are the replays of every pooled context's action prefix
        env = make_env({"PartialObs": 0.5, "ToolFlaky": 0.3})
        bc, pool, teacher = trained_bc(env)
        scored = []

        def recording(spec, states, *args):
            scored.extend(states)
            return score_candidates(spec, states, *args)

        monkeypatch.setattr(distill, "score_candidates", recording)
        build_preferences(bc, pool, VerifierSpec.for_env(env), teacher, env, k=5)
        replays = [env.replay(env.task_spec(ep.task_id), ctx.actions)
                   for ep in pool for ctx in ep.contexts()]
        assert scored == replays
        assert len({len(ep.actions) for ep in pool}) > 1
        assert len({state.task_id for state in scored}) == env.task_count

    def test_one_block_equals_a_loop_over_steps(self):
        # the pool's steps are sampled and scored in one block on the shared
        # streams; a loop that samples and scores one step at a time on the
        # same streams builds the same pairs and counters
        env = make_env({"PartialObs": 0.5})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.2)
        rng_cand = seeds.stream(env.config.rng_seed, "pairs", "candidates")
        rng_score = seeds.stream(env.config.rng_seed, "pairs", "scores")
        rng_teacher = seeds.stream(env.config.rng_seed, "pairs", "teacher")
        want, counters = [], {"verifier_ranked": 0, "teacher_recovered": 0, "skipped": 0}
        for e, ep in enumerate(pool):
            for step in ep.steps:
                ctx = step.context
                state = env.replay(env.task_spec(ep.task_id), ctx.actions)
                [actions], _ = bc.sample_candidates([ctx], 5, [rng_cand])
                [scores] = score_candidates(spec, [state], actions[None], [rng_score])
                best, worst = int(np.argmax(scores)), int(np.argmin(scores))
                if scores[best] >= spec.gamma_threshold:
                    plus, minus, kind = actions[best], actions[worst], "verifier_ranked"
                else:
                    plus, minus = teacher.act(env, state, rng_teacher), actions[best]
                    kind = "teacher_recovered"
                if plus == minus:
                    kind = "skipped"
                else:
                    source = SOURCE_VERIFIER if kind == "verifier_ranked" else SOURCE_TEACHER
                    want.append(PreferencePair(ctx, int(plus), int(minus), source, e))
                counters[kind] += 1
        pairs, got = build_preferences(bc, pool, spec, teacher, env, k=5)
        assert got == counters and counters["verifier_ranked"] and counters["teacher_recovered"]
        assert pairs == want


    def test_pair_records_resolve_to_the_pairs(self):
        # a stored pair names its context as (episode, step) of the pool;
        # resolving its record against the pool gives back the pair built
        env = make_env({"PartialObs": 0.5})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.2)
        pairs, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        records = json.loads(json.dumps([pair_record(p) for p in pairs]))
        assert {p.source for p in pairs} == {SOURCE_VERIFIER, SOURCE_TEACHER}
        assert all(set(rec) == {"episode", "step", "a_plus", "a_minus", "source"}
                   for rec in records)
        decoded = [pair_from_dict(rec, pool, env.config.action_count) for rec in records]
        assert decoded == pairs  # context, actions, source and episode


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

    def test_saturated_softmax_gives_the_jsd_loss(self):
        # one large step from a random start drives entries of both heads'
        # softmax to exactly 0; the objective there is finite, raises no
        # RuntimeWarning and equals the DPO term plus lambda times the mean
        # scalar jsd, which skips zero entries
        rng = seeds.stream("saturated-jsd")
        n_feat, n_act, n_pairs, n_views, beta, lam = 6, 4, 5, 7, 2.0, 0.5
        theta, bias = rng.normal(size=(n_feat, n_act)), rng.normal(size=n_act)
        pair_x = rng.normal(size=(n_pairs, n_feat))
        plus = rng.integers(0, n_act, n_pairs)
        minus = (plus + 1 + rng.integers(0, n_act - 1, n_pairs)) % n_act
        ref_margin = rng.normal(size=n_pairs)
        cons_a, cons_b = rng.normal(size=(n_views, n_feat)), rng.normal(size=(n_views, n_feat))
        args = (pair_x, plus, minus, ref_margin, beta, lam, cons_a, cons_b)
        g_theta, g_bias = recovery_objective(theta, bias, *args)[1]()
        theta, bias = theta - 1e4 * g_theta, bias - 1e4 * g_bias

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        p, q = softmax(cons_a @ theta + bias), softmax(cons_b @ theta + bias)
        assert (p == 0.0).any() and (q == 0.0).any()
        logits = pair_x @ theta + bias
        rows = np.arange(n_pairs)
        u = beta * (logits[rows, plus] - logits[rows, minus] - ref_margin)
        want = np.logaddexp(0.0, -u).mean() + lam * np.mean([jsd(a, b) for a, b in zip(p, q)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = recovery_objective(theta, bias, *args)
            assert all(np.isfinite(g).all() for g in grad())
        assert math.isfinite(loss) and loss == pytest.approx(want, rel=1e-12)

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
        pairs, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        views = build_consistency_views(pool, env)
        assert views
        policy, _ = train_recovery(
            bc, pairs, views, DistillConfig(beta=2.0, lambda_cons=1e3, epochs=120, lr=4.0)
        )
        assert mean_jsd(policy, views) < 0.01

    def test_reference_hash_unchanged(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.1)
        pairs, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        views = build_consistency_views(pool, env)
        before = bc.param_hash()
        _, report = train_recovery(bc, pairs, views, DistillConfig(epochs=30))
        assert bc.param_hash() == before
        assert report["reference_hash"] == before

    def test_objective_non_increasing(self):
        env = make_env({"PartialObs": 0.4})
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.1)
        pairs, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        views = build_consistency_views(pool, env)
        _, report = train_recovery(bc, pairs, views, DistillConfig(epochs=40))
        trace = report["loss_trace"]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_distilled_stage_tag(self):
        env = make_env()
        bc, pool, teacher = trained_bc(env)
        spec = VerifierSpec.for_env(env, eta_v=0.0)
        pairs, _ = build_preferences(bc, pool, spec, teacher, env, k=5)
        views = build_consistency_views(pool, env)
        policy, _ = train_recovery(bc, pairs, views, DistillConfig(epochs=5))
        assert policy.stage == "distilled"
        assert bc.stage == "bc"
