import json

import numpy as np
import pytest

from steprouter import runtime, seeds
from steprouter.domain import (
    CostSpec,
    EnvConfig,
    RoutingExample,
    episode_from_dict,
    episode_to_dict,
)
from steprouter.env import HazardChainEnv
from steprouter.features import FeatureMask
from steprouter.policy import (
    PolicyFeaturizer,
    TeacherPolicy,
    collect_teacher_trajectories,
    train_bc,
)
from steprouter.router import RouterNet
from steprouter.runtime import (
    RoutingPolicy,
    StepTree,
    calibrate_entropy_threshold,
    calibrate_heuristic_threshold,
    collect_routing_dataset,
    entropy_decision,
    heuristic_decision,
    hindsight_table,
    oracle_decision,
    run_episode,
)
from steprouter.verifier import VerifierSpec


@pytest.fixture(scope="module")
def world():
    cfg = EnvConfig(
        family_intensities={"ToolFlaky": 0.25, "PartialObs": 0.45,
                            "Injection": 0.2, "Distractor": 0.2},
        rng_seed=11,
        horizon=16,
        storm_fraction=0.4,
    )
    env = HazardChainEnv(cfg, task_count=6)
    teacher = TeacherPolicy(0.02)
    pool = collect_teacher_trajectories(env, teacher, range(6), 4)
    bc, _ = train_bc(pool, PolicyFeaturizer.for_env(env), epochs=50, lr=4.0)
    slm = bc.clone(stage="distilled")
    vspec = VerifierSpec.for_env(env, eta_v=0.2)
    return env, teacher, slm, vspec


class TestDecisions:
    def test_entropy_decision(self):
        f = np.zeros(15)
        f[0] = 1.0
        assert entropy_decision(f, 0.5)
        f[0] = 0.0
        assert not entropy_decision(f, 0.5)
        assert not entropy_decision(f, np.inf)

    def test_heuristic_decision(self):
        assert not heuristic_decision([1.0, 1.0], 0.5)
        assert heuristic_decision([0.0, 0.0], 0.01)
        with pytest.raises(ValueError):
            heuristic_decision([], 0.5)

    def test_oracle_decision_semantics(self):
        table = {(0, 5): True, (0, 6): False}
        assert oracle_decision(0, 5, table) is False
        assert oracle_decision(0, 6, table) is True
        with pytest.raises(ValueError):
            oracle_decision(1, 5, table)


class TestRunEpisode:
    def test_slm_only_never_escalates(self, world):
        env, teacher, slm, vspec = world
        for task in range(3):
            ep = run_episode(env, task, 77, slm, teacher, vspec, RoutingPolicy.slm_only())
            assert ep.llm_calls == 0
            assert all(s.executor == "SLM" for s in ep.steps)

    def test_llm_only_all_teacher(self, world):
        env, teacher, slm, vspec = world
        ep = run_episode(env, 0, 77, slm, teacher, vspec, RoutingPolicy.llm_only())
        assert ep.llm_calls == len(ep.steps)
        assert all(s.executor == "LLM" for s in ep.steps)

    def test_budget_trace_hand_checked(self, world, zero_router):
        # tau = 0: every step requests escalation; budget 3 gives exactly
        # three teacher steps then local execution
        env, teacher, slm, vspec = world
        routing = RoutingPolicy.r2v(zero_router, tau_route=0.0, budget_limit=3)
        ep = run_episode(env, 1, 123, slm, teacher, vspec, routing)
        assert ep.llm_calls == min(3, len(ep.steps))
        executors = [s.executor for s in ep.steps]
        assert executors[: min(3, len(executors))] == ["LLM"] * min(3, len(executors))
        assert all(e == "SLM" for e in executors[3:])
        assert all(s.decision for s in ep.steps)  # decision fires even when gated

    def test_budget_never_exceeded_randomized(self, world, zero_router):
        env, teacher, slm, vspec = world
        rng = seeds.stream("budget-fuzz")
        for trial in range(60):
            budget = int(rng.integers(0, 5))
            variant = ["llm", "entropy", "heuristic", "r2v"][trial % 4]
            if variant == "llm":
                routing = RoutingPolicy.llm_only(budget)
            elif variant == "entropy":
                routing = RoutingPolicy.entropy_router(float(rng.random()), budget)
            elif variant == "heuristic":
                routing = RoutingPolicy.heuristic_router(float(rng.random()), budget)
            else:
                routing = RoutingPolicy.r2v(zero_router, float(rng.random()),
                                            budget_limit=budget)
            ep = run_episode(env, int(rng.integers(6)), int(rng.integers(1000)),
                             slm, teacher, vspec, routing)
            assert ep.llm_calls <= budget

    def test_episode_deterministic(self, world):
        env, teacher, slm, vspec = world
        a = run_episode(env, 2, 999, slm, teacher, vspec, RoutingPolicy.slm_only())
        b = run_episode(env, 2, 999, slm, teacher, vspec, RoutingPolicy.slm_only())
        assert a == b

    def test_salt_changes_streams(self, world):
        env, teacher, slm, vspec = world
        eps_a = [run_episode(env, t, 999, slm, teacher, vspec,
                             RoutingPolicy.slm_only(), salt=0) for t in range(6)]
        eps_b = [run_episode(env, t, 999, slm, teacher, vspec,
                             RoutingPolicy.slm_only(), salt=1) for t in range(6)]
        assert any(a != b for a, b in zip(eps_a, eps_b))

    def test_entropy_router_infinite_threshold_is_slm(self, world):
        env, teacher, slm, vspec = world
        routing = RoutingPolicy.entropy_router(np.inf)
        for task in range(3):
            ep = run_episode(env, task, 55, slm, teacher, vspec, routing)
            assert ep.llm_calls == 0

    def test_step_context_holds_one_observation(self, world):
        # a horizon-20 episode: each stored context holds the observation of
        # its own step, and tokens_seen counts the goal and every observation
        # the episode has shown up to that step
        _, teacher, _, _ = world
        env = HazardChainEnv(EnvConfig(family_intensities={"PartialObs": 0.45,
                                                           "Distractor": 0.2}, rng_seed=11),
                             task_count=6)
        assert env.config.horizon == 20
        slm = train_bc(collect_teacher_trajectories(env, teacher, range(6), 2),
                       PolicyFeaturizer.for_env(env), epochs=30, lr=4.0)[0]
        slm = slm.clone(stage="distilled")
        vspec = VerifierSpec.for_env(env, eta_v=0.2)
        longest = 0
        for task in range(6):
            ep = run_episode(env, task, 5, slm, teacher, vspec, RoutingPolicy.slm_only())
            decoded = episode_from_dict(json.loads(json.dumps(episode_to_dict(ep))))
            assert decoded == ep
            longest = max(longest, len(decoded.steps))
            seen = len(decoded.steps[0].context.goal)
            for t, step in enumerate(decoded.steps):
                ctx = step.context
                assert all(type(tok) is int for tok in ctx.observation)
                assert ctx.actions == tuple(s.chosen_action for s in decoded.steps[:t])
                seen += len(ctx.observation)
                assert ctx.tokens_seen == seen
        assert longest == 20

    def test_r2v_records_probability(self, world, zero_router):
        env, teacher, slm, vspec = world
        ep = run_episode(env, 0, 3, slm, teacher, vspec, RoutingPolicy.r2v(zero_router, 0.5))
        assert all(s.router_prob is not None for s in ep.steps)
        assert all(s.features is not None and len(s.features) == 15 for s in ep.steps)


class TestOracleRouter:
    def test_all_success_table_behaves_like_slm(self, world):
        env, teacher, slm, vspec = world
        grid = [(t, 40 + t) for t in range(3)]
        table = {key: True for key in grid}
        for task, z in grid:
            ep = run_episode(env, task, z, slm, teacher, vspec,
                             RoutingPolicy.oracle_router(table))
            assert ep.llm_calls == 0

    def test_all_failure_table_behaves_like_llm(self, world):
        env, teacher, slm, vspec = world
        table = {(0, 40): False}
        ep = run_episode(env, 0, 40, slm, teacher, vspec,
                         RoutingPolicy.oracle_router(table))
        assert ep.llm_calls == len(ep.steps)

    def test_mixed_table_escalation_mass(self, world):
        # oracle LLM steps = all steps of failed-pair episodes, recounted
        env, teacher, slm, vspec = world
        grid = [(t, 70 + j) for t in range(4) for j in range(3)]
        slm_eps = [run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy.slm_only())
                   for t, z in grid]
        table = hindsight_table(slm_eps)
        oracle_eps = [run_episode(env, t, z, slm, teacher, vspec,
                                  RoutingPolicy.oracle_router(table)) for t, z in grid]
        for ep in oracle_eps:
            if table[(ep.task_id, ep.seed.z)]:
                assert ep.llm_calls == 0
            else:
                assert ep.llm_calls == len(ep.steps)


class TestStepTree:
    GRID = [(t, 300 + 11 * t + j) for t in range(6) for j in range(3)]

    def policies(self, world):
        env, teacher, slm, vspec = world
        table = hindsight_table(
            run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy.slm_only())
            for t, z in self.GRID)
        net = RouterNet.init(np.random.default_rng(5))
        return [
            RoutingPolicy.slm_only(),
            RoutingPolicy.llm_only(budget_limit=2),
            RoutingPolicy.entropy_router(0.5, budget_limit=4),
            RoutingPolicy.heuristic_router(0.55),
            RoutingPolicy.oracle_router(table),
            *(RoutingPolicy.r2v(net, 0.45, mask=mask, budget_limit=3)
              for mask in (FeatureMask.FULL, FeatureMask.VERIFIER_ONLY,
                           FeatureMask.STEP_CONTEXT_ONLY, FeatureMask.NO_ENTROPY)),
        ]

    def test_shared_tree_equals_solo_rollouts(self, world):
        env, teacher, slm, vspec = world
        policies = self.policies(world)
        tree = StepTree()
        seen = set()
        later_divergence = redraw_after_hits = False
        for task, z in self.GRID:
            for routing in policies:
                shared = run_episode(env, task, z, slm, teacher, vspec, routing, tree=tree)
                solo = run_episode(env, task, z, slm, teacher, vspec, routing)
                assert episode_to_dict(shared) == episode_to_dict(solo), (routing.variant, task, z)
                # a node is one action prefix; a step on a prefix no earlier
                # policy reached, right after one it did reach, diverged at
                # t > 0 and re-drew from the restored streams
                hits = [(task, z, s.context.actions) in seen for s in shared.steps]
                later_divergence |= not all(hits) and hits[0]
                redraw_after_hits |= any(a and not b for a, b in zip(hits, hits[1:]))
                seen.update((task, z, s.context.actions) for s in shared.steps)
        assert later_divergence and redraw_after_hits

    def test_visited_steps_make_no_streams(self, world, monkeypatch):
        # a pass that only visits nodes and never escalates draws nothing,
        # so it seeds no cand, verif or escalate stream
        env, teacher, slm, vspec = world
        tree = StepTree()
        first = [run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy.slm_only(), tree=tree)
                 for t, z in self.GRID]
        calls = []
        real_stream = seeds.stream
        monkeypatch.setattr(seeds, "stream", lambda *a: calls.append(a) or real_stream(*a))
        again = [run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy.slm_only(), tree=tree)
                 for t, z in self.GRID]
        assert again == first
        assert calls == []

    def test_policies_on_one_grid_share_steps(self, world, monkeypatch):
        env, teacher, slm, vspec = world
        policies = self.policies(world)
        calls = []
        real_extract = runtime.extract
        monkeypatch.setattr(runtime, "extract",
                            lambda *a: calls.append(1) or real_extract(*a))
        tree = StepTree()
        eps = [run_episode(env, t, z, slm, teacher, vspec, routing, tree=tree)
               for t, z in self.GRID for routing in policies]
        distinct = {(ep.task_id, ep.seed.z, s.context.actions) for ep in eps for s in ep.steps}
        assert len(calls) == len(distinct) < sum(len(ep.steps) for ep in eps)

    def test_rollouts_never_replay(self, world, monkeypatch):
        # the verifier scores each node's own latent state, so no step
        # rebuilds a state from its action prefix
        env, teacher, slm, vspec = world

        def refuse(*_):
            raise AssertionError("a rollout replayed an action prefix")

        monkeypatch.setattr(HazardChainEnv, "replay", refuse)
        net = RouterNet.init(np.random.default_rng(5))
        tree = StepTree()
        for routing in (RoutingPolicy.slm_only(), RoutingPolicy.r2v(net, 0.45, budget_limit=3)):
            eps = [run_episode(env, t, z, slm, teacher, vspec, routing, tree=tree)
                   for t, z in self.GRID]
            assert all(ep.steps for ep in eps)


class TestRoutingDataset:
    def test_requires_distilled_stage(self, world):
        env, teacher, slm, vspec = world
        bc_like = slm.clone(stage="bc")
        with pytest.raises(ValueError):
            collect_routing_dataset(env, bc_like, teacher, vspec, range(2), 2)

    def test_labels_recount_per_episode(self, world):
        env, teacher, slm, vspec = world
        examples, episodes = collect_routing_dataset(
            env, slm, teacher, vspec, range(6), 4
        )
        assert all(ep.llm_calls == 0 for ep in episodes)
        by_seed = {}
        for ex in examples:
            by_seed.setdefault(ex.seed_id, set()).add(ex.label)
        assert all(len(labels) == 1 for labels in by_seed.values())
        # recount: label equals episode failure of the matching rollout
        for seed_id, ep in enumerate(episodes):
            labels = {ex.label for ex in examples if ex.seed_id == seed_id}
            assert labels == {0 if ep.success else 1}
        assert len(examples) == sum(len(ep.steps) for ep in episodes)

    def test_successful_rollout_all_zero(self, world):
        env, teacher, slm, vspec = world
        examples, episodes = collect_routing_dataset(env, slm, teacher, vspec,
                                                     range(6), 4)
        for seed_id, ep in enumerate(episodes):
            if ep.success:
                assert all(ex.label == 0 for ex in examples if ex.seed_id == seed_id)
            else:
                assert all(ex.label == 1 for ex in examples if ex.seed_id == seed_id)

    def test_seed_ids_enumerate_grid(self, world):
        env, teacher, slm, vspec = world
        examples, episodes = collect_routing_dataset(env, slm, teacher, vspec,
                                                     range(3), 2, seed_id_offset=10)
        assert {ex.seed_id for ex in examples} <= set(range(10, 16))


class TestBaselineCalibration:
    def test_entropy_threshold_prefers_low_cut_when_entropy_marks_failures(self):
        examples = []
        rng = seeds.stream("cal-ent")
        for i in range(300):
            label = int(rng.random() < 0.5)
            f = np.zeros(15)
            f[0] = 0.8 + 0.1 * rng.random() if label else 0.2 * rng.random()
            examples.append(RoutingExample(tuple(f), label, seed_id=i, step_index=0))
        tau = calibrate_entropy_threshold(examples, CostSpec(1, 50, 98))
        assert 0.2 <= tau <= 0.8

    def test_heuristic_threshold_separates_scores(self):
        examples = []
        rng = seeds.stream("cal-heur")
        for i in range(300):
            label = int(rng.random() < 0.5)
            f = np.zeros(15)
            f[6] = 0.2 * rng.random() if label else 0.8 + 0.2 * rng.random()
            examples.append(RoutingExample(tuple(f), label, seed_id=i, step_index=0))
        theta = calibrate_heuristic_threshold(examples, CostSpec(1, 50, 98))
        assert 0.2 <= theta <= 0.8

    def test_swept_entropy_cut_beats_fixed_half(self):
        # planted high-noise regime: failure risk turns on at entropy 0.75,
        # so the cost-minimizing cut sits well above the fixed 0.5 default
        from steprouter.router import route_surrogate

        rng = seeds.stream("sweep-vs-fixed")
        costs = CostSpec(1, 50, 98)
        values = rng.random(4000)
        labels = (values > 0.75).astype(float)
        flip = rng.random(4000) < 0.05
        labels[flip] = 1 - labels[flip]
        examples = []
        for i, (v, y) in enumerate(zip(values, labels)):
            f = np.zeros(15)
            f[0] = v
            examples.append(RoutingExample(tuple(f), int(y), seed_id=i, step_index=0))
        tau_swept = calibrate_entropy_threshold(examples, costs)

        def routed_cost(tau):
            d = (values >= tau).astype(float)
            return float(np.mean(route_surrogate(d, labels, costs)))

        assert routed_cost(tau_swept) < routed_cost(0.5)
