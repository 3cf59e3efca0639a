import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN_CONFIG

from steprouter import domain, pipeline, runtime, seeds
from steprouter.domain import (
    FEATURE_DIM,
    CostSpec,
    EnvConfig,
    StageOrderError,
    episode_from_dict,
    episode_to_dict,
    routing_record,
    unpack_floats,
    write_rljson,
)
from steprouter.env import HazardChainEnv
from steprouter.evaluation import compute_metrics
from steprouter.features import FeatureMask, apply_mask
from steprouter.pipeline import load_routing_examples
from steprouter.policy import (
    PolicyFeaturizer,
    TeacherPolicy,
    collect_teacher_trajectories,
    train_bc,
)
from steprouter.router import RouterNet, RouterSnapshot
from steprouter.runtime import (
    RoutingPolicy,
    StepTree,
    calibrate_entropy_threshold,
    calibrate_heuristic_threshold,
    _decide,
    hindsight_table,
    VARIANTS,
    routing_grid,
    run_episode,
    run_episodes,
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


@pytest.fixture(scope="module")
def exact_world(world):
    """`world` with a noiseless verifier, which draws nothing from its stream."""
    env, teacher, slm, _ = world
    return env, teacher, slm, VerifierSpec.for_env(env, eta_v=0.0)


def decision(routing, slots=(), task_id=0, z=0):
    """The decision of `routing` on a feature vector holding `slots`
    (slot -> value) and zeros elsewhere."""
    f = np.zeros(15)
    for slot, value in dict(slots).items():
        f[slot] = value
    [p], [escalate] = _decide(routing, f[None], [(task_id, z)])
    assert p is None
    return escalate


class TestDecisions:
    def test_entropy_decision(self):
        assert decision(RoutingPolicy("entropy", 0.5), {0: 1.0}) is True
        assert decision(RoutingPolicy("entropy", 0.5), {0: 0.5}) is True  # inclusive
        assert decision(RoutingPolicy("entropy", 0.5), {0: 0.0, 6: 1.0}) is False
        assert decision(RoutingPolicy("entropy", np.inf), {0: 1.0}) is False

    def test_heuristic_decision(self):
        # slot 6 is the best verifier score; escalate when it falls below
        assert decision(RoutingPolicy("heuristic", 0.5), {6: 1.0}) is False
        assert decision(RoutingPolicy("heuristic", 0.5), {6: 0.5}) is False  # strict
        assert decision(RoutingPolicy("heuristic", 0.01), {0: 1.0, 6: 0.0}) is True

    def test_oracle_decision_semantics(self):
        oracle = RoutingPolicy("oracle", hindsight={(0, 5): True, (0, 6): False})
        assert decision(oracle, task_id=0, z=5) is False
        assert decision(oracle, task_id=0, z=6) is True
        with pytest.raises(ValueError, match="no entry for task=1 z=5"):
            decision(oracle, task_id=1, z=5)

    @pytest.mark.parametrize("kwargs, match", [
        ({"variant": "entropy"}, "needs a number threshold"),
        ({"variant": "heuristic", "threshold": "0.5"}, "needs a number threshold"),
        ({"variant": "entropy", "threshold": True}, "needs a number threshold"),
        ({"variant": "r2v", "threshold": 0.5}, "needs a router net"),
        ({"variant": "oracle"}, "needs a hindsight table"),
        ({"variant": "llm", "budget_limit": -1}, "budget must be"),
        ({"variant": "route"}, "unknown routing variant"),
    ])
    def test_policy_refused_when_built(self, kwargs, match):
        # a rule missing what its decision reads fails here, not on its first step
        with pytest.raises(ValueError, match=match):
            RoutingPolicy(**kwargs)

    def test_rethreshold_keeps_the_rule_checked(self):
        entropy = RoutingPolicy("entropy", 0.5, 3)
        assert replace(entropy, threshold=0.25) == RoutingPolicy("entropy", 0.25, 3)
        with pytest.raises(ValueError, match="needs a number threshold"):
            replace(entropy, threshold=None)


class TestRouterSnapshot:
    """r2v scores a step's rows through the snapshot its policy took when
    built, each row bit-equal to the net's own predict of that row alone at
    that time."""

    @staticmethod
    def fitted_net(key=0):
        # running statistics, an output bias and a temperature away from init
        net = RouterNet.init(seeds.stream("snapshot-net", key))
        rng = seeds.stream("snapshot-stats", key)
        net.run_mean1, net.run_var1 = rng.normal(size=128) * 0.5, 0.3 + 2.0 * rng.random(128)
        net.run_mean2, net.run_var2 = rng.normal(size=64) * 0.5, 0.3 + 2.0 * rng.random(64)
        net.params["b3"] = net.params["b3"] - 0.4
        net.temperature = 1.7
        return net

    def test_score_equals_predict_on_random_rows(self):
        net = self.fitted_net()
        routing = RoutingPolicy("r2v", 0.5, net=net)
        rng = seeds.stream("snapshot-rows")
        escalated = total = 0
        for n in [1, 2, 5, 12, 37] * 30:
            rows = rng.normal(size=(n, 15)) * rng.uniform(0.05, 30.0, size=(n, 1))
            want = [float(net.predict(row)[0]) for row in rows]
            assert routing.snapshot.probs(rows).tolist() == want
            keys = [(0, z) for z in range(n)]
            assert _decide(routing, rows, keys) == (want, [p >= 0.5 for p in want])
            escalated += sum(p >= 0.5 for p in want)
            total += n
        assert 0 < escalated < total
        # one gemm over the rows, predict's batch path, is not what a row
        # scored alone gets on every row
        assert net.predict(rows).tolist() != want
        with pytest.raises(ValueError, match="finite"):
            routing.snapshot.probs(np.full((3, 15), np.nan))

    def test_score_equals_predict_on_the_golden_routing_rows(self, tmp_path):
        cfg = pipeline.load_config(overrides=GOLDEN_CONFIG, environ={})
        pipeline.run_pipeline(cfg, tmp_path, workers=1, through="train-router")
        net, _ = RouterNet.load(tmp_path / "router.bin")
        train, valid = pipeline.load_router_rows(tmp_path / "routing.rljson")
        rows = np.concatenate([train[0], valid[0]])
        keys = [(0, z) for z in range(len(rows))]
        for mask in FeatureMask:
            routing = RoutingPolicy("r2v", net.tau_route, net=net, mask=mask)
            want = [float(net.predict(apply_mask(row, mask))[0]) for row in rows]
            assert _decide(routing, rows, keys) == (want, [p >= net.tau_route for p in want])

    def test_net_edits_after_build_do_not_reach_the_policy(self):
        net = self.fitted_net(1)
        routing = RoutingPolicy("r2v", 0.5, net=net)
        rows = seeds.stream("snapshot-edit").normal(size=(50, 15)) * 3.0
        keys = [(0, z) for z in range(len(rows))]
        before = _decide(routing, rows, keys)
        net.params["w1"] *= -1.0
        net.run_var2[:] = 4.0
        net.params["b3"][:] = 2.0
        net.temperature = 0.5
        assert _decide(routing, rows, keys) == before
        # a policy built from the edited net, as replace() builds one, sees the edits
        rebuilt = replace(routing, threshold=0.25)
        after = rebuilt.snapshot.probs(rows).tolist()
        assert after == [float(net.predict(row)[0]) for row in rows]
        assert after != before[0]
        for array in (routing.snapshot.w3, *routing.snapshot.layers[0]):
            with pytest.raises(ValueError):
                array[0] = 0.0  # the snapshot's arrays are read-only
        # the fold predict makes on every call reads the net's own weights
        per_call = RouterSnapshot.of(net)
        assert per_call.w3 is net.params["w3"] and per_call.layers[0][0] is net.params["w1"]


class TestRunEpisode:
    def test_slm_only_never_escalates(self, world):
        env, teacher, slm, vspec = world
        for task in range(3):
            ep = run_episode(env, task, 77, slm, teacher, vspec, RoutingPolicy("slm"))
            assert ep.llm_calls == 0
            assert all(s.executor == "SLM" for s in ep.steps)

    def test_llm_only_all_teacher(self, world):
        env, teacher, slm, vspec = world
        ep = run_episode(env, 0, 77, slm, teacher, vspec, RoutingPolicy("llm"))
        assert ep.llm_calls == len(ep.steps)
        assert all(s.executor == "LLM" for s in ep.steps)

    def test_budget_trace_hand_checked(self, world, zero_router):
        # tau = 0: every step requests escalation; budget 3 gives exactly
        # three teacher steps then local execution
        env, teacher, slm, vspec = world
        routing = RoutingPolicy("r2v", 0.0, 3, zero_router)
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
            routing = RoutingPolicy(variant, None if variant == "llm" else float(rng.random()),
                                    budget, zero_router if variant == "r2v" else None)
            ep = run_episode(env, int(rng.integers(6)), int(rng.integers(1000)),
                             slm, teacher, vspec, routing)
            assert ep.llm_calls <= budget

    def test_episode_deterministic(self, world):
        env, teacher, slm, vspec = world
        a = run_episode(env, 2, 999, slm, teacher, vspec, RoutingPolicy("slm"))
        b = run_episode(env, 2, 999, slm, teacher, vspec, RoutingPolicy("slm"))
        assert a == b

    def test_salt_changes_streams(self, world):
        env, teacher, slm, vspec = world
        eps_a = [run_episode(env, t, 999, slm, teacher, vspec,
                             RoutingPolicy("slm"), salt=0) for t in range(6)]
        eps_b = [run_episode(env, t, 999, slm, teacher, vspec,
                             RoutingPolicy("slm"), salt=1) for t in range(6)]
        assert any(a != b for a, b in zip(eps_a, eps_b))

    def test_entropy_router_infinite_threshold_is_slm(self, world):
        env, teacher, slm, vspec = world
        routing = RoutingPolicy("entropy", np.inf)
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
            ep = run_episode(env, task, 5, slm, teacher, vspec, RoutingPolicy("slm"))
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
        routing = RoutingPolicy("r2v", 0.5, net=zero_router)
        ep = run_episode(env, 0, 3, slm, teacher, vspec, routing)
        assert all(s.router_prob is not None for s in ep.steps)
        assert all(s.features is not None and len(s.features) == 15 for s in ep.steps)


class TestBudgetColumns:
    GRID = [(t, 500 + 7 * t + j) for t in range(4) for j in range(2)]

    @pytest.mark.parametrize("budget", [None, 0, 1, 3])
    def test_budget_read_from_columns(self, world, zero_router, budget):
        # the budget left after each step, derived from the executor column,
        # matches a step-by-step count of the gate: no LLM step runs with
        # nothing left, and a wanted escalation that ran locally was clipped
        # by a spent budget, so clipped escalations read from the columns
        env, teacher, slm, vspec = world
        table = hindsight_table(run_episodes(env, self.GRID, slm, teacher, vspec,
                                             RoutingPolicy("slm")))
        policies = [RoutingPolicy("slm", budget_limit=budget),
                    RoutingPolicy("llm", budget_limit=budget),
                    RoutingPolicy("entropy", 0.3, budget), RoutingPolicy("heuristic", 0.6, budget),
                    RoutingPolicy("r2v", 0.5, budget, zero_router),
                    RoutingPolicy("oracle", budget_limit=budget, hindsight=table)]
        assert sorted(routing.variant for routing in policies) == sorted(VARIANTS)
        clipped = 0
        for routing in policies:
            for ep in run_episodes(env, self.GRID, slm, teacher, vspec, routing):
                left = budget
                for step in ep.steps:
                    assert (step.executor == "LLM") == (step.decision and left != 0)
                    if step.executor == "LLM" and left is not None:
                        left -= 1
                    assert step.budget_remaining == left
                    if step.decision and step.executor == "SLM":
                        assert step.budget_remaining == 0
                        clipped += 1
        assert (clipped > 0) == (budget is not None)


class TestOracleRouter:
    def test_all_success_table_behaves_like_slm(self, world):
        env, teacher, slm, vspec = world
        grid = [(t, 40 + t) for t in range(3)]
        table = {key: True for key in grid}
        for task, z in grid:
            ep = run_episode(env, task, z, slm, teacher, vspec,
                             RoutingPolicy("oracle", hindsight=table))
            assert ep.llm_calls == 0

    def test_all_failure_table_behaves_like_llm(self, world):
        env, teacher, slm, vspec = world
        table = {(0, 40): False}
        ep = run_episode(env, 0, 40, slm, teacher, vspec,
                         RoutingPolicy("oracle", hindsight=table))
        assert ep.llm_calls == len(ep.steps)

    def test_mixed_table_escalation_mass(self, world):
        # oracle LLM steps = all steps of failed-pair episodes, recounted
        env, teacher, slm, vspec = world
        grid = [(t, 70 + j) for t in range(4) for j in range(3)]
        slm_eps = [run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy("slm"))
                   for t, z in grid]
        table = hindsight_table(slm_eps)
        oracle_eps = [run_episode(env, t, z, slm, teacher, vspec,
                                  RoutingPolicy("oracle", hindsight=table)) for t, z in grid]
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
            run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy("slm"))
            for t, z in self.GRID)
        net = RouterNet.init(np.random.default_rng(5))
        return [
            RoutingPolicy("slm"),
            RoutingPolicy("llm", budget_limit=2),
            RoutingPolicy("entropy", 0.5, 4),
            RoutingPolicy("heuristic", 0.55),
            RoutingPolicy("oracle", hindsight=table),
            *(RoutingPolicy("r2v", 0.45, 3, net, mask)
              for mask in (FeatureMask.FULL, FeatureMask.VERIFIER_ONLY,
                           FeatureMask.STEP_CONTEXT_ONLY, FeatureMask.NO_ENTROPY)),
        ]

    def test_shared_tree_equals_solo_rollouts(self, world):
        self.check_shared_tree_equals_solo(world)

    def test_shared_tree_equals_solo_rollouts_exact_verifier(self, exact_world):
        self.check_shared_tree_equals_solo(exact_world)

    def check_shared_tree_equals_solo(self, world):
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
                # t > 0 and drew from streams advanced past the visited steps
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
        first = [run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy("slm"), tree=tree)
                 for t, z in self.GRID]
        calls = []
        real_stream = seeds.stream
        monkeypatch.setattr(seeds, "stream", lambda *a: calls.append(a) or real_stream(*a))
        again = [run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy("slm"), tree=tree)
                 for t, z in self.GRID]
        assert again == first
        assert calls == []

    def test_policies_on_one_grid_share_steps(self, world, monkeypatch):
        env, teacher, slm, vspec = world
        policies = self.policies(world)
        calls = []
        real_extract = runtime.extract
        # count the rows extracted, one per expanded node
        monkeypatch.setattr(runtime, "extract",
                            lambda *a: calls.append(len(a[0])) or real_extract(*a))
        tree = StepTree()
        eps = [ep for routing in policies
               for ep in run_episodes(env, self.GRID, slm, teacher, vspec, routing, tree=tree)]
        distinct = {(ep.task_id, ep.seed.z, s.context.actions) for ep in eps for s in ep.steps}
        assert sum(calls) == len(distinct) < sum(len(ep.steps) for ep in eps)

    def test_rollouts_never_replay(self, world, monkeypatch):
        # the verifier scores each node's own latent state, so no step
        # rebuilds a state from its action prefix
        env, teacher, slm, vspec = world

        def refuse(*_):
            raise AssertionError("a rollout replayed an action prefix")

        monkeypatch.setattr(HazardChainEnv, "replay", refuse)
        net = RouterNet.init(np.random.default_rng(5))
        tree = StepTree()
        for routing in (RoutingPolicy("slm"), RoutingPolicy("r2v", 0.45, 3, net)):
            eps = [run_episode(env, t, z, slm, teacher, vspec, routing, tree=tree)
                   for t, z in self.GRID]
            assert all(ep.steps for ep in eps)


class TestColumns:
    """The engine, the codec, routing records and metrics work on whole
    columns: no step view is built on their path."""

    GRID = [(t, 700 + 5 * t + j) for t in range(6) for j in range(3)]

    def test_no_step_view_on_the_hot_path(self, world, monkeypatch, zero_router):
        env, teacher, slm, vspec = world
        built = []
        real_view = domain.StepView
        monkeypatch.setattr(domain, "StepView", lambda *a: built.append(a) or real_view(*a))
        tree = StepTree()
        for routing in (RoutingPolicy("slm"), RoutingPolicy("llm", budget_limit=2),
                        RoutingPolicy("entropy", 0.5, 3),
                        RoutingPolicy("r2v", 0.5, 3, zero_router)):
            episodes = run_episodes(env, self.GRID, slm, teacher, vspec, routing, tree=tree)
            records = [episode_to_dict(ep) for ep in episodes]
            decoded = [episode_from_dict(json.loads(json.dumps(rec))) for rec in records]
            assert decoded == episodes
            for i, ep in enumerate(decoded):
                routing_record(i, "train", ep)
            compute_metrics(episodes)
        assert built == []
        assert not hasattr(domain, "StepRecord")
        # the counter does see the views when a reader asks for them
        assert len(decoded[0].steps) == len(built) > 0


class TestLockstep:
    """run_episodes steps a grid's episodes together; each equals the
    episode run_episode rolls for its point alone, field for field."""

    GRID = [(t, 500 + 7 * t + j) for t in range(6) for j in range(4)]

    # thresholds at which each rule escalates on many steps of GRID
    THRESHOLDS = {"entropy": 0.3, "heuristic": 0.7, "r2v": 0.3}

    @staticmethod
    def policy(world, variant, budget, threshold, grid=GRID):
        env, teacher, slm, vspec = world
        if variant == "oracle":
            table = hindsight_table(
                run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy("slm")) for t, z in grid)
            return RoutingPolicy("oracle", budget_limit=budget, hindsight=table)
        if variant == "r2v":
            net = TestRouterSnapshot.fitted_net(2)
            return RoutingPolicy("r2v", threshold, budget, net, FeatureMask.NO_ENTROPY)
        if variant in ("entropy", "heuristic"):
            return RoutingPolicy(variant, threshold, budget)
        return RoutingPolicy(variant, budget_limit=None if variant == "slm" else budget)

    @staticmethod
    def assert_solo(world, grid, routing, episodes):
        env, teacher, slm, vspec = world
        assert len(episodes) == len(grid)
        for (task, z), ep in zip(grid, episodes):
            solo = run_episode(env, task, z, slm, teacher, vspec, routing)
            assert (ep.task_id, ep.seed.z) == (task, z)
            assert ep == solo
            assert episode_to_dict(ep) == episode_to_dict(solo)  # floats bit for bit

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_grid_equals_solo_episodes(self, world, variant, shared):
        self.check_grid_equals_solo(world, variant, shared)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_shared_grid_equals_solo_episodes_exact_verifier(self, exact_world, variant):
        self.check_grid_equals_solo(exact_world, variant, shared=True)

    def check_grid_equals_solo(self, world, variant, shared):
        # budget 2 clips every variant that escalates on more steps than that
        env, teacher, slm, vspec = world
        routing = self.policy(world, variant, 2, self.THRESHOLDS.get(variant))
        tree = None
        if shared:
            # an earlier policy leaves visited nodes, so the grid advances
            # its streams past them before it draws
            tree = StepTree()
            run_episodes(env, self.GRID[::2], slm, teacher, vspec,
                         RoutingPolicy("heuristic", 0.58, 1), tree=tree)
        episodes = run_episodes(env, self.GRID, slm, teacher, vspec, routing, tree=tree)
        self.assert_solo(world, self.GRID, routing, episodes)
        clipped = [s for ep in episodes for s in ep.steps if s.decision and s.executor == "SLM"]
        assert (len(clipped) > 0) == (variant != "slm")

    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3000)),
                           min_size=1, max_size=12, unique=True),
           variant=st.sampled_from(VARIANTS),
           budget=st.one_of(st.none(), st.integers(0, 4)),
           threshold=st.floats(0.0, 1.0),
           warm=st.integers(0, 12))
    def test_random_grids_equal_solo_episodes(self, world, points, variant, budget,
                                              threshold, warm):
        env, teacher, slm, vspec = world
        routing = self.policy(world, variant, budget, threshold, points)
        tree = StepTree()
        run_episodes(env, points[:warm], slm, teacher, vspec, RoutingPolicy("slm"), tree=tree)
        episodes = run_episodes(env, points, slm, teacher, vspec, routing, tree=tree)
        self.assert_solo(world, points, routing, episodes)

    def test_repeated_point_refused(self, world):
        env, teacher, slm, vspec = world
        with pytest.raises(ValueError, match="repeats"):
            run_episodes(env, [(0, 5), (1, 5), (0, 5)], slm, teacher, vspec,
                         RoutingPolicy("slm"))


def slm_rollouts(world, task_ids, seeds_per_task, tag="routing"):
    """SLM-only episodes over the routing grid, in seed-id order."""
    env, teacher, slm, vspec = world
    return [run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy("slm"), salt=tag)
            for t, z in routing_grid(env, task_ids, seeds_per_task, tag)]


# the pipeline config of the `world` fixture
WORLD_CONFIG = [
    'env.family_intensities={"ToolFlaky":0.25,"PartialObs":0.45,"Injection":0.2,'
    '"Distractor":0.2}',
    "env.rng_seed=11",
    "env.horizon=16",
    "env.task_count=6",
    "verifier.eta_v=0.2",
    "runtime.routing_seeds_per_task=3",
]


class TestRoutingDataset:
    def test_requires_distilled_stage(self, world, tmp_path):
        # the rollout worker refuses an SLM that skipped distillation
        slm = world[2]
        path = tmp_path / "policy.bin"
        slm.clone(stage="bc").save(path)
        cfg = pipeline.load_config(overrides=WORLD_CONFIG, environ={})
        with pytest.raises(StageOrderError, match="'bc'-stage policy"):
            pipeline._routing_job((cfg, path, "train", [(0, 1), (0, 2)], 0))

    def test_labels_recount_per_episode(self, world):
        episodes = slm_rollouts(world, range(6), 4)
        assert all(ep.llm_calls == 0 for ep in episodes)
        # each record's label is its episode's failure, and it holds one
        # feature row per step
        for seed_id, ep in enumerate(episodes):
            rec = routing_record(seed_id, "train", ep)
            assert rec["label"] == (0 if ep.success else 1)
            rows = unpack_floats(rec["features"], FEATURE_DIM * len(ep.steps))
            assert rows.tolist() == [v for s in ep.steps for v in s.features]

    def test_successful_rollout_all_zero(self, world, tmp_path):
        episodes = slm_rollouts(world, range(6), 4)
        path = tmp_path / "routing.rljson"
        write_rljson(path, [routing_record(i, "valid", ep) for i, ep in enumerate(episodes)],
                     {"schema": domain.ROUTING_SCHEMA})
        rows = load_routing_examples(path)
        assert len(rows) == sum(len(ep.steps) for ep in episodes)
        for seed_id, ep in enumerate(episodes):
            mine = [ex for ex in rows if ex.seed_id == seed_id]
            assert [ex.features for ex in mine] == [s.features for s in ep.steps]
            assert {ex.label for ex in mine} == ({0} if ep.success else {1})

    def test_seed_ids_enumerate_grid(self, world, tmp_path):
        # collect-routing's job for a run of a split's grid numbers its grid
        # points from its first seed id, each record built from that point's
        # SLM-only episode on the split's routing streams, whatever else
        # shares the job
        path = tmp_path / "policy.bin"
        world[2].save(path)
        cfg = pipeline.load_config(overrides=WORLD_CONFIG, environ={})
        tag = "routing-valid-0"
        grid = routing_grid(world[0], [1, 4], 3, tag)
        episodes = slm_rollouts(world, [1, 4], 3, tag=tag)
        want = [routing_record(30 + i, "valid", ep) for i, ep in enumerate(episodes)]
        assert pipeline._routing_job((cfg, path, "valid", grid, 30)) == want
        assert pipeline._routing_job((cfg, path, "valid", grid[2:5], 32)) == want[2:5]


class TestBaselineCalibration:
    def test_entropy_threshold_prefers_low_cut_when_entropy_marks_failures(self):
        x, y = np.zeros((300, 15)), np.zeros(300)
        rng = seeds.stream("cal-ent")
        for i in range(300):
            y[i] = rng.random() < 0.5
            x[i, 0] = 0.8 + 0.1 * rng.random() if y[i] else 0.2 * rng.random()
        tau = calibrate_entropy_threshold(x, y, CostSpec(1, 50, 98))
        assert 0.2 <= tau <= 0.8

    def test_heuristic_threshold_separates_scores(self):
        x, y = np.zeros((300, 15)), np.zeros(300)
        rng = seeds.stream("cal-heur")
        for i in range(300):
            y[i] = rng.random() < 0.5
            x[i, 6] = 0.2 * rng.random() if y[i] else 0.8 + 0.2 * rng.random()
        theta = calibrate_heuristic_threshold(x, y, CostSpec(1, 50, 98))
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
        x = np.zeros((4000, 15))
        x[:, 0] = values
        tau_swept = calibrate_entropy_threshold(x, labels, costs)

        def routed_cost(tau):
            d = (values >= tau).astype(float)
            return float(np.mean(route_surrogate(d, labels, costs)))

        assert routed_cost(tau_swept) < routed_cost(0.5)
