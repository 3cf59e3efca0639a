import itertools

import pytest

from steprouter import seeds
from steprouter.domain import PERTURBATION_FAMILIES, EnvConfig, PerturbationSeed
from steprouter.env import (
    ACTION_HAZARD,
    ACTION_LEFT,
    ACTION_RIGHT,
    HazardChainEnv,
    LatentState,
    PerturbationOp,
    TokenMap,
    apply_perturbation,
    sample_task_spec,
    seed_severity,
)


def make_env(intensities=None, horizon=20, state_count=12, rng_seed=42,
             storm_fraction=0.0):
    cfg = EnvConfig(
        state_count=state_count,
        horizon=horizon,
        family_intensities=intensities or {},
        rng_seed=rng_seed,
        storm_fraction=storm_fraction,
    )
    return HazardChainEnv(cfg, task_count=12)


TOKENS = TokenMap(12, 64)


class TestPerturbations:
    def test_zero_intensity_is_identity(self):
        obs = (5, 6, 7, 8)
        for fam in ("ToolFlaky", "PartialObs", "Injection", "Distractor"):
            assert apply_perturbation(obs, PerturbationOp(fam, 0.0), 3, 1, TOKENS) == obs

    def test_toolflaky_saturation(self):
        obs = (5, 6, 7)
        for z, t in itertools.product(range(20), range(10)):
            out = apply_perturbation(obs, PerturbationOp("ToolFlaky", 1.0), z, t, TOKENS)
            assert out == (TOKENS.error,) * 3

    def test_partialobs_full_masking(self):
        obs = (5, 6, 7, 8)
        out = apply_perturbation(obs, PerturbationOp("PartialObs", 1.0), 11, 2, TOKENS)
        assert out == (TOKENS.mask,) * 4

    def test_partialobs_monte_carlo_rate(self):
        # empirical mask rate at intensity 0.5 over 1e4 (z, t) pairs
        obs = tuple(range(10, 20))
        hits = total = 0
        for z in range(100):
            for t in range(100):
                out = apply_perturbation(obs, PerturbationOp("PartialObs", 0.5), z, t, TOKENS)
                hits += sum(tok == TOKENS.mask for tok in out)
                total += len(obs)
        assert 0.48 <= hits / total <= 0.52

    def test_injection_appends_lure_block(self):
        obs = (5, 6)
        out = apply_perturbation(obs, PerturbationOp("Injection", 1.0), 7, 3, TOKENS)
        assert out[:2] == obs
        assert out[2:] == (TOKENS.inject, TOKENS.inject, TOKENS.lure)

    def test_distractor_appends_filler_block(self):
        obs = (5, 6)
        out = apply_perturbation(obs, PerturbationOp("Distractor", 1.0), 7, 3, TOKENS)
        assert out[:3] == obs + (TOKENS.distract,)
        assert all(tok >= TOKENS.filler_base for tok in out[3:])

    def test_pure_function_of_seed_and_step(self):
        obs = (5, 6, 7, 8, 9)
        op = PerturbationOp("PartialObs", 0.5)
        assert apply_perturbation(obs, op, 5, 2, TOKENS) == apply_perturbation(
            obs, op, 5, 2, TOKENS
        )
        # different steps draw independently
        outs = {apply_perturbation(obs, op, 5, t, TOKENS) for t in range(50)}
        assert len(outs) > 1

    def test_plan_reproducibility(self):
        # a seed's corruption over a whole episode regenerates bit for bit
        intensities = {"ToolFlaky": 0.3, "Injection": 0.4, "Distractor": 0.2}
        env = make_env(intensities, storm_fraction=0.5)
        obs = (5, 6, 7, 8)
        run = [env.corrupt(obs, 99, t) for t in range(env.config.horizon + 1)]
        assert run == [env.corrupt(obs, 99, t) for t in range(env.config.horizon + 1)]
        fresh = make_env(intensities, storm_fraction=0.5)
        assert run == [fresh.corrupt(obs, 99, t) for t in range(fresh.config.horizon + 1)]
        assert len(set(run)) > 1

    def test_effective_intensity_storm_boost(self):
        # storm seeds get min(1, base * boost), calm seeds the base intensity
        base = {"PartialObs": 0.3, "Injection": 0.6}
        storm = HazardChainEnv(
            EnvConfig(family_intensities=base, storm_fraction=1.0, storm_boost=2.0), 4
        )
        calm = HazardChainEnv(EnvConfig(family_intensities=base, storm_fraction=0.0), 4)
        for z in (1, 2, 3):
            assert storm.perturbation_ops(z) == (
                PerturbationOp("PartialObs", 0.6), PerturbationOp("Injection", 1.0)
            )
            assert calm.perturbation_ops(z) == (
                PerturbationOp("PartialObs", 0.3), PerturbationOp("Injection", 0.6)
            )


class TestResetAndStep:
    def test_reset_deterministic(self):
        env = make_env({"PartialObs": 0.5, "ToolFlaky": 0.2})
        a = env.reset(0, PerturbationSeed(7))
        b = env.reset(0, PerturbationSeed(7))
        assert a == b

    def test_reset_zero_intensity_clean(self):
        env = make_env()
        state, ctx = env.reset(2, PerturbationSeed(5))
        task = env.task_spec(2)
        assert ctx.last_observation == env.clean_observation(task, state)

    def test_reset_full_masking_rate(self):
        # plan enumeration over 100 seeds; full intensity must mask every token
        env = make_env({"PartialObs": 1.0})
        for z in range(100):
            _, ctx = env.reset(0, PerturbationSeed(z))
            masked = sum(tok == env.tokens.mask for tok in ctx.last_observation)
            assert masked / len(ctx.last_observation) >= 1.0 - 0.1
            assert masked >= 1

    def test_reset_rejects_unknown_task(self):
        env = make_env()
        with pytest.raises(ValueError):
            env.reset(99, PerturbationSeed(0))

    def test_step_determinism(self):
        env = make_env({"PartialObs": 0.4})
        state, _ = env.reset(1, PerturbationSeed(3))
        out1 = env.step(state, ACTION_RIGHT, PerturbationSeed(3), 0)
        out2 = env.step(state, ACTION_RIGHT, PerturbationSeed(3), 0)
        assert out1 == out2

    def test_scripted_optimum_succeeds_clean(self):
        env = make_env()
        for task_id in range(env.task_count):
            task = env.task_spec(task_id)
            state, _ = env.reset(task_id, PerturbationSeed(0))
            success = False
            for t in range(env.config.horizon):
                action = env.optimal_action(task, state)
                state, _, terminal, success = env.step(state, action, PerturbationSeed(0), t)
                if terminal:
                    break
            assert success, f"task {task_id} not solvable by the scripted optimum"

    def test_invalid_action_absorbed_with_marker(self):
        env = make_env()
        state, _ = env.reset(0, PerturbationSeed(0))
        state2, obs, terminal, success = env.step(state, 99, PerturbationSeed(0), 0)
        assert state2.position == state.position
        assert obs[0] == env.tokens.invalid
        assert not success

    def test_hazard_terminal_and_failure(self):
        env = make_env()
        state, _ = env.reset(0, PerturbationSeed(0))
        state2, _, terminal, success = env.step(state, ACTION_HAZARD, PerturbationSeed(0), 0)
        assert terminal and not success and state2.hazard_flags

    def test_hazard_makes_success_unreachable_exhaustive(self):
        # exhaustive search over all action sequences on a 5-state instance
        env = HazardChainEnv(EnvConfig(state_count=5, horizon=8, rng_seed=1), 1)
        task = env.task_spec(0)
        start = LatentState(0, task.start, 0, 1)  # hazard already tripped
        frontier = [start]
        for _ in range(env.config.horizon):
            nxt = []
            for state in frontier:
                for action in range(env.config.action_count):
                    state2, success = env.transition(task, state, action)
                    assert not success, "success reachable after hazard"
                    nxt.append(state2)
            frontier = list({(s.position, s.carried_flags, s.hazard_flags): s
                             for s in nxt}.values())

    def test_horizon_terminates(self):
        env = make_env(horizon=4)
        state, _ = env.reset(0, PerturbationSeed(0))
        terminal = False
        for t in range(env.config.horizon):
            state, _, terminal, _ = env.step(state, ACTION_LEFT, PerturbationSeed(0), t)
        assert terminal


def clean_obs(env, task_id=0):
    state, _ = env.reset(task_id, PerturbationSeed(0))
    return env.clean_observation(env.task_spec(task_id), state)


class TestPairedViews:
    """Two seeds' views of one latent state, as the consistency pairs use them."""

    def test_zero_intensity_views_identical(self):
        env = make_env()
        clean = clean_obs(env)
        assert env.corrupt(clean, 3, 1) == env.corrupt(clean, 4, 1) == clean

    def test_same_seed_reflexive(self):
        env = make_env({"PartialObs": 0.6})
        clean = clean_obs(env)
        assert env.corrupt(clean, 5, 1) == env.corrupt(clean, 5, 1)

    def test_plan_inversion_oracle(self):
        # with only PartialObs active, the seed's intensity and the per-token
        # uniforms explain every token: MASK where the draw falls below the
        # intensity, the clean value elsewhere
        cfg = EnvConfig(family_intensities={"PartialObs": 0.4}, storm_fraction=0.5,
                        storm_boost=1.5)
        env = HazardChainEnv(cfg, task_count=12)
        clean = clean_obs(env)
        intensities = set()
        for z in range(10):
            (op,) = env.perturbation_ops(z)
            assert op.family == "PartialObs"
            intensities.add(op.intensity)
            for t in range(3):
                view = env.corrupt(clean, z, t)
                for i, (tok_clean, tok_seen) in enumerate(zip(clean, view)):
                    masked = seeds.unit_uniform(z, t, "PartialObs", i) < op.intensity
                    assert tok_seen == (env.tokens.mask if masked else tok_clean)
        assert len(intensities) == 2  # both calm and storm seeds were checked

    def test_views_share_latent_state(self):
        # two seeds corrupt the same underlying observation differently for
        # at least some (z, z') pairs
        env = make_env({"PartialObs": 0.5, "Injection": 0.5})
        clean = clean_obs(env, 1)
        views = [(env.corrupt(clean, 100 + i, 0), env.corrupt(clean, 200 + i, 0))
                 for i in range(10)]
        assert any(a != b for a, b in views)


class TestTasks:
    def test_goal_tokens_parse_round_trip(self):
        env = make_env()
        for task_id in range(env.task_count):
            task = env.task_spec(task_id)
            parsed = env.parse_goal(env.goal_tokens(task))
            assert (parsed.start, parsed.subgoals, parsed.terminal) == (
                task.start,
                task.subgoals,
                task.terminal,
            )

    def test_tasks_deterministic(self):
        env = make_env()
        assert env.task_spec(5) == make_env().task_spec(5)

    def test_path_lengths_within_horizon(self):
        env = make_env()
        for task_id in range(env.task_count):
            assert env.task_spec(task_id).path_length() <= env.config.horizon - 1

    def test_replay_matches_forward_execution(self):
        env = make_env()
        task = env.task_spec(3)
        state = LatentState(3, task.start, 0, 0)
        actions = []
        for _ in range(6):
            a = env.optimal_action(task, state)
            actions.append(a)
            state, _ = env.transition(task, state, a)
        assert env.replay(task, actions) == state


class TestMemos:
    """Memoized task layouts and corruption ops must equal fresh computation."""

    NOISY = {"ToolFlaky": 0.3, "PartialObs": 0.4, "Injection": 0.3, "Distractor": 0.3}

    def test_task_spec_matches_fresh_env(self):
        env = make_env()
        for task_id in reversed(range(env.task_count)):
            env.task_spec(task_id)
        for task_id in range(env.task_count):
            fresh = make_env()
            assert env.task_spec(task_id) == fresh.task_spec(task_id)
            assert env.task_spec(task_id) == sample_task_spec(env.config, task_id)

    def test_envs_with_different_seeds_do_not_share_layouts(self):
        a, b = make_env(rng_seed=42), make_env(rng_seed=7)
        layouts_a = [a.task_spec(i) for i in range(a.task_count)]
        layouts_b = [b.task_spec(i) for i in range(b.task_count)]
        assert layouts_b == [sample_task_spec(b.config, i) for i in range(b.task_count)]
        assert layouts_a != layouts_b
        assert make_env(rng_seed=42).task_spec(0) == layouts_a[0]

    def test_clean_variant_corrupt_is_identity(self):
        env = make_env({fam: 1.0 for fam in self.NOISY}, storm_fraction=1.0)
        obs = (5, 6, 7, 8)
        assert env.corrupt(obs, 3, 1) != obs  # warm the noisy env's memo first
        clean = env.clean_variant()
        for z, t in itertools.product(range(30), range(5)):
            assert clean.corrupt(obs, z, t) == obs

    def test_corrupt_independent_of_seed_visit_order(self):
        obs = (5, 6, 7, 8)
        zs = [3, 17, 99, 1 << 40, 5, 123456789]
        forward, backward = make_env(self.NOISY, storm_fraction=0.5), make_env(
            self.NOISY, storm_fraction=0.5)
        seen_fwd = {(z, t): forward.corrupt(obs, z, t) for t in range(6) for z in zs}
        seen_bwd = {(z, t): backward.corrupt(obs, z, t)
                    for z in reversed(zs) for t in reversed(range(6))}
        assert seen_fwd == seen_bwd
        tokens = forward.tokens
        for (z, t), out in seen_fwd.items():
            expected = obs
            for fam in PERTURBATION_FAMILIES:
                cfg = forward.config
                inten = min(1.0, cfg.intensity(fam) * seed_severity(cfg, z))
                expected = apply_perturbation(expected, PerturbationOp(fam, inten), z, t, tokens)
            assert out == expected
