"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo and trained-model checks live in steprouter.theory; this module
drives them at the agreed tolerances and adds the pipeline-level checks
(invariants, ablation direction, Pareto battery, determinism and speed).
"""

import json
import time
import pytest

from steprouter import pipeline, seeds, theory
from steprouter.cli import EXIT_OK, EXIT_STAGE_ORDER, main
from steprouter.distill import DistillConfig, build_preferences, train_recovery
from steprouter.domain import EnvConfig
from steprouter.env import HazardChainEnv
from steprouter.policy import (
    PolicyFeaturizer,
    TeacherPolicy,
    collect_teacher_trajectories,
    train_bc,
)
from steprouter.router import RouterNet
from steprouter.runtime import RoutingPolicy, collect_routing_dataset, run_episode
from steprouter.verifier import VerifierSpec


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def planted_router():
    """Criterion 1 artifact, reused by criterion 3."""
    start = time.time()
    check, net = theory.check_brier_calibration()
    return check, net, time.time() - start


def test_criterion_01_calibration_recovery(planted_router):
    check, _, _ = planted_router
    report("1 calibration-recovery", check.passed, check.detail)


def test_criterion_02_threshold_optimality():
    check = theory.check_threshold_optimality()
    report("2 threshold-optimality", check.passed, check.detail)


def test_criterion_03_regret_bound(planted_router):
    _, net, _ = planted_router
    check = theory.check_regret_bound(net)
    report("3 regret-bound", check.passed, check.detail)


def test_criterion_04_tv_jsd_lemma():
    check = theory.check_tv_jsd()
    report("4 tv-jsd-lemma", check.passed, check.detail)


def test_criterion_05_best_of_k_bound():
    start = time.time()
    check = theory.check_best_of_k()
    elapsed = time.time() - start
    report("5 best-of-k-bound", check.passed and elapsed <= 60.0,
           f"{check.detail}; {elapsed:.1f}s (cap 60s)")


def test_criterion_06_noisy_dpo_sign():
    check = theory.check_noisy_dpo()
    report("6 noisy-dpo-sign", check.passed, check.detail)


def test_criterion_07_consistency_transfer():
    check = theory.check_consistency_transfer()
    report("7 consistency-transfer", check.passed, check.detail)


def test_criterion_08_gradient_checks():
    check = theory.check_gradients()
    report("8 gradient-checks", check.passed, check.detail)


@pytest.fixture(scope="module")
def world():
    cfg = EnvConfig(
        family_intensities={"ToolFlaky": 0.25, "PartialObs": 0.45,
                            "Injection": 0.2, "Distractor": 0.2},
        rng_seed=23,
        horizon=14,
    )
    env = HazardChainEnv(cfg, task_count=8)
    teacher = TeacherPolicy(0.02)
    pool = collect_teacher_trajectories(env, teacher, range(8), 4)
    bc, _ = train_bc(pool, PolicyFeaturizer.for_env(env), epochs=40, lr=4.0)
    vspec = VerifierSpec.for_env(env, eta_v=0.2)
    return env, teacher, pool, bc, vspec


class TestCriterion09PipelineInvariants:
    def test_frozen_reference_hash(self, world):
        env, teacher, pool, bc, vspec = world
        before = bc.param_hash()
        pairs, views, _ = build_preferences(bc, pool, vspec, teacher, env, k=5)
        _, rep = train_recovery(bc, pairs, views, DistillConfig(beta=2.0, epochs=30))
        passed = bc.param_hash() == before == rep["reference_hash"]
        report("9a frozen-reference-hash", passed,
               f"hash {before[:12]}... unchanged through distillation")

    def test_stage_order_guard(self, tmp_path):
        assert main(["gen-tasks", "--workdir", str(tmp_path),
                     "--set", "env.task_count=8"]) == EXIT_OK
        rc = main(["distill", "--workdir", str(tmp_path),
                   "--set", "env.task_count=8"])
        report("9b stage-order-guard", rc == EXIT_STAGE_ORDER,
               f"distill before train-bc exits {rc}")

    def test_budget_cap_randomized(self, world):
        env, teacher, pool, bc, vspec = world
        slm = bc.clone(stage="distilled")
        rng = seeds.stream("acceptance-budget")
        net = RouterNet.init(seeds.stream("acceptance-budget-net"))
        violations = 0
        for trial in range(1000):
            budget = int(rng.integers(0, 6))
            kind = trial % 4
            if kind == 0:
                routing = RoutingPolicy.llm_only(budget)
            elif kind == 1:
                routing = RoutingPolicy.entropy_router(float(rng.random()), budget)
            elif kind == 2:
                routing = RoutingPolicy.heuristic_router(float(rng.random()), budget)
            else:
                routing = RoutingPolicy.r2v(net, float(rng.random()), budget_limit=budget)
            ep = run_episode(env, int(rng.integers(8)), int(rng.integers(10_000)),
                             slm, teacher, vspec, routing, salt=trial)
            violations += ep.llm_calls > budget
        report("9c budget-cap", violations == 0,
               f"0 violations over 1000 randomized episodes" if not violations
               else f"{violations} violations")

    def test_routing_labels_recount(self, world):
        env, teacher, pool, bc, vspec = world
        slm = bc.clone(stage="distilled")
        examples, episodes = collect_routing_dataset(env, slm, teacher, vspec,
                                                     range(8), 6)
        ok = True
        for seed_id, ep in enumerate(episodes):
            want = 0 if ep.success else 1
            got = {ex.label for ex in examples if ex.seed_id == seed_id}
            ok &= got == {want}
        ok &= len(examples) == sum(len(ep.steps) for ep in episodes)
        report("9d label-recount", ok,
               f"{len(examples)} labels match episode outcomes exactly")


def test_criterion_10_cvar_knob_direction():
    check = theory.check_cvar_knob()
    report("10 cvar-knob-direction", check.passed, check.detail)


def _pareto_clauses(variants):
    r, o, h = variants["r2v"], variants["oracle"], variants["heuristic"]
    near_oracle = (
        r["success_rate"] >= o["success_rate"] - 0.03
        and r["llm_rate"] <= 1.5 * o["llm_rate"]
    )
    dominates = (
        r["success_rate"] > h["success_rate"] and r["llm_rate"] < h["llm_rate"]
    ) or (
        r["success_rate"] >= h["success_rate"]
        and r["llm_rate"] <= 0.75 * h["llm_rate"]
    )
    return near_oracle, dominates


def test_criterion_11_pareto_battery(tmp_path):
    outcomes = []
    lines = []
    for salt in range(5):
        cfg = pipeline.load_config(
            overrides=[*pipeline.HIGH_RISK_OVERRIDES, f"runtime.harness_salt={salt}"]
        )
        wd = tmp_path / f"salt{salt}"
        pipeline.run_pipeline(cfg, wd, workers=1, through="evaluate")
        variants = json.loads((wd / "summary.json").read_text())["variants"]
        near_oracle, dominates = _pareto_clauses(variants)
        outcomes.append(near_oracle and dominates)
        lines.append(
            f"salt{salt}: r2v {variants['r2v']['success_rate']:.3f}/"
            f"{variants['r2v']['llm_rate']:.3f} oracle "
            f"{variants['oracle']['success_rate']:.3f}/"
            f"{variants['oracle']['llm_rate']:.3f} heuristic "
            f"{variants['heuristic']['success_rate']:.3f}/"
            f"{variants['heuristic']['llm_rate']:.3f} -> "
            f"{'ok' if outcomes[-1] else 'miss'}"
        )
    passed = sum(outcomes) >= 3
    report("11 pareto-battery", passed,
           f"{sum(outcomes)}/5 harness seeds; " + "; ".join(lines))


def test_criterion_12_determinism_and_speed(tmp_path):
    stages = [row.name for row in pipeline.STAGES if row.param is None]
    elapsed = []
    for run in ("a", "b"):
        wd = tmp_path / run
        wd.mkdir()
        start = time.time()
        for stage in stages:
            rc = main([stage, "--workdir", str(wd), "--workers", "2"])
            assert rc == EXIT_OK
        elapsed.append(time.time() - start)
    identical = (tmp_path / "a" / "summary.json").read_bytes() == (
        tmp_path / "b" / "summary.json"
    ).read_bytes()
    within_budget = max(elapsed) <= 300.0
    report("12 determinism-and-speed", identical and within_budget,
           f"bit-identical={identical}, runs took {elapsed[0]:.1f}s/{elapsed[1]:.1f}s "
           "(cap 300s)")
