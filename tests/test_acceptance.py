"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-8 and 10 are the rows of `theory.CRITERIA`, run by one
parametrized test through the same driver as `steprouter verify-theory`, at
the tolerances and caps the table holds; criterion 3 adds the router that
criterion 1 trained to its nets. This module adds the pipeline-level
criteria: invariants (9), the Pareto battery (11), determinism and speed (12).
"""

import json
import time
import pytest

from steprouter import pipeline, seeds, theory
from steprouter.cli import EXIT_OK, EXIT_STAGE_ORDER, main
from steprouter.distill import (DistillConfig, build_consistency_views, build_preferences,
                                train_recovery)
from steprouter.domain import ROUTING_SCHEMA, EnvConfig, routing_record, write_rljson
from steprouter.env import HazardChainEnv
from steprouter.policy import (
    PolicyFeaturizer,
    TeacherPolicy,
    collect_teacher_trajectories,
    train_bc,
)
from steprouter.router import RouterNet
from steprouter.runtime import RoutingPolicy, routing_grid, run_episode
from steprouter.verifier import VerifierSpec


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def trained():
    """Routers the rows train, so criterion 3 reuses criterion 1's."""
    return []


@pytest.mark.parametrize("row", theory.CRITERIA, ids=lambda r: f"{r.number:02d}-{r.name}")
def test_criterion(row, trained):
    passed, detail = row.run(trained)
    report(f"{row.number} {row.name}", passed, detail)


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
        pairs, _ = build_preferences(bc, pool, vspec, teacher, env, k=5)
        views = build_consistency_views(pool, env)
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
            variant = ("llm", "entropy", "heuristic", "r2v")[trial % 4]
            routing = RoutingPolicy(variant, None if variant == "llm" else float(rng.random()),
                                    budget, net if variant == "r2v" else None)
            ep = run_episode(env, int(rng.integers(8)), int(rng.integers(10_000)),
                             slm, teacher, vspec, routing, salt=trial)
            violations += ep.llm_calls > budget
        report("9c budget-cap", violations == 0,
               f"0 violations over 1000 randomized episodes" if not violations
               else f"{violations} violations")

    def test_routing_labels_recount(self, world, tmp_path):
        env, teacher, pool, bc, vspec = world
        slm = bc.clone(stage="distilled")
        # SLM-only rollouts over the routing grid, as collect-routing rolls them
        episodes = [run_episode(env, t, z, slm, teacher, vspec, RoutingPolicy("slm"),
                                salt="routing")
                    for t, z in routing_grid(env, range(8), 6, "routing")]
        path = tmp_path / "routing.rljson"
        write_rljson(path, [routing_record(i, "train", ep) for i, ep in enumerate(episodes)],
                     {"schema": ROUTING_SCHEMA})
        examples = pipeline.load_routing_examples(path)
        ok = all(ep.llm_calls == 0 for ep in episodes)
        for seed_id, ep in enumerate(episodes):
            want = 0 if ep.success else 1
            got = {ex.label for ex in examples if ex.seed_id == seed_id}
            ok &= got == {want}
        ok &= len(examples) == sum(len(ep.steps) for ep in episodes)
        report("9d label-recount", ok,
               f"{len(examples)} labels match episode outcomes exactly")


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
