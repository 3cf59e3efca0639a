"""Budget-gated inference loop and the routing baselines.

Every variant runs the same per-step skeleton: sample K candidates from the
local policy, score them, take the verifier argmax as the local proposal,
extract risk features, then ask the variant for an escalation decision. The
decision only takes effect while per-episode budget remains; on escalation
the teacher acts directly (its action is not re-ranked by the verifier).

The hindsight oracle is structurally offline: it needs a table of SLM-only
episode outcomes over the same (task, seed) grid, which the online loop has
no way to construct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .domain import (
    CostSpec,
    PerturbationSeed,
    PerturbedEpisode,
    RoutingExample,
    StepRecord,
)
from .env import HazardChainEnv
from .features import FeatureLimits, FeatureMask, apply_mask, extract
from .policy import SoftmaxPolicy, TeacherPolicy, draw_candidates, probabilities
from .router import RouterNet, sweep_threshold
from .verifier import VerifierSpec, score_candidates

VARIANTS = ("slm", "llm", "entropy", "heuristic", "r2v", "oracle")


@dataclass(frozen=True)
class RoutingPolicy:
    """One routing variant plus its per-episode LLM budget (None = unlimited)."""

    variant: str
    budget_limit: int | None = None
    tau_h: float | None = None
    theta_v: float | None = None
    net: RouterNet | None = None
    tau_route: float | None = None
    mask: FeatureMask = FeatureMask.FULL
    hindsight: dict | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown routing variant {self.variant!r}")
        if self.budget_limit is not None and self.budget_limit < 0:
            raise ValueError("budget must be nonnegative")

    @classmethod
    def slm_only(cls) -> "RoutingPolicy":
        return cls(variant="slm")

    @classmethod
    def llm_only(cls, budget_limit: int | None = None) -> "RoutingPolicy":
        return cls(variant="llm", budget_limit=budget_limit)

    @classmethod
    def entropy_router(cls, tau_h: float, budget_limit: int | None = None) -> "RoutingPolicy":
        return cls(variant="entropy", tau_h=tau_h, budget_limit=budget_limit)

    @classmethod
    def heuristic_router(cls, theta_v: float, budget_limit: int | None = None) -> "RoutingPolicy":
        return cls(variant="heuristic", theta_v=theta_v, budget_limit=budget_limit)

    @classmethod
    def r2v(cls, net: RouterNet, tau_route: float,
            mask: FeatureMask = FeatureMask.FULL,
            budget_limit: int | None = None) -> "RoutingPolicy":
        return cls(variant="r2v", net=net, tau_route=tau_route, mask=mask,
                   budget_limit=budget_limit)

    @classmethod
    def oracle_router(cls, hindsight: dict, budget_limit: int | None = None) -> "RoutingPolicy":
        return cls(variant="oracle", hindsight=hindsight, budget_limit=budget_limit)


def entropy_decision(features, tau_h: float) -> bool:
    """Escalate when the normalized policy entropy reaches the threshold."""
    return bool(features[0] >= tau_h)


def heuristic_decision(scores, theta_v: float) -> bool:
    """Escalate when even the best verifier score falls below the threshold."""
    if len(scores) < 1:
        raise ValueError("heuristic rule needs at least one score")
    return bool(max(scores) < theta_v)


def router_decision(p: float, tau_route: float) -> bool:
    """Hard rule: escalate iff p >= tau (inclusive comparison)."""
    return bool(p >= tau_route)


def oracle_decision(task_id: int, z: int, hindsight: dict) -> bool:
    """Escalate on every step of episodes whose SLM-only rollout failed."""
    key = (task_id, z)
    if key not in hindsight:
        raise ValueError(f"hindsight table has no entry for task={task_id} z={z}")
    return not hindsight[key]


def _decide(routing: RoutingPolicy, f_masked, scores, task_id, z):
    """(router probability or None, escalation decision) for one step."""
    if routing.variant == "slm":
        return None, False
    if routing.variant == "llm":
        return None, True
    if routing.variant == "entropy":
        return None, entropy_decision(f_masked, routing.tau_h)
    if routing.variant == "heuristic":
        return None, heuristic_decision(scores, routing.theta_v)
    if routing.variant == "r2v":
        p = float(routing.net.predict(f_masked)[0])
        return p, router_decision(p, routing.tau_route)
    return None, oracle_decision(task_id, z, routing.hindsight)


def run_episode(
    env: HazardChainEnv,
    task_id: int,
    z: int,
    slm: SoftmaxPolicy,
    teacher: TeacherPolicy,
    vspec: VerifierSpec,
    routing: RoutingPolicy,
    k: int = 5,
    salt: int | str = 0,
) -> PerturbedEpisode:
    """One routed rollout; a pure function of (config, task, z, salt).

    Each step runs one featurize + matmul + softmax: `probs` (read by the
    features) and the K candidate draws both come from the same
    log-distribution, which is bit-identical to what `action_distribution`
    and `sample_candidates` would each recompute. Task layouts and the
    seed's corruption ops come from the env's memos, so a step does no work
    that is constant within the run.
    """
    limits = feature_limits(env)
    seed = PerturbationSeed(z)
    base = env.config.rng_seed
    rng_cand = seeds.stream(base, "cand", task_id, z, salt)
    rng_ver = seeds.stream(base, "verif", task_id, z, salt)
    rng_teach = seeds.stream(base, "escalate", task_id, z, salt)

    state, ctx = env.reset(task_id, seed)
    remaining = routing.budget_limit
    steps = []
    llm_calls = 0
    success = False
    for t in range(env.config.horizon):
        logp = slm.log_distribution(ctx)
        probs = probabilities(logp)
        cands = draw_candidates(logp, probs, k, rng_cand)
        scores = score_candidates(vspec, ctx, [a for a, _ in cands], rng_ver)
        best = int(np.argmax(scores))
        f_raw = extract(ctx, probs, cands, scores, limits)
        f_masked = apply_mask(f_raw, routing.mask)
        p, decision = _decide(routing, f_masked, scores, task_id, z)

        escalate = decision and (remaining is None or remaining > 0)
        if escalate:
            action = teacher.act(env, state, rng_teach)
            executor = "LLM"
            llm_calls += 1
            if remaining is not None:
                remaining -= 1
        else:
            action = cands[best][0]
            executor = "SLM"

        state, obs, terminal, success = env.step(state, action, seed, t)
        steps.append(
            StepRecord(
                context=ctx,
                candidates=tuple(cands),
                verifier_scores=tuple(scores.tolist()),
                chosen_action=action,
                executor=executor,
                features=tuple(f_raw.tolist()),
                router_prob=p,
                decision=decision,
                budget_remaining=remaining,
            )
        )
        ctx = ctx.advanced(action, obs)
        if terminal:
            break
    return PerturbedEpisode(
        task_id=task_id,
        seed=seed,
        steps=tuple(steps),
        success=success,
        llm_calls=llm_calls,
        budget_limit=routing.budget_limit,
        kind=routing.variant,
    )


def feature_limits(env: HazardChainEnv) -> FeatureLimits:
    """Normalization constants sized to the environment."""
    per_step = 4 + 1 + 3 + 3  # clean obs + invalid marker + inject + distract blocks
    return FeatureLimits(
        horizon=env.config.horizon,
        horizon_max=64,
        max_context_tokens=5 + (env.config.horizon + 1) * per_step,
        max_goal_len=5,
    )


def routing_grid(env: HazardChainEnv, task_ids, seeds_per_task: int, tag: str):
    """Deterministic (task, z) pairs; ordering fixes the seed-id numbering."""
    grid = []
    for task_id in sorted(task_ids):
        for j in range(seeds_per_task):
            grid.append((task_id, seeds.mix(env.config.rng_seed, tag, task_id, j)))
    return grid


def collect_routing_dataset(
    env: HazardChainEnv,
    slm: SoftmaxPolicy,
    teacher: TeacherPolicy,
    vspec: VerifierSpec,
    task_ids,
    seeds_per_task: int,
    k: int = 5,
    tag: str = "routing",
    split: str = "train",
    seed_id_offset: int = 0,
) -> tuple[list[RoutingExample], list[PerturbedEpisode]]:
    """SLM-only rollouts labeled with the episode outcome (Algorithm-style).

    Every visited context on a failed rollout gets label 1, including early
    steps that looked fine; labels mark residual episode risk, not step
    correctness. Refuses policies that skipped the distillation stage.
    """
    if slm.stage != "distilled":
        raise ValueError(
            f"routing data must come from a distilled policy, got stage={slm.stage!r}"
        )
    examples: list[RoutingExample] = []
    episodes: list[PerturbedEpisode] = []
    policy = RoutingPolicy.slm_only()
    for seed_id, (task_id, z) in enumerate(routing_grid(env, task_ids, seeds_per_task, tag)):
        ep = run_episode(env, task_id, z, slm, teacher, vspec, policy, k=k, salt=tag)
        label = 0 if ep.success else 1
        for step in ep.steps:
            examples.append(
                RoutingExample(
                    features=step.features,
                    label=label,
                    seed_id=seed_id_offset + seed_id,
                    step_index=step.context.step_index,
                    split=split,
                )
            )
        episodes.append(ep)
    return examples, episodes


def hindsight_table(episodes) -> dict:
    """(task, z) -> SLM-only success, consumed by the oracle router."""
    return {(ep.task_id, ep.seed.z): ep.success for ep in episodes}


def calibrate_entropy_threshold(examples, costs: CostSpec) -> float:
    """Validation-calibrated entropy cutoff for the entropy baseline."""
    values = [ex.features[0] for ex in examples]
    labels = [ex.label for ex in examples]
    return sweep_threshold(values, labels, costs)


def calibrate_heuristic_threshold(examples, costs: CostSpec) -> float:
    """Validation-calibrated best-score cutoff for the heuristic baseline."""
    values = [ex.features[6] for ex in examples]  # slot 6 = verifier best score
    labels = [ex.label for ex in examples]
    return sweep_threshold(values, labels, costs, escalate_when_ge=False)
