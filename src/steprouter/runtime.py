"""Budget-gated inference loop and the routing baselines.

Every variant runs the same per-step skeleton: sample K candidates from the
local policy, score them, take the verifier argmax as the local proposal,
extract risk features, then ask the variant for an escalation decision. The
decision only takes effect while per-episode budget remains; on escalation
the teacher acts directly (its action is not re-ranked by the verifier).

Everything before the decision depends on (task, z, action prefix) alone, so
policies rolled over one grid share it through a `StepTree`: each distinct
prefix is sampled, scored, featurized and stepped once, and every policy
still gets the episode it would get rolled alone.

The hindsight oracle is structurally offline: it needs a table of SLM-only
episode outcomes over the same (task, seed) grid, which the online loop has
no way to construct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .domain import (
    Context,
    CostSpec,
    PerturbationSeed,
    PerturbedEpisode,
    StepRecord,
)
from .env import HazardChainEnv
from .features import FeatureLimits, FeatureMask, apply_mask, extract
from .policy import SoftmaxPolicy, TeacherPolicy, draw_candidates, probabilities
from .router import RouterNet, RouterSnapshot, sweep_threshold
from .verifier import VerifierSpec, score_candidates

VARIANTS = ("slm", "llm", "entropy", "heuristic", "r2v", "oracle")


@dataclass(frozen=True)
class RoutingPolicy:
    """One routing rule: a per-step score held against `threshold`, plus a
    per-episode LLM budget (None = unlimited).

    `threshold` is the entropy cutoff tau_h, the verifier cutoff theta_v or
    the router's tau_route; slm, llm and the oracle take none. r2v scores
    its features through `mask` with `snapshot`, the eval-mode
    `RouterSnapshot` of `net` taken when the policy is built, its arrays
    read-only copies, so an edit of the net after that does not reach the
    policy's decisions. The oracle reads `hindsight`, the SLM-only outcome
    of each (task, z).
    """

    variant: str
    threshold: float | None = None
    budget_limit: int | None = None
    net: RouterNet | None = None
    mask: FeatureMask = FeatureMask.FULL
    hindsight: dict | None = None
    snapshot: RouterSnapshot | None = field(init=False, default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown routing variant {self.variant!r}")
        if self.variant in ("entropy", "heuristic", "r2v") and (
                isinstance(self.threshold, bool) or not isinstance(self.threshold, (int, float))):
            raise ValueError(f"the {self.variant} rule needs a number threshold, "
                             f"got {self.threshold!r}")
        if self.variant == "r2v":
            if self.net is None:
                raise ValueError("the r2v rule needs a router net")
            object.__setattr__(self, "snapshot", RouterSnapshot.of(self.net).frozen())
        if self.variant == "oracle" and self.hindsight is None:
            raise ValueError("the oracle needs a hindsight table")
        budget = self.budget_limit
        if budget is not None and (type(budget) is not int or budget < 0):
            raise ValueError("budget must be None (unlimited) or an integer >= 0")


def _decide(routing: RoutingPolicy, f_raw, task_id: int, z: int):
    """(router probability or None, escalation decision) for one step.

    entropy escalates when the normalized policy entropy (slot 0) reaches
    the threshold, heuristic when even the best verifier score (slot 6)
    falls below it, r2v when the router's probability on the masked
    features reaches it (p = 1 at threshold 1 escalates), and the oracle on
    every step of an episode whose SLM-only rollout failed. r2v scores the
    one row through the policy's snapshot, which gives what
    `routing.net.predict` gave when the policy was built, bit for bit.
    """
    variant, threshold = routing.variant, routing.threshold
    if variant == "r2v":
        p = routing.snapshot.prob(apply_mask(f_raw, routing.mask))
        return p, p >= threshold
    if variant == "entropy":
        return None, bool(f_raw[0] >= threshold)
    if variant == "heuristic":
        return None, bool(f_raw[6] < threshold)
    if variant == "oracle":
        if (task_id, z) not in routing.hindsight:
            raise ValueError(f"hindsight table has no entry for task={task_id} z={z}")
        return None, not routing.hindsight[task_id, z]
    return None, variant == "llm"


class _Node:
    """One distinct action prefix of one (task, z).

    `state` and `ctx` are where the prefix leads; `terminal` and `success`
    are what `env.step` returned on the last action (False at the root). The
    first policy to step from the node fills the rest: the local proposal
    (verifier argmax), the verifier scores and raw features with the tuple
    forms a StepRecord stores, in a shared tree the states of the cand and
    verif streams after the step's draws, and `children`, one node per
    executed action.
    """

    __slots__ = ("state", "ctx", "terminal", "success", "slm_action", "f_raw",
                 "candidates", "score_record", "feature_record", "streams", "children")

    def __init__(self, state, ctx: Context, terminal: bool = False, success: bool = False):
        self.state = state
        self.ctx = ctx
        self.terminal = terminal
        self.success = success
        self.children = None  # None until the node's step is computed

    def expand(self, slm: SoftmaxPolicy, vspec: VerifierSpec, k: int,
               limits: FeatureLimits, rng_cand, rng_ver, keep_streams: bool) -> None:
        """Sample K candidates, score them and extract the raw features."""
        logp = slm.log_distribution(self.ctx)
        probs = probabilities(logp)
        cands = draw_candidates(logp, probs, k, rng_cand)
        scores = score_candidates(vspec, self.state, [a for a, _ in cands], rng_ver)
        self.f_raw = extract(self.ctx, probs, cands, scores, limits)
        self.slm_action = cands[int(np.argmax(scores))][0]
        self.candidates = tuple(cands)
        self.score_record = tuple(scores.tolist())
        self.feature_record = tuple(self.f_raw.tolist())
        if keep_streams:
            self.streams = (rng_cand.bit_generator.state, rng_ver.bit_generator.state)
        self.children = {}

    def child(self, env: HazardChainEnv, action: int, seed: PerturbationSeed,
              t: int) -> "_Node":
        """The node `action` leads to, stepping the env the first time."""
        node = self.children.get(action)
        if node is None:
            state, obs, terminal, success = env.step(self.state, action, seed, t)
            node = self.children[action] = _Node(state, self.ctx.advanced(action, obs),
                                                 terminal, success)
        return node


class StepTree:
    """The routing-independent half of the steps of one grid of rollouts.

    Candidates, verifier scores, risk features and env transitions are a
    pure function of (task, z, action prefix), not of the routing policy, so
    policies rolled over the same grid share them: `run_episode` computes a
    step the first time any policy reaches its prefix and reads it back
    after that. A tree serves one env, SLM and verifier; its roots are keyed
    by (task, z, k, salt). The caller owns it and drops it when its grid is
    done.
    """

    def __init__(self):
        self._roots: dict = {}

    def root(self, env: HazardChainEnv, task_id: int, seed: PerturbationSeed,
             k: int, salt) -> _Node:
        key = (task_id, seed.z, k, salt)
        node = self._roots.get(key)
        if node is None:
            node = self._roots[key] = _Node(*env.reset(task_id, seed))
        return node


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
    tree: StepTree | None = None,
) -> PerturbedEpisode:
    """One routed rollout; a pure function of (config, task, z, salt).

    Each step reads its prefix's node in `tree` (a private tree when None),
    computing it on the first visit: one featurize + matmul + softmax, whose
    `probs` feed the features and whose K candidate draws come from the same
    log-distribution, then verifier scores and raw features. A visited node
    draws nothing; before the first new node after a run of visited ones,
    the cand and verif streams are set to the states the last visited node
    saved, so every draw matches a rollout of this policy alone. The teacher
    stream, the budget, the feature mask, the decision and the record are
    this policy's own. Each stream is made on its first use, so an episode
    that only visits nodes and never escalates makes none.
    """
    # a private tree is never visited again, so it keeps no stream states
    keep_streams = tree is not None
    tree = StepTree() if tree is None else tree
    limits = feature_limits(env)
    seed = PerturbationSeed(z)
    base = env.config.rng_seed
    rng_cand = rng_ver = rng_teach = None

    node = tree.root(env, task_id, seed, k, salt)
    restore = None  # stream states to set before the next new node draws
    remaining = routing.budget_limit
    steps = []
    llm_calls = 0
    for t in range(env.config.horizon):
        if node.children is None:
            if rng_cand is None:
                rng_cand = seeds.stream(base, "cand", task_id, z, salt)
                rng_ver = seeds.stream(base, "verif", task_id, z, salt)
            if restore is not None:
                rng_cand.bit_generator.state, rng_ver.bit_generator.state = restore
                restore = None
            node.expand(slm, vspec, k, limits, rng_cand, rng_ver, keep_streams)
        else:
            restore = node.streams
        p, decision = _decide(routing, node.f_raw, task_id, z)

        escalate = decision and (remaining is None or remaining > 0)
        if escalate:
            if rng_teach is None:
                rng_teach = seeds.stream(base, "escalate", task_id, z, salt)
            action = teacher.act(env, node.state, rng_teach)
            executor = "LLM"
            llm_calls += 1
            if remaining is not None:
                remaining -= 1
        else:
            action = node.slm_action
            executor = "SLM"

        steps.append(
            StepRecord(
                context=node.ctx,
                candidates=node.candidates,
                verifier_scores=node.score_record,
                chosen_action=action,
                executor=executor,
                features=node.feature_record,
                router_prob=p,
                decision=decision,
                budget_remaining=remaining,
            )
        )
        node = node.child(env, action, seed, t)
        if node.terminal:
            break
    return PerturbedEpisode(
        task_id=task_id,
        seed=seed,
        steps=tuple(steps),
        success=node.success,
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


def hindsight_table(episodes) -> dict:
    """(task, z) -> SLM-only success, consumed by the oracle router."""
    return {(ep.task_id, ep.seed.z): ep.success for ep in episodes}


def calibrate_entropy_threshold(x, y, costs: CostSpec) -> float:
    """Validation-calibrated entropy cutoff (slot 0) for the entropy baseline."""
    return sweep_threshold(x[:, 0], y, costs)


def calibrate_heuristic_threshold(x, y, costs: CostSpec) -> float:
    """Validation-calibrated best-score cutoff (slot 6) for the heuristic baseline."""
    return sweep_threshold(x[:, 6], y, costs, escalate_when_ge=False)
