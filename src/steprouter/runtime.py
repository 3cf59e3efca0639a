"""Budget-gated inference loop and the routing baselines.

Every variant runs the same per-step skeleton: sample K candidates from the
local policy, score them, take the verifier argmax as the local proposal,
extract risk features, then ask the variant for an escalation decision. The
decision only takes effect while per-episode budget remains; on escalation
the teacher acts directly (its action is not re-ranked by the verifier).

Everything before the decision depends on (task, z, action prefix) alone, so
policies rolled over one grid share it through a `StepTree`: each distinct
prefix is sampled, scored, featurized and stepped once, and every policy
still gets the episode it would get rolled alone, by one invariant: a run's
cand and verif streams stand at t*K draws when it expands a node at step t.
Every expansion draws exactly K uniforms per stream (at zero jitter the
verif stream draws none and is never read), so a run past visited nodes
jumps its streams there with PCG64's `advance`.

`run_episodes` is the one rollout engine. It steps every episode of a grid
in lockstep and batches each step's array work across episodes: the policy
log-distributions, candidate draws, verifier scores and features of every
node expanded at that step, then the router scores of every r2v row. On
arrays of 5 to 128 elements numpy's per-call overhead, not arithmetic, is
the cost of a step, and a batch pays it once per step, not once per
episode. The bits hold because no batched op mixes rows:
- every matmul is still one row's gemv (a gemm over the rows would round
  differently in the last place);
- every other op is elementwise or reduces along one row's own contiguous
  axis, which gives what the one-row call gives;
- each episode draws from its own streams, and the candidate draws count
  the cdf entries at or below each uniform, `searchsorted(side="right")`
  on a sorted row;
- an entropy over a row's positive entries sums exactly those entries,
  since zero padding would regroup numpy's pairwise sum.
So each episode is what it is rolled alone, and `run_episode` is the engine
on a one-point grid.

An episode is built as columns, not per-step objects: each step appends one
row of values to its `_Run`, and the rows become the columns of a
`PerturbedEpisode` when the grid is done. Nodes keep views of batch arrays.

The hindsight oracle is structurally offline: it needs a table of SLM-only
episode outcomes over the same (task, seed) grid, which the online loop has
no way to construct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .domain import Context, CostSpec, PerturbationSeed, PerturbedEpisode
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


def _decide(routing: RoutingPolicy, f_raw: np.ndarray, keys):
    """(router probabilities or Nones, escalation decisions) for one step of
    the episodes at the (task, z) `keys`, whose raw features are the rows of
    `f_raw`.

    entropy escalates when the normalized policy entropy (slot 0) reaches
    the threshold, heuristic when even the best verifier score (slot 6)
    falls below it, r2v when the router's probability on the masked
    features reaches it (p = 1 at threshold 1 escalates), and the oracle on
    every step of an episode whose SLM-only rollout failed. r2v scores the
    rows through the policy's snapshot, each row by its own gemv, which
    gives what `routing.net.predict` gave the row alone when the policy was
    built, bit for bit.
    """
    variant, threshold = routing.variant, routing.threshold
    if variant == "r2v":
        probs = routing.snapshot.probs(apply_mask(f_raw, routing.mask)).tolist()
        return probs, [p >= threshold for p in probs]
    unscored = [None] * len(keys)
    if variant == "entropy":
        return unscored, (f_raw[:, 0] >= threshold).tolist()
    if variant == "heuristic":
        return unscored, (f_raw[:, 6] < threshold).tolist()
    if variant == "oracle":
        for task_id, z in keys:
            if (task_id, z) not in routing.hindsight:
                raise ValueError(f"hindsight table has no entry for task={task_id} z={z}")
        return unscored, [not routing.hindsight[key] for key in keys]
    return unscored, [variant == "llm"] * len(keys)


class _Node:
    """One distinct action prefix of one (task, z).

    `state` and `ctx` are where the prefix leads; `terminal` and `success`
    are what `env.step` returned on the last action (False at the root). The
    first step that reaches the node expands it (`_expand`): the local
    proposal (verifier argmax), the candidate actions, views of its batch's
    log-prob, score and raw feature rows, and `children`, one node per
    executed action. A node is a pure function of its prefix, since the
    streams that expand a node at step t stand at t*K draws.
    """

    __slots__ = ("state", "ctx", "terminal", "success", "slm_action", "candidates", "logps",
                 "scores", "f_raw", "children")

    def __init__(self, state, ctx: Context, terminal: bool = False, success: bool = False):
        self.state = state
        self.ctx = ctx
        self.terminal = terminal
        self.success = success
        self.children = None  # None until the node's step is computed

    def child(self, env: HazardChainEnv, action: int, seed: PerturbationSeed,
              t: int) -> "_Node":
        """The node `action` leads to, stepping the env the first time."""
        node = self.children.get(action)
        if node is None:
            state, obs, terminal, success = env.step(self.state, action, seed, t)
            node = self.children[action] = _Node(state, self.ctx.advanced(action, obs),
                                                 terminal, success)
        return node


def _expand(runs, slm: SoftmaxPolicy, vspec: VerifierSpec, k: int,
            limits: FeatureLimits) -> None:
    """Expand the current node of each of `runs` in one batch: per node, K
    candidates drawn from its run's cand stream, their verifier scores from
    its verif stream and the raw features."""
    nodes = [run.node for run in runs]
    contexts = [node.ctx for node in nodes]
    logp = slm.log_distribution(contexts)
    probs = probabilities(logp)
    actions, logps = draw_candidates(logp, probs, k, [run.rng_cand for run in runs])
    scores = score_candidates(vspec, [node.state for node in nodes], actions,
                              [run.rng_ver for run in runs])
    f_raw = extract(contexts, probs, actions, logps, scores, limits)
    best = np.argmax(scores, axis=1).tolist()
    rows = zip(nodes, best, actions.tolist(), logps, scores, f_raw)
    for node, b, action_row, logp_row, score_row, f_row in rows:
        node.slm_action = action_row[b]
        node.candidates = tuple(action_row)
        node.logps, node.scores, node.f_raw = logp_row, score_row, f_row
        node.children = {}


class StepTree:
    """The routing-independent half of the steps of one grid of rollouts.

    Candidates, verifier scores, risk features and env transitions are a
    pure function of (task, z, action prefix), not of the routing policy, so
    policies rolled over the same grid share them: `run_episodes` computes a
    step the first time any policy reaches its prefix and reads it back
    after that. Its nodes hold no stream state: a run at step t stands at
    t*K draws, whatever policy drew before it. A tree serves one env, SLM
    and verifier; its roots are keyed by (task, z, k, salt). The pipeline
    keeps one tree per run directory and process, beside the env it serves,
    under the key `pipeline._roll_out` names, and drops both when a rollout
    with another key comes.
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


class _Run:
    """One episode in progress: its node, the budget it has left, streams,
    the number of steps its cand and verif streams have `drawn` for, and its
    steps so far, each one row of its step columns in `PerturbedEpisode`
    field order (observation, action, executor, candidate actions, the
    node's log-prob, score and feature rows, router probability, decision)."""

    __slots__ = ("task_id", "seed", "goal", "node", "remaining", "rows",
                 "rng_cand", "rng_ver", "rng_teach", "drawn")

    def __init__(self, task_id: int, seed: PerturbationSeed, node: _Node, budget):
        self.task_id = task_id
        self.seed = seed
        self.goal = node.ctx.goal
        self.node = node
        self.remaining = budget
        self.rows = []
        self.rng_cand = self.rng_ver = self.rng_teach = None
        self.drawn = 0

    def episode(self, routing: RoutingPolicy) -> PerturbedEpisode:
        """The finished episode: its rows, handed over, turned into columns."""
        rows, self.rows = self.rows, None
        obs, actions, executors, cands, logps, scores, features, probs, decisions = zip(*rows)
        return PerturbedEpisode(self.task_id, self.seed, self.node.success, routing.budget_limit,
                                routing.variant, self.goal, obs, actions, executors, cands,
                                np.concatenate(logps), np.concatenate(scores),
                                np.stack(features), probs, decisions)


def run_episodes(
    env: HazardChainEnv,
    grid,
    slm: SoftmaxPolicy,
    teacher: TeacherPolicy,
    vspec: VerifierSpec,
    routing: RoutingPolicy,
    k: int = 5,
    salt: int | str = 0,
    tree: StepTree | None = None,
) -> list[PerturbedEpisode]:
    """One routed rollout per (task, z) of `grid`, in grid order; each a
    pure function of (config, task, z, salt).

    The episodes advance in lockstep, one step at a time. Each step reads
    its prefix's node in `tree` (a private tree when None), and the nodes
    no step has reached before are expanded together (`_expand`): policy
    log-distributions, probabilities, candidate draws, verifier scores and
    features for every new node in one batch. The r2v rows of the step are
    then scored in one batch too. The rest stays per episode: its own cand,
    verif and teacher streams, each made on the episode's first use of it,
    its budget, the teacher's action, one row of its columns and
    `env.step`. A private tree keeps no roots, so its nodes are freed as the
    episodes step past them. A visited node draws nothing; a run that
    expands a node at step t first advances its cand and verif streams to
    t*K draws, so every draw matches a rollout of this policy alone. An
    episode that only visits nodes and never escalates makes no stream. The
    module docstring says why batching keeps every bit.

    A grid that repeats a (task, z) is refused: two episodes on one
    unexpanded node would expand it twice.
    """
    if len(set(grid)) != len(grid):
        raise ValueError("the grid repeats a (task, z) point")
    limits = feature_limits(env)
    base = env.config.rng_seed
    runs = []
    for task_id, z in grid:
        seed = PerturbationSeed(z)
        root = (_Node(*env.reset(task_id, seed)) if tree is None
                else tree.root(env, task_id, seed, k, salt))
        runs.append(_Run(task_id, seed, root, routing.budget_limit))
    active = runs
    for t in range(env.config.horizon):
        if not active:
            break
        fresh = []
        for run in active:
            if run.node.children is not None:
                continue
            if run.rng_cand is None:
                run.rng_cand = seeds.stream(base, "cand", run.task_id, run.seed.z, salt)
                run.rng_ver = seeds.stream(base, "verif", run.task_id, run.seed.z, salt)
            if t > run.drawn:
                run.rng_cand.bit_generator.advance((t - run.drawn) * k)
                run.rng_ver.bit_generator.advance((t - run.drawn) * k)
            run.drawn = t + 1
            fresh.append(run)
        if fresh:
            _expand(fresh, slm, vspec, k, limits)
        nodes = [run.node for run in active]
        probs, decisions = _decide(routing, np.stack([node.f_raw for node in nodes]),
                                   [(run.task_id, run.seed.z) for run in active])
        for run, node, p, decision in zip(active, nodes, probs, decisions):
            escalate = decision and (run.remaining is None or run.remaining > 0)
            if escalate:
                if run.rng_teach is None:
                    run.rng_teach = seeds.stream(base, "escalate", run.task_id, run.seed.z, salt)
                action = teacher.act(env, node.state, run.rng_teach)
                executor = "LLM"
                if run.remaining is not None:
                    run.remaining -= 1
            else:
                action = node.slm_action
                executor = "SLM"
            run.rows.append((node.ctx.observation, action, executor, node.candidates, node.logps,
                             node.scores, node.f_raw, p, decision))
            run.node = node.child(env, action, run.seed, t)
        active = [run for run in active if not run.node.terminal]
    return [run.episode(routing) for run in runs]


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
    """One routed rollout: `run_episodes` over the one grid point (task, z)."""
    [episode] = run_episodes(env, [(task_id, z)], slm, teacher, vspec, routing, k, salt, tree)
    return episode


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
