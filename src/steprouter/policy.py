"""Policies: scripted teacher, linear-softmax student, behavioral cloning.

The student is deliberately low-capacity (linear softmax over hand-coded
context features) so it stays brittle under out-of-distribution corruption;
that residual brittleness is what the router is trained to price.

BC uses full-batch gradient descent with a backtracking line search, which
makes the per-epoch training loss non-increasing by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import seeds
from .domain import (
    Context,
    PerturbedEpisode,
    PerturbationSeed,
    RecordFormatError,
    StepRecord,
    read_arrays,
    write_arrays,
)
from .env import MAX_SUBGOALS, HazardChainEnv

POLICY_SCHEMA = "policy@2"  # @1 stored theta then bias with no array shapes


@dataclass(frozen=True)
class PolicyFeaturizer:
    """Hand-coded context features: last-observation token indicators,
    observable progress summary, step fraction, last-action one-hot."""

    vocab_size: int
    action_count: int
    horizon: int
    prog_base: int

    @property
    def dim(self) -> int:
        return self.vocab_size + 2 + self.action_count

    @classmethod
    def for_env(cls, env: HazardChainEnv) -> "PolicyFeaturizer":
        return cls(
            vocab_size=env.config.goal_vocab_size,
            action_count=env.config.action_count,
            horizon=env.config.horizon,
            prog_base=env.tokens.prog_base,
        )

    def __call__(self, ctx: Context) -> np.ndarray:
        x = np.zeros(self.dim)
        for tok in ctx.last_observation:
            if 0 <= tok < self.vocab_size:
                x[tok] = 1.0
            if self.prog_base <= tok <= self.prog_base + MAX_SUBGOALS:
                x[self.vocab_size] = (tok - self.prog_base) / MAX_SUBGOALS
        x[self.vocab_size + 1] = ctx.step_index / self.horizon
        if ctx.actions:
            last = ctx.actions[-1]
            if 0 <= last < self.action_count:
                x[self.vocab_size + 2 + last] = 1.0
        return x

    def matrix(self, contexts) -> np.ndarray:
        return np.stack([self(c) for c in contexts]) if contexts else np.zeros((0, self.dim))


def param_digest(theta: np.ndarray, bias: np.ndarray) -> str:
    """sha256 over the raw parameter bytes, theta then bias."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(theta).tobytes())
    h.update(np.ascontiguousarray(bias).tobytes())
    return h.hexdigest()


def probabilities(logp: np.ndarray) -> np.ndarray:
    """The distribution behind a log-distribution, renormalized after exp."""
    p = np.exp(logp)
    return p / p.sum()


def draw_candidates(logp: np.ndarray, probs: np.ndarray, k: int,
                    rng: np.random.Generator):
    """K i.i.d. draws from probs, each paired with its log-probability."""
    if k < 1:
        raise ValueError("need at least one candidate")
    draws = rng.choice(len(probs), size=k, p=probs)
    return [(int(a), float(logp[a])) for a in draws]


@dataclass
class SoftmaxPolicy:
    """pi(a|x) = softmax(theta^T phi(x) + bias); stage tags provenance."""

    theta: np.ndarray
    bias: np.ndarray
    featurizer: PolicyFeaturizer
    stage: str = "init"

    @classmethod
    def zeros(cls, featurizer: PolicyFeaturizer, stage: str = "init") -> "SoftmaxPolicy":
        return cls(
            theta=np.zeros((featurizer.dim, featurizer.action_count)),
            bias=np.zeros(featurizer.action_count),
            featurizer=featurizer,
            stage=stage,
        )

    def logits(self, ctx: Context) -> np.ndarray:
        return self.featurizer(ctx) @ self.theta + self.bias

    def log_distribution(self, ctx: Context) -> np.ndarray:
        z = self.logits(ctx)
        z = z - z.max()
        return z - np.log(np.exp(z).sum())

    def action_distribution(self, ctx: Context) -> np.ndarray:
        return probabilities(self.log_distribution(ctx))

    def sample_candidates(self, ctx: Context, k: int, rng: np.random.Generator):
        """K i.i.d. draws with their log-probabilities."""
        logp = self.log_distribution(ctx)
        return draw_candidates(logp, probabilities(logp), k, rng)

    def param_hash(self) -> str:
        return param_digest(self.theta, self.bias)

    def clone(self, stage: str | None = None) -> "SoftmaxPolicy":
        return SoftmaxPolicy(
            theta=self.theta.copy(),
            bias=self.bias.copy(),
            featurizer=self.featurizer,
            stage=self.stage if stage is None else stage,
        )

    def frozen_reference(self) -> "FrozenReference":
        theta = self.theta.copy()
        bias = self.bias.copy()
        theta.setflags(write=False)
        bias.setflags(write=False)
        return FrozenReference(theta=theta, bias=bias, param_hash=self.param_hash())

    def save(self, path, extra: dict | None = None) -> None:
        header = {"schema": POLICY_SCHEMA, "stage": self.stage, "hash": self.param_hash(),
                  **asdict(self.featurizer), **(extra or {})}
        write_arrays(path, header, {"theta": self.theta, "bias": self.bias})

    @classmethod
    def load(cls, path) -> "SoftmaxPolicy":
        header, arrays = read_arrays(path, POLICY_SCHEMA, ("bias", "theta"))
        featurizer = PolicyFeaturizer(**{f.name: header.typed(f.name, int)
                                         for f in fields(PolicyFeaturizer)})
        policy = cls(arrays["theta"], arrays["bias"], featurizer, stage=header["stage"])
        if policy.param_hash() != header["hash"]:
            raise RecordFormatError(f"{path}: parameter hash mismatch")
        return policy


@dataclass(frozen=True)
class FrozenReference:
    """Bit-exact parameter snapshot used as the fixed preference reference."""

    theta: np.ndarray
    bias: np.ndarray
    param_hash: str


@dataclass(frozen=True)
class TeacherPolicy:
    """Scripted planner with full latent-state access and a small error rate."""

    error_rate: float = 0.02

    def __post_init__(self):
        if not (0.0 <= self.error_rate < 1.0):
            raise ValueError("teacher error rate must lie in [0, 1)")

    def act(self, env: HazardChainEnv, state, rng: np.random.Generator) -> int:
        task = env.task_spec(state.task_id)
        planned = env.optimal_action(task, state)
        if self.error_rate > 0.0 and rng.random() < self.error_rate:
            return int(rng.integers(env.config.action_count))
        return planned


def run_teacher_episode(
    env: HazardChainEnv,
    task_id: int,
    z: int,
    teacher: TeacherPolicy,
    kind: str,
) -> PerturbedEpisode:
    """Roll the teacher once; deterministic given (env config, task, z)."""
    seed = PerturbationSeed(z)
    rng = seeds.stream(env.config.rng_seed, "teacher", task_id, z)
    state, ctx = env.reset(task_id, seed)
    steps = []
    success = False
    for t in range(env.config.horizon):
        action = teacher.act(env, state, rng)
        state, obs, terminal, success = env.step(state, action, seed, t)
        steps.append(
            StepRecord(
                context=ctx,
                candidates=(),
                verifier_scores=(),
                chosen_action=action,
                executor="LLM",
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
        llm_calls=len(steps),
        kind=kind,
    )


def collect_teacher_trajectories(
    env: HazardChainEnv,
    teacher: TeacherPolicy,
    task_ids,
    pert_seeds_per_task: int = 5,
) -> list[PerturbedEpisode]:
    """One clean demonstration plus perturbed replays per task."""
    clean_env = env.clean_variant()
    pool: list[PerturbedEpisode] = []
    for task_id in task_ids:
        z = seeds.mix(env.config.rng_seed, "exp", task_id)
        pool.append(run_teacher_episode(clean_env, task_id, z, teacher, kind="exp"))
        for j in range(pert_seeds_per_task):
            z = seeds.mix(env.config.rng_seed, "pert", task_id, j)
            pool.append(run_teacher_episode(env, task_id, z, teacher, kind="pert"))
    return pool


def bc_dataset(pool, featurizer: PolicyFeaturizer):
    """(features, expert actions) from the episode-success subset of the pool."""
    contexts, actions, sources = [], [], []
    for ep in pool:
        if not ep.success:
            continue
        for step in ep.steps:
            contexts.append(step.context)
            actions.append(step.chosen_action)
            sources.append((ep.task_id, ep.seed.z))
    return featurizer.matrix(contexts), np.array(actions, dtype=int), sources


def bc_loss_and_grad(theta: np.ndarray, bias: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the expert action and its exact gradient."""
    logits = x @ theta + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(logz - logits[np.arange(len(y)), y]))
    probs = np.exp(logits - logz[:, None])
    probs[np.arange(len(y)), y] -= 1.0
    probs /= len(y)
    return loss, x.T @ probs, probs.sum(axis=0)


def train_bc(
    pool,
    featurizer: PolicyFeaturizer,
    epochs: int = 80,
    lr: float = 4.0,
) -> tuple[SoftmaxPolicy, list[float]]:
    """Full-batch descent on the success-only subset; loss never increases.

    Returns the trained policy (stage 'bc') and the per-epoch loss trace.
    """
    x, y, _ = bc_dataset(pool, featurizer)
    if len(y) == 0:
        raise ValueError(
            "behavioral cloning needs at least one successful episode in the pool"
        )
    theta = np.zeros((featurizer.dim, featurizer.action_count))
    bias = np.zeros(featurizer.action_count)
    loss, g_theta, g_bias = bc_loss_and_grad(theta, bias, x, y)
    trace = [loss]
    for _ in range(epochs):
        step = lr
        accepted = False
        for _ in range(50):
            theta2 = theta - step * g_theta
            bias2 = bias - step * g_bias
            loss2, g_theta2, g_bias2 = bc_loss_and_grad(theta2, bias2, x, y)
            if loss2 <= loss:
                theta, bias = theta2, bias2
                loss, g_theta, g_bias = loss2, g_theta2, g_bias2
                accepted = True
                break
            step /= 2.0
        trace.append(loss)
        if not accepted:
            break
    return SoftmaxPolicy(theta, bias, featurizer, stage="bc"), trace
