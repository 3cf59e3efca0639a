"""Policies: scripted teacher, linear-softmax student, behavioral cloning.

The student is deliberately low-capacity (linear softmax over hand-coded
context features) so it stays brittle under out-of-distribution corruption;
that residual brittleness is what the router is trained to price.

BC uses full-batch gradient descent with a backtracking line search, which
makes the per-epoch training loss non-increasing by construction. Gradients
are taken only at accepted points: a trial step the line search rejects
costs one forward pass and no gradient.
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
    read_arrays,
    require_number,
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
        return self.matrix([ctx])[0]

    def matrix(self, contexts) -> np.ndarray:
        """One feature row per context."""
        x = np.zeros((len(contexts), self.dim))
        for row, ctx in zip(x, contexts):
            for tok in ctx.observation:
                if 0 <= tok < self.vocab_size:
                    row[tok] = 1.0
                if self.prog_base <= tok <= self.prog_base + MAX_SUBGOALS:
                    row[self.vocab_size] = (tok - self.prog_base) / MAX_SUBGOALS
            row[self.vocab_size + 1] = ctx.step_index / self.horizon
            if ctx.actions:
                last = ctx.actions[-1]
                if 0 <= last < self.action_count:
                    row[self.vocab_size + 2 + last] = 1.0
        return x


def param_digest(theta: np.ndarray, bias: np.ndarray) -> str:
    """sha256 over the raw parameter bytes, theta then bias."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(theta).tobytes())
    h.update(np.ascontiguousarray(bias).tobytes())
    return h.hexdigest()


def probabilities(logp: np.ndarray) -> np.ndarray:
    """The distribution behind each row of log-probabilities, renormalized
    after exp."""
    p = np.exp(logp)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return p


# the tolerance Generator.choice allows on the sum of its p
_P_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def draw_candidates(logp: np.ndarray, probs: np.ndarray, k: int, rngs):
    """K i.i.d. draws from each row of probs, with their log-probabilities:
    (actions, logps), both of shape (rows, k).

    Row i draws from `rngs[i]` alone, by inverse CDF as
    `rng.choice(len(p), size=k, p=p)` makes them: the normalized cumulative
    sum searched with k uniforms. The draws and each generator's state after
    them are the same as choice's. Counting the cdf entries at or below a
    uniform is `searchsorted(side="right")` on a sorted row. A row that
    choice would refuse (a negative or NaN entry, or a sum off 1 by more
    than its tolerance) raises ValueError.
    """
    if k < 1:
        raise ValueError("need at least one candidate")
    cdf = probs.cumsum(axis=1)
    total = cdf[:, -1:]
    # the largest distance of a row sum from 1, NaN when a row sum is NaN
    off = np.maximum.reduce(np.abs(total - 1.0), axis=None, initial=0.0)
    if not off <= _P_SUM_ATOL or np.minimum.reduce(probs, axis=None, initial=0.0) < 0.0:
        raise ValueError("candidate probabilities must be non-negative and sum to 1")
    cdf /= total
    u = np.empty((len(rngs), k))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    draws = (cdf[:, None, :] <= u[:, :, None]).sum(axis=2)
    return draws, logp[np.arange(len(draws))[:, None], draws]


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

    def log_distribution(self, contexts) -> np.ndarray:
        """Log-probabilities over actions, one row per context. Each row's
        logits are that context's own `featurizer(ctx) @ theta` (a gemv; one
        gemm over the rows would round differently); the softmax then runs
        along each row."""
        x = self.featurizer.matrix(contexts)
        z = np.empty((len(x), self.bias.size))
        for row, out in zip(x, z):
            np.matmul(row, self.theta, out=out)
        z += self.bias
        z -= np.maximum.reduce(z, axis=1, keepdims=True)
        z -= np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))
        return z

    def action_distribution(self, contexts) -> np.ndarray:
        return probabilities(self.log_distribution(contexts))

    def sample_candidates(self, contexts, k: int, rngs):
        """K i.i.d. draws per context with their log-probabilities, context i
        drawing from rngs[i]; see `draw_candidates`."""
        logp = self.log_distribution(contexts)
        return draw_candidates(logp, probabilities(logp), k, rngs)

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
        require_number("error_rate", self.error_rate, False)
        if self.error_rate >= 1.0:
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
    obs, observations, actions = ctx.observation, [], []
    success = False
    for t in range(env.config.horizon):
        observations.append(obs)
        action = teacher.act(env, state, rng)
        state, obs, terminal, success = env.step(state, action, seed, t)
        actions.append(action)
        if terminal:
            break
    n = len(actions)
    return PerturbedEpisode(
        task_id=task_id, seed=seed, success=success, budget_limit=None, kind=kind,
        goal=ctx.goal, observations=tuple(observations), actions=tuple(actions),
        executors=("LLM",) * n, candidates=((),) * n, candidate_logps=(), verifier_scores=(),
        features=None, router_probs=(None,) * n, decisions=(None,) * n)


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
        contexts += ep.contexts()
        actions += ep.actions
        sources += [(ep.task_id, ep.seed.z)] * len(ep.actions)
    return featurizer.matrix(contexts), np.array(actions, dtype=int), sources


def row_max(z: np.ndarray) -> np.ndarray:
    """Each row's maximum, equal to `z.max(axis=1)`: one `np.maximum` per
    column, which on the few-column arrays here is several times faster than
    numpy's reduction of each short row. A maximum rounds nothing, so the
    bits are the same."""
    top = z[:, 0].copy()
    for column in z.T[1:]:
        np.maximum(top, column, out=top)
    return top


def bc_loss_and_grad(theta: np.ndarray, bias: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of the expert action, and `grad()`, which returns
    its exact gradient (g_theta, g_bias) from this forward pass."""
    logits = x @ theta + bias
    top = row_max(logits)
    logz = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
    rows = np.arange(len(y))
    loss = float(np.mean(logz - logits[rows, y]))

    def grad():
        probs = np.exp(logits - logz[:, None])
        probs[rows, y] -= 1.0
        probs /= len(y)
        return x.T @ probs, probs.sum(axis=0)

    return loss, grad


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
    theta, bias, trace = descend(
        lambda theta, bias: bc_loss_and_grad(theta, bias, x, y),
        np.zeros((featurizer.dim, featurizer.action_count)),
        np.zeros(featurizer.action_count),
        epochs, lr, halvings=50,
    )
    return SoftmaxPolicy(theta, bias, featurizer, stage="bc"), trace


def descend(objective, theta, bias, epochs: int, lr: float, halvings: int,
            grad_tol: float = 0.0):
    """Full-batch gradient descent with a backtracking line search.

    `objective(theta, bias)` returns (loss, grad), where `grad()` returns
    (g_theta, g_bias) at that point. Each epoch tries steps lr, lr/2, ...
    (at most `halvings` tries) and takes the first whose loss is no higher,
    so the loss never increases. Gradients are taken only at accepted
    points: `grad()` runs once at the start and once per accepted step,
    never at a rejected trial. Stops after an epoch that finds no such step,
    or whose gradient norm is below `grad_tol`. Returns (theta, bias,
    per-epoch loss trace).
    """
    loss, grad = objective(theta, bias)
    g_theta, g_bias = grad()
    trace = [loss]
    for _ in range(epochs):
        step = lr
        accepted = False
        for _ in range(halvings):
            theta2 = theta - step * g_theta
            bias2 = bias - step * g_bias
            loss2, grad = objective(theta2, bias2)
            if loss2 <= loss:
                theta, bias, loss = theta2, bias2, loss2
                g_theta, g_bias = grad()
                accepted = True
                break
            step /= 2.0
        trace.append(loss)
        if not accepted:
            break
        if np.sqrt((g_theta**2).sum() + (g_bias**2).sum()) < grad_tol:
            break
    return theta, bias, trace
