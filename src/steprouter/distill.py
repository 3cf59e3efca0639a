"""Recovery distillation: preference pairs from BC rollouts, DPO against a
frozen reference, and cross-seed consistency regularization.

Pairing rule: sample K candidates from the BC policy at every pooled context
and score them at the pooled episode's latent state. If the best candidate
clears the verifier threshold the pair is (best, worst); otherwise the teacher
acts at that state and the pair is (teacher action, best candidate).
Consistency pairs replay the clean expert action sequence under two distinct
perturbation seeds, so both contexts share one latent state by construction.
They are a function of the demonstrations and the env, so distill builds them
from `episodes.rljson`, where each stored pair's context is a step too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .domain import (SOURCE_TEACHER, SOURCE_VERIFIER, Context, PerturbationSeed, PreferencePair,
                     require_number)
from .env import HazardChainEnv
from .policy import (FrozenReference, SoftmaxPolicy, TeacherPolicy, descend, param_digest,
                     row_max)
from .router import sigmoid
from .verifier import VerifierSpec, score_candidates

CONS_PAIRS_PER_TASK = 4


@dataclass(frozen=True)
class DistillConfig:
    beta: float = 0.1
    lambda_cons: float = 0.20
    epochs: int = 80
    lr: float = 4.0
    grad_tol: float = 0.0

    def __post_init__(self):
        require_number("beta", self.beta, True)
        require_number("lambda_cons", self.lambda_cons, False)
        require_number("lr", self.lr, True)


def build_preferences(
    bc_policy: SoftmaxPolicy,
    pool,
    spec: VerifierSpec,
    teacher: TeacherPolicy,
    env: HazardChainEnv,
    k: int = 5,
):
    """Construct (preference pairs, counters) from the pool; each pair names
    the index of the pooled episode whose step its context is.

    At most one pair per context; contexts whose candidates collapse onto a
    single action (or where the teacher agrees with the best candidate) are
    skipped and counted. Every pooled step is sampled and scored in one
    block whose rows all draw from the one candidate and the one score
    stream, in pool order, so each step gets the draws a loop over the
    steps would give it.
    """
    if bc_policy.stage != "bc":
        raise ValueError("preference pairs must be generated by the BC policy")
    if k < 2:
        raise ValueError("need K >= 2 candidates to rank")
    rng_cand = seeds.stream(env.config.rng_seed, "pairs", "candidates")
    rng_score = seeds.stream(env.config.rng_seed, "pairs", "scores")
    rng_teacher = seeds.stream(env.config.rng_seed, "pairs", "teacher")
    contexts = [ctx for ep in pool for ctx in ep.contexts()]
    episodes = [e for e, ep in enumerate(pool) for _ in ep.actions]
    states = [state for ep in pool for state in episode_states(env, ep)]
    drawn, _ = bc_policy.sample_candidates(contexts, k, [rng_cand] * len(contexts))
    scores = score_candidates(spec, states, drawn, [rng_score] * len(contexts))
    pairs: list[PreferencePair] = []
    counters = {"verifier_ranked": 0, "teacher_recovered": 0, "skipped": 0}
    rows = zip(contexts, episodes, states, drawn.tolist(), scores,
               np.argmax(scores, axis=1).tolist(), np.argmin(scores, axis=1).tolist())
    for ctx, e, state, actions, row, best, worst in rows:
        if row[best] >= spec.gamma_threshold:
            if actions[best] == actions[worst]:
                counters["skipped"] += 1
                continue
            pairs.append(PreferencePair(ctx, actions[best], actions[worst], SOURCE_VERIFIER, e))
            counters["verifier_ranked"] += 1
        else:
            recovered = teacher.act(env, state, rng_teacher)
            if recovered == actions[best]:
                counters["skipped"] += 1
                continue
            pairs.append(PreferencePair(ctx, recovered, actions[best], SOURCE_TEACHER, e))
            counters["teacher_recovered"] += 1
    return pairs, counters


def episode_states(env: HazardChainEnv, episode) -> list:
    """The latent state before each step of an episode, equal to `env.replay`
    of that step's action prefix: the start state advanced one transition
    per step."""
    task = env.task_spec(episode.task_id)
    state = env.replay(task, ())
    states = []
    for action in episode.actions:
        states.append(state)
        state, _ = env.transition(task, state, int(action))
    return states


def build_consistency_views(pool, env: HazardChainEnv):
    """Paired contexts under different seeds for identical latent trajectories.

    Each pair replays the task's clean expert action sequence under two
    perturbation seeds; since latent transitions ignore observations, every
    step of the two replays shares its latent state.
    """
    clean_by_task = {}
    pert_seeds_by_task: dict[int, list[int]] = {}
    for ep in pool:
        if ep.kind == "exp":
            clean_by_task.setdefault(ep.task_id, ep)
        elif ep.kind == "pert":
            pert_seeds_by_task.setdefault(ep.task_id, []).append(ep.seed.z)
    views: list[tuple[Context, Context]] = []
    for task_id, clean_ep in sorted(clean_by_task.items()):
        zs = sorted(pert_seeds_by_task.get(task_id, []))
        if len(zs) < 2:
            continue
        actions = clean_ep.actions
        contexts = {z: replay_contexts(env, task_id, actions, z) for z in zs}
        z_pairs = [(zs[i], zs[(i + 1) % len(zs)]) for i in range(len(zs))]
        for z_a, z_b in z_pairs[:CONS_PAIRS_PER_TASK]:
            views.extend(zip(contexts[z_a], contexts[z_b]))
    return views


def replay_contexts(env: HazardChainEnv, task_id: int, actions, z: int):
    """Contexts visited when replaying a fixed action sequence under seed z."""
    seed = PerturbationSeed(z)
    state, ctx = env.reset(task_id, seed)
    out = [ctx]
    for t, action in enumerate(actions):
        state, obs, terminal, _ = env.step(state, action, seed, t)
        ctx = ctx.advanced(action, obs)
        if terminal:
            break
        out.append(ctx)
    return out


def dpo_margin(
    theta: np.ndarray,
    bias: np.ndarray,
    ref: FrozenReference,
    phi: np.ndarray,
    a_plus: int,
    a_minus: int,
    beta: float,
) -> float:
    """The preference score difference u (log-ratio margin scaled by beta)."""
    logits = phi @ theta + bias
    ref_logits = phi @ ref.theta + ref.bias
    return float(
        beta
        * (
            (logits[a_plus] - logits[a_minus])
            - (ref_logits[a_plus] - ref_logits[a_minus])
        )
    )


def jsd(p, q) -> float:
    """Jensen-Shannon divergence between two probability vectors, natural log."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)

    def _kl(a, b):
        mask = a > 0.0
        return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def total_variation(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - row_max(z)[:, None]
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_ratio(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log(a / m) where a > 0, and 0 where a softmax entry saturated to 0,
    which `a * log(a / m)` then weighs by 0, as `jsd` skips it."""
    positive = a > 0.0
    return np.log(np.divide(a, m, out=np.ones_like(a), where=positive))


def recovery_objective(theta, bias, pair_x, plus_idx, minus_idx, ref_margin,
                       beta, lambda_cons, cons_a, cons_b):
    """Combined DPO + consistency objective at (theta, bias): (loss, grad),
    where `grad()` returns its exact gradient (g_theta, g_bias) from this
    forward pass."""
    total = 0.0
    n_pairs = len(plus_idx)
    if n_pairs:
        logits = pair_x @ theta + bias
        rows = np.arange(n_pairs)
        u = beta * ((logits[rows, plus_idx] - logits[rows, minus_idx]) - ref_margin)
        total += float(np.logaddexp(0.0, -u).mean())

    n_views = len(cons_a)
    consistency = lambda_cons > 0.0 and n_views > 0
    if consistency:
        p = _softmax_rows(cons_a @ theta + bias)
        q = _softmax_rows(cons_b @ theta + bias)
        m = 0.5 * (p + q)
        log_pm, log_qm = _log_ratio(p, m), _log_ratio(q, m)
        rows_jsd = 0.5 * np.sum(p * log_pm, axis=1) + 0.5 * np.sum(q * log_qm, axis=1)
        total += lambda_cons * float(rows_jsd.mean())

    def grad():
        g_theta = np.zeros_like(theta)
        g_bias = np.zeros_like(bias)
        if n_pairs:
            # d/du of mean -log sigmoid(u) is -sigmoid(-u)/n
            coef = -sigmoid(-u) * beta / n_pairs
            dlogits = np.zeros_like(logits)
            np.add.at(dlogits, (rows, plus_idx), coef)
            np.add.at(dlogits, (rows, minus_idx), -coef)
            g_theta += pair_x.T @ dlogits
            g_bias += dlogits.sum(axis=0)
        if consistency:
            # dJSD/dP_a = 0.5 log(P_a / M_a); chain through both softmax heads
            gp = 0.5 * log_pm
            gq = 0.5 * log_qm
            dlogit_p = p * (gp - np.sum(gp * p, axis=1, keepdims=True))
            dlogit_q = q * (gq - np.sum(gq * q, axis=1, keepdims=True))
            scale = lambda_cons / n_views
            g_theta += scale * (cons_a.T @ dlogit_p + cons_b.T @ dlogit_q)
            g_bias += scale * (dlogit_p.sum(axis=0) + dlogit_q.sum(axis=0))
        return g_theta, g_bias

    return total, grad


def train_recovery(
    bc_policy: SoftmaxPolicy,
    pairs,
    view_pairs,
    config: DistillConfig,
) -> tuple[SoftmaxPolicy, dict]:
    """Minimize DPO + lambda_cons * JSD from theta_BC with a frozen reference.

    The combined objective is non-increasing per epoch (backtracking line
    search, with gradients taken only at accepted points) and the reference
    hash is asserted unchanged afterwards.
    """
    ref = bc_policy.frozen_reference()
    policy = bc_policy.clone(stage="distilled")
    featurizer = policy.featurizer

    pair_x = featurizer.matrix([p.context for p in pairs])
    plus_idx = np.array([p.a_plus for p in pairs], dtype=int)
    minus_idx = np.array([p.a_minus for p in pairs], dtype=int)
    if len(pairs):
        ref_logits = pair_x @ ref.theta + ref.bias
        rows = np.arange(len(pairs))
        ref_margin = ref_logits[rows, plus_idx] - ref_logits[rows, minus_idx]
    else:
        ref_margin = np.zeros(0)
    cons_a = featurizer.matrix([a for a, _ in view_pairs])
    cons_b = featurizer.matrix([b for _, b in view_pairs])

    theta, bias, trace = descend(
        lambda theta, bias: recovery_objective(
            theta, bias, pair_x, plus_idx, minus_idx, ref_margin,
            config.beta, config.lambda_cons, cons_a, cons_b,
        ),
        policy.theta, policy.bias, config.epochs, config.lr, halvings=60,
        grad_tol=config.grad_tol,
    )

    if param_digest(ref.theta, ref.bias) != ref.param_hash:
        raise RuntimeError("frozen reference mutated during recovery training")
    policy.theta, policy.bias = theta, bias
    report = {
        "final_loss": trace[-1],
        "loss_trace": trace,
        "pair_count": len(pairs),
        "view_count": len(view_pairs),
        "reference_hash": ref.param_hash,
    }
    return policy, report
