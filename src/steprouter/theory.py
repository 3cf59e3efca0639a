"""Executable property/oracle battery behind the `verify-theory` command.

Each check turns one formal guarantee into a Monte Carlo or exact oracle:
Brier-trained calibration on a planted model, the clamped cost threshold,
the miscalibration regret bound, TV <= sqrt(2 JSD), the best-of-K selection
bound under bounded pairwise verifier noise, sign consistency of
label-noised preference training, the cross-seed consistency transfer bound,
finite-difference gradient checks for every hand-written gradient, and the
direction of the CVaR escalation knob. `CRITERIA` lists them once, with
their tolerances and caps; `verify-theory` and the acceptance tests run it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import seeds
from .distill import (
    DistillConfig,
    PreferencePair,
    _objective_and_grad,
    build_preferences,
    dpo_margin,
    jsd,
    total_variation,
    train_recovery,
)
from .domain import Context, CostSpec, CVaRSpec, EnvConfig, RoutingExample
from .env import HazardChainEnv, LatentState
from .policy import (
    PolicyFeaturizer,
    SoftmaxPolicy,
    TeacherPolicy,
    bc_loss_and_grad,
    collect_teacher_trajectories,
    train_bc,
)
from .router import (
    RouterNet,
    TrainSpec,
    batch_objective,
    bayes_threshold,
    fit_temperature,
    make_dropout_masks,
    train_router,
)
from .verifier import BASE_NEUTRAL, BASE_OPTIMAL, VerifierSpec, jitter_width


# --- planted 1-D model ----------------------------------------------------------


def planted_truth(f: np.ndarray) -> np.ndarray:
    return np.clip(f, 0.05, 0.95)


def planted_features(f: np.ndarray) -> np.ndarray:
    x = np.zeros((f.size, 15))
    x[:, 0] = f
    return x


def planted_dataset(n: int, n_seeds: int = 50, seed: int = 0):
    """1-D planted model: q*(f) = clip(f, 0.05, 0.95), y ~ Bernoulli(q*)."""
    rng = seeds.stream("planted", seed)
    f = rng.uniform(0.0, 1.0, n)
    q = planted_truth(f)
    y = (rng.random(n) < q).astype(int)
    return f, q, y


def planted_examples(f, y, n_seeds: int = 50):
    x = planted_features(f)
    return [
        RoutingExample(
            features=tuple(x[i]),
            label=int(y[i]),
            seed_id=int(i % n_seeds),
            step_index=0,
        )
        for i in range(len(f))
    ]


def calibration_train_spec(epochs: int = 20) -> TrainSpec:
    """Cost scale for calibration studies: ratio 50 and interior threshold kept,
    absolute scale small so the Brier term dominates the linear cost surrogate
    (the surrogate's minimizer alone is the hard Bayes rule, not q*)."""
    return TrainSpec(
        costs=CostSpec(c_slm=5e-4, c_llm=0.025, kappa=0.049),
        cvar=CVaRSpec(alpha=0.20, epsilon=0.10, lambda_b=1.0, lambda_init=1.0),
        epochs=epochs,
    )


def train_planted_router(
    n: int = 100_000, n_seeds: int = 50, seed: int = 0, epochs: int = 20
) -> tuple[RouterNet, float]:
    """Train on the planted model and report E|r - q*| on a fresh sample."""
    f, _, y = planted_dataset(n, n_seeds=n_seeds, seed=seed)
    net, _ = train_router(planted_examples(f, y, n_seeds), calibration_train_spec(epochs), seed=seed)
    f_val, _, y_val = planted_dataset(max(2000, n // 5), n_seeds=n_seeds, seed=seed + 1)
    fit_temperature(net, planted_features(f_val), y_val)
    f_test, q_test, _ = planted_dataset(max(2000, n // 10), n_seeds=n_seeds, seed=seed + 2)
    r = net.predict(planted_features(f_test))
    return net, float(np.mean(np.abs(r - planted_truth(f_test))))


def check_brier_calibration(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    net, err = train_planted_router()
    trained.append(net)
    return err <= tol, f"E|r - q*| = {err:.4f} (tol {tol:g})"


def _threshold_cost_specs():
    return [
        CostSpec(1.0, 50.0, 98.0),      # interior, tau* = 0.5
        CostSpec(0.2, 0.8, 1.2),        # interior, tau* = 0.5
        CostSpec(1.0, 10.0, 30.0),      # interior, tau* = 0.3
        CostSpec(5.0, 2.0, 10.0),       # c_llm <= c_slm: clamp low, tau* = 0
        CostSpec(1.0, 50.0, 10.0),      # gap > kappa: clamp high, tau* = 1
    ]


def check_threshold_optimality(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    """Exhaustive grid over thresholds attains its minimum within `tol` of
    the clamped Bayes value, for cost specs spanning both clamp regimes."""
    f, q, _ = planted_dataset(4000, seed=1)
    grid = np.arange(0, 101) / 100.0
    details = []
    ok = True
    for costs in _threshold_cost_specs():
        tau_star = bayes_threshold(costs)
        cost_at = np.array(
            [
                float(np.mean(np.where(q >= tau, costs.c_llm, costs.c_slm + costs.kappa * q)))
                for tau in grid
            ]
        )
        best = cost_at.min()
        near = np.abs(grid - tau_star) <= tol + 1e-12
        attained = cost_at[near].min() <= best + 1e-12
        ok &= attained
        details.append(f"tau*={tau_star:.2f}:{'ok' if attained else 'MISS'}")
    return ok, ", ".join(details) + f" (tol {tol:g})"


def check_regret_bound(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    """Excess cost of the plug-in hard router <= kappa * E|r - q*|, over 20
    random nets and the routers earlier rows trained."""
    f, q, _ = planted_dataset(4000, seed=2)
    x = planted_features(f)
    costs = CostSpec(1.0, 50.0, 98.0)
    tau = bayes_threshold(costs)
    rng = seeds.stream("regret-nets", 2)
    nets = [RouterNet.init(rng) for _ in range(20)] + trained
    worst = -math.inf
    for net in nets:
        r = net.predict(x)
        risk_hat = np.where(r >= tau, costs.c_llm, costs.c_slm + costs.kappa * q)
        risk_star = np.where(q >= tau, costs.c_llm, costs.c_slm + costs.kappa * q)
        excess = float(np.mean(risk_hat - risk_star))
        bound = costs.kappa * float(np.mean(np.abs(r - q)))
        worst = max(worst, excess - bound)
    return worst <= tol, f"max(excess - bound) = {worst:.3e} over {len(nets)} nets (tol {tol:g})"


def check_tv_jsd(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    """TV(P, Q) <= sqrt(2 JSD(P||Q)) over random distribution pairs."""
    n_pairs = 10_000
    rng = seeds.stream("tv-jsd", 3)
    worst = -math.inf
    for _ in range(n_pairs):
        dim = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        worst = max(worst, total_variation(p, q) - math.sqrt(2.0 * jsd(p, q)))
    # disjoint-support family: TV = 1, JSD = log 2, sqrt(2 log 2) ~ 1.1774 >= 1
    spot_tv = total_variation([1.0, 0.0], [0.0, 1.0])
    spot_bound = math.sqrt(2.0 * jsd([1.0, 0.0], [0.0, 1.0]))
    spot_ok = abs(spot_tv - 1.0) < 1e-12 and abs(spot_bound - math.sqrt(2 * math.log(2))) < 1e-12
    return (
        worst <= tol and spot_ok,
        f"max(TV - sqrt(2 JSD)) = {worst:.3e} over {n_pairs} pairs (tol {tol:g}); "
        f"disjoint spot check {'ok' if spot_ok else 'failed'}",
    )


BEST_OF_K_GRID = {
    "mu": (0.1, 0.3, 0.5),
    "k": (1, 3, 5, 10),
    "eta": (0.0, 0.05, 0.1),
}


def check_best_of_k(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    """Monte Carlo selection probability against the union bound
    1 - (1-mu)^K - K(K-1)/2 * eta, minus `tol` MC sigmas.

    Uses the verifier's own jitter model at the minimal good/bad score gap,
    where the pairwise misrank probability equals eta exactly.
    """
    trials = 100_000
    rng = seeds.stream("best-of-k", 4)
    failures = []
    for mu in BEST_OF_K_GRID["mu"]:
        for k in BEST_OF_K_GRID["k"]:
            for eta in BEST_OF_K_GRID["eta"]:
                good = rng.random((trials, k)) < mu
                base = np.where(good, BASE_OPTIMAL, BASE_NEUTRAL)
                w = jitter_width(eta)
                scores = base if w == 0.0 else base + rng.uniform(-w, w, size=(trials, k))
                chosen = np.argmax(scores, axis=1)
                hit = good[np.arange(trials), chosen]
                emp = float(hit.mean())
                bound = 1.0 - (1.0 - mu) ** k - k * (k - 1) / 2.0 * eta
                sigma = math.sqrt(max(emp * (1.0 - emp), 1e-12) / trials)
                if emp < bound - tol * sigma:
                    failures.append(f"(mu={mu},K={k},eta={eta}): {emp:.4f} < {bound:.4f}")
    return not failures, (
        f"all 36 grid cells above the bound (tol {tol:g} sigma)" if not failures
        else "; ".join(failures)
    )


# --- noisy preference training ---------------------------------------------------


def _two_action_world():
    featurizer = PolicyFeaturizer(vocab_size=4, action_count=2, horizon=2, prog_base=3)
    ctx = Context(goal=(0,), observations=((1,),), actions=(), step_index=0)
    return featurizer, ctx


def noisy_margin(eta: float, n_pairs: int = 200, true_sign: int = +1,
                 beta: float = 0.1) -> float:
    """Converged preference margin under an exact eta fraction of flipped pairs."""
    featurizer, ctx = _two_action_world()
    bc = SoftmaxPolicy.zeros(featurizer, stage="bc")
    n_flip = round(eta * n_pairs)
    plus, minus = (0, 1) if true_sign > 0 else (1, 0)
    pairs = [PreferencePair(ctx, plus, minus, "VerifierRanked")] * (n_pairs - n_flip)
    pairs += [PreferencePair(ctx, minus, plus, "VerifierRanked")] * n_flip
    config = DistillConfig(beta=beta, lambda_cons=0.0, epochs=2500, lr=200.0,
                           grad_tol=1e-10)
    policy, _ = train_recovery(bc, pairs, [], config)
    phi = featurizer(ctx)
    ref = bc.frozen_reference()
    return dpo_margin(policy.theta, policy.bias, ref, phi, plus, minus, beta)


def check_noisy_dpo(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    details = []
    ok = True
    for eta in (0.05, 0.1, 0.2, 0.3, 0.4):
        u = noisy_margin(eta)
        target = math.log((1.0 - eta) / eta)
        good = u > 0 and abs(u - target) <= tol
        ok &= good
        details.append(f"eta={eta}: u={u:.4f} vs {target:.4f}")
    u_neg = noisy_margin(0.1, true_sign=-1)
    ok &= u_neg > 0  # margin is measured along the true preference direction
    return ok, "; ".join(details) + f" (tol {tol:g})"


# --- consistency transfer ---------------------------------------------------------


def _mini_env(seed: int) -> HazardChainEnv:
    cfg = EnvConfig(
        state_count=10,
        action_count=6,
        horizon=16,
        goal_vocab_size=64,
        family_intensities={"ToolFlaky": 0.15, "PartialObs": 0.3, "Injection": 0.2,
                            "Distractor": 0.2},
        rng_seed=seed,
    )
    return HazardChainEnv(cfg, task_count=10)


def distilled_pair_for_transfer(seed: int):
    """Two distilled policies (lambda_cons = 0.2 and 0.0) from one mini pipeline."""
    env = _mini_env(seed)
    teacher = TeacherPolicy(error_rate=0.02)
    featurizer = PolicyFeaturizer.for_env(env)
    pool = collect_teacher_trajectories(env, teacher, range(env.task_count), 5)
    bc, _ = train_bc(pool, featurizer, epochs=60, lr=4.0)
    vspec = VerifierSpec.for_env(env, eta_v=0.05)
    pairs, views, _ = build_preferences(bc, pool, vspec, teacher, env, k=5)
    with_cons, _ = train_recovery(bc, pairs, views, DistillConfig(lambda_cons=0.2, epochs=60))
    without_cons, _ = train_recovery(bc, pairs, views, DistillConfig(lambda_cons=0.0, epochs=60))
    return env, teacher, with_cons, without_cons


def surrogate_risk_and_jsd(env: HazardChainEnv, policy: SoftmaxPolicy, task_id: int,
                           z_list) -> tuple[dict, dict]:
    """Per-seed episodic risk sum_t (1 - P(a*_t)) and per-pair mean JSD along
    the clean optimal trajectory replayed under each seed."""
    from .distill import _replay_contexts

    task = env.task_spec(task_id)
    state = LatentState(task_id, task.start, 0, 0)
    actions = []
    for _ in range(env.config.horizon):
        a = env.optimal_action(task, state)
        actions.append(a)
        state, success = env.transition(task, state, a)
        if success:
            break
    optimal = actions
    contexts = {z: _replay_contexts(env, task_id, actions, z) for z in z_list}
    risks = {}
    dists = {}
    for z in z_list:
        ctxs = contexts[z]
        probs = [policy.action_distribution(c) for c in ctxs]
        risks[z] = float(sum(1.0 - probs[t][optimal[t]] for t in range(len(ctxs))))
        dists[z] = probs
    pair_jsd = {}
    for i, z_a in enumerate(z_list):
        for z_b in z_list[i + 1 :]:
            steps = min(len(dists[z_a]), len(dists[z_b]))
            pair_jsd[(z_a, z_b)] = float(
                np.mean([jsd(dists[z_a][t], dists[z_b][t]) for t in range(steps)])
            )
    return risks, pair_jsd


def check_consistency_transfer(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    """Per-pair transfer bound |R_z - R_z'| <= H sqrt(2 L_cons) + tol, and the
    regularized policy shows strictly lower mean cross-seed JSD."""
    env, teacher, with_cons, without_cons = distilled_pair_for_transfer(7)
    h = env.config.horizon
    worst = -math.inf
    jsd_with, jsd_without = [], []
    for task_id in range(env.task_count):
        z_list = [seeds.mix(env.config.rng_seed, "transfer", task_id, j) for j in range(4)]
        risks, pair_jsd = surrogate_risk_and_jsd(env, with_cons, task_id, z_list)
        for (z_a, z_b), val in pair_jsd.items():
            gap = abs(risks[z_a] - risks[z_b])
            worst = max(worst, gap - (h * math.sqrt(2.0 * val) + tol))
            jsd_with.append(val)
        _, pair_jsd0 = surrogate_risk_and_jsd(env, without_cons, task_id, z_list)
        jsd_without.extend(pair_jsd0.values())
    bound_ok = worst <= 0.0
    direction_ok = float(np.mean(jsd_with)) < float(np.mean(jsd_without))
    return (
        bound_ok and direction_ok,
        f"max bound violation {worst:.3e} (tol {tol:g}); mean JSD {np.mean(jsd_with):.4f} "
        f"(reg) vs {np.mean(jsd_without):.4f} (unreg)",
    )


# --- finite-difference gradient checks ---------------------------------------------


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _fd_check(loss_fn, get, setv, coords, h_scale: float = 1e-6):
    """Max relative error between analytic and central-difference gradients."""
    worst = 0.0
    for coord, analytic in coords:
        theta0 = get(coord)
        h = h_scale * max(1.0, abs(theta0))
        setv(coord, theta0 + h)
        fp = loss_fn()
        setv(coord, theta0 - h)
        fm = loss_fn()
        setv(coord, theta0)
        worst = max(worst, _rel_err((fp - fm) / (2 * h), analytic))
    return worst


def _fd_arrays(loss_fn, arrays, grads) -> float:
    """`_fd_check` over every entry of each array, perturbed in place."""
    return max(
        _fd_check(loss_fn, lambda c, a=a: a[c], lambda c, v, a=a: a.__setitem__(c, v),
                  [(c, g[c]) for c in np.ndindex(a.shape)])
        for a, g in zip(arrays, grads)
    )


def bc_gradient_error(n_points: int = 20, seed: int = 11) -> float:
    rng = seeds.stream("gradcheck-bc", seed)
    dim, n_act, n = 9, 4, 24
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, n_act, size=n)
    worst = 0.0
    for _ in range(n_points):
        theta = rng.normal(size=(dim, n_act))
        bias = rng.normal(size=n_act)
        _, g_theta, g_bias = bc_loss_and_grad(theta, bias, x, y)

        def loss():
            return bc_loss_and_grad(theta, bias, x, y)[0]

        worst = max(worst, _fd_arrays(loss, (theta, bias), (g_theta, g_bias)))
    return worst


def distill_gradient_error(n_points: int = 20, seed: int = 12) -> float:
    """Joint DPO + consistency objective against central differences."""
    rng = seeds.stream("gradcheck-distill", seed)
    dim, n_act = 7, 3
    n_pairs, n_views = 12, 10
    pair_x = rng.normal(size=(n_pairs, dim))
    plus = rng.integers(0, n_act, size=n_pairs)
    minus = (plus + 1 + rng.integers(0, n_act - 1, size=n_pairs)) % n_act
    cons_a = rng.normal(size=(n_views, dim))
    cons_b = rng.normal(size=(n_views, dim))
    beta, lam = 0.3, 0.7

    from .policy import FrozenReference

    worst = 0.0
    for _ in range(n_points):
        ref_theta = rng.normal(size=(dim, n_act))
        ref_bias = rng.normal(size=n_act)
        ref = FrozenReference(ref_theta, ref_bias, "unused")
        ref_logits = pair_x @ ref_theta + ref_bias
        rows = np.arange(n_pairs)
        ref_margin = ref_logits[rows, plus] - ref_logits[rows, minus]
        theta = rng.normal(size=(dim, n_act))
        bias = rng.normal(size=n_act)
        _, g_theta, g_bias = _objective_and_grad(
            theta, bias, ref, pair_x, plus, minus, ref_margin, beta, lam, cons_a, cons_b,
        )

        def loss():
            return _objective_and_grad(
                theta, bias, ref, pair_x, plus, minus, ref_margin, beta, lam, cons_a, cons_b,
            )[0]

        worst = max(worst, _fd_arrays(loss, (theta, bias), (g_theta, g_bias)))
    return worst


def router_gradient_error(n_points: int = 20, coords_per_point: int = 40,
                          seed: int = 13) -> float:
    """Full train-mode Lagrangian backprop against central differences."""
    rng = seeds.stream("gradcheck-router", seed)
    n, n_seeds = 48, 4
    x = rng.normal(size=(n, 15))
    y = (rng.random(n) < 0.5).astype(float)
    y[:2] = [0.0, 1.0]  # both labels present
    seed_index = np.arange(n) % n_seeds
    costs = CostSpec(0.5, 2.0, 3.0)
    cv = CVaRSpec(alpha=0.5, epsilon=0.1, lambda_b=1.0)
    lam = 0.8
    worst = 0.0
    for point in range(n_points):
        net = RouterNet.init(seeds.stream("gradcheck-router-net", seed, point))
        masks = make_dropout_masks(net, n, rng)
        out = batch_objective(net, x, y, seed_index, n_seeds, costs, cv, lam, masks)
        grads = out["grads"]

        def loss():
            return batch_objective(net, x, y, seed_index, n_seeds, costs, cv, lam,
                                   masks, want_grads=False)["loss"]

        names = sorted(net.params)
        picks = []
        for name in names:  # cover every tensor, then sample the rest
            flat = int(rng.integers(net.params[name].size))
            picks.append((name, flat))
        while len(picks) < coords_per_point:
            name = names[int(rng.integers(len(names)))]
            picks.append((name, int(rng.integers(net.params[name].size))))
        coords = [((name, flat), grads[name].ravel()[flat]) for name, flat in picks]

        def get(coord):
            name, flat = coord
            return net.params[name].ravel()[flat]

        def setv(coord, value):
            name, flat = coord
            net.params[name].ravel()[flat] = value

        worst = max(worst, _fd_check(loss, get, setv, coords))
    return worst


def planted_seed_world(n_seeds: int = 250, steps_per_seed: int = 30,
                       bad_frac: float = 0.03, noise: float = 0.25,
                       seed: int = 0):
    """Seed-structured planted routing data: a small fraction of seeds carry
    high failure risk, so the alpha-tail of per-seed risks is informative and
    the CVaR constraint sits near its feasibility boundary."""
    rng = seeds.stream("cvar-knob", seed)
    examples = []
    for sid in range(n_seeds):
        q = 0.85 if rng.random() < bad_frac else 0.04
        for t in range(steps_per_seed):
            f = np.zeros(15)
            f[0] = float(np.clip(q + rng.normal(0.0, noise), 0.0, 1.0))
            examples.append(
                RoutingExample(tuple(f), int(rng.random() < q), seed_id=sid,
                               step_index=t)
            )
    eval_rng = seeds.stream("cvar-knob-eval", seed)
    q_eval = np.where(eval_rng.random(5000) < bad_frac, 0.85, 0.04)
    x_eval = np.zeros((5000, 15))
    x_eval[:, 0] = np.clip(q_eval + eval_rng.normal(0.0, noise, 5000), 0.0, 1.0)
    return examples, x_eval


CVAR_KNOB_CELLS = ((0.05, 0.02), (0.20, 0.10), (0.20, 0.15))


def check_cvar_knob(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    """Tightening the CVaR budget increases the escalation rate, up to `tol`,
    on a fixed evaluation set (conservative -> canonical -> relaxed ordering).

    Cost units are scaled (ratio 50, interior threshold preserved) so the
    per-seed risks are commensurate with the epsilon grid; at the literal
    canonical scale the constraint is violated by orders of magnitude and the
    epsilon knob is inert.
    """
    examples, x_eval = planted_seed_world()
    costs = CostSpec(0.02, 1.0, 1.96)
    tau = bayes_threshold(costs)
    means = []
    details = []
    for alpha, eps in CVAR_KNOB_CELLS:
        rates = []
        for s in (0, 1, 2):
            spec = TrainSpec(costs=costs, cvar=CVaRSpec(alpha=alpha, epsilon=eps),
                             epochs=40)
            net, _ = train_router(examples, spec, seed=s)
            rates.append(float(np.mean(net.predict(x_eval) >= tau)))
        means.append(float(np.mean(rates)))
        details.append(f"({alpha},{eps}): {means[-1]:.4f}")
    ok = means[0] >= means[1] - tol and means[1] >= means[2] - tol
    return ok, "escalation " + " >= ".join(details) + f" (tol {tol:g})"


def check_gradients(tol: float, trained: list[RouterNet]) -> tuple[bool, str]:
    errs = {
        "bc": bc_gradient_error(),
        "dpo+cons": distill_gradient_error(),
        "router": router_gradient_error(),
    }
    ok = all(v <= tol for v in errs.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in errs.items()) + f" (tol {tol:g})"
    return ok, detail


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion. Its check takes the row's tolerance and the
    routers earlier rows of the run trained (criterion 3 reuses criterion
    1's), and returns its pass flag and a detail that prints the tolerance."""

    number: int
    name: str
    check: Callable[[float, list[RouterNet]], tuple[bool, str]]
    tol: float
    cap_s: float | None  # wall-clock cap in seconds
    slow: bool  # left out by `verify-theory --skip-slow`

    def run(self, trained: list[RouterNet]) -> tuple[bool, str]:
        """Run the check at the row's tolerance; over its cap, the row fails."""
        start = time.perf_counter()
        passed, detail = self.check(self.tol, trained)
        if self.cap_s is not None:
            elapsed = time.perf_counter() - start
            passed = passed and elapsed <= self.cap_s
            detail += f", {elapsed:.1f}s (cap {self.cap_s:g}s)"
        return passed, detail


CRITERIA = (
    Criterion(1, "brier-calibration", check_brier_calibration, 0.05, 60.0, True),
    Criterion(2, "threshold-optimality", check_threshold_optimality, 0.01, None, False),
    Criterion(3, "regret-bound", check_regret_bound, 1e-9, None, False),
    Criterion(4, "tv-jsd-lemma", check_tv_jsd, 1e-9, None, False),
    Criterion(5, "best-of-k-bound", check_best_of_k, 3.0, 60.0, False),
    Criterion(6, "noisy-dpo-sign", check_noisy_dpo, 1e-2, None, False),
    Criterion(7, "consistency-transfer", check_consistency_transfer, 1e-6, None, True),
    Criterion(8, "gradient-checks", check_gradients, 1e-5, None, False),
    Criterion(10, "cvar-knob-direction", check_cvar_knob, 0.0, None, True),
)


def run_all(include_slow: bool) -> list[tuple[Criterion, bool, str]]:
    """Each row of `CRITERIA` in order, the slow ones only if asked, with its
    pass flag and detail."""
    trained: list[RouterNet] = []
    return [(row, *row.run(trained)) for row in CRITERIA if include_slow or not row.slow]
