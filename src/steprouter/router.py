"""Residual-risk router.

A 15 -> 128 -> 64 -> 1 feed-forward scorer (GELU, per-layer batch
normalization with tracked running statistics, dropout 0.2, sigmoid output,
post-hoc temperature) trained on the CVaR-constrained Lagrangian

    min_psi max_{lam>=0}  E_z[R(z)] + lam * (CVaR_alpha(R(z)) - eps) + lam_B * Brier

where R(z) is the per-seed mean of the cost surrogate
c_slm*(1-p) + c_llm*p + kappa*y*(1-p). Backprop is hand-coded; the primal
uses AdamW with cosine annealing, the dual does Adam ascent on log(lam), so
lam >= 0 holds structurally. Empirical CVaR is the mean of the worst
ceil(alpha*n) values (alpha is the tail mass), with the subgradient flowing
through the selected tail seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from . import seeds
from .domain import CostSpec, CVaRSpec, read_arrays, write_arrays
from .evaluation import ece

ROUTER_SCHEMA = "router@1"
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

_PARAM_NAMES = ("w1", "b1", "g1", "be1", "w2", "b2", "g2", "be2", "w3", "b3")
_STAT_NAMES = ("run_mean1", "run_var1", "run_mean2", "run_var2")


def gelu_parts(x: np.ndarray, cdf: np.ndarray | None = None,
               act: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(x), standard-normal CDF of x), written into act and cdf if given;
    the CDF is reused by backward."""
    if cdf is None:
        cdf = np.empty(np.shape(x))
    np.divide(x, math.sqrt(2.0), out=cdf)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(x, cdf, out=act), cdf


def gelu(x: np.ndarray) -> np.ndarray:
    return gelu_parts(x)[0]


def gelu_grad(x: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GELU derivative written into `out`, given the CDF that `gelu_parts`
    returned for x."""
    np.multiply(x, -0.5, out=out)
    out *= x
    np.exp(out, out=out)
    out *= x
    out /= math.sqrt(2.0 * math.pi)
    out += cdf
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class RouterNet:
    """Parameters plus batch-norm running statistics and post-hoc temperature."""

    params: dict[str, np.ndarray]
    run_mean1: np.ndarray
    run_var1: np.ndarray
    run_mean2: np.ndarray
    run_var2: np.ndarray
    temperature: float = 1.0
    tau_route: float | None = None
    dropout: float = 0.2

    @classmethod
    def init(cls, rng: np.random.Generator, in_dim: int = 15,
             h1: int = 128, h2: int = 64) -> "RouterNet":
        params = {
            "w1": rng.normal(0.0, math.sqrt(2.0 / in_dim), size=(in_dim, h1)),
            "b1": np.zeros(h1),
            "g1": np.ones(h1),
            "be1": np.zeros(h1),
            "w2": rng.normal(0.0, math.sqrt(2.0 / h1), size=(h1, h2)),
            "b2": np.zeros(h2),
            "g2": np.ones(h2),
            "be2": np.zeros(h2),
            "w3": rng.normal(0.0, math.sqrt(2.0 / h2), size=(h2, 1)),
            "b3": np.zeros(1),
        }
        return cls(
            params=params,
            run_mean1=np.zeros(h1),
            run_var1=np.ones(h1),
            run_mean2=np.zeros(h2),
            run_var2=np.ones(h2),
        )

    def logits_eval(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p = self.params
        a1 = x @ p["w1"] + p["b1"]
        h1 = gelu(p["g1"] * (a1 - self.run_mean1) / np.sqrt(self.run_var1 + BN_EPS) + p["be1"])
        a2 = h1 @ p["w2"] + p["b2"]
        h2 = gelu(p["g2"] * (a2 - self.run_mean2) / np.sqrt(self.run_var2 + BN_EPS) + p["be2"])
        return (h2 @ p["w3"] + p["b3"]).ravel()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode probabilities with the post-hoc temperature applied."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(x)):
            raise ValueError("router input must be finite")
        return sigmoid(self.logits_eval(x) / self.temperature)

    def save(self, path, extra: dict | None = None) -> None:
        header = {
            "schema": ROUTER_SCHEMA,
            "temperature": self.temperature,
            "tau_route": self.tau_route,
            "dropout": self.dropout,
            **(extra or {}),
        }
        stats = {k: getattr(self, k) for k in _STAT_NAMES}
        write_arrays(path, header, {**self.params, **stats})

    @classmethod
    def load(cls, path) -> tuple["RouterNet", dict]:
        header, arrays = read_arrays(path, ROUTER_SCHEMA, _PARAM_NAMES + _STAT_NAMES)
        net = cls(
            params={k: arrays[k] for k in _PARAM_NAMES},
            **{k: arrays[k] for k in _STAT_NAMES},
            temperature=header.typed("temperature", float, int),
            tau_route=header.typed("tau_route", float, int, type(None)),
            dropout=header.typed("dropout", float, int),
        )
        return net, header


class StepBuffers:
    """Named float64 arrays that train-mode steps write into.

    `take(name, n, width)` returns an (n, width) view of the first n * width
    elements of the named buffer and allocates only when a batch is larger
    than any before it. A training loop that keeps one instance allocates no
    batch-sized arrays once its largest batch has been seen; a fresh instance
    per call gives fresh arrays.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, n: int, width: int) -> np.ndarray:
        size = n * width
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(n, width)


def make_dropout_masks(net: RouterNet, n: int, rng: np.random.Generator,
                       buffers: StepBuffers | None = None):
    """Inverted-dropout masks, values in {0, 1/(1-rate)}.

    Both masks come from one draw of n*h1 then n*h2 uniforms, the same
    stream as two draws of shape (n, h1) and (n, h2).
    """
    rate = net.dropout
    h1 = net.params["b1"].size
    h2 = net.params["b2"].size
    flat = (buffers or StepBuffers()).take("masks", n, h1 + h2).reshape(-1)
    if rate <= 0.0:
        flat.fill(1.0)
    else:
        rng.random(out=flat)
        np.greater_equal(flat, rate, out=flat)
        flat /= 1.0 - rate
    return flat[: n * h1].reshape(n, h1), flat[n * h1:].reshape(n, h2)


def logits_train(net: RouterNet, x: np.ndarray, masks,
                 buffers: StepBuffers | None = None) -> tuple[np.ndarray, dict]:
    """Train-mode forward: batch-stat normalization + dropout.

    Pure in (params, x, masks): finite differences through this path are what
    the gradient check compares against. The (n, width) arrays of the cache
    are views into `buffers`, valid until its next step.
    """
    buffers = buffers or StepBuffers()
    p = net.params
    m1, m2 = masks
    n = len(x)
    cache: dict = {"x": x, "m1": m1, "m2": m2}
    h = x
    for i, mask in (("1", m1), ("2", m2)):
        width = p["b" + i].size
        xhat, z, cdf, act = (buffers.take(k + i, n, width) for k in ("xhat", "z", "cdf", "h"))
        np.matmul(h, p["w" + i], out=xhat)
        xhat += p["b" + i]  # the pre-activation a, centred and scaled in place
        mu = xhat.mean(axis=0)
        xhat -= mu
        var = np.square(xhat, out=z).mean(axis=0)  # z is scratch until the affine step
        std = np.sqrt(var + BN_EPS)
        xhat /= std
        np.multiply(p["g" + i], xhat, out=z)
        z += p["be" + i]
        gelu_parts(z, cdf=cdf, act=act)
        act *= mask
        cache.update({"mu" + i: mu, "var" + i: var, "std" + i: std, "xhat" + i: xhat,
                      "z" + i: z, "cdf" + i: cdf, "h" + i: act})
        h = act

    logit = (h @ p["w3"] + p["b3"]).ravel()
    return logit, cache


def _bn_backward(d, xhat, std, gamma, tmp):
    """Batch-norm backward in place: d enters as d loss / dz and leaves as
    d loss / d pre-activation; tmp is scratch. Returns (dgamma, dbeta)."""
    dgamma = np.multiply(d, xhat, out=tmp).sum(axis=0)
    dbeta = d.sum(axis=0)
    d *= gamma
    dxhat_mean = d.mean(axis=0)
    dxhat_xhat_mean = np.multiply(d, xhat, out=tmp).mean(axis=0)
    d -= dxhat_mean
    d -= np.multiply(xhat, dxhat_xhat_mean, out=tmp)
    d /= std
    return dgamma, dbeta


def backward(net: RouterNet, cache: dict, dlogit: np.ndarray,
             buffers: StepBuffers | None = None) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt all parameters given d loss / d logit."""
    buffers = buffers or StepBuffers()
    p = net.params
    dlogit = dlogit.reshape(-1, 1)
    n = len(dlogit)
    grads = {"w3": cache["h2"].T @ dlogit, "b3": dlogit.sum(axis=0)}

    d, w_out = dlogit, p["w3"]
    for i in ("2", "1"):
        d_next = np.matmul(d, w_out.T, out=buffers.take("d" + i, n, w_out.shape[0]))
        d_next *= cache["m" + i]
        tmp = buffers.take("tmp", n, w_out.shape[0])
        d_next *= gelu_grad(cache["z" + i], cache["cdf" + i], out=tmp)
        grads["g" + i], grads["be" + i] = _bn_backward(
            d_next, cache["xhat" + i], cache["std" + i], p["g" + i], tmp)
        grads["w" + i] = cache["h1" if i == "2" else "x"].T @ d_next
        grads["b" + i] = d_next.sum(axis=0)
        d, w_out = d_next, p["w" + i]
    return grads


def update_running_stats(net: RouterNet, cache: dict) -> None:
    m = BN_MOMENTUM
    net.run_mean1 = (1 - m) * net.run_mean1 + m * cache["mu1"]
    net.run_var1 = (1 - m) * net.run_var1 + m * cache["var1"]
    net.run_mean2 = (1 - m) * net.run_mean2 + m * cache["mu2"]
    net.run_var2 = (1 - m) * net.run_var2 + m * cache["var2"]


# --- losses -------------------------------------------------------------------


def route_surrogate(p, y, costs: CostSpec):
    """Cost surrogate c_slm*(1-p) + c_llm*p + kappa*y*(1-p); accepts arrays."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    out = costs.c_slm * (1.0 - p) + costs.c_llm * p + costs.kappa * y * (1.0 - p)
    return float(out) if out.ndim == 0 else out


def brier(p, y):
    """Squared error between predicted probability and binary label."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    out = (p - y) ** 2
    return float(out) if out.ndim == 0 else out


def brier_mean(p, y) -> float:
    return float(np.mean(brier(p, y)))


def cvar(values, alpha: float) -> tuple[float, np.ndarray]:
    """Empirical CVaR: mean of the worst ceil(alpha*n) values (alpha = tail
    mass), and the indices of that tail, worst first; ties go to the lower
    index."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("CVaR of an empty list is undefined")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    m = max(1, math.ceil(alpha * v.size - 1e-9))
    tail = np.lexsort((np.arange(v.size), -v))[:m]
    return float(v[tail].mean()), tail


# --- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainSpec:
    """Router training recipe; defaults follow the canonical setup."""

    costs: CostSpec = field(default_factory=CostSpec)
    cvar: CVaRSpec = field(default_factory=CVaRSpec)
    lr: float = 1e-3
    weight_decay: float = 1e-4
    dual_lr: float = 1e-2
    epochs: int = 20
    batch_steps: int = 4096
    dropout: float = 0.2


class _Adam:
    def __init__(self, shapes: dict[str, tuple], b1=0.9, b2=0.999, eps=1e-8):
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self.b1, self.b2, self.eps = b1, b2, eps
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        self.t += 1
        out = {}
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mhat = self.m[k] / (1 - self.b1**self.t)
            vhat = self.v[k] / (1 - self.b2**self.t)
            out[k] = mhat / (np.sqrt(vhat) + self.eps)
        return out


def batch_objective(net, x, y, seed_index, n_seeds, costs, cv: CVaRSpec, lam, masks,
                    want_grads: bool = True, buffers: StepBuffers | None = None):
    """Train-mode Lagrangian on one minibatch of whole seeds.

    seed_index maps each row to a local seed slot in [0, n_seeds); returns the
    loss, its components, and (optionally) parameter gradients. The forward
    and backward write into `buffers` (fresh ones when None).
    """
    buffers = buffers or StepBuffers()
    logit, cache = logits_train(net, x, masks, buffers)
    p = sigmoid(logit)
    losses = route_surrogate(p, y, costs)
    counts = np.bincount(seed_index, minlength=n_seeds).astype(float)
    risks = np.bincount(seed_index, weights=losses, minlength=n_seeds) / counts
    mean_risk = float(risks.mean())
    cvar_value, tail = cvar(risks, cv.alpha)
    brier_value = brier_mean(p, y)
    loss = mean_risk + lam * (cvar_value - cv.epsilon) + cv.lambda_b * brier_value

    result = {
        "loss": float(loss),
        "mean_risk": mean_risk,
        "cvar": cvar_value,
        "brier": brier_value,
        "cache": cache,
    }
    if not want_grads:
        return result

    in_tail = np.zeros(n_seeds)
    in_tail[tail] = 1.0
    seed_w = (1.0 / n_seeds + lam * in_tail / len(tail)) / counts
    dldp = seed_w[seed_index] * (costs.c_llm - costs.c_slm - costs.kappa * y)
    dldp = dldp + cv.lambda_b * 2.0 * (p - y) / len(y)
    dlogit = dldp * p * (1.0 - p)
    result["grads"] = backward(net, cache, dlogit, buffers)
    return result


def train_router(
    examples,
    spec: TrainSpec,
    seed: int = 0,
) -> tuple[RouterNet, list[dict]]:
    """Alternating primal descent / dual ascent on the CVaR Lagrangian.

    Minibatches are composed of whole seeds so the per-seed risk is computable
    inside every batch. Returns the net and a per-epoch training report
    (batch-averaged mean risk, CVaR, Brier, and the multiplier).
    """
    examples = list(examples)
    x_all = np.array([ex.features for ex in examples], dtype=float)
    y_all = np.array([ex.label for ex in examples], dtype=float)
    seed_ids = np.array([ex.seed_id for ex in examples], dtype=int)
    uniq = np.unique(seed_ids)
    if uniq.size < 2:
        raise ValueError("router training needs at least two seeds")
    if len(np.unique(y_all)) < 2:
        raise ValueError("router training needs both labels present")

    rng = seeds.stream("router-train", seed)
    net = RouterNet.init(rng, in_dim=x_all.shape[1])
    net.dropout = spec.dropout

    rows_by_seed = {int(s): np.flatnonzero(seed_ids == s) for s in uniq}
    buffers = StepBuffers()  # sized by the largest chunk, not the data set
    primal = _Adam({k: v.shape for k, v in net.params.items()})
    dual = _Adam({"u": ()})
    log_lam = math.log(max(spec.cvar.lambda_init, 1e-8))

    batches_per_epoch = max(1, math.ceil(len(examples) / spec.batch_steps))
    total_steps = max(1, spec.epochs * batches_per_epoch)
    step_count = 0
    report: list[dict] = []

    for epoch in range(spec.epochs):
        order = rng.permutation(uniq)
        chunk: list[int] = []
        chunks: list[list[int]] = []
        size = 0
        for s in order:
            chunk.append(int(s))
            size += rows_by_seed[int(s)].size
            if size >= spec.batch_steps:
                chunks.append(chunk)
                chunk, size = [], 0
        if chunk:
            chunks.append(chunk)

        epoch_stats = []
        for chunk in chunks:
            rows = np.concatenate([rows_by_seed[s] for s in chunk])
            local = np.repeat(np.arange(len(chunk)), [rows_by_seed[s].size for s in chunk])
            xb = np.take(x_all, rows, axis=0, out=buffers.take("x", rows.size, x_all.shape[1]))
            yb = y_all[rows]
            masks = make_dropout_masks(net, rows.size, rng, buffers)
            lam = math.exp(log_lam)
            out = batch_objective(net, xb, yb, local, len(chunk), spec.costs, spec.cvar,
                                  lam, masks, buffers=buffers)
            # primal: AdamW with cosine-annealed lr, weight decay decoupled
            frac = min(1.0, step_count / total_steps)
            lr_t = spec.lr * 0.5 * (1.0 + math.cos(math.pi * frac))
            directions = primal.step(out["grads"])
            for k, d in directions.items():
                net.params[k] *= 1.0 - lr_t * spec.weight_decay
                net.params[k] -= lr_t * d
            update_running_stats(net, out["cache"])
            # dual: Adam ascent on log(lambda) with the constraint violation
            g = out["cvar"] - spec.cvar.epsilon
            log_lam += spec.dual_lr * dual.step({"u": np.asarray(g)})["u"]
            log_lam = float(np.clip(log_lam, -30.0, 30.0))
            step_count += 1
            epoch_stats.append((out["mean_risk"], out["cvar"], out["brier"]))

        # training log: what the optimizer saw this epoch, averaged over batches
        stats = np.mean(np.array(epoch_stats), axis=0)
        report.append(
            {
                "epoch": epoch,
                "mean_risk": float(stats[0]),
                "cvar": float(stats[1]),
                "brier": float(stats[2]),
                "lam": math.exp(log_lam),
            }
        )
    return net, report


# --- calibration and thresholds -------------------------------------------------


def fit_temperature_logits(logits, labels, ece_bins: int = 15) -> float:
    """1-D golden-section search on log T in [-3, 3] minimizing validation NLL.

    Falls back to T = 1 when labels are degenerate or when scaling would
    worsen ECE by more than 0.005 on the same set.
    """
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(np.unique(y)) < 2:
        warnings.warn("degenerate validation labels; temperature left at 1")
        return 1.0

    def nll(log_t: float) -> float:
        zz = z / math.exp(log_t)
        return float(np.mean(np.logaddexp(0.0, zz) - y * zz))

    lo, hi = -3.0, 3.0
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - ratio * (hi - lo)
    d = lo + ratio * (hi - lo)
    fc, fd = nll(c), nll(d)
    for _ in range(200):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = nll(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = nll(d)
        if hi - lo < 1e-10:
            break
    t_cand = math.exp(0.5 * (lo + hi))
    before = ece(sigmoid(z), y, bins=ece_bins)
    after = ece(sigmoid(z / t_cand), y, bins=ece_bins)
    if after > before + 0.005:
        return 1.0
    return t_cand


def fit_temperature(net: RouterNet, x_val, y_val, ece_bins: int = 15) -> float:
    """Fit and install the post-hoc temperature from validation data."""
    t = fit_temperature_logits(net.logits_eval(np.asarray(x_val, dtype=float)),
                               y_val, ece_bins=ece_bins)
    net.temperature = t
    return t


def bayes_threshold(costs: CostSpec) -> float:
    """Clamped cost-optimal escalation cutoff (c_llm - c_slm) / kappa."""
    return float(min(1.0, max(0.0, (costs.c_llm - costs.c_slm) / costs.kappa)))


def sweep_threshold(values, labels, costs: CostSpec,
                    escalate_when_ge: bool = True) -> float:
    """Grid-search tau in {0.01..0.99} minimizing the hard routing surrogate
    of escalating where value >= tau (or value < tau when escalate_when_ge is
    False). Ties break toward the lowest threshold.
    """
    v = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=float)
    grid = np.arange(1, 100) / 100.0
    cost_per_tau = []
    for tau in grid:
        d = (v >= tau) if escalate_when_ge else (v < tau)
        cost_per_tau.append(float(np.mean(route_surrogate(d.astype(float), y, costs))))
    return float(grid[int(np.argmin(cost_per_tau))])


def select_threshold(net: RouterNet, x_val, y_val, costs: CostSpec,
                     mode: str = "bayes") -> float:
    """Routing threshold: the Bayes formula or a validation sweep."""
    if mode == "bayes":
        return bayes_threshold(costs)
    if mode == "sweep":
        return sweep_threshold(net.predict(np.asarray(x_val, dtype=float)), y_val, costs)
    raise ValueError("mode must be 'bayes' or 'sweep'")
