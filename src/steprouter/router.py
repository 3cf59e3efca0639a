"""Residual-risk router.

A 15 -> 128 -> 64 -> 1 feed-forward scorer (tanh-form GELU 0.5*x*(1 +
tanh(sqrt(2/pi)*(x + 0.044715*x^3))) of Hendrycks & Gimpel, 2016, in train and
eval mode alike; per-layer batch normalization with tracked running
statistics, dropout 0.2, sigmoid output, post-hoc Platt map of Platt, 1999)
trained on the CVaR-constrained Lagrangian

    min_psi max_{lam>=0}  E_z[R(z)] + lam * (CVaR_alpha(R(z)) - eps) + lam_B * Brier

where R(z) is the per-seed mean of the cost surrogate
c_slm*(1-p) + c_llm*p + kappa*y*(1-p). Backprop is hand-coded; the primal
uses AdamW with cosine annealing, the dual does Adam ascent on log(lam), so
lam >= 0 holds structurally. Empirical CVaR is the mean of the worst
ceil(alpha*n) values (alpha is the tail mass), with the subgradient flowing
through the selected tail seeds.

Training is mixed precision (Micikevicius et al., 2018, "Mixed Precision
Training"): each step's batch math (activations, dropout masks, deltas and
batch gradients) runs in `TRAIN_DTYPE`, float32, on float32 copies of the
weights made once per step, because every layer of the step is memory-bound
numpy and float32 halves the bytes it moves. The master weights, the Adam
moments, the batch-norm running statistics, the loss terms and d loss /
d logit stay float64, as does everything after training: eval mode, the
Platt fit, the threshold sweeps and the checkpoint.

The first batch norm, the widest layer, normalizes from the moments of its
15 inputs: the batch mean and variance of x @ w1 are mean(x) @ w1 and
colsum(w1 * (cov(x) @ w1)), so its forward is one gemm on the centred
input and its backward one more, with no per-row statistics pass and no
(n, 128) normalized array kept; those moments are float64. The dropout
masks come from one draw of 16-bit integers, so the keep probability is
1 - rate quantised to a multiple of 2**-16.

The hidden layers carry no bias, since batch norm would subtract it again and
its beta carries the shift (Ioffe & Szegedy, 2015). Eval mode folds each batch
norm into a per-unit scale and shift, in a `RouterSnapshot`: `RouterNet.predict`
folds one on every call, so it follows every update of the net, and scores
its rows in one gemm; an r2v routing policy folds one when it is built and
scores every step's rows through it, each row by its own gemv, so that a
row's probability is what a one-row `predict` gives it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import seeds
from .domain import CostSpec, CVaRSpec, read_arrays, require_number, write_arrays

ROUTER_SCHEMA = "router@2"
TRAIN_DTYPE = np.float32
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

_PARAM_NAMES = ("w1", "g1", "be1", "w2", "g2", "be2", "w3", "b3")
_STAT_NAMES = ("run_mean1", "run_var1", "run_mean2", "run_var2")
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu_parts(x: np.ndarray, s: np.ndarray | None = None,
               act: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(x), smooth step s = 0.5*(1 + tanh(u))), written into act and s if
    given; s is reused by backward."""
    if s is None:
        s = np.empty(np.shape(x))
    np.multiply(x, x, out=s)
    s *= _GELU_C * _GELU_A
    s += _GELU_C
    s *= x  # u = sqrt(2/pi) * (x + 0.044715 x^3)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return np.multiply(x, s, out=act), s


def gelu(x: np.ndarray) -> np.ndarray:
    return gelu_parts(x)[0]


def gelu_grad(x: np.ndarray, s: np.ndarray, d: np.ndarray,
              tmp: np.ndarray) -> np.ndarray:
    """Multiply d in place by the GELU derivative s + x * 2s(1-s) * du/dx,
    given the smooth step s that `gelu_parts` returned for x; tmp is
    scratch."""
    np.multiply(x, x, out=tmp)
    tmp *= 6.0 * _GELU_C * _GELU_A
    tmp += 2.0 * _GELU_C  # 2 du/dx
    tmp *= x
    d *= s
    tmp *= d
    d += tmp
    tmp *= s
    d -= tmp  # d * (s + x * 2 du/dx * s * (1 - s))
    return d


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
            "g1": np.ones(h1),
            "be1": np.zeros(h1),
            "w2": rng.normal(0.0, math.sqrt(2.0 / h1), size=(h1, h2)),
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
        """Eval-mode logits, batch norm folded from the running statistics on
        each call."""
        return RouterSnapshot.of(self).logits(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode probabilities with the post-hoc temperature applied,
        batch norm folded from the running statistics on each call. The rows
        go through one gemm per layer: the batch path of training and
        validation. Rollouts score through `RouterSnapshot.probs`, one gemv
        per row, which a gemm does not match in the last place."""
        return RouterSnapshot.of(self).predict(x)

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
            tau_route=header.typed("tau_route", float, int),
            dropout=header.typed("dropout", float, int),
        )
        return net, header


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RouterSnapshot:
    """A RouterNet in eval mode, batch norm folded: (w, scale, shift) per
    hidden layer, the output layer's w3 and b3, and the temperature.

    `RouterNet.predict` and `logits_eval` fold one over the net's own weight
    arrays on every call, so they follow every update of the net. A routing
    policy keeps `RouterSnapshot.of(net).frozen()`, whose arrays are
    read-only copies that later edits of the net do not reach, and scores
    each step's rows with its `probs`.

    The two scoring paths differ in their matmuls. `predict` multiplies all
    n rows in one (n, d) @ (d, h) gemm, the fast path for training and
    validation sets. `probs` multiplies each row alone, as a one-row
    `predict` does, since a gemm rounds differently in the last place from
    the gemv of one row: a routing decision must not depend on which other
    episodes share its step.
    """

    layers: tuple
    w3: np.ndarray
    b3: np.ndarray
    temperature: float

    @classmethod
    def of(cls, net: RouterNet) -> "RouterSnapshot":
        p = net.params
        layers = []
        for i, mean, var in (("1", net.run_mean1, net.run_var1),
                             ("2", net.run_mean2, net.run_var2)):
            scale = p["g" + i] / np.sqrt(var + BN_EPS)
            layers.append((p["w" + i], scale, p["be" + i] - mean * scale))
        return cls(tuple(layers), p["w3"], p["b3"], net.temperature)

    def frozen(self) -> "RouterSnapshot":
        """This snapshot with every array a read-only copy."""
        return RouterSnapshot(tuple(tuple(map(_read_only, layer)) for layer in self.layers),
                              _read_only(self.w3), _read_only(self.b3), self.temperature)

    def logits(self, x: np.ndarray, matmul=np.matmul) -> np.ndarray:
        """Logits of the rows x (one row or (n, in_dim)), each layer's product
        taken by `matmul`."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        if not np.isfinite(h).all():
            raise ValueError("router input must be finite")
        for w, scale, shift in self.layers:
            h = gelu(matmul(h, w) * scale + shift)
        return (matmul(h, self.w3) + self.b3).ravel()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Probabilities of the rows x, temperature applied."""
        return sigmoid(self.logits(x) / self.temperature)

    def probs(self, rows: np.ndarray) -> np.ndarray:
        """Probabilities of the (n, in_dim) feature rows, each row scored as
        `predict` scores it alone: every layer's matmul runs one (1, d) row
        at a time (a gemv), and only the elementwise steps see the block, so
        row i is bit-equal to `predict(rows[i])[0]`."""
        return sigmoid(self.logits(rows, _row_by_row) / self.temperature)


def _row_by_row(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.empty((len(h), w.shape[1]))
    for i in range(len(h)):
        np.matmul(h[i:i + 1], w, out=out[i:i + 1])
    return out


class StepBuffers:
    """Named arrays of one dtype that train-mode steps write into; the dtype
    is the precision the step computes in.

    `take(name, n, width)` returns an (n, width) view of the first n * width
    elements of the named buffer and allocates only when a batch is larger
    than any before it. A training loop that keeps one instance allocates no
    batch-sized arrays once its largest batch has been seen; a fresh instance
    per call gives fresh arrays. A fresh `StepBuffers()` is float64, the
    precision the gradient checks compare; `train_router` keeps one of
    `TRAIN_DTYPE`.
    """

    def __init__(self, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, n: int, width: int) -> np.ndarray:
        size = n * width
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype=self.dtype)
        return flat[:size].reshape(n, width)


def make_dropout_masks(net: RouterNet, n: int, rng: np.random.Generator,
                       buffers: StepBuffers | None = None):
    """Inverted-dropout masks, values in {0, 1/(1-rate)} in the dtype of
    `buffers`.

    Both masks come from one draw of n*(h1+h2) uniform 16-bit integers, the
    same stream as a draw of n*h1 then one of n*h2 (n*h1 is even, so no
    buffered half of a 32-bit draw is lost between them). A unit is kept
    where its integer is at least round(rate * 2**16), so the keep
    probability is 1 - rate quantised to a multiple of 2**-16.
    """
    rate = net.dropout
    h1 = net.params["g1"].size
    h2 = net.params["g2"].size
    flat = (buffers or StepBuffers()).take("masks", n, h1 + h2).reshape(-1)
    if rate <= 0.0:
        flat.fill(1.0)
    else:
        draw = rng.integers(0, 1 << 16, flat.size, dtype=np.uint16)
        np.greater_equal(draw, round(rate * 2**16), out=flat)
        flat /= 1.0 - rate
    return flat[: n * h1].reshape(n, h1), flat[n * h1:].reshape(n, h2)


def logits_train(net: RouterNet, x: np.ndarray, masks,
                 buffers: StepBuffers | None = None) -> tuple[np.ndarray, dict]:
    """Train-mode forward: batch-stat normalization + dropout.

    Layer 1 normalizes from the moments of its input, so it runs no per-row
    statistics pass: with the chunk centred in float64, xc = x - mean(x),
    and its covariance S = xc^T xc / n, the pre-activation x @ w1 has batch
    mean mean(x) @ w1 and biased variance colsum(w1 * (S @ w1)), and
    z1 = xc @ (w1 * g1 / std1) + be1 is one gemm in the step's dtype. Its
    mean, variance and std are float64 whatever that dtype. Layer 2 centres
    its pre-activation in place and scales it into z2 in one pass.

    Pure in (params, x, masks): finite differences through this path are what
    the gradient check compares against. The (n, width) arrays of the cache
    are views into `buffers`, valid until its next step.
    """
    buffers = buffers or StepBuffers()
    p = net.params
    m1, m2 = masks
    n = len(x)
    ones = np.ones(n, dtype=buffers.dtype)
    cache: dict = {"ones": ones, "m1": m1, "m2": m2}

    xc64 = x.astype(float)
    mx = xc64.mean(axis=0)
    xc64 -= mx
    w1 = p["w1"].astype(float)
    sw1 = (xc64.T @ xc64 / n) @ w1
    var1 = (w1 * sw1).sum(axis=0)
    std1 = np.sqrt(var1 + BN_EPS)
    xc = buffers.take("xc", n, x.shape[1])
    xc[...] = xc64
    z1, s1, h1 = (buffers.take(k + "1", n, w1.shape[1]) for k in ("z", "s", "h"))
    np.matmul(xc, (w1 * (p["g1"] / std1)).astype(buffers.dtype), out=z1)
    z1 += p["be1"]
    gelu_parts(z1, s=s1, act=h1)
    h1 *= m1
    cache.update({"xc": xc, "sw1": sw1, "mu1": mx @ w1, "var1": var1, "std1": std1,
                  "z1": z1, "s1": s1, "h1": h1})

    ac2, z2, s2, h2 = (buffers.take(k + "2", n, p["g2"].size) for k in ("a", "z", "s", "h"))
    np.matmul(h1, p["w2"], out=ac2)  # the pre-activation, centred in place
    mu2 = ones @ ac2 / n
    ac2 -= mu2
    var2 = ones @ np.square(ac2, out=z2) / n  # z2 is scratch until the affine step
    std2 = np.sqrt(var2 + BN_EPS)
    np.multiply(ac2, p["g2"] / std2, out=z2)
    z2 += p["be2"]
    gelu_parts(z2, s=s2, act=h2)
    h2 *= m2
    cache.update({"mu2": mu2, "var2": var2, "std2": std2, "a2": ac2,
                  "z2": z2, "s2": s2, "h2": h2})

    logit = (h2 @ p["w3"] + p["b3"]).ravel()
    return logit, cache


def _bn_backward(d, ac, std, gamma, ones, tmp):
    """Batch-norm backward in place, given the centred pre-activation ac and
    a vector of n ones: d enters as d loss / dz and leaves as d loss / d
    pre-activation; tmp is scratch. Returns (dgamma, dbeta).

    With xhat = ac / std and dxhat = gamma * d, the batch means the textbook
    form takes are mean(dxhat) = gamma * dbeta / n and mean(dxhat * xhat) =
    gamma * dgamma / n, so d leaves as
    gamma / std * (d - dbeta / n - ac * dgamma / (n * std))."""
    dgamma = ones @ np.multiply(d, ac, out=tmp) / std
    dbeta = ones @ d
    n = len(d)
    d -= dbeta / n
    d -= np.multiply(ac, dgamma / (n * std), out=tmp)
    d *= gamma / std
    return dgamma, dbeta


def backward(net: RouterNet, cache: dict, dlogit: np.ndarray,
             buffers: StepBuffers | None = None) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt all parameters given d loss / d logit.

    Layer 1's come from M = xc^T d1 (one gemm), with d1 = d loss / dz1:
    dbe1 = colsum(d1), dg1 = colsum(w1 * M) / std1 and
    dw1 = g1 / std1 * (M - (S @ w1) * dg1 / std1), taken in float64 and
    returned in the step's dtype like every other gradient."""
    buffers = buffers or StepBuffers()
    p = net.params
    ones = cache["ones"]
    dlogit = dlogit.reshape(-1, 1)
    n = len(dlogit)
    width1, width2 = p["g1"].size, p["g2"].size
    grads = {"w3": cache["h2"].T @ dlogit, "b3": dlogit.sum(axis=0)}

    d2 = np.multiply(dlogit, p["w3"].T, out=buffers.take("d2", n, width2))
    d2 *= cache["m2"]
    tmp = buffers.take("tmp", n, width2)
    gelu_grad(cache["z2"], cache["s2"], d2, tmp)
    grads["g2"], grads["be2"] = _bn_backward(d2, cache["a2"], cache["std2"], p["g2"], ones, tmp)
    grads["w2"] = cache["h1"].T @ d2

    d1 = np.matmul(d2, p["w2"].T, out=buffers.take("d1", n, width1))
    d1 *= cache["m1"]
    gelu_grad(cache["z1"], cache["s1"], d1, buffers.take("tmp", n, width1))
    m = (cache["xc"].T @ d1).astype(float)
    w1, std1 = p["w1"].astype(float), cache["std1"]
    dg1 = (w1 * m).sum(axis=0) / std1
    grads["g1"] = dg1.astype(d1.dtype)
    grads["be1"] = ones @ d1
    grads["w1"] = (p["g1"] / std1 * (m - cache["sw1"] * (dg1 / std1))).astype(d1.dtype)
    return grads


def update_running_stats(net: RouterNet, cache: dict) -> None:
    """Move the float64 running statistics toward the step's batch mean and
    variance: layer 1's are float64 already, layer 2's are upcast from the
    step's dtype."""
    m = BN_MOMENTUM
    net.run_mean1 = (1 - m) * net.run_mean1 + m * cache["mu1"].astype(float)
    net.run_var1 = (1 - m) * net.run_var1 + m * cache["var1"].astype(float)
    net.run_mean2 = (1 - m) * net.run_mean2 + m * cache["mu2"].astype(float)
    net.run_var2 = (1 - m) * net.run_var2 + m * cache["var2"].astype(float)


# --- losses -------------------------------------------------------------------


def route_surrogate(p, y, costs: CostSpec):
    """Cost surrogate c_slm*(1-p) + c_llm*p + kappa*y*(1-p), elementwise."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    return costs.c_slm * (1.0 - p) + costs.c_llm * p + costs.kappa * y * (1.0 - p)


def brier(p, y):
    """Squared error between predicted probability and binary label."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    return (p - y) ** 2


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

    def __post_init__(self):
        require_number("dropout", self.dropout, False)
        if self.dropout >= 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        require_number("lr", self.lr, True)
        require_number("weight_decay", self.weight_decay, False)
        require_number("dual_lr", self.dual_lr, False)


class _Adam:
    def __init__(self, shapes: dict[str, tuple], beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {k: np.zeros(s) for k, s in shapes.items()}
        self.v = {k: np.zeros(s) for k, s in shapes.items()}
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        self.t += 1
        out = {}
        for k, g in grads.items():
            g = g.astype(float)  # the moments stay float64 whatever the step's dtype
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            mhat = self.m[k] / (1 - self.beta1**self.t)
            vhat = self.v[k] / (1 - self.beta2**self.t)
            out[k] = mhat / (np.sqrt(vhat) + self.eps)
        return out


def batch_objective(net, x, y, seed_index, n_seeds, costs, cv: CVaRSpec, lam, masks,
                    want_grads: bool = True, buffers: StepBuffers | None = None):
    """Train-mode Lagrangian on one minibatch of whole seeds.

    seed_index maps each row to a local seed slot in [0, n_seeds); returns the
    loss, its components, and (optionally) parameter gradients. The forward
    and backward write into `buffers` (fresh float64 ones when None) and run
    in its dtype, on copies of the parameters in that dtype; the loss terms
    and d loss / d logit are float64.
    """
    buffers = buffers or StepBuffers()
    work = replace(net, params={k: v.astype(buffers.dtype, copy=False)
                                for k, v in net.params.items()})
    logit, cache = logits_train(work, x, masks, buffers)
    p = sigmoid(logit.astype(float, copy=False))
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
    result["grads"] = backward(work, cache, dlogit.astype(buffers.dtype, copy=False), buffers)
    return result


def require_trainable(features, labels, seed_ids) -> None:
    """Raise ValueError unless the rows hold both labels and come from two or
    more seeds, as train_router's whole-seed CVaR batches need, and every
    feature is finite in `TRAIN_DTYPE`, the precision of the training step."""
    kinds, n_seeds = sorted({int(y) for y in labels}), len(set(seed_ids))
    if len(kinds) < 2 or n_seeds < 2:
        raise ValueError(f"router training needs rows of both labels from two or more "
                         f"seeds; {len(labels)} rows from {n_seeds} seeds hold labels {kinds}")
    with np.errstate(over="ignore"):  # a value too large for the dtype becomes inf
        held = np.isfinite(np.asarray(features, dtype=TRAIN_DTYPE)).all(axis=1)
    if not held.all():
        i = int(np.argmin(held))
        raise ValueError(f"router training runs in {np.dtype(TRAIN_DTYPE).name}, which cannot "
                         f"hold row {i} (seed {seed_ids[i]}): a feature of magnitude "
                         f"{np.abs(features[i]).max():g}")


def train_router(x_all: np.ndarray, y_all: np.ndarray, seed_ids: np.ndarray, spec: TrainSpec,
                 seed: int = 0) -> tuple[RouterNet, list[dict]]:
    """Alternating primal descent / dual ascent on the CVaR Lagrangian, over
    float feature rows `x_all`, their float 0/1 labels and integer seed ids.

    Minibatches are composed of whole seeds so the per-seed risk is computable
    inside every batch. Returns the net and a per-epoch training report
    (batch-averaged mean risk, CVaR, Brier, and the multiplier).
    """
    require_trainable(x_all, y_all, seed_ids)
    x_all = np.asarray(x_all, dtype=TRAIN_DTYPE)
    uniq = np.unique(seed_ids)

    rng = seeds.stream("router-train", seed)
    net = RouterNet.init(rng, in_dim=x_all.shape[1])
    net.dropout = spec.dropout

    rows_by_seed = {int(s): np.flatnonzero(seed_ids == s) for s in uniq}
    buffers = StepBuffers(TRAIN_DTYPE)  # sized by the largest chunk, not the data set
    primal = _Adam({k: v.shape for k, v in net.params.items()})
    dual = _Adam({"u": ()})
    log_lam = math.log(max(spec.cvar.lambda_init, 1e-8))

    batches_per_epoch = max(1, math.ceil(len(y_all) / spec.batch_steps))
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


def fit_platt_logits(logits, labels) -> tuple[float, float]:
    """Platt map (a, b) minimizing the validation NLL of sigmoid(a*z + b).

    Newton steps from the identity (1, 0), each halved until the NLL does not
    rise; the NLL is convex in (a, b), so there is no bound to hit. Keeps the
    identity and warns when the labels or the logits take one value, or when
    the fitted slope a <= 0 (the logits do not rank the validation labels).
    """
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(np.unique(y)) < 2 or len(np.unique(z)) < 2:
        warnings.warn("degenerate validation labels or logits; calibration left at the identity")
        return 1.0, 0.0

    def nll(a: float, b: float) -> float:
        s = a * z + b
        return float(np.mean(np.logaddexp(0.0, s) - y * s))

    a, b = 1.0, 0.0
    for _ in range(50):
        p = sigmoid(a * z + b)
        w, r = p * (1.0 - p), p - y
        # the Newton step solves [[w.zz, w.z], [w.z, sum w]] step = [r.z, sum r]
        haa, hab, hbb, ga, gb = w @ (z * z), w @ z, w.sum(), r @ z, r.sum()
        det = haa * hbb - hab * hab
        if not det > 0.0:
            break
        da, db = (hbb * ga - hab * gb) / det, (haa * gb - hab * ga) / det
        if ga * da + gb * db < 1e-24 * len(z):  # the Newton decrement: converged
            break
        t, f = 1.0, nll(a, b)
        while nll(a - t * da, b - t * db) > f and t > 1e-10:
            t *= 0.5
        a, b = a - t * da, b - t * db
    if a <= 0.0:
        warnings.warn(f"Platt slope a = {a:g} <= 0; calibration left at the identity")
        return 1.0, 0.0
    return float(a), float(b)


def fit_temperature(net: RouterNet, x_val, y_val) -> float:
    """Fit the Platt map on validation data and install it as temperature 1/a
    and output bias b3 + b/a, so that `predict` gives sigmoid(a*z + b) on the
    logits z of the net as it was. Returns the temperature."""
    a, b = fit_platt_logits(net.logits_eval(np.asarray(x_val, dtype=float)), y_val)
    net.temperature = 1.0 / a
    net.params["b3"] = net.params["b3"] + b / a
    return net.temperature


def bayes_threshold(costs: CostSpec) -> float:
    """Clamped cost-optimal escalation cutoff (c_llm - c_slm) / kappa."""
    return float(min(1.0, max(0.0, (costs.c_llm - costs.c_slm) / costs.kappa)))


def sweep_threshold(values, labels, costs: CostSpec,
                    escalate_when_ge: bool = True) -> float:
    """Grid-search tau in {0.01..0.99} minimizing the hard routing surrogate
    of escalating where value >= tau (or value < tau when escalate_when_ge is
    False). Ties break toward the lowest threshold. All 99 thresholds are
    compared at once, one row of decisions per tau: each entry takes the
    surrogate of its example escalated or kept, and each row's mean is
    summed as `np.mean` sums one row alone.
    """
    v = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=float)
    grid = np.arange(1, 100) / 100.0
    d = (v >= grid[:, None]) if escalate_when_ge else (v < grid[:, None])
    cost = np.where(d, route_surrogate(1.0, y, costs), route_surrogate(0.0, y, costs))
    return float(grid[int(np.argmin(cost.mean(axis=1)))])


def select_threshold(net: RouterNet, x_val, y_val, costs: CostSpec) -> float:
    """Routing threshold: the sweep over the net's validation predictions."""
    return sweep_threshold(net.predict(np.asarray(x_val, dtype=float)), y_val, costs)
