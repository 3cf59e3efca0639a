import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from steprouter import router, seeds
from steprouter.domain import CostSpec, CVaRSpec, RoutingExample
from steprouter.router import (
    TRAIN_DTYPE,
    RouterNet,
    StepBuffers,
    TrainSpec,
    _bn_backward,
    batch_objective,
    bayes_threshold,
    brier,
    cvar,
    fit_platt_logits,
    fit_temperature,
    gelu,
    gelu_grad,
    gelu_parts,
    logits_train,
    make_dropout_masks,
    require_trainable,
    route_surrogate,
    select_threshold,
    sigmoid,
    sweep_threshold,
    train_router,
    update_running_stats,
)

CANONICAL = CostSpec(1.0, 50.0, 98.0)


def example_batch(n=64, n_seeds=4, seed=0, p_fail=0.5):
    """(features, float labels, seed ids) of n rows, both labels present."""
    rng = seeds.stream("router-batch", seed)
    x = rng.normal(size=(n, 15))
    y = (rng.random(n) < p_fail).astype(float)
    y[0], y[1] = 0.0, 1.0
    return x, y, np.arange(n) % n_seeds


def seed_objective(net, examples, costs, alpha, want_grads=False):
    """batch_objective over whole seeds with unit dropout masks."""
    x = np.array([ex.features for ex in examples], dtype=float)
    y = np.array([ex.label for ex in examples], dtype=float)
    sid = np.array([ex.seed_id for ex in examples])
    masks = tuple(np.ones((len(x), net.params[g].size)) for g in ("g1", "g2"))
    return batch_objective(net, x, y, sid, int(sid.max()) + 1, costs,
                           CVaRSpec(alpha=alpha), 1.0, masks, want_grads=want_grads)


class TestForward:
    def test_zero_net_gives_half(self, zero_router):
        assert zero_router.predict(np.zeros(15))[0] == 0.5

    def test_large_temperature_flattens(self):
        net = RouterNet.init(seeds.stream("fw1"))
        net.temperature = 1e9
        f = seeds.stream("fw2").normal(size=(8, 15))
        assert np.allclose(net.predict(f), 0.5, atol=1e-6)

    def test_eval_mode_deterministic(self):
        net = RouterNet.init(seeds.stream("fw3"))
        f = seeds.stream("fw4").normal(size=(5, 15))
        assert np.array_equal(net.predict(f), net.predict(f))

    def test_matches_layer_by_layer_oracle(self):
        # naive per-example forward with explicit loops
        net = RouterNet.init(seeds.stream("fw5"))
        net.run_mean1 = seeds.stream("fw6").normal(size=128) * 0.1
        net.run_var1 = 1.0 + seeds.stream("fw7").random(128)
        xs = seeds.stream("fw8").normal(size=(6, 15))
        p = net.params
        for x in xs:
            a1 = np.array([x @ p["w1"][:, j] for j in range(128)])
            h1 = np.array(
                [
                    gelu(
                        np.array(
                            p["g1"][j]
                            * (a1[j] - net.run_mean1[j])
                            / math.sqrt(net.run_var1[j] + 1e-5)
                            + p["be1"][j]
                        )
                    )
                    for j in range(128)
                ]
            )
            a2 = np.array([h1 @ p["w2"][:, j] for j in range(64)])
            h2 = np.array(
                [
                    gelu(
                        np.array(
                            p["g2"][j]
                            * (a2[j] - net.run_mean2[j])
                            / math.sqrt(net.run_var2[j] + 1e-5)
                            + p["be2"][j]
                        )
                    )
                    for j in range(64)
                ]
            )
            logit = float(h2 @ p["w3"][:, 0] + p["b3"][0])
            expected = 1.0 / (1.0 + math.exp(-logit / net.temperature))
            assert net.predict(x)[0] == pytest.approx(expected, abs=1e-6)

    def test_predict_follows_every_update_of_the_net(self):
        # eval mode folds batch norm on each call: an in-place write to a
        # running variance or a parameter, and a training update, all show
        net = RouterNet.init(seeds.stream("fw12"))
        f = seeds.stream("fw13").normal(size=(4, 15))
        rng = seeds.stream("fw14")
        seen = [net.predict(f)]

        def assert_predict_follows():
            rebuilt = RouterNet(params={k: v.copy() for k, v in net.params.items()},
                                run_mean1=net.run_mean1.copy(), run_var1=net.run_var1.copy(),
                                run_mean2=net.run_mean2.copy(), run_var2=net.run_var2.copy())
            after = net.predict(f)
            assert np.array_equal(after, rebuilt.predict(f))
            assert not np.array_equal(after, seen[-1])
            assert net.run_var1.flags.writeable
            seen.append(after)

        net.run_var1[:] = 3.0 * rng.random(128)  # predict left it writeable
        assert_predict_follows()
        net.params["g1"][:] = rng.random(128)
        assert_predict_follows()
        update_running_stats(net, {"mu1": rng.normal(size=128), "var1": 3.0 * rng.random(128),
                                   "mu2": rng.normal(size=64), "var2": 3.0 * rng.random(64)})
        assert_predict_follows()

    def test_rejects_non_finite(self, zero_router):
        bad = np.zeros(15)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            zero_router.predict(bad)

    def test_parameter_count_scale(self):
        net = RouterNet.init(seeds.stream("fw9"))
        assert 9_000 <= sum(v.size for v in net.params.values()) <= 12_000

    def test_checkpoint_round_trip(self, tmp_path):
        net = RouterNet.init(seeds.stream("fw10"))
        net.temperature = 1.7
        net.tau_route = 0.43
        path = tmp_path / "router.bin"
        net.save(path, extra={"stage": "train-router"})
        loaded, header = RouterNet.load(path)
        f = seeds.stream("fw11").normal(size=(4, 15))
        assert np.array_equal(loaded.predict(f), net.predict(f))
        assert header["stage"] == "train-router"
        assert loaded.tau_route == 0.43


class TestGelu:
    """The activation is the tanh form of GELU (Hendrycks & Gimpel, 2016)."""

    X = np.linspace(-6.0, 6.0, 12001)

    def test_matches_tanh_closed_form(self):
        want = [0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))
                for v in self.X]
        np.testing.assert_allclose(gelu(self.X), want, rtol=1e-15, atol=1e-15)

    def test_close_to_exact_gelu(self):
        exact = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in self.X]
        assert np.max(np.abs(gelu(self.X) - exact)) <= 5e-4

    def test_grad_matches_central_differences(self):
        h = 1e-5
        numeric = (gelu(self.X + h) - gelu(self.X - h)) / (2.0 * h)
        s = gelu_parts(self.X)[1]
        grad = gelu_grad(self.X, s, np.ones_like(self.X), np.empty_like(self.X))
        np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-7)


class TestBatchNormBackward:
    def test_matches_the_two_mean_formula(self):
        # the textbook form: xhat = ac / std, dxhat = gamma * d, then
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std
        rng = seeds.stream("bn-backward")
        for n in (2, 37, 1000):
            d, ac = rng.normal(size=(n, 128)), rng.normal(size=(n, 128))
            ac -= ac.mean(axis=0)
            std, gamma = 0.1 + rng.random(128), rng.normal(size=128)
            xhat, dxhat = ac / std, gamma * d
            want = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / std
            got = d.copy()
            dgamma, dbeta = _bn_backward(got, ac, std, gamma, np.ones(n), np.empty_like(d))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            np.testing.assert_allclose(dgamma, (d * xhat).sum(axis=0), rtol=1e-12, atol=0)
            np.testing.assert_allclose(dbeta, d.sum(axis=0), rtol=1e-12, atol=0)


_C, _A = math.sqrt(2.0 / math.pi), 0.044715


def _textbook_step(p, x, m1, m2, dlogit):
    """Train-mode forward and backward with per-row batch norm as Ioffe &
    Szegedy (2015) write it: (logit, batch means, batch variances, grads).

    It runs in long double, so that its own rounding (dw1 = x^T da sums rows
    of offsets near 1e3 against a da that sums to zero) stays far below the
    tolerance the float64 step is held to."""
    p = {k: v.astype(np.longdouble) for k, v in p.items()}
    x, dlogit = x.astype(np.longdouble), dlogit.astype(np.longdouble)
    grads, stats, saved, h = {}, {}, [], x
    for i, mask in (("1", m1), ("2", m2)):
        a = h @ p["w" + i]
        mu = a.mean(axis=0)
        var = ((a - mu) ** 2).mean(axis=0)
        std = np.sqrt(var + router.BN_EPS)
        xhat = (a - mu) / std
        z = p["g" + i] * xhat + p["be" + i]
        saved.append((h, xhat, std, z, mask))
        stats["mu" + i], stats["var" + i] = mu, var
        h = 0.5 * z * (1.0 + np.tanh(_C * (z + _A * z**3))) * mask
    logit = h @ p["w3"][:, 0] + p["b3"][0]
    grads["w3"], grads["b3"] = h.T @ dlogit[:, None], np.array([dlogit.sum()])
    dh = dlogit[:, None] * p["w3"][:, 0]
    for i, (h_in, xhat, std, z, mask) in zip(("2", "1"), saved[::-1]):
        t = np.tanh(_C * (z + _A * z**3))
        dz = dh * mask * (0.5 * (1.0 + t) + 0.5 * z * (1.0 - t * t) * _C * (1.0 + 3.0 * _A * z * z))
        grads["g" + i], grads["be" + i] = (dz * xhat).sum(axis=0), dz.sum(axis=0)
        dxhat = dz * p["g" + i]
        da = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / std
        grads["w" + i] = h_in.T @ da
        dh = da @ p["w" + i].T
    return logit, stats, grads


class TestTrainModeOracle:
    """In float64, the train-mode step, layer 1 normalized from the moments
    of its input, equals the textbook per-row batch norm.

    Each array is held to 1e-10 of its largest entry. Elementwise, an entry
    of dw1 far smaller than its array carries the rounding of the large
    input columns: against the long-double textbook the float64 per-row form
    itself errs by 2.4e-8 there, and the moment form by 2.7e-9."""

    @staticmethod
    def assert_close(got, want, name):
        want = np.asarray(want, dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), name

    def test_matches_textbook_batch_norm(self):
        rng = seeds.stream("bn-oracle")
        net = RouterNet.init(rng)
        for k in ("g1", "be1", "g2", "be2", "b3"):  # away from the identity batch norm
            net.params[k] = net.params[k] + 0.5 * rng.normal(size=net.params[k].shape)
        n = 300
        offsets = 1e3 * (1.0 + 0.1 * rng.normal(size=15))
        x = offsets + np.logspace(-2, 3, 15) * rng.normal(size=(n, 15))
        keep = rng.random((n, 192)) >= 0.2
        m1, m2 = keep[:, :128] / 0.8, keep[:, 128:] / 0.8
        dlogit = rng.normal(size=n)
        logit, stats, want = _textbook_step(net.params, x, m1, m2, dlogit)

        got_logit, cache = logits_train(net, x, (m1, m2))
        self.assert_close(got_logit, logit, "logit")
        got = router.backward(net, cache, dlogit)
        assert list(got) == ["w3", "b3", "g2", "be2", "w2", "g1", "be1", "w1"]
        for k, g in want.items():
            self.assert_close(got[k], g, k)

        before = {k: 1.0 + rng.random(128 if k.endswith("1") else 64) for k in
                  ("run_mean1", "run_var1", "run_mean2", "run_var2")}
        for k, v in before.items():
            setattr(net, k, v.copy())
        update_running_stats(net, cache)
        m = router.BN_MOMENTUM
        for i in ("1", "2"):
            for run, batch in (("run_mean", "mu"), ("run_var", "var")):
                self.assert_close(getattr(net, run + i),
                                  (1 - m) * before[run + i] + m * stats[batch + i], run + i)


class TestLosses:
    def test_route_surrogate_endpoints(self):
        assert route_surrogate(0.0, 0, CANONICAL) == pytest.approx(1.0)
        assert route_surrogate(1.0, 0, CANONICAL) == pytest.approx(50.0)
        assert route_surrogate(1.0, 1, CANONICAL) == pytest.approx(50.0)

    def test_route_surrogate_hand_value(self):
        assert route_surrogate(0.5, 1, CostSpec(1, 50, 98)) == pytest.approx(74.5)

    def test_brier_basics(self):
        assert brier(0.3, 0) == pytest.approx(0.09)
        assert brier(1.0, 1) == 0.0
        assert brier(0.5, 0) == pytest.approx(0.25)
        assert brier(0.5, 1) == pytest.approx(0.25)

    def test_brier_optimal_constant_is_label_mean(self):
        # argmin_c mean (c - y)^2 = mean(y); over 400 labels the mean is a
        # multiple of 1/400, so it lies on the 1e-4 grid
        rng = seeds.stream("brier-const")
        y = (rng.random(400) < 0.37).astype(float)
        grid = np.linspace(0.0, 1.0, 10_001)
        best = grid[np.argmin([brier(c, y).mean() for c in grid])]
        assert best == pytest.approx(y.mean(), abs=1e-12)

    def test_seed_risk_hand_arithmetic(self, zero_router):
        # the zero net predicts exactly 0.5 in train mode too
        examples = [
            RoutingExample((0.3,) * 15, 1, seed_id=0),
            RoutingExample((0.1,) * 15, 0, seed_id=0),
            RoutingExample((0.2,) * 15, 0, seed_id=1),
        ]
        # p = 0.5: base cost 0.5 + 25 = 25.5, plus kappa/2 when y = 1
        seed0, seed1 = (25.5 + 49 + 25.5) / 2, 25.5
        out = seed_objective(zero_router, examples, CostSpec(1, 50, 98), alpha=0.5)
        assert out["cvar"] == pytest.approx(seed0)  # the worse of two seeds
        assert out["mean_risk"] == pytest.approx((seed0 + seed1) / 2)
        assert out["brier"] == pytest.approx(0.25)
        assert "grads" not in out

    def test_seed_risk_duplication_invariant(self, zero_router):
        ex = RoutingExample((0.0,) * 15, 1, seed_id=0)
        other = RoutingExample((0.0,) * 15, 0, seed_id=1)
        once = seed_objective(zero_router, [ex, other], CANONICAL, alpha=0.5)
        thrice = seed_objective(zero_router, [ex, ex, ex, other], CANONICAL, alpha=0.5)
        assert once["cvar"] == pytest.approx(thrice["cvar"])
        assert once["mean_risk"] == pytest.approx(thrice["mean_risk"])


class TestCVaR:
    def test_definition_example(self):
        value, tail = cvar(list(range(1, 11)), 0.2)
        assert value == pytest.approx(9.5)
        assert tail.tolist() == [9, 8]

    def test_alpha_one_is_mean(self):
        v = [3.0, 1.0, 7.0]
        assert cvar(v, 1.0)[0] == pytest.approx(np.mean(v))

    def test_matches_rockafellar_uryasev_oracle(self):
        # RU form: min_nu nu + mean((v - nu)+) / alpha, grid + refine
        rng = seeds.stream("ru")
        v = rng.normal(size=10) * 3 + 1  # alpha * n integral for alpha = 0.3
        alpha = 0.3

        def ru(nu):
            return nu + np.mean(np.maximum(v - nu, 0.0)) / alpha

        grid = np.linspace(v.min() - 1, v.max() + 1, 20001)
        coarse = min(ru(nu) for nu in grid)
        assert cvar(v, alpha)[0] == pytest.approx(coarse, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cvar([], 0.5)

    def test_ties_go_to_lower_index(self):
        value, tail = cvar([2.0, 5.0, 5.0, 1.0, 5.0], 0.4)
        assert value == 5.0
        assert tail.tolist() == [1, 2]

    def test_monotone_in_alpha(self):
        v = seeds.stream("cv-mono").normal(size=50)
        alphas = [0.1, 0.3, 0.6, 1.0]
        vals = [cvar(v, a)[0] for a in alphas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestTrainRouter:
    def test_requires_two_seeds(self):
        rows = example_batch(n=10, n_seeds=1)
        with pytest.raises(ValueError):
            train_router(*rows, TrainSpec(epochs=1))

    def test_requires_both_labels(self):
        with pytest.raises(ValueError):
            train_router(np.zeros((9, 15)), np.ones(9), np.arange(9) % 3, TrainSpec(epochs=1))

    def test_huge_epsilon_decays_lambda(self):
        rows = example_batch(n=400, n_seeds=8)
        spec = TrainSpec(
            epochs=50,
            cvar=CVaRSpec(alpha=0.2, epsilon=1e6, lambda_init=1.0),
            batch_steps=100,
        )
        _, report = train_router(*rows, spec, seed=1)
        lams = [row["lam"] for row in report]
        assert lams[-1] < 0.2
        assert all(b <= a for a, b in zip(lams, lams[1:]))

    def test_zero_like_epsilon_grows_lambda(self):
        rows = example_batch(n=400, n_seeds=8)
        spec = TrainSpec(
            epochs=8,
            cvar=CVaRSpec(alpha=0.2, epsilon=1e-9, lambda_init=1.0),
            batch_steps=100,
        )
        _, report = train_router(*rows, spec, seed=1)
        lams = [row["lam"] for row in report]
        assert all(b > a for a, b in zip(lams[:5], lams[1:6]))

    def test_dual_feasibility_lambda_nonnegative(self):
        rows = example_batch(n=200, n_seeds=5)
        _, report = train_router(*rows, TrainSpec(epochs=6, batch_steps=64), seed=2)
        assert all(row["lam"] >= 0.0 for row in report)

    def test_deterministic_given_seed(self):
        rows = example_batch(n=200, n_seeds=5)
        net1, _ = train_router(*rows, TrainSpec(epochs=3, batch_steps=64), seed=3)
        net2, _ = train_router(*rows, TrainSpec(epochs=3, batch_steps=64), seed=3)
        f = seeds.stream("det").normal(size=(6, 15))
        assert np.array_equal(net1.predict(f), net2.predict(f))

    def test_whole_seed_batching(self):
        # every batch must contain complete seeds: verified through the
        # objective helper on a crafted two-seed batch
        x, y, sid = example_batch(n=64, n_seeds=2)
        net = RouterNet.init(seeds.stream("wsb"))
        masks = make_dropout_masks(net, len(x), seeds.stream("wsb2"))
        out = batch_objective(net, x, y, sid, 2, CANONICAL,
                              CVaRSpec(alpha=0.5), 1.0, masks)
        # alpha = 0.5 over 2 seeds: CVaR = worst seed risk
        risks = []
        logit, _ = logits_train(net, x, masks)
        p = sigmoid(logit)
        for s in (0, 1):
            sel = sid == s
            risks.append(float(np.mean(route_surrogate(p[sel], y[sel], CANONICAL))))
        assert out["cvar"] == pytest.approx(max(risks))
        assert out["mean_risk"] == pytest.approx(np.mean(risks))


class TestStepBuffers:
    """A training loop reuses one StepBuffers across steps; the results must be
    the bits that fresh arrays give, whatever batch came before."""

    @staticmethod
    def step(net, n, draw_seed, buffers=None):
        rng = seeds.stream("buffers-data", n)
        x = rng.normal(size=(n, 15))
        y = (rng.random(n) < 0.4).astype(float)
        sid = np.arange(n) % 8
        masks = make_dropout_masks(net, n, seeds.stream("buffers-masks", draw_seed), buffers)
        logit, _ = logits_train(net, x, masks, buffers)
        logit = logit.copy()  # the next call may write into the same buffers
        out = batch_objective(net, x, y, sid, 8, CANONICAL, CVaRSpec(alpha=0.25), 0.7,
                              masks, buffers=buffers)
        return logit, out

    def test_warm_step_allocates_no_batch_sized_array(self):
        net = RouterNet.init(seeds.stream("buffers-net"))
        n = 1024
        buffers = StepBuffers()
        self.step(net, n, 0, buffers)  # warm-up: the buffers reach their size
        rng = seeds.stream("buffers-data", n)
        x = rng.normal(size=(n, 15))
        y = (rng.random(n) < 0.4).astype(float)
        sid = np.arange(n) % 8
        draw = seeds.stream("buffers-masks", 1)
        tracemalloc.start()
        try:
            masks = make_dropout_masks(net, n, draw, buffers)
            batch_objective(net, x, y, sid, 8, CANONICAL, CVaRSpec(alpha=0.25), 0.7,
                            masks, buffers=buffers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 128 * 8

    def test_reused_buffers_match_fresh_across_batch_sizes(self):
        net = RouterNet.init(seeds.stream("buffers-net"))
        buffers = StepBuffers()
        for i, n in enumerate((96, 40, 96, 17)):  # large, small, large again
            logit, out = self.step(net, n, i, buffers)
            ref_logit, ref = self.step(net, n, i)
            assert logit.tobytes() == ref_logit.tobytes()
            assert out["loss"] == ref["loss"]
            assert (out["mean_risk"], out["cvar"], out["brier"]) == (
                ref["mean_risk"], ref["cvar"], ref["brier"])
            assert list(out["grads"]) == list(ref["grads"])
            for k, g in ref["grads"].items():
                assert out["grads"][k].tobytes() == g.tobytes(), k

    def test_masks_match_two_separate_draws(self):
        net = RouterNet.init(seeds.stream("buffers-net"))
        n = 2000  # enough draws that some equal the cut, which keeps its unit
        m1, m2 = make_dropout_masks(net, n, seeds.stream("buffers-draw"), StepBuffers())
        rng = seeds.stream("buffers-draw")
        cut, keep = round(net.dropout * 2**16), 1.0 - net.dropout
        for m, width in ((m1, 128), (m2, 64)):
            draw = rng.integers(0, 1 << 16, n * width, dtype=np.uint16).reshape(n, width)
            assert (draw == cut).any()
            assert np.array_equal(m, (draw >= cut) / keep)

    def test_rate_zero_keeps_every_unit(self):
        net = replace(RouterNet.init(seeds.stream("buffers-net")), dropout=0.0)
        m1, m2 = make_dropout_masks(net, 30, seeds.stream("buffers-draw"), StepBuffers(np.float32))
        assert m1.dtype == m2.dtype == np.float32
        assert (m1 == 1.0).all() and (m2 == 1.0).all()

    @pytest.mark.parametrize("rate", [0.05, 0.2, 0.5])
    def test_keep_fraction_near_one_minus_rate(self, rate):
        net = replace(RouterNet.init(seeds.stream("buffers-net")), dropout=rate)
        n = 2000
        m1, m2 = make_dropout_masks(net, n, seeds.stream("buffers-keep"), StepBuffers(np.float32))
        kept = np.concatenate([m1.ravel(), m2.ravel()])
        assert set(np.unique(kept)) == {0.0, np.float32(1.0 / (1.0 - rate))}
        sigma = math.sqrt(rate * (1.0 - rate) / kept.size)
        assert abs(np.mean(kept > 0) - (1.0 - rate)) <= 5.0 * sigma

    def test_train_router_memory_bounded_by_chunk(self):
        # 2,000 rows in chunks of at most 249: buffers sized by the data set
        # would alone take about ten (2000, 128) float32 arrays
        rows = example_batch(n=2000, n_seeds=40)
        tracemalloc.start()
        try:
            train_router(*rows, TrainSpec(epochs=2, batch_steps=200), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2000 * 128 * 4

    def test_buffers_grow_only_for_larger_batches(self):
        buffers = StepBuffers()
        big = buffers.take("a", 10, 4)
        small = buffers.take("a", 3, 4)
        assert small.shape == (3, 4) and np.shares_memory(big, small)
        assert not np.shares_memory(buffers.take("a", 11, 4), big)


class TestTrainPrecision:
    """train_router steps in TRAIN_DTYPE (float32) on copies of the float64
    master weights; the step must stand for the float64 step it replaces."""

    @staticmethod
    def rel_err(a, b):
        return np.linalg.norm(np.asarray(a, dtype=float) - b) / np.linalg.norm(b)

    def test_float32_step_matches_float64(self):
        rng = seeds.stream("precision-net")
        net = RouterNet.init(rng)
        for k in ("g1", "be1", "g2", "be2", "b3"):  # away from the identity batch norm
            net.params[k] = net.params[k] + 0.3 * rng.normal(size=net.params[k].shape)
        n = 1024
        x = rng.normal(size=(n, 15))
        y = (rng.random(n) < 0.4).astype(float)
        sid = np.arange(n) % 16
        keep = rng.random((n, 128 + 64)) >= 0.2
        masks = (keep[:, :128] / 0.8, keep[:, 128:] / 0.8)  # exact in float32 too
        masks32 = tuple(m.astype(np.float32) for m in masks)
        args = (sid, 16, CANONICAL, CVaRSpec(alpha=0.25, lambda_b=1.0), 0.7)

        ref = batch_objective(net, x, y, *args, masks)
        out = batch_objective(net, x.astype(np.float32), y, *args, masks32,
                              buffers=StepBuffers(np.float32))
        net32 = replace(net, params={k: v.astype(np.float32) for k, v in net.params.items()})
        logit32, _ = logits_train(net32, x.astype(np.float32), masks32,
                                  StepBuffers(np.float32))
        logit64, _ = logits_train(net, x, masks)
        assert logit32.dtype == np.float32
        assert self.rel_err(logit32, logit64) < 1e-4
        for k in ("loss", "mean_risk", "cvar", "brier"):
            assert abs(out[k] - ref[k]) < 1e-4 * abs(ref[k]), k
        assert list(out["grads"]) == list(ref["grads"])
        for k, g in ref["grads"].items():
            assert out["grads"][k].dtype == np.float32, k
            assert self.rel_err(out["grads"][k], g) < 1e-4, k

    def test_train_router_steps_in_float32_keeps_float64_state(self, monkeypatch):
        seen = []

        def spy(net, x, y, seed_index, n_seeds, costs, cv, lam, masks, buffers=None):
            out = batch_objective(net, x, y, seed_index, n_seeds, costs, cv, lam, masks,
                                  buffers=buffers)
            seen.append({x.dtype, *(m.dtype for m in masks),
                         *(out["cache"][k].dtype for k in ("xc", "z1", "s1", "h1", "a2", "h2")),
                         *(g.dtype for g in out["grads"].values())})
            return out

        monkeypatch.setattr(router, "batch_objective", spy)
        net, _ = train_router(*example_batch(n=300, n_seeds=6), TrainSpec(epochs=2, batch_steps=100))
        assert TRAIN_DTYPE == np.float32
        assert seen and all(dtypes == {np.dtype(np.float32)} for dtypes in seen)
        assert all(v.dtype == np.float64 for v in net.params.values())
        assert all(getattr(net, k).dtype == np.float64
                   for k in ("run_mean1", "run_var1", "run_mean2", "run_var2"))

    def test_rows_beyond_float32_refused(self):
        x, y, sid = example_batch(n=40, n_seeds=4)
        x[7, 3] = -1e39  # finite in float64, not in float32
        with pytest.raises(ValueError, match=r"float32.*row 7 \(seed 3\).*1e\+39"):
            require_trainable(x, y, sid)
        with pytest.raises(ValueError, match="row 7"):
            train_router(x, y, sid, TrainSpec(epochs=1))
        x[7, 3] = -3e38  # the largest float32 is about 3.4e38
        require_trainable(x, y, sid)


def planted_platt(name, n=20000, a=0.6, b=-1.2):
    """Logits z and labels drawn from sigmoid(a*z + b)."""
    rng = seeds.stream(name)
    z = rng.normal(0.0, 2.0, size=n)
    return z, (rng.random(n) < sigmoid(a * z + b)).astype(float)


def platt_nll(z, y, a, b):
    s = a * z + b
    return float(np.mean(np.logaddexp(0.0, s) - y * s))


class TestTemperature:
    def test_recovers_a_planted_map(self):
        a, b = fit_platt_logits(*planted_platt("platt-planted"))
        assert a == pytest.approx(0.6, abs=0.05)
        assert b == pytest.approx(-1.2, abs=0.05)

    def test_calibrated_logits_keep_unit_temperature(self):
        rng = seeds.stream("temp-cal")
        q = np.clip(rng.uniform(size=20000), 0.02, 0.98)
        logits = np.log(q / (1 - q))
        y = (rng.random(20000) < q).astype(float)
        a, b = fit_platt_logits(logits, y)
        assert a == pytest.approx(1.0, abs=0.05)
        assert b == pytest.approx(0.0, abs=0.05)

    def test_overconfident_logits_recover_scale(self):
        rng = seeds.stream("temp-over")
        q = np.clip(rng.uniform(size=20000), 0.02, 0.98)
        logits = np.log(q / (1 - q))
        y = (rng.random(20000) < q).astype(float)
        a, b = fit_platt_logits(logits * 5.0, y)
        assert abs(1.0 / a - 5.0) / 5.0 <= 0.10
        assert b == pytest.approx(0.0, abs=0.05)

    def test_fit_minimizes_the_nll_on_a_grid_around_it(self):
        z, y = planted_platt("platt-grid", n=3000)
        a, b = fit_platt_logits(z, y)
        best = platt_nll(z, y, a, b)
        for da in np.linspace(-0.2, 0.2, 9):
            for db in np.linspace(-0.2, 0.2, 9):
                assert best <= platt_nll(z, y, a + da, b + db)

    def test_degenerate_labels_warn_and_unit(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert fit_platt_logits(np.array([0.2, 0.4]), np.array([1.0, 1.0])) == (1.0, 0.0)

    @pytest.mark.parametrize("logits, labels, message", [
        ([0.3, 0.3, 0.3], [0.0, 1.0, 1.0], "degenerate"),
        ([-2.0, -1.0, 1.0, 2.0], [1.0, 1.0, 0.0, 0.0], "slope"),
    ], ids=["constant-logits", "anti-correlated"])
    def test_no_signal_keeps_the_identity_and_warns(self, logits, labels, message):
        with pytest.warns(UserWarning, match=message):
            assert fit_platt_logits(np.array(logits), np.array(labels)) == (1.0, 0.0)

    def test_fit_temperature_installs_on_net(self):
        net = RouterNet.init(seeds.stream("temp-net"))
        x = seeds.stream("temp-x").normal(size=(500, 15))
        z = net.logits_eval(x)
        y = (seeds.stream("temp-y").random(500) < sigmoid(0.5 * z - 1.0)).astype(float)
        a, b = fit_platt_logits(z, y)
        t = fit_temperature(net, x, y)
        assert net.temperature == t == pytest.approx(1.0 / a) and a > 0
        np.testing.assert_allclose(net.predict(x), sigmoid(a * z + b), rtol=0, atol=1e-12)


class TestThresholds:
    def test_bayes_interior(self):
        assert bayes_threshold(CostSpec(1, 50, 98)) == pytest.approx(0.5)

    def test_bayes_clamp_low(self):
        assert bayes_threshold(CostSpec(5, 2, 10)) == 0.0

    def test_bayes_clamp_high(self):
        assert bayes_threshold(CostSpec(1, 50, 10)) == 1.0

    def test_select_threshold_sweeps_validation_labels(self, zero_router):
        # the zero net predicts 0.5 for every row, where the Bayes cut lies:
        # the sweep escalates every row (lowest tau) when most rows fail and
        # none (lowest tau above 0.5) when few do
        x = np.zeros((4, 15))
        assert select_threshold(zero_router, x, [1, 1, 1, 0], CANONICAL) == 0.01
        assert select_threshold(zero_router, x, [1, 0, 0, 0], CANONICAL) == 0.51

    def test_sweep_matches_bayes_on_calibrated_predictions(self):
        # planted-model consistency: p = q*, sweep lands near the Bayes cut
        rng = seeds.stream("sweep-cal")
        q = np.clip(rng.uniform(size=30000), 0.05, 0.95)
        y = (rng.random(30000) < q).astype(float)
        tau = sweep_threshold(q, y, CostSpec(1, 50, 98))
        assert abs(tau - 0.5) <= 0.05

    def test_sweep_no_failure_regime(self):
        # all-zero labels with support up to just below 0.99
        p = np.concatenate([np.linspace(0.0, 0.985, 500)])
        y = np.zeros(500)
        tau = sweep_threshold(p, y, CostSpec(1, 50, 98))
        assert tau == pytest.approx(0.99)
        assert float(np.mean(p >= tau)) == 0.0

    def test_sweep_lowest_tie_break(self):
        p = np.array([0.5, 0.5, 0.5, 0.5])
        y = np.array([0.0, 0.0, 0.0, 0.0])
        # every threshold above 0.5 gives identical (zero escalation) cost
        tau = sweep_threshold(p, y, CostSpec(1, 50, 98))
        assert tau == pytest.approx(0.51)

    @pytest.mark.parametrize("escalate_when_ge", [True, False], ids=["ge", "lt"])
    @pytest.mark.parametrize("case", ["on-grid", "ties", "label-0", "label-1", "uniform"])
    def test_sweep_equals_a_loop_over_thresholds(self, case, escalate_when_ge):
        # the one-pass sweep picks the threshold a loop that costs each tau
        # alone picks, lowest tau on ties included
        rng = seeds.stream("sweep-loop", case, escalate_when_ge)
        grid = np.arange(1, 100) / 100.0
        n = 375
        if case == "on-grid":  # every value sits exactly on a threshold
            v = grid[rng.integers(0, 99, size=n)]
        elif case == "ties":  # few distinct values: whole runs of tau cost the same
            v = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
        else:
            v = rng.uniform(size=n)
        y = {"label-0": np.zeros(n), "label-1": np.ones(n)}.get(
            case, (rng.random(n) < v).astype(float))
        for costs in (CANONICAL, CostSpec(0.002, 0.1, 0.196)):
            loop = [float(np.mean(route_surrogate(
                ((v >= t) if escalate_when_ge else (v < t)).astype(float), y, costs)))
                for t in grid]
            want = float(grid[int(np.argmin(loop))])
            assert sweep_threshold(v, y, costs, escalate_when_ge) == want

    def test_sweep_below_direction_matches_grid_oracle(self):
        # escalate_when_ge=False escalates where v < tau (the heuristic baseline)
        rng = seeds.stream("sweep-dir")
        v = rng.uniform(size=400)
        y = (rng.random(400) < v).astype(float)
        tau = sweep_threshold(v, y, CANONICAL, escalate_when_ge=False)
        grid = np.arange(1, 100) / 100.0
        costs = [np.mean(route_surrogate((v < t).astype(float), y, CANONICAL)) for t in grid]
        assert tau == grid[int(np.argmin(costs))]

    def test_inclusive_comparison_at_tau_one(self, zero_router):
        from steprouter.runtime import RoutingPolicy, _decide

        # a policy scores through the snapshot of its net taken when it is
        # built, so each output bias is set before its policy is built
        zero_router.params["b3"][:] = 40.0  # sigmoid(40) rounds to exactly 1.0
        routing = RoutingPolicy("r2v", 1.0, net=zero_router)
        assert _decide(routing, np.zeros((1, 15)), [(0, 0)]) == ([1.0], [True])
        zero_router.params["b3"][:] = 13.8  # p = 0.999999
        routing = RoutingPolicy("r2v", 1.0, net=zero_router)
        [p], [escalate] = _decide(routing, np.zeros((1, 15)), [(0, 0)])
        assert p < 1.0 and escalate is False
