import math
import tracemalloc
import warnings

import numpy as np
import pytest

from steprouter import seeds
from steprouter.domain import CostSpec, CVaRSpec, RoutingExample
from steprouter.evaluation import ece
from steprouter.router import (
    RouterNet,
    StepBuffers,
    TrainSpec,
    batch_objective,
    bayes_threshold,
    brier,
    cvar,
    fit_temperature,
    fit_temperature_logits,
    gelu,
    gelu_grad,
    gelu_parts,
    logits_train,
    make_dropout_masks,
    route_surrogate,
    select_threshold,
    sigmoid,
    sweep_threshold,
    train_router,
)

CANONICAL = CostSpec(1.0, 50.0, 98.0)


def example_batch(n=64, n_seeds=4, seed=0, p_fail=0.5):
    rng = seeds.stream("router-batch", seed)
    x = rng.normal(size=(n, 15))
    y = (rng.random(n) < p_fail).astype(int)
    y[0], y[1] = 0, 1
    return [
        RoutingExample(features=tuple(x[i]), label=int(y[i]),
                       seed_id=int(i % n_seeds), step_index=0)
        for i in range(n)
    ]


def seed_objective(net, examples, costs, alpha, want_grads=False):
    """batch_objective over whole seeds with unit dropout masks."""
    x = np.array([ex.features for ex in examples], dtype=float)
    y = np.array([ex.label for ex in examples], dtype=float)
    sid = np.array([ex.seed_id for ex in examples])
    masks = tuple(np.ones((len(x), net.params[b].size)) for b in ("b1", "b2"))
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
            a1 = np.array([x @ p["w1"][:, j] + p["b1"][j] for j in range(128)])
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
            a2 = np.array([h1 @ p["w2"][:, j] + p["b2"][j] for j in range(64)])
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
            RoutingExample((0.3,) * 15, 1, seed_id=0, step_index=0),
            RoutingExample((0.1,) * 15, 0, seed_id=0, step_index=1),
            RoutingExample((0.2,) * 15, 0, seed_id=1, step_index=0),
        ]
        # p = 0.5: base cost 0.5 + 25 = 25.5, plus kappa/2 when y = 1
        seed0, seed1 = (25.5 + 49 + 25.5) / 2, 25.5
        out = seed_objective(zero_router, examples, CostSpec(1, 50, 98), alpha=0.5)
        assert out["cvar"] == pytest.approx(seed0)  # the worse of two seeds
        assert out["mean_risk"] == pytest.approx((seed0 + seed1) / 2)
        assert out["brier"] == pytest.approx(0.25)
        assert "grads" not in out

    def test_seed_risk_duplication_invariant(self, zero_router):
        ex = RoutingExample((0.0,) * 15, 1, seed_id=0, step_index=0)
        other = RoutingExample((0.0,) * 15, 0, seed_id=1, step_index=0)
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
        examples = example_batch(n=10, n_seeds=1)
        with pytest.raises(ValueError):
            train_router(examples, TrainSpec(epochs=1))

    def test_requires_both_labels(self):
        examples = [
            RoutingExample((0.0,) * 15, 1, seed_id=i % 3, step_index=0)
            for i in range(9)
        ]
        with pytest.raises(ValueError):
            train_router(examples, TrainSpec(epochs=1))

    def test_huge_epsilon_decays_lambda(self):
        examples = example_batch(n=400, n_seeds=8)
        spec = TrainSpec(
            epochs=50,
            cvar=CVaRSpec(alpha=0.2, epsilon=1e6, lambda_init=1.0),
            batch_steps=100,
        )
        _, report = train_router(examples, spec, seed=1)
        lams = [row["lam"] for row in report]
        assert lams[-1] < 0.2
        assert all(b <= a for a, b in zip(lams, lams[1:]))

    def test_zero_like_epsilon_grows_lambda(self):
        examples = example_batch(n=400, n_seeds=8)
        spec = TrainSpec(
            epochs=8,
            cvar=CVaRSpec(alpha=0.2, epsilon=1e-9, lambda_init=1.0),
            batch_steps=100,
        )
        _, report = train_router(examples, spec, seed=1)
        lams = [row["lam"] for row in report]
        assert all(b > a for a, b in zip(lams[:5], lams[1:6]))

    def test_dual_feasibility_lambda_nonnegative(self):
        examples = example_batch(n=200, n_seeds=5)
        _, report = train_router(examples, TrainSpec(epochs=6, batch_steps=64), seed=2)
        assert all(row["lam"] >= 0.0 for row in report)

    def test_deterministic_given_seed(self):
        examples = example_batch(n=200, n_seeds=5)
        net1, _ = train_router(examples, TrainSpec(epochs=3, batch_steps=64), seed=3)
        net2, _ = train_router(examples, TrainSpec(epochs=3, batch_steps=64), seed=3)
        f = seeds.stream("det").normal(size=(6, 15))
        assert np.array_equal(net1.predict(f), net2.predict(f))

    def test_whole_seed_batching(self):
        # every batch must contain complete seeds: verified through the
        # objective helper on a crafted two-seed batch
        examples = example_batch(n=64, n_seeds=2)
        x = np.array([e.features for e in examples])
        y = np.array([e.label for e in examples], float)
        sid = np.array([e.seed_id for e in examples])
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
        m1, m2 = make_dropout_masks(net, 50, seeds.stream("buffers-draw"), StepBuffers())
        rng = seeds.stream("buffers-draw")
        keep = 1.0 - net.dropout
        assert np.array_equal(m1, (rng.random((50, 128)) >= net.dropout) / keep)
        assert np.array_equal(m2, (rng.random((50, 64)) >= net.dropout) / keep)

    def test_train_router_memory_bounded_by_chunk(self):
        # 2,000 rows in chunks of at most 249: buffers sized by the data set
        # would alone take about ten (2000, 128) float64 arrays
        examples = example_batch(n=2000, n_seeds=40)
        tracemalloc.start()
        try:
            train_router(examples, TrainSpec(epochs=2, batch_steps=200), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2000 * 128 * 8

    def test_buffers_grow_only_for_larger_batches(self):
        buffers = StepBuffers()
        big = buffers.take("a", 10, 4)
        small = buffers.take("a", 3, 4)
        assert small.shape == (3, 4) and np.shares_memory(big, small)
        assert not np.shares_memory(buffers.take("a", 11, 4), big)


class TestTemperature:
    def test_calibrated_logits_keep_unit_temperature(self):
        rng = seeds.stream("temp-cal")
        q = np.clip(rng.uniform(size=20000), 0.02, 0.98)
        logits = np.log(q / (1 - q))
        y = (rng.random(20000) < q).astype(float)
        t = fit_temperature_logits(logits, y)
        assert abs(t - 1.0) <= 0.05

    def test_overconfident_logits_recover_scale(self):
        rng = seeds.stream("temp-over")
        q = np.clip(rng.uniform(size=20000), 0.02, 0.98)
        logits = np.log(q / (1 - q))
        y = (rng.random(20000) < q).astype(float)
        t = fit_temperature_logits(logits * 5.0, y)
        assert abs(t - 5.0) / 5.0 <= 0.10

    def test_degenerate_labels_warn_and_unit(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = fit_temperature_logits(np.array([0.2, 0.4]), np.array([1.0, 1.0]))
        assert t == 1.0
        assert any("degenerate" in str(w.message) for w in caught)

    def test_ece_never_worsens_beyond_tolerance(self):
        rng = seeds.stream("temp-ece")
        for trial in range(5):
            logits = rng.normal(size=3000) * (1 + trial)
            y = (rng.random(3000) < sigmoid(logits * 0.7)).astype(float)
            t = fit_temperature_logits(logits, y)
            before = ece(sigmoid(logits), y)
            after = ece(sigmoid(logits / t), y)
            assert after <= before + 0.005

    def test_fit_temperature_installs_on_net(self):
        net = RouterNet.init(seeds.stream("temp-net"))
        x = seeds.stream("temp-x").normal(size=(500, 15))
        y = (seeds.stream("temp-y").random(500) < 0.5).astype(float)
        t = fit_temperature(net, x, y)
        assert net.temperature == t > 0


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

    def test_sweep_below_direction_matches_grid_oracle(self):
        # escalate_when_ge=False escalates where v < tau (the heuristic baseline)
        rng = seeds.stream("sweep-dir")
        v = rng.uniform(size=400)
        y = (rng.random(400) < v).astype(float)
        tau = sweep_threshold(v, y, CANONICAL, escalate_when_ge=False)
        grid = np.arange(1, 100) / 100.0
        costs = [np.mean(route_surrogate((v < t).astype(float), y, CANONICAL)) for t in grid]
        assert tau == grid[int(np.argmin(costs))]

    def test_inclusive_comparison_at_tau_one(self):
        from steprouter.runtime import router_decision

        assert router_decision(1.0, 1.0) is True
        assert router_decision(0.999999, 1.0) is False
