import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigverify import (AeConfig, AeParams, cost_grad, encode, forward, init_params,
                       kl_divergence, train)
from sigverify.autoencoder import SQUARE_BLOCK, AutoencoderModel, _sum_squares, _workspace


def fd_gradient(params, batch, cfg, h=1e-6):
    """Central finite differences of the cost in packed coordinates."""
    theta = params.pack()
    d = batch.shape[1]
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        out[i] = (cost_grad(AeParams.unpack(up, d, cfg.hidden), batch, cfg)[0]
                  - cost_grad(AeParams.unpack(down, d, cfg.hidden), batch, cfg)[0]) / (2 * h)
    return out


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


class TestKlDivergence:
    def test_reference_value(self):
        expect = 0.05 * math.log(0.05 / 0.5) + 0.95 * math.log(0.95 / 0.5)
        assert kl_divergence(0.05, np.array([0.5]))[0] == pytest.approx(expect)
        assert kl_divergence(0.05, np.array([0.5]))[0] == pytest.approx(0.4946, abs=1e-3)

    def test_zero_at_the_target(self):
        for rho in (0.05, 0.3, 0.9):
            assert kl_divergence(rho, np.array([rho]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_positive_away_from_the_target(self, rng):
        for _ in range(50):
            rho = rng.uniform(0.01, 0.99)
            q = rng.uniform(0.01, 0.99)
            if abs(q - rho) < 1e-3:
                continue
            assert kl_divergence(rho, np.array([q]))[0] > 0.0

    def test_extreme_activations_stay_finite(self):
        out = kl_divergence(0.05, np.array([0.0, 1.0, 1e-300]))
        assert np.all(np.isfinite(out))


class TestParamsAndInit:
    def test_pack_unpack_round_trip(self, rng):
        d, h = 7, 3
        p = AeParams(W1=rng.normal(size=(h, d)), b1=rng.normal(size=h),
                     W2=rng.normal(size=(d, h)), b2=rng.normal(size=d))
        q = AeParams.unpack(p.pack(), d, h)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(p, name), getattr(q, name))

    def test_packed_layout_is_w1_b1_w2_b2(self):
        d, h = 2, 1
        p = AeParams(W1=np.array([[1.0, 2.0]]), b1=np.array([3.0]),
                     W2=np.array([[4.0], [5.0]]), b2=np.array([6.0, 7.0]))
        assert p.pack().tolist() == [1, 2, 3, 4, 5, 6, 7]

    def test_init_bounds_and_zero_biases(self):
        cfg = AeConfig(hidden=5, seed=3)
        p = init_params(12, cfg)
        r = math.sqrt(6.0 / (12 + 5 + 1))
        for w in (p.W1, p.W2):
            assert np.all(np.abs(w) <= r)
        assert not p.b1.any() and not p.b2.any()

    def test_init_is_deterministic_per_seed(self):
        a = init_params(6, AeConfig(hidden=4, seed=9))
        b = init_params(6, AeConfig(hidden=4, seed=9))
        c = init_params(6, AeConfig(hidden=4, seed=10))
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
        assert not np.array_equal(a.W1, c.W1)

    def test_config_validation(self):
        for bad in (dict(hidden=0), dict(sparsity_target=0.0),
                    dict(sparsity_target=1.0), dict(weight_decay=-1.0),
                    dict(sparsity_weight=-1.0), dict(max_iter=-1),
                    dict(memory=0), dict(grad_tol=0.0)):
            with pytest.raises(ValueError):
                AeConfig(**bad)


class TestForwardAndCost:
    def test_hidden_activations_are_sigmoid_bounded(self, rng):
        cfg = AeConfig(hidden=4, seed=0)
        p = init_params(6, cfg)
        a, xhat = forward(p, rng.normal(size=(10, 6)))
        assert a.shape == (10, 4) and xhat.shape == (10, 6)
        assert np.all(a > 0.0) and np.all(a < 1.0)

    def test_single_vector_matches_batch_row(self, rng):
        cfg = AeConfig(hidden=3, seed=1)
        p = init_params(5, cfg)
        x = rng.normal(size=(4, 5))
        a_batch, r_batch = forward(p, x)
        for i in range(4):
            a_one, r_one = forward(p, x[i])
            assert np.allclose(a_one, a_batch[i])
            assert np.allclose(r_one, r_batch[i])

    def test_plain_reconstruction_cost_without_penalties(self, rng):
        cfg = AeConfig(hidden=3, weight_decay=0.0, sparsity_weight=0.0, seed=2)
        p = init_params(5, cfg)
        x = rng.normal(size=(8, 5))
        _, xhat = forward(p, x)
        expect = float(np.sum((xhat - x) ** 2)) / 8
        assert cost_grad(p, x, cfg)[0] == pytest.approx(expect, rel=1e-12)

    def test_weight_decay_skips_biases(self, rng):
        cfg0 = AeConfig(hidden=3, weight_decay=0.0, sparsity_weight=0.0)
        cfg1 = AeConfig(hidden=3, weight_decay=0.5, sparsity_weight=0.0)
        p = init_params(4, cfg0)
        p.b1 += 100.0  # enormous biases must not change the decay term
        x = np.random.default_rng(0).normal(size=(6, 4))
        gap = cost_grad(p, x, cfg1)[0] - cost_grad(p, x, cfg0)[0]
        expect = 0.5 * (np.sum(p.W1 ** 2) + np.sum(p.W2 ** 2))
        assert gap == pytest.approx(expect, rel=1e-12)

    def test_cost_grad_agrees_with_cost(self, rng):
        cfg = AeConfig(hidden=4, seed=5)
        p = init_params(6, cfg)
        x = rng.normal(size=(9, 6))
        # the cost is reconstruction + weight decay + sparsity, from the plain formulas
        a, xhat = forward(p, x)
        expect = (float(np.sum((xhat - x) ** 2)) / 9
                  + cfg.weight_decay * (np.sum(p.W1 ** 2) + np.sum(p.W2 ** 2))
                  + cfg.sparsity_weight * np.sum(kl_divergence(cfg.sparsity_target,
                                                               a.mean(axis=0))))
        c, _ = cost_grad(p, x, cfg)
        assert c == pytest.approx(expect, rel=1e-14)

    # 20,000 x 151 is the whitened training batch of the benchmark's descriptor:
    # its residual spans several SQUARE_BLOCK runs of the blockwise sum
    @pytest.mark.parametrize("m, d, hidden", [(40, 7, 5), (20_000, 151, 8)])
    def test_in_place_passes_equal_the_plain_formulas_bit_for_bit(self, rng, m, d, hidden):
        cfg = AeConfig(hidden=hidden, seed=6)
        p = init_params(d, cfg)
        p.b1[:], p.b2[:] = rng.normal(size=hidden), rng.normal(size=d)
        x = rng.normal(size=(m, d)) * 3
        a = 1.0 / (1.0 + np.exp(-(x @ p.W1.T + p.b1)))
        xhat = a @ p.W2.T + p.b2
        resid = xhat - x
        rho_hat = np.clip(a.mean(axis=0), 1e-8, 1.0 - 1e-8)
        push = (cfg.sparsity_weight / m) * (-cfg.sparsity_target / rho_hat
                                            + (1.0 - cfg.sparsity_target) / (1.0 - rho_hat))
        delta2 = (2.0 / m) * resid
        delta1 = (delta2 @ p.W2 + push) * a * (1.0 - a)
        want = (delta1.T @ x + 2.0 * cfg.weight_decay * p.W1, delta1.sum(axis=0),
                delta2.T @ a + 2.0 * cfg.weight_decay * p.W2, delta2.sum(axis=0))
        c, grad = cost_grad(p, x, cfg)
        assert c == (float(np.sum(resid ** 2)) / m
                     + cfg.weight_decay * (float(np.sum(p.W1 ** 2)) + float(np.sum(p.W2 ** 2)))
                     + cfg.sparsity_weight * float(np.sum(kl_divergence(cfg.sparsity_target,
                                                                        rho_hat))))
        for got, expect in zip((grad.W1, grad.b1, grad.W2, grad.b2), want, strict=True):
            assert np.array_equal(got, expect)
        assert all(np.array_equal(g, w) for g, w in zip(forward(p, x), (a, xhat)))
        model = AutoencoderModel(params=p, config=cfg, final_cost=0.0)
        assert np.array_equal(encode(model, x[3]),
                              1.0 / (1.0 + np.exp(-(x[3] @ p.W1.T + p.b1))))


    def test_a_reused_workspace_gives_the_fresh_results(self, rng):
        m, d, cfg = 30, 7, AeConfig(hidden=5, seed=2)
        x = rng.normal(size=(m, d))
        theta = init_params(d, cfg).pack()
        params = [AeParams.unpack(theta + 0.1 * k * rng.normal(size=theta.size), d, cfg.hidden)
                  for k in range(3)]
        work = _workspace(m, d, cfg.hidden)
        reused = [cost_grad(p, x, cfg, work) for p in params]
        for p, (c, grad) in zip(params, reused, strict=True):
            want_c, want = cost_grad(p, x, cfg)
            assert c == want_c
            for name in ("W1", "b1", "W2", "b2"):
                assert np.array_equal(getattr(grad, name), getattr(want, name))


class TestSumSquares:
    """The blockwise reconstruction sum is numpy's pairwise sum, bit for bit."""

    # element counts below, at and just above one block, several blocks long,
    # and not multiples of 8, so every split rule of the pairwise sum is met
    SIZES = st.one_of(st.integers(1, 300),
                      st.integers(SQUARE_BLOCK - 20, SQUARE_BLOCK + 20),
                      st.integers(2 * SQUARE_BLOCK - 9, 5 * SQUARE_BLOCK + 9))

    @settings(max_examples=60, deadline=None)
    @given(n=SIZES, cols=st.sampled_from([1, 3, 8, 151]), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-150, 1e-3, 1.0, 7.0, 1e150]))
    @example(n=SQUARE_BLOCK, cols=1, seed=0, scale=1.0)
    @example(n=SQUARE_BLOCK + 1, cols=1, seed=0, scale=1.0)
    @example(n=3 * SQUARE_BLOCK + 5, cols=1, seed=0, scale=1.0)
    def test_equals_numpy_sum_of_squares(self, n, cols, seed, scale):
        rows = max(1, n // cols)
        r = np.random.default_rng(seed).normal(size=(rows, cols)) * scale
        assert _sum_squares(r) == float(np.sum(np.square(r)))

    def test_zero_and_non_finite_values(self):
        r = np.zeros((3, SQUARE_BLOCK))
        assert _sum_squares(r) == 0.0
        r[2, 7] = np.inf
        assert _sum_squares(r) == np.inf
        r[0, 0] = np.nan
        assert np.isnan(_sum_squares(r))


class TestGradient:
    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(12):
            d = int(rng.integers(2, 9))
            h = int(rng.integers(1, 6))
            m = int(rng.integers(1, 11))
            cfg = AeConfig(hidden=h,
                           weight_decay=float(rng.uniform(0, 0.01)),
                           sparsity_weight=float(rng.uniform(0, 4.0)),
                           sparsity_target=float(rng.uniform(0.02, 0.3)),
                           seed=int(rng.integers(1000)))
            p = init_params(d, cfg)
            x = rng.normal(size=(m, d))
            _, grad = cost_grad(p, x, cfg)
            numeric = fd_gradient(p, x, cfg)
            assert relative_error(grad.pack(), numeric) <= 1e-6


class TestTrain:
    def test_training_reduces_cost_and_is_deterministic(self, rng):
        x = rng.normal(size=(60, 12))
        cfg = AeConfig(hidden=5, max_iter=30, seed=4)
        a = train(x, cfg)
        b = train(x, cfg)
        assert a.final_cost < a.cost_history[0]
        assert a.cost_history == b.cost_history
        assert np.array_equal(a.params.pack(), b.params.pack())
        assert a.input_dim == 12 and a.hidden == 5
        assert a.n_iter <= 30

    def test_cost_history_matches_final_cost(self, rng):
        x = rng.normal(size=(40, 8))
        model = train(x, AeConfig(hidden=3, max_iter=20, seed=1))
        assert model.cost_history[-1] == model.final_cost
        assert all(b <= a for a, b in zip(model.cost_history,
                                          model.cost_history[1:]))

    def test_rejects_non_finite_batch(self):
        x = np.ones((5, 4))
        x[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            train(x, AeConfig(hidden=2))

    def test_encode_shapes_and_range(self, rng):
        x = rng.normal(size=(30, 6))
        model = train(x, AeConfig(hidden=4, max_iter=15, seed=0))
        one = encode(model, x[0])
        many = encode(model, x[:7])
        assert one.shape == (4,) and many.shape == (7, 4)
        assert np.all(many > 0) and np.all(many < 1)

    def test_encode_rejects_wrong_dimension(self, rng):
        model = train(rng.normal(size=(20, 6)), AeConfig(hidden=3, max_iter=5))
        with pytest.raises(ValueError, match="dimension"):
            encode(model, np.ones(7))

    def test_sparsity_pressure_lowers_mean_activation(self, rng):
        x = rng.normal(size=(80, 10))
        loose = train(x, AeConfig(hidden=6, sparsity_weight=0.0, max_iter=60,
                                  seed=2))
        tight = train(x, AeConfig(hidden=6, sparsity_weight=5.0,
                                  sparsity_target=0.05, max_iter=60, seed=2))
        rho_loose = encode(loose, x).mean()
        rho_tight = encode(tight, x).mean()
        assert rho_tight < rho_loose
        assert rho_tight < 0.25  # pushed well toward the sparsity target
