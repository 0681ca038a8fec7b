import numpy as np
import pytest

from sigverify import minimize_lbfgs


def quadratic(A, b):
    def fun(x):
        return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b
    return fun


def rosenbrock(x):
    a, bb = 1.0, 100.0
    f = (a - x[0]) ** 2 + bb * (x[1] - x[0] ** 2) ** 2
    g = np.array([-2 * (a - x[0]) - 4 * bb * x[0] * (x[1] - x[0] ** 2),
                  2 * bb * (x[1] - x[0] ** 2)])
    return f, g


class TestMinimizeLbfgs:
    def test_quadratic_reaches_the_analytic_minimum(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 12))
            m = rng.standard_normal((d, d))
            A = m @ m.T + d * np.eye(d)
            b = rng.standard_normal(d)
            # near 1e-9 the verifiable decrease drops under FP noise, so
            # ask for a tolerance the line search can still certify
            res = minimize_lbfgs(quadratic(A, b), rng.standard_normal(d),
                                 grad_tol=1e-7)
            assert res.converged
            assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-6)

    def test_rosenbrock_valley(self):
        res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]),
                             max_iter=500, grad_tol=1e-8)
        assert res.converged
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
        assert res.fun < 1e-12

    def test_cost_history_is_monotone_and_complete(self):
        res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iter=500)
        assert len(res.cost_history) == res.n_iter + 1
        assert all(b <= a for a, b in zip(res.cost_history, res.cost_history[1:]))

    def test_same_start_same_trace(self):
        a = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iter=60)
        b = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iter=60)
        assert np.array_equal(a.x, b.x)
        assert a.cost_history == b.cost_history
        assert a.n_evals == b.n_evals

    def test_iteration_budget_is_respected(self):
        res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iter=3)
        assert res.n_iter == 3
        assert not res.converged

    def test_already_optimal_start_returns_immediately(self):
        A = np.eye(3)
        b = np.zeros(3)
        res = minimize_lbfgs(quadratic(A, b), np.zeros(3))
        assert res.converged and res.n_iter == 0 and res.n_evals == 1

    def test_unbounded_descent_flags_line_search_failure(self):
        def slope(x):
            return float(x[0]), np.array([1.0])

        res = minimize_lbfgs(slope, np.array([5.0]), max_iter=50)
        assert res.line_search_failed
        assert not res.converged
        assert res.fun == 5.0  # last accepted iterate is the start point

    def test_accepted_costs_never_increase_with_tiny_memory(self, rng):
        d = 8
        m = rng.standard_normal((d, d))
        A = m @ m.T + 0.5 * np.eye(d)
        b = rng.standard_normal(d)
        res = minimize_lbfgs(quadratic(A, b), rng.standard_normal(d),
                             memory=2, grad_tol=1e-7, max_iter=300)
        assert res.converged
        assert all(y <= x for x, y in zip(res.cost_history, res.cost_history[1:]))

    def test_non_finite_start_raises(self):
        def bad(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(FloatingPointError, match="start"):
            minimize_lbfgs(bad, np.zeros(2))

    def test_non_finite_region_is_stepped_around(self):
        # f explodes left of the optimum; trial points there report +inf
        def guarded(x):
            if x[0] < -1.0:
                return float("inf"), np.array([np.nan])
            return (x[0] - 2.0) ** 2, np.array([2 * (x[0] - 2.0)])

        res = minimize_lbfgs(guarded, np.array([-0.9]), grad_tol=1e-10)
        assert res.converged
        assert np.allclose(res.x, [2.0])

    def test_zero_dimensional_input_is_trivially_converged(self):
        res = minimize_lbfgs(lambda x: (0.0, np.zeros(0)), np.zeros(0))
        assert res.converged and res.n_iter == 0


class TestStrongWolfe:
    def test_accepted_steps_satisfy_both_inequalities(self, rng):
        from sigverify.optimize import C1, C2, _strong_wolfe

        for _ in range(40):
            d = int(rng.integers(1, 8))
            m = rng.standard_normal((d, d))
            A = m @ m.T + 0.2 * np.eye(d)
            b = rng.standard_normal(d)
            fun = quadratic(A, b)
            x = rng.standard_normal(d) * 3.0
            f0, g0 = fun(x)
            if np.max(np.abs(g0)) < 1e-12:
                continue
            p = -g0
            alpha, f_a, g_a, evals = _strong_wolfe(
                fun, x, f0, g0, p, alpha0=rng.uniform(0.1, 2.0), max_evals=40)
            assert alpha is not None and evals <= 40
            d0 = float(g0 @ p)
            assert f_a <= f0 + C1 * alpha * d0 + 1e-12 * abs(f0)
            assert abs(float(g_a @ p)) <= -C2 * d0 + 1e-12 * abs(d0)

    def test_non_descent_direction_is_refused(self):
        from sigverify.optimize import _strong_wolfe

        fun = quadratic(np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        f0, g0 = fun(x)
        alpha, _, _, evals = _strong_wolfe(fun, x, f0, g0, g0, 1.0, 40)
        assert alpha is None and evals == 0

    def test_trial_budget_is_enforced(self):
        from sigverify.optimize import _strong_wolfe

        evals = 0

        def slope(x):
            nonlocal evals
            evals += 1
            return float(x[0]), np.array([1.0])

        f0, g0 = float(5.0), np.array([1.0])
        alpha, _, _, used = _strong_wolfe(slope, np.array([5.0]), f0, g0,
                                          np.array([-1.0]), 1.0, 40)
        assert alpha is None
        assert used <= 40 and evals <= 40

    def test_a_decreasing_but_steep_trial_becomes_the_low_end(self):
        from sigverify.optimize import C1, C2, _strong_wolfe

        def kink(x):
            # slope -1 up to x = 1, then a steep parabola with its minimum at 1.0005
            t = max(float(x[0]) - 1.0, 0.0)
            return -float(x[0]) + 1000.0 * t * t, np.array([-1.0 + 2000.0 * t])

        x, p = np.zeros(1), np.ones(1)
        f0, g0 = kink(x)
        # alpha0 = 2 overshoots; zoom's first trial, 1, decreases enough but
        # keeps slope -1, so it must replace 0 as the bracket's low end
        alpha, f_a, g_a, evals = _strong_wolfe(kink, x, f0, g0, p, alpha0=2.0, max_evals=40)
        assert alpha == pytest.approx(1.0005) and evals <= 40
        d0 = float(g0 @ p)
        assert f_a <= f0 + C1 * alpha * d0
        assert abs(float(g_a @ p)) <= -C2 * d0
