"""Limited-memory BFGS minimization with a strong-Wolfe line search.

Deterministic full-batch minimizer: given the same objective, start
point and options, it performs exactly the same sequence of steps.  The
objective callable must return ``(cost, gradient)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

# Wolfe constants: sufficient decrease and curvature.
C1 = 1e-4
C2 = 0.9
# trial evaluations a line search may spend before the run stops
MAX_LINE_STEPS = 40


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    grad: np.ndarray
    n_iter: int
    n_evals: int
    converged: bool
    line_search_failed: bool
    cost_history: list = field(default_factory=list)


def _strong_wolfe(fun, x, f0, g0, p, alpha0, max_evals):
    """Find a step length satisfying the strong Wolfe conditions.

    Bracketing plus zoom (safeguarded quadratic interpolation with
    bisection fallback).  Returns (alpha, f, g, n_evals) or
    (None, None, None, n_evals) when no acceptable step was found within
    ``max_evals`` trial evaluations.
    """
    d0 = float(g0 @ p)
    if d0 >= 0:
        return None, None, None, 0
    evals = 0

    def phi(a):
        nonlocal evals
        evals += 1
        f, g = fun(x + a * p)
        d = float(g @ p)
        if not np.isfinite(f):
            f, d = np.inf, np.nan
        return f, g, d

    def zoom(lo, f_lo, d_lo, hi, f_hi):
        nonlocal evals
        while evals < max_evals:
            span = hi - lo
            # quadratic fit through (lo, f_lo, d_lo) and (hi, f_hi)
            denom = f_hi - f_lo - d_lo * span
            a = lo - 0.5 * d_lo * span * span / denom if denom != 0 else np.nan
            left, right = (lo, hi) if lo < hi else (hi, lo)
            margin = 0.1 * abs(span)
            if not np.isfinite(a) or a < left + margin or a > right - margin:
                a = 0.5 * (lo + hi)
            f, g, d = phi(a)
            if f > f0 + C1 * a * d0 or f >= f_lo:
                hi, f_hi = a, f
            else:
                if abs(d) <= -C2 * d0:
                    return a, f, g
                if d * span >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = a, f, d
            if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
                break
        return None, None, None

    alpha_prev, f_prev, d_prev = 0.0, f0, d0
    alpha = alpha0
    first = True
    while evals < max_evals:
        f, g, d = phi(alpha)
        if f > f0 + C1 * alpha * d0 or (not first and f >= f_prev):
            a, fz, gz = zoom(alpha_prev, f_prev, d_prev, alpha, f)
            return a, fz, gz, evals
        if abs(d) <= -C2 * d0:
            return alpha, f, g, evals
        if d >= 0:
            a, fz, gz = zoom(alpha, f, d, alpha_prev, f_prev)
            return a, fz, gz, evals
        alpha_prev, f_prev, d_prev = alpha, f, d
        alpha *= 2.0
        first = False
    return None, None, None, evals


def minimize_lbfgs(fun, x0, max_iter=200, memory=10, grad_tol=1e-5) -> MinimizeResult:
    """Minimize ``fun(x) -> (cost, grad)`` starting from ``x0``.

    Stops after ``max_iter`` accepted iterations or once the gradient
    infinity norm drops to ``grad_tol``.  A line search that cannot find
    a strong-Wolfe step within ``MAX_LINE_STEPS`` trial evaluations stops
    the run and flags ``line_search_failed``; the last accepted iterate
    is returned.  Accepted costs are strictly non-increasing.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise FloatingPointError("objective is non-finite at the start point")
    n_evals = 1
    history = [float(f)]
    pairs = deque(maxlen=memory)  # (s, y, 1 / (s @ y)), oldest first
    line_search_failed = False
    n_iter = 0

    while n_iter < max_iter:
        g_inf = float(np.max(np.abs(g))) if g.size else 0.0
        if g_inf <= grad_tol:
            break

        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= float(s @ y) / float(y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        p = -q
        if float(g @ p) >= 0:
            # numerical breakdown of the quasi-Newton model: restart
            pairs.clear()
            p = -g

        alpha0 = 1.0 if pairs or n_iter > 0 else min(1.0, 1.0 / max(g_inf, 1e-8))
        alpha, f_new, g_new, evals = _strong_wolfe(fun, x, f, g, p, alpha0,
                                                   MAX_LINE_STEPS)
        n_evals += evals
        if alpha is None:
            line_search_failed = True
            break
        if not np.all(np.isfinite(g_new)):
            raise FloatingPointError("gradient is non-finite at an accepted step")

        s = alpha * p
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
        x = x + s
        f, g = f_new, g_new
        history.append(float(f))
        n_iter += 1

    converged = bool(g.size == 0 or float(np.max(np.abs(g))) <= grad_tol)
    return MinimizeResult(x=x, fun=float(f), grad=g, n_iter=n_iter,
                          n_evals=n_evals, converged=converged,
                          line_search_failed=line_search_failed,
                          cost_history=history)
