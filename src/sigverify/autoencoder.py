"""Sparse autoencoder: sigmoid hidden layer, linear reconstruction.

The training objective over a batch of m input vectors is

    (1/m) * sum_i ||xhat_i - x_i||^2
        + weight_decay * (sum W1^2 + sum W2^2)
        + sparsity_weight * sum_j KL(sparsity_target || mean activation_j)

with KL(r || q) = r*ln(r/q) + (1-r)*ln((1-r)/(1-q)).  Biases carry no
decay.  Training is full-batch L-BFGS; everything is deterministic for a
fixed config, seed and input order.

Parameters flatten in the order: W1 row-major, b1, W2 row-major, b2.
"""

from dataclasses import dataclass, field

import numpy as np

from .optimize import minimize_lbfgs

# mean activations are kept away from {0, 1} so the KL term stays finite
RHO_CLAMP = 1e-8
# values squared at a time by _sum_squares: its one buffer is 512 KiB
SQUARE_BLOCK = 1 << 16
# fixed limit: a user model holds a hidden x hidden covariance, 32 MiB at it
MAX_HIDDEN = 2048


@dataclass(frozen=True)
class AeConfig:
    hidden: int = 64
    weight_decay: float = 3e-3
    sparsity_weight: float = 3.0
    sparsity_target: float = 0.05
    max_iter: int = 200
    memory: int = 10
    grad_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.hidden <= MAX_HIDDEN:
            raise ValueError(f"hidden must be in [1, {MAX_HIDDEN}], got {self.hidden}")
        if not 0 < self.sparsity_target < 1:
            raise ValueError("sparsity_target must lie strictly inside (0, 1)")
        for name in ("weight_decay", "sparsity_weight"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class AeParams:
    W1: np.ndarray  # (hidden, d)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (d, hidden)
    b2: np.ndarray  # (d,)

    def pack(self) -> np.ndarray:
        return np.concatenate([self.W1.ravel(), self.b1,
                               self.W2.ravel(), self.b2])

    @classmethod
    def unpack(cls, theta: np.ndarray, d: int, hidden: int) -> "AeParams":
        n1 = hidden * d
        W1 = theta[:n1].reshape(hidden, d)
        b1 = theta[n1:n1 + hidden]
        W2 = theta[n1 + hidden:n1 + hidden + n1].reshape(d, hidden)
        b2 = theta[n1 + hidden + n1:]
        return cls(W1=W1, b1=b1, W2=W2, b2=b2)


@dataclass
class AutoencoderModel:
    params: AeParams
    config: AeConfig
    final_cost: float
    n_iter: int = 0
    converged: bool = False
    line_search_failed: bool = False
    cost_history: list = field(default_factory=list)
    # L-BFGS evaluations and the final gradient's infinity norm, known
    # after training only: a model file does not store them
    n_evals: int = 0
    grad_inf: float = float("nan")

    @property
    def input_dim(self) -> int:
        return self.params.W1.shape[1]

    @property
    def hidden(self) -> int:
        return self.config.hidden


def _hidden(params: AeParams, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sigmoid(x @ W1.T + b1)``, each step in place in ``out`` (or a fresh array)."""
    a = np.matmul(x, params.W1.T, out=out)
    a += params.b1
    np.exp(np.negative(a, out=a), out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def init_params(input_dim: int, cfg: AeConfig) -> AeParams:
    """Symmetric uniform weight init, zero biases, deterministic by seed."""
    rng = np.random.default_rng(cfg.seed)
    r = np.sqrt(6.0 / (input_dim + cfg.hidden + 1.0))
    W1 = rng.uniform(-r, r, size=(cfg.hidden, input_dim))
    W2 = rng.uniform(-r, r, size=(input_dim, cfg.hidden))
    return AeParams(W1=W1, b1=np.zeros(cfg.hidden), W2=W2, b2=np.zeros(input_dim))


def forward(params: AeParams, x: np.ndarray, out=(None, None)):
    """Hidden activations and linear reconstruction.

    ``x`` is one input vector or a batch with samples as rows; the
    returned (activation, reconstruction) pair matches that shape.  Given
    ``out``, a pair of arrays of those shapes, the results are written there.
    """
    x = np.asarray(x, dtype=np.float64)
    a = _hidden(params, x, out[0])
    xhat = np.matmul(a, params.W2.T, out=out[1])
    xhat += params.b2
    return a, xhat


def kl_divergence(target: float, actual: np.ndarray) -> np.ndarray:
    """Elementwise KL(target || actual) between Bernoulli rates."""
    actual = np.clip(actual, RHO_CLAMP, 1.0 - RHO_CLAMP)
    return (target * np.log(target / actual)
            + (1.0 - target) * np.log((1.0 - target) / (1.0 - actual)))


def _batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("batch must be a non-empty 2-D array (m, d)")
    return x


def _sum_squares(r: np.ndarray, buf: np.ndarray | None = None) -> float:
    """``np.sum(np.square(r))`` bit for bit, squaring ``SQUARE_BLOCK`` values at a time.

    numpy sums a contiguous array pairwise: it halves a run of n values
    at ``n//2 - (n//2) % 8`` until a run is short.  Splitting the same way
    until a run fits the buffer and letting ``np.sum`` reduce each run
    adds the same partial sums in the same order.  ``r`` is C-contiguous.
    """
    flat = r.reshape(-1)
    n = flat.size
    if buf is None:
        buf = np.empty(min(n, SQUARE_BLOCK))
    if n <= SQUARE_BLOCK:
        return float(np.sum(np.square(flat, out=buf[:n])))
    half = n // 2 - (n // 2) % 8
    return _sum_squares(flat[:half], buf) + _sum_squares(flat[half:], buf)


def _workspace(m: int, d: int, hidden: int):
    """The (m, hidden), (m, d) and (m, hidden) arrays ``cost_grad`` works in."""
    return np.empty((m, hidden)), np.empty((m, d)), np.empty((m, hidden))


def cost_grad(params: AeParams, batch: np.ndarray, cfg: AeConfig, work=None):
    """Cost and its analytic gradient as an AeParams of the same shapes.

    ``work`` is a ``_workspace`` of the batch's shape whose contents are
    overwritten; ``train`` passes one for every evaluation, so no
    batch-sized array is allocated per call.  Without it, one is made.
    """
    x = _batch(batch)
    m = x.shape[0]
    if work is None:
        work = _workspace(m, x.shape[1], params.b1.size)
    a, resid, delta1 = work
    forward(params, x, out=(a, resid))
    resid -= x
    recon = _sum_squares(resid) / m
    decay = cfg.weight_decay * (float(np.sum(params.W1 ** 2))
                                + float(np.sum(params.W2 ** 2)))
    rho = cfg.sparsity_target
    rho_hat = np.clip(a.mean(axis=0), RHO_CLAMP, 1.0 - RHO_CLAMP)
    sparsity = cfg.sparsity_weight * float(np.sum(kl_divergence(rho, rho_hat)))

    delta2 = np.multiply(resid, 2.0 / m, out=resid)
    gW2 = delta2.T @ a + 2.0 * cfg.weight_decay * params.W2
    gb2 = delta2.sum(axis=0)
    sparse_push = (cfg.sparsity_weight / m) * (-rho / rho_hat
                                               + (1.0 - rho) / (1.0 - rho_hat))
    np.matmul(delta2, params.W2, out=delta1)
    delta1 += sparse_push
    delta1 *= a
    delta1 *= np.subtract(1.0, a, out=a)
    gW1 = delta1.T @ x + 2.0 * cfg.weight_decay * params.W1
    gb1 = delta1.sum(axis=0)
    grad = AeParams(W1=gW1, b1=gb1, W2=gW2, b2=gb2)
    return recon + decay + sparsity, grad


def train(batch: np.ndarray, cfg: AeConfig = AeConfig()) -> AutoencoderModel:
    """Fit the autoencoder to a batch of input vectors with L-BFGS."""
    x = _batch(batch)
    if not np.all(np.isfinite(x)):
        raise ValueError("training batch contains non-finite values")
    m, d = x.shape
    params0 = init_params(d, cfg)
    work = _workspace(m, d, cfg.hidden)

    def objective(theta):
        p = AeParams.unpack(theta, d, cfg.hidden)
        c, g = cost_grad(p, x, cfg, work)
        return c, g.pack()

    res = minimize_lbfgs(objective, params0.pack(), max_iter=cfg.max_iter,
                         memory=cfg.memory, grad_tol=cfg.grad_tol)
    return AutoencoderModel(params=AeParams.unpack(res.x, d, cfg.hidden),
                            config=cfg, final_cost=res.fun,
                            n_iter=res.n_iter, converged=res.converged,
                            line_search_failed=res.line_search_failed,
                            cost_history=res.cost_history, n_evals=res.n_evals,
                            grad_inf=float(np.max(np.abs(res.grad))))


def encode(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """Hidden activation vector(s) for whitened patch vector(s)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.input_dim:
        raise ValueError(f"input has dimension {x.shape[-1]}, "
                         f"model expects {model.input_dim}")
    return _hidden(model.params, x)
