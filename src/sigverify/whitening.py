"""PCA / ZCA whitening of patch vectors.

The transform is fitted by eigendecomposition of the sample covariance.
In ``pca`` mode the smallest number of leading components whose
eigenvalue mass reaches ``retained_variance`` is kept and the output is
the decorrelated, variance-equalized projection.  In ``zca`` mode the
full spectrum is used and the whitened vector is rotated back into the
input coordinate system, so dimension is preserved.
"""

from dataclasses import dataclass

import numpy as np

MODES = ("pca", "zca")


@dataclass(frozen=True)
class WhitenConfig:
    epsilon: float = 0.01
    retained_variance: float = 0.99
    mode: str = "pca"

    def __post_init__(self):
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and non-negative")
        if not 0 < self.retained_variance <= 1:
            raise ValueError("retained_variance must be in (0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class WhiteningTransform:
    mean: np.ndarray
    basis: np.ndarray          # (d_kept, d); rows already include 1/sqrt(eig + eps)
    eigenvalues: np.ndarray    # kept spectrum, descending
    config: WhitenConfig
    full_rank_input: bool = True

    @property
    def input_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[0]


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first nonzero component is positive."""
    out = vectors.copy()  # C order: the basis's layout picks its BLAS kernel
    magnitude = np.abs(out)
    nonzero = magnitude > 1e-12 * np.maximum(magnitude.max(axis=0), 1e-300)
    first = out[nonzero.argmax(axis=0), np.arange(out.shape[1])]
    flip = nonzero.any(axis=0) & (first < 0)
    out[:, flip] = -out[:, flip]
    return out


def fit_whitening(patches: np.ndarray,
                  cfg: WhitenConfig = WhitenConfig()) -> WhiteningTransform:
    """Fit a whitening transform to an (n, d) array of patch vectors.

    Fewer than d + 1 patches leave the covariance rank deficient; the
    transform records that as ``full_rank_input=False``.  ``patches`` is
    left unchanged."""
    return _fit_centring(np.array(patches, dtype=np.float64), cfg)


def sample_covariance(rows: np.ndarray):
    """(mean, covariance) of a float64 array's rows, which it centres in place:
    ``np.cov(rows, rowvar=False)`` bit for bit, by its arithmetic without its two
    copies of the rows.  One row gives zeros (divisor 1, where np.cov divides by 0)."""
    mean = rows.mean(axis=0)
    centred = np.subtract(rows, mean, out=rows).T
    cov = np.dot(centred, centred.T)
    cov *= np.true_divide(1, max(len(rows) - 1, 1))
    return mean, cov


def _fit_centring(patches: np.ndarray, cfg: WhitenConfig) -> WhiteningTransform:
    """``fit_whitening`` on a float64 array that it centres in place."""
    if patches.ndim != 2:
        raise ValueError("patches must be a 2-D array (n, d)")
    n, d = patches.shape
    if n < 2:
        raise ValueError(f"need at least 2 patches to fit whitening, got {n}")
    if not np.all(np.isfinite(patches)):
        raise ValueError("patches contain non-finite values")
    full_rank_input = n >= d + 1
    mean, cov = sample_covariance(patches)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = _fix_eigenvector_signs(eigvecs[:, order])

    total = float(eigvals.sum())
    if cfg.mode == "zca":
        k = d
    else:
        mass = np.cumsum(eigvals)
        k = int(np.searchsorted(mass, cfg.retained_variance * total) + 1)
        k = min(k, d)
    kept_vals = eigvals[:k]
    scaling = 1.0 / np.sqrt(kept_vals + cfg.epsilon)
    basis = scaling[:, None] * eigvecs[:, :k].T
    if cfg.mode == "zca":
        basis = eigvecs[:, :k] @ basis
    return WhiteningTransform(mean=mean, basis=basis, eigenvalues=kept_vals,
                              config=cfg, full_rank_input=full_rank_input)


def apply_whitening(transform: WhiteningTransform, patch: np.ndarray) -> np.ndarray:
    """Whiten one patch vector, or a batch given as rows of a 2-D array."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.shape[-1] != transform.input_dim:
        raise ValueError(f"patch has dimension {patch.shape[-1]}, "
                         f"transform expects {transform.input_dim}")
    return (patch - transform.mean) @ transform.basis.T
