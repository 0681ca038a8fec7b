"""Per-user one-class Gaussian models over signature descriptors.

A user model is the mean and a shrinkage-regularized covariance of that
user's genuine training descriptors.  The score of a questioned
signature is its squared Mahalanobis distance to the mean, computed
through a Cholesky factorization (never an explicit inverse); smaller
means more similar.  Decision thresholds are calibrated from training
scores only, so no forgeries are needed to enroll a user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from ._lapack import dpotrf, dpotrs
from .descriptor import Descriptor
from .whitening import sample_covariance

# isotropic floor added to a shrunk covariance that is not positive definite
ZERO_VARIANCE_EPSILON = 1e-6
# safety margin applied on top of the largest training score
THRESHOLD_SLACK = 1.5
USER_MODEL_VERSION = 1
DEFAULT_REG = 0.9  # the shrinkage toward the isotropic covariance


@dataclass
class UserModel:
    user_id: str
    mean: np.ndarray
    covariance: np.ndarray
    reg: float
    n_train: int
    threshold: float | None = None

    def __post_init__(self):
        # derived, not a field, so dataclasses.replace factors the new covariance;
        # cho_factor's checks and potrf call, so the factor is cho_factor's bit for bit
        cov = self.covariance
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not np.isfinite(cov).all():
            raise ValueError("covariance must be a finite square matrix")
        self._factor, info = dpotrf(cov, lower=1, clean=0)
        if info:
            raise np.linalg.LinAlgError(f"covariance is not positive definite (info {info})")

    @property
    def dim(self) -> int:
        return len(self.mean)


def fit_user_model(descriptors, reg: float = DEFAULT_REG, user_id: str | None = None) -> UserModel:
    """Fit the Gaussian model from one user's genuine descriptors.

    The covariance is ``(1 - reg) * S + reg * (trace(S) / dim) * I`` with
    S the sample covariance, plus ``ZERO_VARIANCE_EPSILON * I`` when that
    is not positive definite (S identically zero, from one training
    descriptor or identical ones, or a singular S with ``reg = 0``).
    """
    if not 0 <= reg <= 1:
        raise ValueError(f"reg must lie in [0, 1], got {reg}")
    if len(descriptors) == 0:
        raise ValueError("need at least one training descriptor")
    labelled = [] if isinstance(descriptors, np.ndarray) else [  # stacked: no labels
        d for d in descriptors if isinstance(d, Descriptor)]
    if user_id is None:
        user_id = labelled[0].user_id if labelled else "anonymous"
    for d in labelled:
        if d.user_id != user_id:
            raise ValueError(f"descriptor of user {d.user_id!r} mixed into "
                             f"training set of {user_id!r}")
        if d.label != "genuine":
            raise ValueError("user models are trained on genuine signatures only")
    if labelled:
        descriptors = [d.values if isinstance(d, Descriptor) else d for d in descriptors]
    rows = np.array(descriptors, dtype=np.float64)  # a copy, centred in place
    if rows.ndim != 2 or rows.size == 0:  # n >= 1 above: size 0 is zero width
        raise ValueError(f"descriptor stack has dimension {rows.shape}, expected (n, dim)")
    if not np.all(np.isfinite(rows)):
        raise ValueError("descriptors contain non-finite values")
    n, h = rows.shape
    mean, covariance = sample_covariance(rows)
    shrink = reg * (np.trace(covariance) / h)  # (1 - reg) S + shrink I, in place
    covariance *= 1.0 - reg
    covariance += 0.0  # as with + 0 * I: a -0.0 entry (reg = 1) becomes +0.0
    covariance.flat[::h + 1] += shrink
    try:
        return UserModel(user_id=user_id, mean=mean, covariance=covariance,
                         reg=reg, n_train=n)
    except np.linalg.LinAlgError:
        return UserModel(user_id=user_id, mean=mean,
                         covariance=covariance + ZERO_VARIANCE_EPSILON * np.eye(h),
                         reg=reg, n_train=n)


def score(model: UserModel, descriptor) -> float | np.ndarray:
    """Squared Mahalanobis distance to the model: a float for one descriptor
    or vector, a float64 array for the rows of a 2-D stack.  One LAPACK
    ``potrs`` solve, with ``cho_solve``'s finiteness check, serves a stack;
    each row's score equals the one-vector ``cho_solve`` bit for bit."""
    values = descriptor.values if isinstance(descriptor, Descriptor) else descriptor
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1:] != model.mean.shape:
        raise ValueError(f"descriptor has dimension {values.shape}, "
                         f"model expects {model.mean.shape}")
    diff = np.atleast_2d(values) - model.mean
    if not np.isfinite(diff).all():
        raise ValueError("array must not contain infs or NaNs")
    solved, info = dpotrs(model._factor, diff.T, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    scores = (diff[:, None, :] @ solved.T[:, :, None])[:, 0, 0]
    if not np.isfinite(scores).all():  # e.g. a crafted model's overflowing mean
        raise ValueError(f"user model {model.user_id!r} gives a non-finite score")
    return scores if values.ndim == 2 else float(scores[0])


def calibrate_threshold(model: UserModel, train_scores) -> UserModel:
    """Set the decision threshold from genuine training scores: the largest
    score times a fixed 1.5 safety slack.  Returns the model (mutated in place).
    """
    scores = np.asarray(train_scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one training score to calibrate")
    if not np.all(np.isfinite(scores)):
        raise ValueError("training scores contain non-finite values")
    model.threshold = float(scores.max() * THRESHOLD_SLACK)
    return model


def verify(model: UserModel, descriptor) -> tuple[bool, float]:
    """Accept the descriptor iff its score is within the threshold."""
    if model.threshold is None:
        raise ValueError(f"user model {model.user_id!r} has no calibrated threshold")
    values = descriptor.values if isinstance(descriptor, Descriptor) else descriptor
    if np.ndim(values) == 2:  # one claim: score would take a stack
        raise ValueError(f"descriptor has dimension {np.shape(values)}, "
                         f"model expects {model.mean.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # score refuses a non-finite score
        s = score(model, descriptor)
    return s <= model.threshold, s


# the user model file schema (see container.read_model)
USER_MODEL_FIELDS = {
    "user_id": str,
    "reg": container.bounded(float, lambda v: 0 <= v <= 1),
    "n_train": container.bounded(int, lambda v: v >= 1),
    "threshold": container.bounded(float, lambda v: 0 <= v < np.inf),
}
USER_MODEL_SHAPES = {"covariance": ("dim", "dim"), "mean": ("dim",)}


def save_user_model(model: UserModel, path) -> None:
    """Write a calibrated model: its ``USER_MODEL_FIELDS`` and ``USER_MODEL_SHAPES``."""
    if model.threshold is None:
        raise ValueError(f"user model {model.user_id!r} has no calibrated threshold")
    meta = {"kind": "usermodel", "version": USER_MODEL_VERSION,
            **{key: getattr(model, key) for key in USER_MODEL_FIELDS}}
    container.write_container(path, meta,
                              {key: getattr(model, key) for key in USER_MODEL_SHAPES})


def load_user_model(path) -> UserModel:
    values, arrays = container.read_model(path, "usermodel", USER_MODEL_VERSION,
                                          USER_MODEL_FIELDS, USER_MODEL_SHAPES)
    try:
        return UserModel(mean=arrays["mean"], covariance=arrays["covariance"], **values)
    except ValueError:  # also np.linalg.LinAlgError
        raise container.ContainerError(
            f"{path}: covariance is not finite positive definite") from None
