"""Scalar reference implementations of the parse, describe and evaluation paths.

These are the per-line signature file parsers that ``sigverify.dataset``
once ran, the per-sample and per-pixel loops that ``sigverify.preprocess``
and ``sigverify.patches`` once ran, the ``np.cov`` whitening fit and
per-column eigenvector sign fix of ``sigverify.whitening``, the ``np.cov``
and ``cho_factor`` user-model fit of ``sigverify.oneclass`` and the
per-descriptor scoring loop, the ``np.unique`` ROC curve and the per-row
``scores.csv`` renderer of ``sigverify.evaluation``.
The library computes the same results with one table reader, array
kernels, in-place centring and direct LAPACK calls; the property tests
in ``test_parse_equivalence.py``, ``test_kernel_equivalence.py``,
``test_whitening.py`` and ``test_batched_scoring.py`` require both to
agree exactly.  Test-only: nothing in ``src`` imports this.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import cho_factor, cho_solve

from sigverify import (GENUINE, ParseError, PatchConfig, PreprocessConfig, SignatureImage,
                       Trajectory, WhitenConfig)
from sigverify.dataset import MAX_COORDINATE, MAX_TIMESTAMP
from sigverify.evaluation import _user_rng
from sigverify.oneclass import ZERO_VARIANCE_EPSILON


def _check_limits(x, y, t, lineno):
    """The sample limits, checked before the pressure rule as the library does."""
    if max(abs(x), abs(y)) > MAX_COORDINATE or abs(t) > MAX_TIMESTAMP:
        raise ParseError(f"line {lineno}: beyond the sample limits")


def _parse_float(token, lineno):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric field {token!r}") from None


def parse_svc2004(text, user_id="anonymous", label=GENUINE, source="") -> Trajectory:
    """SVC2004 file; line numbers count non-blank lines only."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("line 1: empty file")
    try:
        declared = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise ParseError(f"line 1: malformed sample count {lines[0]!r}") from None
    if declared < 2:
        raise ParseError(f"line 1: sample count must be at least 2, got {declared}")
    if len(lines) - 1 != declared:
        raise ParseError(
            f"line 1: declared {declared} samples but file has {len(lines) - 1} data lines")
    samples = []
    for i, ln in enumerate(lines[1:], start=2):
        fields = ln.split()
        if len(fields) != 7:
            raise ParseError(f"line {i}: expected 7 fields, got {len(fields)}")
        vals = [_parse_float(f, i) for f in fields]
        x, y, t, button, _azimuth, _altitude, pressure = vals
        _check_limits(x, y, t, i)
        if pressure < 0:
            raise ParseError(f"line {i}: negative pressure {pressure}")
        samples.append((x, y, t, pressure, button != 0))
    for i in range(1, len(samples)):
        if samples[i][2] < samples[i - 1][2]:
            raise ParseError(f"line {i + 2}: timestamp decreases")
    return Trajectory(*zip(*samples), user_id=user_id, label=label, source=source)


def parse_canonical(text, user_id="anonymous", label=GENUINE, source="") -> Trajectory:
    """Canonical file; line numbers count non-blank lines only."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("line 1: empty file")
    if lines[0].split() != ["x", "y", "t", "p", "d"]:
        raise ParseError(f"line 1: expected header 'x y t p d', got {lines[0]!r}")
    samples = []
    for i, ln in enumerate(lines[1:], start=2):
        fields = ln.split()
        if len(fields) != 5:
            raise ParseError(f"line {i}: expected 5 fields, got {len(fields)}")
        x = _parse_float(fields[0], i)
        y = _parse_float(fields[1], i)
        t = _parse_float(fields[2], i)
        p = _parse_float(fields[3], i)
        if fields[4] not in ("0", "1"):
            raise ParseError(f"line {i}: pen-down flag must be 0 or 1, got {fields[4]!r}")
        _check_limits(x, y, t, i)
        if p < 0:
            raise ParseError(f"line {i}: negative pressure {p}")
        samples.append((x, y, t, p, fields[4] == "1"))
    if len(samples) < 2:
        raise ParseError(f"line {len(lines)}: need at least 2 samples, got {len(samples)}")
    for i in range(1, len(samples)):
        if samples[i][2] < samples[i - 1][2]:
            raise ParseError(f"line {i + 2}: timestamp decreases")
    return Trajectory(*zip(*samples), user_id=user_id, label=label, source=source)


def _pen_down_runs(pen_down: np.ndarray):
    """Yield (start, stop) index ranges of maximal pen-down runs."""
    n = len(pen_down)
    i = 0
    while i < n:
        if pen_down[i]:
            j = i
            while j < n and pen_down[j]:
                j += 1
            yield i, j
            i = j
        else:
            i += 1


def smooth(traj: Trajectory, cfg: PreprocessConfig) -> Trajectory:
    if not cfg.smooth:
        return traj
    spp = cfg.spline_points_per_segment
    out_x, out_y, out_t, out_p, out_d = [], [], [], [], []

    def passthrough(i):
        out_x.append(traj.x[i])
        out_y.append(traj.y[i])
        out_t.append(traj.t[i])
        out_p.append(traj.pressure[i])
        out_d.append(traj.pen_down[i])

    cursor = 0
    for start, stop in _pen_down_runs(traj.pen_down):
        for i in range(cursor, start):
            passthrough(i)
        cursor = stop
        t = traj.t[start:stop]
        keep = np.concatenate(([True], np.diff(t) > 0))
        if stop - start < 4 or keep.sum() < 4:
            for i in range(start, stop):
                passthrough(i)
            continue
        knots = t[keep]
        sx = CubicSpline(knots, traj.x[start:stop][keep], bc_type="natural")
        sy = CubicSpline(knots, traj.y[start:stop][keep], bc_type="natural")
        eval_t = [t[0]]
        for i in range(len(t) - 1):
            if t[i + 1] > t[i]:
                step = (t[i + 1] - t[i]) / spp
                eval_t.extend(t[i] + step * np.arange(1, spp))
            eval_t.append(t[i + 1])
        eval_t = np.asarray(eval_t)
        out_x.extend(sx(eval_t))
        out_y.extend(sy(eval_t))
        out_t.extend(eval_t)
        out_p.extend(np.interp(eval_t, t, traj.pressure[start:stop]))
        out_d.extend([True] * len(eval_t))
    for i in range(cursor, len(traj)):
        passthrough(i)
    return Trajectory(out_x, out_y, out_t, out_p, out_d,
                      user_id=traj.user_id, label=traj.label, source=traj.source)


def line_pixels(r0: int, c0: int, r1: int, c1: int):
    """Integer midpoint (Bresenham) walk from (r0, c0) to (r1, c1) inclusive."""
    pixels = []
    dr = abs(r1 - r0)
    dc = abs(c1 - c0)
    sr = 1 if r1 >= r0 else -1
    sc = 1 if c1 >= c0 else -1
    err = dc - dr
    r, c = r0, c0
    while True:
        pixels.append((r, c))
        if r == r1 and c == c1:
            break
        e2 = 2 * err
        if e2 >= -dr:
            err -= dr
            c += sc
        if e2 <= dc:
            err += dc
            r += sr
    return pixels


def rasterize(traj: Trajectory, cfg: PreprocessConfig) -> SignatureImage:
    side = cfg.canvas
    lo = np.array([traj.x.min(), traj.y.min()])
    hi = np.array([traj.x.max(), traj.y.max()])
    if lo.min() < -1e-6 or hi.max() > 100.0 + 1e-6:
        raise ValueError("rasterize expects coordinates normalized to [0, 100]")
    pressure = np.zeros((side, side))
    time = np.zeros((side, side))

    scale = (side - 1) / 100.0
    cols = np.floor(traj.x * scale + 0.5).astype(int)
    rows = np.floor((100.0 - traj.y) * scale + 0.5).astype(int)
    cols = np.clip(cols, 0, side - 1)
    rows = np.clip(rows, 0, side - 1)

    t_min, t_max = float(traj.t.min()), float(traj.t.max())
    t_span = t_max - t_min
    tn = (traj.t - t_min) / t_span if t_span > 0 else np.zeros(len(traj))
    press = np.where(traj.pen_down, traj.pressure, 0.0)

    def draw_segment(i, j):
        pix = line_pixels(rows[i], cols[i], rows[j], cols[j])
        steps = max(len(pix) - 1, 1)
        for idx, (r, c) in enumerate(pix):
            s = idx / steps
            pressure[r, c] = press[i] + s * (press[j] - press[i])
            time[r, c] = tn[i] + s * (tn[j] - tn[i])

    for i in range(len(traj)):
        if not traj.pen_down[i]:
            continue
        pressure[rows[i], cols[i]] = press[i]
        time[rows[i], cols[i]] = tn[i]
        if i + 1 < len(traj) and traj.pen_down[i + 1]:
            draw_segment(i, i + 1)

    peak = pressure.max()
    if peak > 0:
        pressure /= peak
    return SignatureImage(pressure=pressure, time=time)


def _patch_vector(image: SignatureImage, r: int, c: int, size: int) -> np.ndarray:
    p = image.pressure[r:r + size, c:c + size]
    t = image.time[r:r + size, c:c + size]
    return np.concatenate([p.ravel(), t.ravel()])


def _is_blank(image: SignatureImage, r: int, c: int, cfg: PatchConfig) -> bool:
    return bool(np.all(image.pressure[r:r + cfg.size, c:c + cfg.size]
                       <= cfg.blank_threshold))


def extract_dense(image: SignatureImage, cfg: PatchConfig) -> np.ndarray:
    side = image.side
    if side < cfg.size:
        raise ValueError(f"image side {side} is smaller than patch size {cfg.size}")
    out = []
    for r in range(0, side - cfg.size + 1, cfg.stride):
        for c in range(0, side - cfg.size + 1, cfg.stride):
            if cfg.skip_blank and _is_blank(image, r, c, cfg):
                continue
            out.append(_patch_vector(image, r, c, cfg.size))
    if not out:
        out.append(_patch_vector(image, 0, 0, cfg.size))
    return np.asarray(out)


def sample_training_patches(images: list[SignatureImage], cfg: PatchConfig,
                            seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    budget = cfg.oversample_factor * cfg.train_count
    attempts = 0
    out = []
    while len(out) < cfg.train_count:
        attempts += 1
        im = images[int(rng.integers(len(images)))]
        r = int(rng.integers(im.side - cfg.size + 1))
        c = int(rng.integers(im.side - cfg.size + 1))
        if cfg.skip_blank and attempts < budget and _is_blank(im, r, c, cfg):
            continue
        out.append(_patch_vector(im, r, c, cfg.size))
    return np.asarray(out)


def fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first nonzero component is positive,
    one column at a time."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def fit_whitening(patches: np.ndarray, cfg: WhitenConfig):
    """(mean, basis, eigenvalues) of the whitening fit on ``np.cov``, which
    centres a copy of the patches with its own mean."""
    mean = patches.mean(axis=0)
    cov = np.atleast_2d(np.cov(patches, rowvar=False))
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = fix_eigenvector_signs(eigvecs[:, order])
    k = len(eigvals)
    if cfg.mode == "pca":
        mass = np.cumsum(eigvals)
        k = min(int(np.searchsorted(mass, cfg.retained_variance * float(eigvals.sum())) + 1), k)
    basis = (1.0 / np.sqrt(eigvals[:k] + cfg.epsilon))[:, None] * eigvecs[:, :k].T
    if cfg.mode == "zca":
        basis = eigvecs[:, :k] @ basis
    return mean, basis, eigvals[:k]


def fit_user_model(train, reg: float) -> SimpleNamespace:
    """The user model's mean, covariance and lower Cholesky ``_factor``, fitted
    with ``np.cov`` and ``cho_factor``."""
    x = np.asarray(train, dtype=np.float64)
    n, h = x.shape
    sample_cov = np.zeros((h, h)) if n == 1 else np.atleast_2d(np.cov(x, rowvar=False))
    if not sample_cov.any():
        covariance = ZERO_VARIANCE_EPSILON * np.eye(h)
    else:
        covariance = ((1.0 - reg) * sample_cov
                      + reg * (np.trace(sample_cov) / h) * np.eye(h))
    try:
        chol = cho_factor(covariance, lower=True)
    except np.linalg.LinAlgError:
        covariance = covariance + ZERO_VARIANCE_EPSILON * np.eye(h)
        chol = cho_factor(covariance, lower=True)
    return SimpleNamespace(mean=x.mean(axis=0), covariance=covariance, _factor=chol[0])


def score(model, values) -> float:
    """Squared Mahalanobis distance of one descriptor: one solve per vector."""
    diff = np.asarray(values, dtype=np.float64) - model.mean
    return float(diff @ cho_solve((model._factor, True), diff))


def split_protocol(corpus, fold: int, k: int, seed: int) -> dict:
    """uid -> (train, test, skilled, random) trajectory lists of one fold."""
    splits = {}
    for uid in corpus.user_ids():
        genuine = corpus.users[uid].genuine
        if len(genuine) < k:
            continue
        order = _user_rng(seed, uid).permutation(len(genuine))
        sizes = [len(genuine) // k + (1 if b < len(genuine) % k else 0)
                 for b in range(k)]
        blocks, at = [], 0
        for size in sizes:
            blocks.append([genuine[i] for i in order[at:at + size]])
            at += size
        test = [t for b, block in enumerate(blocks) if b != fold for t in block]
        splits[uid] = (blocks[fold], test, list(corpus.users[uid].skilled_forgeries),
                       [t for other in corpus.user_ids() if other != uid
                        for t in corpus.users[other].genuine])
    return splits


def run_experiment_rows(corpus, model, k: int, reg: float, seed: int,
                        describe_fn) -> list:
    """(user, fold, label, score) rows of the k-fold protocol, one score per call."""
    genuine_desc, skilled_desc = {}, {}
    for uid in corpus.user_ids():
        genuine_desc[uid] = [describe_fn(t, model) for t in corpus.users[uid].genuine]
        skilled_desc[uid] = [describe_fn(t, model)
                             for t in corpus.users[uid].skilled_forgeries]
    index_of = {uid: {id(t): i for i, t in enumerate(corpus.users[uid].genuine)}
                for uid in corpus.user_ids()}

    def genuine_of(t, uid):
        return genuine_desc[uid][index_of[uid][id(t)]].values

    rows = []
    for fold in range(k):
        for uid, (train, test, skilled, random) in sorted(
                split_protocol(corpus, fold, k, seed).items()):
            user_model = fit_user_model([genuine_of(t, uid) for t in train], reg)
            rows += [(uid, fold, "genuine", score(user_model, genuine_of(t, uid)))
                     for t in test]
            rows += [(uid, fold, "skilled", score(user_model, skilled_desc[uid][i].values))
                     for i in range(len(skilled))]
            rows += [(uid, fold, "random", score(user_model, genuine_of(t, t.user_id)))
                     for t in random]
    return rows


def roc(genuine, forgery) -> tuple:
    """(far, frr, thresholds) of the midpoint ROC curve, from ``np.unique``
    of the pooled scores and fresh sorts of each side."""
    pooled = np.unique(np.concatenate([genuine, forgery]))
    mids = (pooled[:-1] + pooled[1:]) / 2.0
    thresholds = np.concatenate([[pooled[0] - 1.0], mids, [pooled[-1] + 1.0]])
    accepted_genuine = np.searchsorted(np.sort(genuine), thresholds, side="right")
    accepted_forgery = np.searchsorted(np.sort(forgery), thresholds, side="right")
    frr = (len(genuine) - accepted_genuine) / len(genuine)
    return accepted_forgery / len(forgery), frr, thresholds


def scores_csv_rows(rows) -> str:
    """``scores.csv`` text of (user, fold, label, score) rows, one f-string each."""
    lines = ["user_id,fold,label,score"]
    for uid, fold, label, s in rows:
        lines.append(f"{uid},{fold},{label},{s!r}")
    return "\n".join(lines) + "\n"
