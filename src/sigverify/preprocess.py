"""Trajectory preprocessing and two-channel rasterization.

A raw trajectory is turned into a fixed-size image in four steps: cubic
spline smoothing of each pen-down stroke, rotation that removes the
dominant writing orientation, extent normalization onto [0, 100] in both
axes, and rasterization onto a square canvas with a pressure channel and
a time channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .dataset import Trajectory


@dataclass
class PreprocessConfig:
    canvas: int = 101
    smooth: bool = True
    spline_points_per_segment: int = 4
    cov_epsilon: float = 1e-9

    def __post_init__(self):
        if self.canvas < 16:
            raise ValueError(f"canvas must be at least 16, got {self.canvas}")
        if self.spline_points_per_segment < 1:
            raise ValueError("spline_points_per_segment must be at least 1")
        if self.cov_epsilon <= 0:
            raise ValueError("cov_epsilon must be positive")


@dataclass
class SignatureImage:
    """Two-channel raster: pen pressure and normalized time, both in [0, 1].

    Row 0 corresponds to y = 100 (top of the signature).
    """

    pressure: np.ndarray
    time: np.ndarray

    @property
    def side(self) -> int:
        return self.pressure.shape[0]


def smooth(traj: Trajectory, cfg: PreprocessConfig) -> Trajectory:
    """Replace each pen-down stroke by a natural cubic spline resampling.

    For every stroke of at least 4 samples (with at least 4 distinct
    timestamps) a natural cubic spline in t is fitted to x and y, then
    evaluated at the original timestamps plus ``spline_points_per_segment
    - 1`` uniformly spaced timestamps inside every inter-sample segment.
    Pressure and pen state are linearly interpolated at inserted
    timestamps.  Pen-up samples and short strokes pass through unchanged.
    With ``cfg.smooth`` false the trajectory is returned as-is.

    Strokes are found from the edges of the pen flag; each stroke's
    evaluation times are built as one block with a row per segment, and
    the output is concatenated once from stroke and pass-through slices.
    """
    if not cfg.smooth:
        return traj
    spp = cfg.spline_points_per_segment
    inner = np.arange(1, spp)
    edges = np.diff(traj.pen_down.astype(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    columns = (traj.x, traj.y, traj.t, traj.pressure, traj.pen_down)
    pieces = [[] for _ in columns]

    def emit(*cols):
        for piece, col in zip(pieces, cols):
            piece.append(col)

    cursor = 0
    for start, stop in zip(starts, stops):
        t = traj.t[start:stop]
        dt = np.diff(t)
        keep = np.concatenate(([True], dt > 0))
        if stop - start < 4 or keep.sum() < 4:
            continue  # a short stroke passes through with its neighbours
        emit(*(col[cursor:start] for col in columns))
        cursor = stop
        knots = t[keep]
        xy = np.column_stack((traj.x[start:stop], traj.y[start:stop]))
        spline = CubicSpline(knots, xy[keep], bc_type="natural")
        # row i: the inserted times of segment i (kept only when it has
        # positive length), then the sample time t[i + 1]
        step = dt / spp
        block = np.empty((len(t) - 1, spp))
        block[:, :-1] = t[:-1, None] + step[:, None] * inner
        block[:, -1] = t[1:]
        mask = np.ones(block.shape, dtype=bool)
        mask[:, :-1] = keep[1:, None]
        eval_t = np.concatenate((t[:1], block[mask]))
        xy_out = spline(eval_t)
        emit(xy_out[:, 0], xy_out[:, 1], eval_t,
             np.interp(eval_t, t, traj.pressure[start:stop]),
             np.ones(len(eval_t), dtype=bool))
    emit(*(col[cursor:] for col in columns))
    return Trajectory(*(np.concatenate(piece) for piece in pieces),
                      user_id=traj.user_id, label=traj.label, source=traj.source)


def orientation_angle(traj: Trajectory, cov_epsilon: float = 1e-9) -> float:
    """Dominant writing orientation from second-order point statistics.

    With variances sx2, sy2 and covariance cxy over all samples the angle
    is ``atan((sy2 - sx2 + sqrt((sy2 - sx2)^2 + 4 cxy^2)) / (2 cxy))``.
    When the covariance is negligible the axes are already principal: the
    angle is 0 if sx2 >= sy2 and pi/2 otherwise.
    """
    x = traj.x - traj.x.mean()
    y = traj.y - traj.y.mean()
    sx2 = float(np.mean(x * x))
    sy2 = float(np.mean(y * y))
    cxy = float(np.mean(x * y))
    if sx2 == 0.0 and sy2 == 0.0:
        raise ValueError("degenerate geometry: all samples coincide")
    if abs(cxy) < cov_epsilon * max(sx2, sy2, cov_epsilon):
        return 0.0 if sx2 >= sy2 else math.pi / 2.0
    return math.atan((sy2 - sx2 + math.hypot(sy2 - sx2, 2.0 * cxy)) / (2.0 * cxy))


def rotate(traj: Trajectory, angle: float) -> Trajectory:
    """Rotate samples by -angle about the sample centroid."""
    c, s = math.cos(angle), math.sin(angle)
    x = traj.x - traj.x.mean()
    y = traj.y - traj.y.mean()
    return Trajectory(x * c + y * s, -x * s + y * c, traj.t, traj.pressure,
                      traj.pen_down, user_id=traj.user_id, label=traj.label,
                      source=traj.source)


def normalize_extent(traj: Trajectory) -> Trajectory:
    """Map both coordinate axes onto [0, 100].

    A coordinate span that is zero, or vanishingly small next to the
    other axis (as for collinear points rotated onto one axis, where only
    rounding noise remains), is rejected as degenerate.
    """
    widths = [float(traj.x.max() - traj.x.min()),
              float(traj.y.max() - traj.y.min())]
    spans = []
    for v, width in zip((traj.x, traj.y), widths):
        lo = float(v.min())
        if width <= 1e-9 * max(widths):
            raise ValueError("degenerate extent: coordinate span is zero")
        spans.append((lo, 100.0 / width))
    x = (traj.x - spans[0][0]) * spans[0][1]
    y = (traj.y - spans[1][0]) * spans[1][1]
    return Trajectory(x, y, traj.t, traj.pressure, traj.pen_down,
                      user_id=traj.user_id, label=traj.label, source=traj.source)


def _walk(r0, c0, r1, c1):
    """Integer midpoint (Bresenham) walks of many segments at once.

    Takes equal-length integer arrays of end points.  Returns the flat
    ``rows`` and ``cols`` of every pixel from (r0, c0) to (r1, c1)
    inclusive, segment after segment, and each segment's pixel count
    ``max(|r1 - r0|, |c1 - c0|) + 1``.  The loop runs over the step index
    only; segments are walked longest first, so the ones still moving are
    always a prefix, and every one follows the scalar rule ``err = dc -
    dr``, ``e2 = 2 err``, step columns when ``e2 >= -dr`` and rows when
    ``e2 <= dc``.
    """
    r0, c0, r1, c1 = (np.asarray(v, dtype=np.int64) for v in (r0, c0, r1, c1))
    dr, dc = np.abs(r1 - r0), np.abs(c1 - c0)
    lengths = np.maximum(dr, dc) + 1
    offsets = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    dr, dc, offsets = dr[order], dc[order], offsets[order]
    sr = np.where(r1 >= r0, 1, -1)[order]
    sc = np.where(c1 >= c0, 1, -1)[order]
    r, c = r0[order], c0[order]
    err = dc - dr
    # moving[k]: how many segments have a pixel k (lengths sorted descending)
    moving = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))
    rows = np.empty(int(lengths.sum()), dtype=np.int64)
    cols = np.empty_like(rows)
    neg_dr = -dr
    for k, n in enumerate(moving):
        dst = offsets[:n] + k
        rows[dst] = r[:n]
        cols[dst] = c[:n]
        e2 = 2 * err[:n]
        step_c = e2 >= neg_dr[:n]
        step_r = e2 <= dc[:n]
        err[:n] += dc[:n] * step_r + neg_dr[:n] * step_c
        c[:n] += sc[:n] * step_c
        r[:n] += sr[:n] * step_r
    return rows, cols, lengths


def _line_pixels(r0: int, c0: int, r1: int, c1: int):
    """Integer midpoint (Bresenham) walk from (r0, c0) to (r1, c1) inclusive."""
    rows, cols, _ = _walk([r0], [c0], [r1], [c1])
    return list(zip(rows.tolist(), cols.tolist()))


def rasterize(traj: Trajectory, cfg: PreprocessConfig) -> SignatureImage:
    """Draw a normalized trajectory onto a two-channel square canvas.

    Consecutive pen-down samples are connected by integer midpoint line
    segments; pen-up gaps draw nothing.  Along a segment pressure and
    time are linearly interpolated; when strokes overlap a pixel the
    later one overwrites.  The pressure channel is normalized so its
    maximum is 1 (for any trajectory with positive pen-down pressure)
    and the time channel holds (t - t_min) / (t_max - t_min).

    Every pen-down sample i draws one walk (see ``_walk``, which walks
    them all at once): to sample j = i + 1 when that is pen-down too, else
    to itself, one pixel.  Pixel k of a walk with ``steps`` = max(pixels -
    1, 1) gets ``v[i] + (k / steps) (v[j] - v[i])``, so its first pixel is
    sample i's own point with its own values.  Laid end to end, the walks
    are the drawing order: point i, the pixels of segment i -> i + 1,
    point i + 1, and so on; each pixel keeps its last write in that order.
    (A segment's last pixel and the next point share a pixel and may differ
    in the last bit; the point, written later, wins.)
    """
    side = cfg.canvas
    lo = np.array([traj.x.min(), traj.y.min()])
    hi = np.array([traj.x.max(), traj.y.max()])
    if lo.min() < -1e-6 or hi.max() > 100.0 + 1e-6:
        raise ValueError("rasterize expects coordinates normalized to [0, 100]")

    scale = (side - 1) / 100.0
    cols = np.floor(traj.x * scale + 0.5).astype(int)
    rows = np.floor((100.0 - traj.y) * scale + 0.5).astype(int)
    cols = np.clip(cols, 0, side - 1)
    rows = np.clip(rows, 0, side - 1)

    t_min, t_max = float(traj.t.min()), float(traj.t.max())
    t_span = t_max - t_min
    tn = (traj.t - t_min) / t_span if t_span > 0 else np.zeros(len(traj))

    down = traj.pen_down
    i = np.flatnonzero(down)
    j = np.where(np.append(down[1:], False)[i], i + 1, i)
    pix_rows, pix_cols, lengths = _walk(rows[i], cols[i], rows[j], cols[j])
    walk = np.repeat(np.arange(len(i)), lengths)
    k = np.arange(len(walk)) - (np.cumsum(lengths) - lengths)[walk]
    where = pix_rows * side + pix_cols
    # the last write to each pixel wins: first occurrence in reverse order
    _, from_end = np.unique(where[::-1], return_index=True)
    last = len(where) - 1 - from_end
    walk, k, where = walk[last], k[last], where[last]
    s = k / np.maximum(lengths - 1, 1)[walk]
    i, j = i[walk], j[walk]
    pressure = np.zeros((side, side))
    time = np.zeros((side, side))
    for canvas, v in ((pressure, traj.pressure), (time, tn)):
        canvas.flat[where] = v[i] + s * (v[j] - v[i])

    peak = pressure.max()
    if peak > 0:
        pressure /= peak
    return SignatureImage(pressure=pressure, time=time)


def preprocess(traj: Trajectory, cfg: PreprocessConfig | None = None) -> SignatureImage:
    """Full pipeline: smooth, rotate to principal orientation, normalize, draw.

    The coordinate minima are subtracted up front, which removes any
    translation of the input before floating point effects can differ
    (exactly translated inputs give bit-identical images).
    """
    if cfg is None:
        cfg = PreprocessConfig()
    traj = Trajectory(traj.x - traj.x.min(), traj.y - traj.y.min(), traj.t,
                      traj.pressure, traj.pen_down, user_id=traj.user_id,
                      label=traj.label, source=traj.source)
    traj = smooth(traj, cfg)
    traj = rotate(traj, orientation_angle(traj, cfg.cov_epsilon))
    traj = normalize_extent(traj)
    return rasterize(traj, cfg)
