"""Trajectory preprocessing and two-channel rasterization.

A raw trajectory is turned into a fixed-size image in four steps: cubic
spline smoothing of each pen-down stroke, rotation that removes the
dominant writing orientation, extent normalization onto [0, 100] in both
axes, and rasterization onto a square canvas with a pressure channel and
a time channel.

``preprocess`` takes a ``Trajectory``, whose constructor has validated
it, and is the only function here that reads one.  The stages work on
its sample columns: equal-length float64 arrays ``x``, ``y``, ``t``
(non-decreasing) and ``pressure`` (non-negative), all finite, and a
boolean ``pen_down``.  They return columns of the same kinds and check
only what their own arithmetic can break: ``smooth`` rejects non-finite
x, y or t and a decreasing t, ``normalize_extent`` a span that overflowed
to inf or NaN, ``rasterize`` points off [0, 100].
"""

import math
from dataclasses import dataclass

import numpy as np
from ._lapack import dgtsv

# fixed limits, far above a sensible config: a raster holds 2 canvas**2 values,
# and smoothing gives spline_points_per_segment samples per input sample
MAX_CANVAS = 1024
MAX_SPLINE_POINTS = 16
# pixels ``rasterize`` walks at once; an ordinary signature is one block
PIXEL_BUDGET = 1 << 18


@dataclass(frozen=True)
class PreprocessConfig:
    canvas: int = 101
    smooth: bool = True
    spline_points_per_segment: int = 4
    cov_epsilon: float = 1e-9

    def __post_init__(self):
        if not 16 <= self.canvas <= MAX_CANVAS:
            raise ValueError(f"canvas must be in [16, {MAX_CANVAS}], got {self.canvas}")
        if not 1 <= self.spline_points_per_segment <= MAX_SPLINE_POINTS:
            raise ValueError(f"spline_points_per_segment must be in [1, {MAX_SPLINE_POINTS}]")
        if not 0 < self.cov_epsilon < math.inf:
            raise ValueError("cov_epsilon must be finite and positive")


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


@np.errstate(all="ignore")
def _natural_spline(k, v, at):
    """The natural cubic spline through strictly increasing knots ``k`` and
    one row of values ``v`` per knot, at ``at``: scipy's, bit for bit (its
    tridiagonal slope system solved by LAPACK ``gtsv`` as ``solve_banded``
    does, its Hermite cubics summed from +0.0 in ``PPoly``'s order).  An
    overflow leaves an inf or NaN coefficient, and each interval is evaluated
    at its own knot (d = 0), so it always reaches the result: ValueError."""
    dk = k[1:] - k[:-1]
    h = dk[:, None]
    dv = v[1:] - v[:-1]
    slope = dv / h
    rhs = 3 * np.concatenate((dv[:1], h[1:] * slope[:-1] + h[:-1] * slope[1:], dv[-1:]))
    rhs[-1] += 0.0  # scipy's end row adds +0.0 (its start row adds -0.0, a no-op)
    off = np.concatenate((dk[:1], dk, dk[-1:]))  # sub-diagonal off[2:], super off[:-2]
    diag = 2 * np.concatenate((dk[:1], dk[:-1] + dk[1:], dk[-1:]))
    *_, s, info = dgtsv(off[2:], diag, off[:-2], rhs)
    t = (s[:-1] + s[1:] - 2 * slope) / h
    i = np.searchsorted(k[1:-1], at, "right")  # at in [k[i], k[i + 1]), clipped to 0..n-2
    c0, c1, c2, c3 = (c[i] for c in (0.0 + v[:-1], s[:-1], (slope - s[:-1]) / h - t, t / h))
    d = (at - k[i])[:, None]
    out = c0 + c1 * d + c2 * (d * d) + c3 * (d * d * d)
    if info or not np.isfinite(out).all():
        raise ValueError("the spline overflows: its knots or values span too far")
    return out


def smooth(x, y, t, pressure, pen_down, cfg: PreprocessConfig):
    """Replace each pen-down stroke by a natural cubic spline resampling.

    For every stroke of at least 4 samples (with at least 4 distinct
    timestamps) a natural cubic spline in t is fitted to x and y (in-house,
    by ``_natural_spline``), then evaluated at the original timestamps plus
    ``spline_points_per_segment - 1`` uniformly spaced timestamps inside
    every inter-sample segment.  Pressure and pen state are linearly
    interpolated at inserted timestamps.  Pen-up samples and short strokes
    pass through unchanged.  Returns the columns ``(x, y, t, pressure,
    pen_down)``, the inputs themselves if ``cfg.smooth`` is false; raises
    ValueError for a non-finite x, y or t, a decreasing t or an overflow.

    Strokes are found from the edges of the pen flag; each stroke's
    evaluation times are built as one block with a row per segment, and
    every column is concatenated once from stroke and pass-through slices.
    """
    columns = (x, y, t, pressure, pen_down)
    if not cfg.smooth:
        return columns
    if not all(np.isfinite(col).all() for col in (x, y, t)) or np.any(t[1:] < t[:-1]):
        raise ValueError("smooth needs finite x, y and t, with t non-decreasing")
    spp = cfg.spline_points_per_segment
    inner = np.arange(1, spp)
    flags = np.zeros(len(pen_down) + 2, dtype=np.int8)
    flags[1:-1] = pen_down
    edges = np.flatnonzero(flags[1:] != flags[:-1])  # start, stop, start, stop, ...
    pieces = []  # one tuple of column slices per pass-through run or stroke
    cursor = 0
    for start, stop in zip(edges[::2], edges[1::2]):
        ts = t[start:stop]
        dt = ts[1:] - ts[:-1]
        keep = np.concatenate(([True], dt > 0))
        kept = np.count_nonzero(keep)
        if stop - start < 4 or kept < 4:
            continue  # a short stroke passes through with its neighbours
        pieces.append(tuple(col[cursor:start] for col in columns))
        cursor = stop
        xy = np.empty((kept, 2))
        xy[:, 0], xy[:, 1] = x[start:stop][keep], y[start:stop][keep]
        # row i: the inserted times of segment i (kept only when it has
        # positive length), then the sample time ts[i + 1]
        step = dt / spp
        block = np.empty((len(ts) - 1, spp))
        block[:, :-1] = ts[:-1, None] + step[:, None] * inner
        block[:, -1] = ts[1:]
        if kept < len(ts):
            mask = np.ones(block.shape, dtype=bool)
            mask[:, :-1] = keep[1:, None]
            block = block[mask]
        eval_t = np.concatenate((ts[:1], block.ravel()))
        xy_out = _natural_spline(ts[keep], xy, eval_t)
        p_out = np.interp(eval_t, ts, pressure[start:stop])
        if not np.isfinite(p_out).all():  # a slope over a subnormal time step overflows
            raise ValueError("the pressure interpolation overflows: its times lie too close")
        pieces.append((xy_out[:, 0], xy_out[:, 1], eval_t, p_out,
                       np.ones(len(eval_t), dtype=bool)))
    pieces.append(tuple(col[cursor:] for col in columns))
    return tuple(np.concatenate(col) for col in zip(*pieces))


@np.errstate(all="ignore")
def orientation_angle(x, y, cov_epsilon: float = 1e-9) -> float:
    """Dominant writing orientation from second-order point statistics.

    With variances sx2, sy2 and covariance cxy over all samples the angle
    is ``atan((sy2 - sx2 + sqrt((sy2 - sx2)^2 + 4 cxy^2)) / (2 cxy))``.
    When the covariance is negligible the axes are already principal: the
    angle is 0 if sx2 >= sy2 and pi/2 otherwise.  Moments that overflow,
    as for a spline that overshoots far beyond its samples, raise ValueError.
    """
    x = x - x.mean()
    y = y - y.mean()
    sx2 = float(np.mean(x * x))
    sy2 = float(np.mean(y * y))
    cxy = float(np.mean(x * y))
    if not np.isfinite([sx2, sy2, cxy]).all():
        raise ValueError("the second moments overflow: the samples span too far")
    if sx2 == 0.0 and sy2 == 0.0:
        raise ValueError("degenerate geometry: all samples coincide")
    if abs(cxy) < cov_epsilon * max(sx2, sy2, cov_epsilon):
        return 0.0 if sx2 >= sy2 else math.pi / 2.0
    return math.atan((sy2 - sx2 + math.hypot(sy2 - sx2, 2.0 * cxy)) / (2.0 * cxy))


def rotate(x, y, angle: float):
    """``(x, y)`` rotated by -angle about the sample centroid."""
    c, s = math.cos(angle), math.sin(angle)
    x = x - x.mean()
    y = y - y.mean()
    return x * c + y * s, -x * s + y * c


def normalize_extent(x, y):
    """``(x, y)`` with both coordinate axes mapped onto [0, 100].

    A coordinate span that is zero, or vanishingly small next to the
    other axis (as for collinear points rotated onto one axis, where only
    rounding noise remains), is rejected as degenerate; so is a span that
    is not finite, as when an earlier stage overflowed.
    """
    lo = np.array([x.min(), y.min()])
    widths = np.array([x.max(), y.max()]) - lo
    if not widths.min() > 1e-9 * widths.max():  # NaN and inf spans fail too
        raise ValueError("degenerate extent: coordinate span is zero or not finite")
    scale = 100.0 / widths
    return (x - lo[0]) * scale[0], (y - lo[1]) * scale[1]


def _walk(r0, c0, r1, c1):
    """Integer midpoint (Bresenham) walks of many segments at once.

    Takes equal-length integer arrays of end points.  Returns the flat
    ``rows`` and ``cols`` of every pixel from (r0, c0) to (r1, c1)
    inclusive, segment after segment; each segment's pixel count ``n + 1``
    with ``n = max(|dr|, |dc|)``; and per pixel its segment ``seg`` and
    step ``k`` along it.  Under the scalar rule (``err
    = dc - dr``, ``e2 = 2 err``, step columns when ``e2 >= -dr`` and rows
    when ``e2 <= dc``) the major axis moves on every step and the minor
    axis moves exactly when ``k |d| / n`` reaches the next half pixel,
    rounded half up.  So pixel k = 0..n lies at ``p0 + sign(d) * ((2 |d| k
    + n) // (2 max(n, 1)))`` on each axis, exact in int64 while n < 2**31.
    """
    r0, c0, r1, c1 = (np.asarray(v, dtype=np.int64) for v in (r0, c0, r1, c1))
    n = np.maximum(np.abs(r1 - r0), np.abs(c1 - c0))
    lengths = n + 1
    seg = np.repeat(np.arange(len(n)), lengths)
    k = np.arange(len(seg)) - (np.cumsum(lengths) - lengths)[seg]
    half, whole = n[seg], 2 * np.maximum(n[seg], 1)
    rows, cols = (p0[seg] + np.sign(d)[seg] * ((2 * np.abs(d)[seg] * k + half) // whole)
                  for p0, d in ((r0, r1 - r0), (c0, c1 - c0)))
    return rows, cols, lengths, seg, k


def rasterize(x, y, t, pressure, pen_down, cfg: PreprocessConfig) -> SignatureImage:
    """Draw normalized sample columns onto a two-channel square canvas.

    Consecutive pen-down samples are connected by integer midpoint line
    segments; pen-up gaps draw nothing.  Along a segment pressure and
    time are linearly interpolated; when strokes overlap a pixel the
    later one overwrites.  The pressure channel is normalized so its
    maximum is 1 (for any trajectory with positive pen-down pressure)
    and the time channel holds (t - t_min) / (t_max - t_min).

    Every pen-down sample i draws one walk (see ``_walk``, which walks a
    block of them at once): to sample j = i + 1 when that is pen-down too,
    else to itself, one pixel.  Pixel k of a walk with ``steps`` = max(pixels -
    1, 1) gets ``v[i] + (k / steps) (v[j] - v[i])``, so its first pixel is
    sample i's own point with its own values.  Laid end to end, the walks
    are the drawing order: point i, the pixels of segment i -> i + 1,
    point i + 1, and so on; each pixel keeps its last write in that order.
    (A segment's last pixel and the next point share a pixel and may differ
    in the last bit; the point, written later, wins.)  A walk has at most
    ``canvas`` pixels, so blocks of ``PIXEL_BUDGET // canvas`` walks, drawn
    in order, bound the memory and keep the last write across blocks.
    """
    side = cfg.canvas
    if not (x.min() >= -1e-6 and y.min() >= -1e-6 and x.max() <= 100.0 + 1e-6
            and y.max() <= 100.0 + 1e-6):  # NaN fails too
        raise ValueError("rasterize expects coordinates normalized to [0, 100]")

    scale = (side - 1) / 100.0
    cols = np.minimum(np.maximum(np.floor(x * scale + 0.5).astype(int), 0), side - 1)
    rows = np.minimum(np.maximum(np.floor((100.0 - y) * scale + 0.5).astype(int), 0), side - 1)

    t_min, t_max = float(t.min()), float(t.max())
    t_span = t_max - t_min
    tn = (t - t_min) / t_span if t_span > 0 else np.zeros(len(t))

    pen_i = np.flatnonzero(pen_down)
    pen_j = np.where(np.append(pen_down[1:], False)[pen_i], pen_i + 1, pen_i)
    image = SignatureImage(pressure=np.zeros((side, side)), time=np.zeros((side, side)))
    block = PIXEL_BUDGET // side
    for b in range(0, len(pen_i), block):
        i, j = pen_i[b:b + block], pen_j[b:b + block]
        pix_rows, pix_cols, lengths, walk, k = _walk(rows[i], cols[i], rows[j], cols[j])
        where = pix_rows * side + pix_cols
        # the last write to each pixel wins: the last of each run of a stable sort
        order = np.argsort(where, kind="stable")
        ordered = where[order]
        ends = np.ones(len(order), dtype=bool)
        ends[:-1] = ordered[1:] != ordered[:-1]
        last = order[ends]
        walk, k, where = walk[last], k[last], where[last]
        s = k / np.maximum(lengths - 1, 1)[walk]
        i, j = i[walk], j[walk]
        image.pressure.ravel()[where] = pressure[i] + s * (pressure[j] - pressure[i])
        image.time.ravel()[where] = tn[i] + s * (tn[j] - tn[i])
    peak = image.pressure.max()  # undrawn pixels are +0.0 and stay so
    if peak > 0:
        image.pressure /= peak
    return image


def preprocess(traj, cfg: PreprocessConfig = PreprocessConfig()) -> SignatureImage:
    """Full pipeline: smooth, rotate to principal orientation, normalize, draw.

    The coordinate minima are subtracted up front, which removes any
    translation of the input before floating point effects can differ
    (exactly translated inputs give bit-identical images).
    """
    x, y, t, pressure, pen_down = smooth(traj.x - traj.x.min(), traj.y - traj.y.min(),
                                         traj.t, traj.pressure, traj.pen_down, cfg)
    x, y = rotate(x, y, orientation_angle(x, y, cfg.cov_epsilon))
    x, y = normalize_extent(x, y)
    return rasterize(x, y, t, pressure, pen_down, cfg)
