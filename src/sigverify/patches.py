"""Dense and randomly sampled two-channel image patches.

A patch is flattened channel-major (all pressure values row-major, then
all time values row-major) into a vector of length 2 * size * size.
"""

import functools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .preprocess import SignatureImage


@dataclass(frozen=True)
class PatchConfig:
    size: int = 10
    stride: int = 5
    train_count: int = 100_000
    skip_blank: bool = True
    blank_threshold: float = 0.0
    # total random draws allowed per requested patch before blanks are kept
    oversample_factor: int = 100

    def __post_init__(self):
        if not 1 <= self.stride <= self.size:
            raise ValueError(f"need 1 <= stride <= size, got stride={self.stride} "
                             f"size={self.size}")
        if self.train_count < 1:
            raise ValueError("train_count must be at least 1")
        if self.oversample_factor < 1:
            raise ValueError("oversample_factor must be at least 1")
        if not 0 <= self.blank_threshold < np.inf:
            raise ValueError("blank_threshold must be finite and non-negative")

    @property
    def dim(self) -> int:
        return 2 * self.size * self.size


@functools.cache
def _geometry(side: int, size: int, stride: int):
    """Read-only ``(cover, cover.T, rows, cols)`` of a square image, built once a
    shape: ``cover[w, x]`` (float64) says whether the window at offset ``stride * w``
    spans pixel x; ``rows``, ``cols`` are the grid's top-left offsets, row-major."""
    starts, pixels = np.arange(0, side - size + 1, stride), np.arange(side)
    cover = ((starts[:, None] <= pixels) & (pixels < starts[:, None] + size)).astype(np.float64)
    out = (cover, cover.T.copy(), np.repeat(starts, len(starts)), np.tile(starts, len(starts)))
    for a in out:
        a.flags.writeable = False
    return out


def _inked(image: SignatureImage, cfg: PatchConfig, stride: int) -> np.ndarray:
    """Boolean map over the top-left offsets 0, stride, 2 stride, ... on
    both axes: does the patch there have a pressure value above
    ``blank_threshold``?  (Its negation is the blank test.)  The count of
    such pixels in every patch is ``cover @ ink @ cover.T`` (see
    ``_geometry``); the counts are small integers, exact in float64."""
    cover, cover_t, _, _ = _geometry(image.side, cfg.size, stride)
    ink = ~(image.pressure <= cfg.blank_threshold)
    return cover @ ink.astype(np.float64) @ cover_t > 0


def _gather(channels, rows, cols, size: int) -> np.ndarray:
    """Patch vectors at the given top-left offsets, one per row, of the
    (pressure, time) channel pair.  Each channel's windows are the strided
    view ``sliding_window_view(channel, (size, size))`` builds, made directly."""
    parts = []
    for c in map(np.ascontiguousarray, channels):
        windows = np.ndarray((c.shape[0] - size + 1, c.shape[1] - size + 1, size, size),
                             c.dtype, c, 0, c.strides * 2)
        parts.append(windows[rows, cols].reshape(len(rows), -1))
    return np.concatenate(parts, axis=1)


def _compact(image: SignatureImage):
    """Flat indices of the pixels whose bit pattern is non-zero in either
    channel, and both channels' values there: a ``-0.0`` is kept, so
    writing the values into zeros restores the image bit for bit."""
    p, t = (np.asarray(c, dtype=np.float64).ravel() for c in (image.pressure, image.time))
    at = np.flatnonzero((p.view(np.uint64) != 0) | (t.view(np.uint64) != 0))
    return at, np.stack([p[at], t[at]])


def extract_dense(image: SignatureImage, cfg: PatchConfig) -> np.ndarray:
    """All stride-aligned patches that fit inside the image, row-major scan.

    Returns an array of shape (n_patches, 2 * size * size).  With
    ``skip_blank`` set, patches whose pressure channel never exceeds
    ``blank_threshold`` are omitted; if that removes everything, the
    single patch at (0, 0) is returned so every image yields a patch.

    The grid is the sliding-window view of each channel taken every
    ``stride`` offsets, and blank patches are dropped with one mask over
    that grid; the result is the same as scanning patch by patch.
    """
    side = image.side
    if side < cfg.size:
        raise ValueError(f"image side {side} is smaller than patch size {cfg.size}")
    *_, rows, cols = _geometry(side, cfg.size, cfg.stride)
    if cfg.skip_blank:
        keep = _inked(image, cfg, cfg.stride).ravel()
        rows, cols = (rows[keep], cols[keep]) if keep.any() else (rows[:1], cols[:1])
    return _gather((image.pressure, image.time), rows, cols, cfg.size)


def sample_training_patches(images: Iterable[SignatureImage], cfg: PatchConfig,
                            seed: int) -> np.ndarray:
    """Uniform random patches for dictionary training, rejection-sampled.

    Each draw picks an image uniformly, then a valid top-left offset
    uniformly.  Blank patches are rejected and redrawn until the total
    attempt budget (``oversample_factor`` times ``train_count``) runs
    out, after which blanks are admitted.  Deterministic given the seed.
    The images must share one side (``train_descriptor``'s do: the canvas
    is one value); a pool of mixed sides raises ``ValueError``.

    ``images`` is read once, so it may be a generator: each image is held
    dense only while its blank map and its ``_compact`` copy are taken,
    and the patches are gathered from one image at a time, written back
    into a single zeroed raster.
    One ``rng.integers`` call draws a block of (image, row, col) triples,
    the same stream as one scalar call per value, and the blank test of
    every offset is computed once, as in ``extract_dense``.  The patches
    are the same as drawing and testing one patch at a time.
    """
    pool, inked, sides = [], [], set()
    for image in images:
        sides.add(image.side)
        if cfg.skip_blank:
            inked.append(_inked(image, cfg, 1))
        pool.append(_compact(image))
    if not pool:
        raise ValueError("need at least one image to sample patches from")
    if len(sides) > 1:
        raise ValueError(f"images must share one side, got sides {sorted(sides)}")
    side = sides.pop()
    if side < cfg.size:
        raise ValueError(f"image side {side} is smaller than patch size {cfg.size}")
    offsets = side - cfg.size + 1
    inked = np.stack(inked) if cfg.skip_blank else None
    rng = np.random.default_rng(seed)
    budget = cfg.oversample_factor * cfg.train_count
    blocks, kept, attempts = [], 0, 0
    while kept < cfg.train_count:
        block = rng.integers(0, [len(pool), offsets, offsets], size=(cfg.train_count, 3))
        if cfg.skip_blank:
            attempt = attempts + np.arange(1, cfg.train_count + 1)
            block = block[inked[tuple(block.T)] | (attempt >= budget)]
        attempts += cfg.train_count
        kept += len(block)
        blocks.append(block)
    which, rows, cols = np.concatenate(blocks)[:cfg.train_count].T
    out = np.empty((cfg.train_count, cfg.dim))
    dense = np.zeros((2, side * side))  # one image at a time, zeroed after use
    for k in np.unique(which):
        sel = np.flatnonzero(which == k)
        at, values = pool[k]
        dense[:, at] = values
        out[sel] = _gather(dense.reshape(2, side, side), rows[sel], cols[sel], cfg.size)
        dense[:, at] = 0.0
    return out
