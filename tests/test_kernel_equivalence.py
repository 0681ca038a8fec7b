"""The array kernels of the describe path agree exactly with scalar loops.

``reference_pipeline`` keeps the per-sample and per-pixel loops that the
kernels replaced.  Every property here requires bit-identical output:
``np.array_equal`` (and equal dtype) for the sample columns, images,
pixel walks and patch matrices.
"""

import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_pipeline as ref
from sigverify import (PatchConfig, PreprocessConfig, SignatureImage, Trajectory,
                       extract_dense, generate_synthetic_corpus, normalize_extent,
                       orientation_angle, preprocess, rasterize, rotate,
                       sample_training_patches, smooth)
from sigverify.patches import _geometry
from sigverify.preprocess import _walk

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# a few repeated values make single-pixel segments, crossings and ties common
COORD = st.sampled_from([0.0, 0.3, 25.0, 50.0, 50.2, 100.0]) | st.floats(0.0, 100.0)
STEP = st.sampled_from([0.0, 0.0, 0.5, 1.0]) | st.floats(0.01, 5.0)
PRESSURE = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)


@st.composite
def pen_flags(draw, n):
    """Alternating pen-down / pen-up runs, long and short."""
    flags = []
    down = draw(st.booleans())
    while len(flags) < n:
        flags += [down] * draw(st.integers(1, 12))
        down = not down
    return np.array(flags[:n])


@st.composite
def trajectories(draw, max_len=48):
    """Coordinates in [0, 100], repeated timestamps, pen-up gaps."""
    n = draw(st.integers(2, max_len))
    x = draw(arrays(np.float64, n, elements=COORD))
    y = draw(arrays(np.float64, n, elements=COORD))
    t = np.concatenate(([0.0], np.cumsum(draw(arrays(np.float64, n - 1,
                                                       elements=STEP)))))
    p = draw(arrays(np.float64, n, elements=PRESSURE))
    return Trajectory(x, y, t, p, draw(pen_flags(n)), user_id="u")


def columns(tr):
    return tr.x, tr.y, tr.t, tr.pressure, tr.pen_down


def assert_columns_equal(got, want: Trajectory):
    for a, b in zip(got, columns(want), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_images_equal(a: SignatureImage, b: SignatureImage):
    assert np.array_equal(a.pressure, b.pressure)
    assert np.array_equal(a.time, b.time)


def assert_patches_equal(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


class TestSmooth:
    @SETTINGS
    @given(st.data(), trajectories(), st.integers(1, 6), st.booleans(), st.integers(-3, 3))
    def test_matches_the_scalar_resampling(self, data, traj, spp, enabled, k):
        # per-sample signs make negative values and zeros of both signs
        signs = data.draw(arrays(np.float64, 2 * len(traj), elements=st.sampled_from(
            [1.0, -1.0])))
        x, y = (traj.x, traj.y) * signs.reshape(2, -1) * 10.0**k
        traj = Trajectory(x, y, traj.t, traj.pressure, traj.pen_down)
        cfg = PreprocessConfig(smooth=enabled, spline_points_per_segment=spp)
        got, want = smooth(*columns(traj), cfg), ref.smooth(traj, cfg)
        assert_columns_equal(got, want)
        for a, b in zip(got[:4], columns(want)[:4]):
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_a_negative_zero_sample_comes_out_as_the_oracle_gives_it(self):
        # CubicSpline sums each cubic from +0.0, so this -0.0 leaves as +0.0
        t = np.arange(4.0)
        traj = Trajectory(-np.array([0.0, 1, 2, 1]), t, t, np.ones(4), np.ones(4, bool))
        got = smooth(*columns(traj), PreprocessConfig())
        assert_columns_equal(got, ref.smooth(traj, PreprocessConfig()))
        assert got[0][0] == 0.0 and not np.signbit(got[0][0])

    def test_shared_boundary_times_and_repeated_tail_do_not_warn(self):
        # stroke 1 ends at t=3, a pen-up sample sits at t=3 and stroke 2
        # starts there; stroke 2 repeats its last timestamp twice
        pen = np.array([True] * 4 + [False] + [True] * 7)
        t = np.array([0, 1, 2, 3, 3, 3, 4, 5, 6, 7, 7, 7], float)
        traj = Trajectory(t**2 / 7, np.cos(t), t, np.linspace(0.2, 1, 12), pen)
        cfg = PreprocessConfig(spline_points_per_segment=3)
        want = ref.smooth(traj, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = smooth(*columns(traj), cfg)
        assert_columns_equal(got, want)

    def test_short_strokes_and_repeated_times_between_long_ones(self):
        # strokes of 1, 3 and 9 samples; the 9-sample one repeats timestamps
        pen = np.array([True] + [False] + [True] * 3 + [False] * 2 + [True] * 9)
        t = np.array([0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 8, 9, 9, 10, 11, 12], float)
        traj = Trajectory(np.sin(t), np.cos(t), t, np.linspace(0, 1, 16), pen)
        cfg = PreprocessConfig()
        assert_columns_equal(smooth(*columns(traj), cfg), ref.smooth(traj, cfg))


class TestRasterize:
    @SETTINGS
    @given(trajectories(), st.integers(16, 101))
    def test_matches_the_scalar_raster(self, traj, canvas):
        cfg = PreprocessConfig(canvas=canvas)
        assert_images_equal(rasterize(*columns(traj), cfg), ref.rasterize(traj, cfg))

    @SETTINGS
    @given(trajectories(), st.integers(16, 101), st.integers(1, 8))
    def test_blocks_of_walks_match_the_scalar_raster(self, traj, canvas, walks):
        # PIXEL_BUDGET patched down to a block of `walks` walks, down to one:
        # the last write to a pixel still wins across blocks, byte for byte
        cfg = PreprocessConfig(canvas=canvas)
        whole = rasterize(*columns(traj), cfg)
        with mock.patch.object(sys.modules["sigverify.preprocess"], "PIXEL_BUDGET",
                               walks * canvas):
            blocked = rasterize(*columns(traj), cfg)
        assert_images_equal(blocked, ref.rasterize(traj, cfg))
        for a, b in ((blocked.pressure, whole.pressure), (blocked.time, whole.time)):
            assert a.tobytes() == b.tobytes()

    def test_all_pen_up_draws_nothing(self):
        traj = Trajectory([0.0, 100.0], [0.0, 100.0], [0.0, 1.0], [1.0, 1.0],
                          [False, False])
        cfg = PreprocessConfig()
        img = rasterize(*columns(traj), cfg)
        assert_images_equal(img, ref.rasterize(traj, cfg))
        assert not img.pressure.any()

    @pytest.mark.parametrize("canvas", [16, 101])
    @pytest.mark.parametrize("pen", [[0] * 7, [0, 0, 0, 1, 0, 0, 0]])
    def test_an_empty_walk_and_a_lone_point_match_the_scalar_raster(self, pen, canvas):
        rng = np.random.default_rng(len(pen) + canvas)
        traj = Trajectory(rng.uniform(0, 100, 7), rng.uniform(0, 100, 7), np.arange(7.0),
                          rng.uniform(0.1, 1, 7), np.array(pen, dtype=bool))
        cfg = PreprocessConfig(canvas=canvas)
        img = rasterize(*columns(traj), cfg)
        assert_images_equal(img, ref.rasterize(traj, cfg))
        assert np.count_nonzero(img.pressure) == sum(pen)


class TestWalk:
    ENDS = st.integers(0, 150)

    @SETTINGS
    @given(ENDS, ENDS, ENDS, ENDS)
    @example(5, 5, 5, 5)  # a single-pixel segment
    def test_one_segment_matches_the_scalar_walk(self, r0, c0, r1, c1):
        rows, cols, *_ = _walk([r0], [c0], [r1], [c1])
        assert list(zip(rows.tolist(), cols.tolist())) == ref.line_pixels(r0, c0, r1, c1)

    @SETTINGS
    @given(st.lists(st.tuples(ENDS, ENDS, ENDS, ENDS), max_size=30))
    def test_many_segments_walk_as_one_each(self, segments):
        ends = np.array(segments, dtype=np.int64).reshape(-1, 4)
        rows, cols, lengths, _, _ = _walk(*ends.T)
        expect = [p for seg in segments for p in ref.line_pixels(*seg)]
        assert list(zip(rows.tolist(), cols.tolist())) == expect
        assert lengths.tolist() == [len(ref.line_pixels(*seg)) for seg in segments]

    @SETTINGS
    @given(st.lists(st.tuples(ENDS, ENDS, ENDS, ENDS), max_size=30))
    def test_each_pixel_knows_its_segment_and_step(self, segments):
        ends = np.array(segments, dtype=np.int64).reshape(-1, 4)
        _, _, lengths, seg, k = _walk(*ends.T)
        assert seg.tolist() == [s for s, n in enumerate(lengths.tolist()) for _ in range(n)]
        assert k.tolist() == [step for n in lengths.tolist() for step in range(n)]


@st.composite
def images(draw, min_side, max_side=24):
    side = draw(st.integers(min_side, max_side))
    ink = st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.1, 0.25, 0.5, 1.0])
    pressure = draw(arrays(np.float64, (side, side), elements=ink))
    time = draw(arrays(np.float64, (side, side), elements=st.floats(0.0, 1.0)))
    return SignatureImage(pressure=pressure, time=time)


@st.composite
def signed_images(draw, side):
    """Images of zeros of both signs and sparse ink; some are blank."""
    zero = st.sampled_from([0.0, -0.0])
    ink = zero if draw(st.booleans()) else zero | st.sampled_from([0.1, 0.25, 0.5, 1.0])
    pressure = draw(arrays(np.float64, (side, side), elements=ink))
    time = draw(arrays(np.float64, (side, side), elements=zero | st.floats(0.0, 1.0)))
    return SignatureImage(pressure=pressure, time=time)


@st.composite
def patch_configs(draw, max_size=8):
    size = draw(st.integers(1, max_size))
    return PatchConfig(size=size, stride=draw(st.integers(1, size)),
                       skip_blank=draw(st.booleans()),
                       blank_threshold=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 2.0])),
                       train_count=draw(st.integers(1, 60)),
                       oversample_factor=draw(st.integers(1, 5)))


class TestExtractDense:
    @SETTINGS
    @given(st.data())
    def test_matches_the_scalar_scan(self, data):
        cfg = data.draw(patch_configs())
        image = data.draw(images(cfg.size))
        assert_patches_equal(extract_dense(image, cfg), ref.extract_dense(image, cfg))

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_all_blank_image_gives_the_origin_patch(self, threshold):
        rng = np.random.default_rng(3)
        pressure = np.zeros((13, 13)) if threshold == 0.0 else rng.uniform(0, 1, (13, 13))
        image = SignatureImage(pressure=pressure, time=rng.uniform(size=(13, 13)))
        cfg = PatchConfig(size=4, stride=3, blank_threshold=threshold)
        out = extract_dense(image, cfg)
        assert_patches_equal(out, ref.extract_dense(image, cfg))
        assert out.shape == (1, 32)


class TestPatchGeometry:
    def test_each_shape_gets_its_own_geometry(self):
        """Two canvas sizes and two strides in turn, twice: a geometry cached
        under too short a key would give one shape the other's windows."""
        rng = np.random.default_rng(11)
        images = {side: SignatureImage(
            pressure=rng.uniform(size=(side, side)) * (rng.uniform(size=(side, side)) < 0.1),
            time=rng.uniform(size=(side, side))) for side in (17, 23)}
        for _ in range(2):
            for side, image in images.items():
                for stride in (2, 3):
                    cfg = PatchConfig(size=5, stride=stride, train_count=40)
                    assert_patches_equal(extract_dense(image, cfg),
                                         ref.extract_dense(image, cfg))
                    assert_patches_equal(sample_training_patches([image], cfg, seed=side),
                                         ref.sample_training_patches([image], cfg, seed=side))

    def test_the_cached_geometry_is_read_only(self):
        for a in _geometry(17, 5, 2):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


class TestSampleTrainingPatches:
    @SETTINGS
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_matches_the_scalar_sampler(self, data, seed):
        cfg = data.draw(patch_configs())
        side = data.draw(st.integers(cfg.size, 16))
        pool = data.draw(st.lists(images(side, max_side=side), min_size=1, max_size=4))
        assert_patches_equal(sample_training_patches(pool, cfg, seed),
                             ref.sample_training_patches(pool, cfg, seed))

    @SETTINGS
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_a_one_shot_generator_gives_the_list_form_bit_for_bit(self, data, seed):
        cfg = data.draw(patch_configs())
        side = data.draw(st.integers(cfg.size, 16))
        pool = data.draw(st.lists(signed_images(side), min_size=1, max_size=4))
        got = sample_training_patches((image for image in pool), cfg, seed)
        for want in (sample_training_patches(pool, cfg, seed),
                     ref.sample_training_patches(pool, cfg, seed)):
            assert_patches_equal(got, want)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_an_exhausted_budget_admits_negative_zero_blanks(self):
        blank = SignatureImage(pressure=np.full((12, 12), -0.0), time=np.zeros((12, 12)))
        cfg = PatchConfig(size=4, stride=2, train_count=30, oversample_factor=2)
        got = sample_training_patches((image for image in [blank, blank]), cfg, seed=1)
        want = ref.sample_training_patches([blank, blank], cfg, seed=1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.signbit(got[:, :16]).all()

    def test_an_empty_generator_raises(self):
        with pytest.raises(ValueError, match="need at least one image"):
            sample_training_patches(iter(()), PatchConfig(), seed=0)

    def test_a_pool_of_mixed_sides_raises(self):
        pool = [SignatureImage(pressure=np.ones((n, n)), time=np.zeros((n, n)))
                for n in (12, 10, 12)]
        with pytest.raises(ValueError, match=r"share one side, got sides \[10, 12\]"):
            sample_training_patches(pool, PatchConfig(size=4, stride=2), seed=0)


def test_full_preprocess_matches_the_scalar_pipeline():
    corpus = generate_synthetic_corpus(seed=71, n_users=3, n_genuine=3, n_forgery=2)
    cfg, patch_cfg = PreprocessConfig(), PatchConfig()
    for tr in corpus.all_trajectories():
        moved = Trajectory(tr.x - tr.x.min(), tr.y - tr.y.min(), tr.t, tr.pressure,
                           tr.pen_down, user_id=tr.user_id)
        smoothed = ref.smooth(moved, cfg)
        x, y = rotate(smoothed.x, smoothed.y, orientation_angle(smoothed.x, smoothed.y))
        expect = ref.rasterize(Trajectory(*normalize_extent(x, y), smoothed.t,
                                          smoothed.pressure, smoothed.pen_down), cfg)
        got = preprocess(tr, cfg)
        assert_images_equal(got, expect)
        assert_patches_equal(extract_dense(got, patch_cfg),
                             ref.extract_dense(expect, patch_cfg))
