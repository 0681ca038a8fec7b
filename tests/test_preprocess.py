import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sigverify import (PreprocessConfig, Trajectory, describe, generate_synthetic_corpus,
                       normalize_extent, orientation_angle, preprocess, rasterize,
                       rotate, smooth)
from sigverify.dataset import MAX_COORDINATE, MAX_TIMESTAMP
from sigverify.preprocess import _walk

import reference_pipeline as ref


def traj_from_xy(x, y, t=None, pressure=None, pen_down=None, **meta):
    n = len(x)
    return Trajectory(x, y,
                      np.arange(n, dtype=float) if t is None else t,
                      np.ones(n) if pressure is None else pressure,
                      np.ones(n, bool) if pen_down is None else pen_down, **meta)


def columns(tr):
    return tr.x, tr.y, tr.t, tr.pressure, tr.pen_down


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sample_columns(draw):
    """Columns for a Trajectory: x, y and t within the sample limits or anywhere
    in the finite range, t sorted, pressures any non-negative float."""
    n = draw(st.integers(2, 12))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    coordinate = st.sampled_from([st.floats(-MAX_COORDINATE, MAX_COORDINATE), FINITE])
    x, y = (column(draw(coordinate)) for _ in "xy")
    t = sorted(column(draw(st.sampled_from([st.floats(-MAX_TIMESTAMP, MAX_TIMESTAMP),
                                            FINITE]))))
    return x, y, t, column(st.floats(0.0, allow_infinity=False)), column(st.booleans())


class TestOrientationAngle:
    def test_diagonal_line_is_quarter_turn(self):
        tr = traj_from_xy(np.arange(10.0), np.arange(10.0))
        assert abs(orientation_angle(tr.x, tr.y) - math.pi / 4) <= 1e-9

    def test_horizontal_spread_is_zero(self):
        tr = traj_from_xy(np.arange(10.0), np.zeros(10))
        assert orientation_angle(tr.x, tr.y) == 0.0

    def test_vertical_spread_is_half_pi(self):
        tr = traj_from_xy(np.zeros(10), np.arange(10.0))
        assert orientation_angle(tr.x, tr.y) == math.pi / 2

    def test_coincident_samples_raise(self):
        tr = traj_from_xy(np.full(5, 3.0), np.full(5, 7.0))
        with pytest.raises(ValueError, match="degenerate geometry"):
            orientation_angle(tr.x, tr.y)

    def test_recovers_known_major_axis(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            phi = rng.uniform(-1.4, 1.4)
            n = 600
            u = rng.normal(0, 10, n)
            v = rng.normal(0, 1, n)
            x = u * math.cos(phi) - v * math.sin(phi)
            y = u * math.sin(phi) + v * math.cos(phi)
            got = orientation_angle(x, y)
            err = abs(got - phi)
            assert min(err, abs(err - math.pi)) < 0.05

    def test_rotation_by_own_angle_levels_the_axes(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.normal(size=200) * rng.uniform(1, 20)
            y = rng.normal(size=200) * rng.uniform(1, 20) + 0.5 * x
            xr, yr = rotate(x, y, orientation_angle(x, y))
            xr = xr - xr.mean()
            yr = yr - yr.mean()
            cxy = float(np.mean(xr * yr))
            sx2 = float(np.mean(xr * xr))
            sy2 = float(np.mean(yr * yr))
            assert abs(cxy) <= 1e-8 * max(sx2, sy2)  # principal axes reached
            assert sx2 >= sy2 - 1e-9 * max(sx2, sy2)  # major axis horizontal


class TestRotate:
    def test_rotation_preserves_pairwise_distances(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=30), rng.normal(size=30)
        xr, yr = rotate(x, y, 0.7)
        d_in = np.hypot(x[:, None] - x, y[:, None] - y)
        d_out = np.hypot(xr[:, None] - xr, yr[:, None] - yr)
        assert np.allclose(d_in, d_out)

    def test_zero_angle_only_centers(self):
        x, y = rotate(np.array([1.0, 3.0]), np.array([2.0, 6.0]), 0.0)
        assert np.allclose(x, [-1.0, 1.0])
        assert np.allclose(y, [-2.0, 2.0])


class TestNormalizeExtent:
    def test_reference_values_are_exact(self):
        x, y = normalize_extent(np.array([2.0, 4.0, 6.0]), np.array([2.0, 4.0, 6.0]))
        assert x.tolist() == [0.0, 50.0, 100.0]
        assert y.tolist() == [0.0, 50.0, 100.0]

    def test_output_always_spans_the_canvas(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            for v in normalize_extent(rng.normal(0, 50, 40), rng.normal(0, 50, 40)):
                assert v.min() == 0.0
                assert v.max() == pytest.approx(100.0, abs=1e-9)

    def test_zero_span_raises(self):
        # a NaN or inf coordinate, or a span that overflows, is no span either
        for x, y in (([1.0, 2.0], [5.0, 5.0]), ([0.0, np.nan], [0.0, 1.0]),
                     ([0.0, 1.0], [np.inf, 1.0]), ([-1e308, 1e308], [0.0, 1.0])):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="degenerate extent"):
                    normalize_extent(np.array(x), np.array(y))


class TestLinePixels:
    def test_small_grid_exhaustive_walk_properties(self):
        ends = list(itertools.product(range(7), repeat=4))  # (r0, c0, r1, c1)
        all_rows, all_cols, all_lengths, _, _ = _walk(*np.array(ends).T)
        stops = np.cumsum(all_lengths)
        assert len(all_lengths) == 7 ** 4 and stops[-1] == len(all_rows)
        for (r0, c0, r1, c1), start, stop in zip(ends, stops - all_lengths, stops):
            rows, cols, *_ = _walk([r0], [c0], [r1], [c1])
            pix = list(zip(rows.tolist(), cols.tolist()))
            assert pix == ref.line_pixels(r0, c0, r1, c1)
            assert pix == list(zip(all_rows[start:stop].tolist(),
                                   all_cols[start:stop].tolist()))
            assert pix[0] == (r0, c0) and pix[-1] == (r1, c1)
            assert len(pix) == max(abs(r1 - r0), abs(c1 - c0)) + 1
            for (ra, ca), (rb, cb) in zip(pix, pix[1:]):
                assert max(abs(rb - ra), abs(cb - ca)) == 1
            rows = [p[0] for p in pix]
            cols = [p[1] for p in pix]
            assert rows == sorted(rows, reverse=r1 < r0)
            assert cols == sorted(cols, reverse=c1 < c0)


class TestRasterize:
    CFG = PreprocessConfig()

    def test_diagonal_stroke_pixel_fixture(self):
        tr = traj_from_xy(np.array([0.0, 100.0]), np.array([0.0, 100.0]),
                          t=np.array([0.0, 10.0]),
                          pressure=np.array([0.5, 1.0]))
        img = rasterize(*columns(tr), self.CFG)
        assert int(np.count_nonzero(img.pressure)) == 101
        assert img.pressure[100, 0] == 0.5  # start: bottom-left, half pressure
        assert img.pressure[0, 100] == 1.0
        assert img.pressure[50, 50] == 0.75
        assert img.time[100, 0] == 0.0
        assert img.time[0, 100] == 1.0
        assert img.time[50, 50] == 0.5

    def test_row_zero_is_the_top_of_the_canvas(self):
        tr = traj_from_xy(np.array([0.0, 100.0]), np.array([100.0, 100.0]))
        img = rasterize(*columns(tr), self.CFG)
        assert np.count_nonzero(img.pressure[0]) == 101
        assert np.count_nonzero(img.pressure[1:]) == 0

    def test_horizontal_stroke_length(self):
        tr = traj_from_xy(np.array([0.0, 10.0]), np.array([50.0, 50.0]))
        img = rasterize(*columns(tr), self.CFG)
        assert np.count_nonzero(img.pressure) == 11
        assert np.count_nonzero(img.pressure[50, :11]) == 11

    def test_pen_up_samples_draw_nothing(self):
        tr = traj_from_xy(np.array([0.0, 50.0, 100.0]),
                          np.array([50.0, 50.0, 50.0]),
                          pressure=np.array([1.0, 0.8, 1.0]),
                          pen_down=np.array([True, False, True]))
        img = rasterize(*columns(tr), self.CFG)
        # only the two endpoint samples are inked, no connecting segment
        assert np.count_nonzero(img.pressure) == 2
        assert img.pressure[50, 0] == 1.0 and img.pressure[50, 100] == 1.0

    def test_later_stroke_overwrites_earlier(self):
        tr = Trajectory(
            x=[0.0, 100.0, 100.0, 50.0, 50.0],
            y=[50.0, 50.0, 50.0, 0.0, 100.0],
            t=[0.0, 1.0, 1.5, 2.0, 3.0],
            pressure=[0.2, 0.2, 0.0, 1.0, 1.0],
            pen_down=[True, True, False, True, True])
        img = rasterize(*columns(tr), self.CFG)
        assert img.pressure[50, 50] == 1.0  # crossing pixel carries stroke B
        assert img.time[50, 50] == pytest.approx(5.0 / 6.0, rel=1e-12)

    def test_pressure_channel_peaks_at_one(self):
        corpus = generate_synthetic_corpus(seed=21, n_users=2, n_genuine=2,
                                           n_forgery=1)
        for tr in corpus.all_trajectories():
            img = preprocess(tr, self.CFG)
            assert img.pressure.max() == 1.0
            assert img.pressure.min() >= 0.0
            assert 0.0 <= img.time.min() and img.time.max() <= 1.0
            assert img.pressure.shape == (101, 101)

    def test_out_of_range_coordinates_raise(self):
        tr = traj_from_xy(np.array([0.0, 50.0]), np.array([0.0, 100.0]))
        for bad_x in ([-5.0, 50.0], [np.nan, 50.0]):
            with pytest.raises(ValueError, match="normalized"):
                rasterize(np.array(bad_x), *columns(tr)[1:], self.CFG)

    def test_canvas_size_is_configurable(self):
        cfg = PreprocessConfig(canvas=51)
        tr = traj_from_xy(np.array([0.0, 100.0]), np.array([0.0, 100.0]))
        img = rasterize(*columns(tr), cfg)
        assert img.pressure.shape == (51, 51)
        assert img.side == 51


class TestSmooth:
    CFG = PreprocessConfig(spline_points_per_segment=4)

    def test_inserts_points_inside_each_segment(self):
        n = 10
        tr = traj_from_xy(np.arange(n, dtype=float), np.sin(np.arange(n)))
        out = Trajectory(*smooth(*columns(tr), self.CFG))
        assert len(out) == n + (n - 1) * 3
        assert np.all(np.isin(tr.t, out.t))  # original timestamps survive
        assert np.allclose(out.x[::4], tr.x) and np.allclose(out.y[::4], tr.y)

    def test_disabled_smoothing_is_identity(self):
        tr = traj_from_xy(np.arange(10.0), np.sin(np.arange(10)))
        out = smooth(*columns(tr), PreprocessConfig(smooth=False))
        assert all(a is b for a, b in zip(out, columns(tr), strict=True))

    def test_short_runs_pass_through(self):
        tr = traj_from_xy(np.arange(3.0), np.arange(3.0))
        out = smooth(*columns(tr), self.CFG)
        assert all(np.array_equal(a, b) for a, b in zip(out, columns(tr), strict=True))

    def test_pen_up_samples_pass_through(self):
        pen = np.array([True] * 6 + [False, False] + [True] * 6)
        tr = traj_from_xy(np.arange(14.0), np.sin(np.arange(14.0)), pen_down=pen)
        out = Trajectory(*smooth(*columns(tr), self.CFG))
        # two 6-sample runs upsampled, the 2 pen-up samples untouched
        assert len(out) == 2 * (6 + 5 * 3) + 2
        assert np.count_nonzero(~out.pen_down) == 2

    def test_resampling_tracks_a_sine_better_than_chords(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            t = np.linspace(0.0, 2 * np.pi, 16)
            noise = rng.normal(0, 0.005, t.size)
            tr = traj_from_xy(t.copy(), np.sin(t) + noise, t=t)
            out = Trajectory(*smooth(*columns(tr), self.CFG))
            inserted = ~np.isin(out.t, t)
            spline_err = np.mean((out.y[inserted] - np.sin(out.t[inserted])) ** 2)
            chord_err = np.mean(
                (np.interp(out.t[inserted], t, tr.y) - np.sin(out.t[inserted])) ** 2)
            assert spline_err < chord_err

    def test_repeated_timestamps_do_not_break_the_fit(self):
        t = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        tr = traj_from_xy(np.arange(7.0), np.arange(7.0) ** 2, t=t)
        out = Trajectory(*smooth(*columns(tr), self.CFG))
        assert np.all(np.diff(out.t) >= 0)
        assert np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.y))

    @pytest.mark.parametrize("column, value", [(0, np.nan), (1, np.inf), (2, np.nan),
                                               (0, -np.inf)])
    def test_non_finite_columns_raise(self, column, value):
        cols = [np.arange(6.0), np.arange(6.0) ** 2, np.arange(6.0), np.ones(6),
                np.ones(6, bool)]
        cols[column][3] = value
        with pytest.raises(ValueError, match="finite"):
            smooth(*cols, self.CFG)

    def test_decreasing_timestamps_raise(self):
        # after dropping the repeat the knots would be [0, 2, 1.5, 3]
        t = np.array([0.0, 2.0, 1.0, 1.5, 3.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            smooth(np.arange(5.0), np.arange(5.0), t, np.ones(5), np.ones(5, bool), self.CFG)

    def test_knots_spanning_past_the_float_range_raise(self):
        t = np.array([-1e308, -5e307, 0.0, 5e307, 1e308])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="overflows"):
            smooth(np.arange(5.0), np.arange(5.0), t, np.ones(5), np.ones(5, bool), self.CFG)


class TestFullPipeline:
    def test_translation_gives_bit_identical_images(self):
        corpus = generate_synthetic_corpus(seed=31, n_users=2, n_genuine=2,
                                           n_forgery=0)
        for tr in corpus.all_trajectories():
            moved = Trajectory(tr.x + 937.0, tr.y - 54.0, tr.t, tr.pressure,
                               tr.pen_down, user_id=tr.user_id)
            a, b = preprocess(tr), preprocess(moved)
            assert np.array_equal(a.pressure, b.pressure)
            assert np.array_equal(a.time, b.time)

    def test_uniform_scaling_barely_moves_the_geometry(self):
        corpus = generate_synthetic_corpus(seed=32, n_users=1, n_genuine=2,
                                           n_forgery=0)
        for tr in corpus.all_trajectories():
            big = Trajectory(tr.x * 3.0, tr.y * 3.0, tr.t, tr.pressure,
                             tr.pen_down, user_id=tr.user_id)
            angle = orientation_angle(tr.x, tr.y)
            assert abs(angle - orientation_angle(big.x, big.y)) < 1e-9
            a, b = preprocess(tr), preprocess(big)
            # isolated pixels may shift; the bulk of the image must agree
            frac_diff = np.mean(a.pressure != b.pressure)
            assert frac_diff < 0.01

    @pytest.fixture(scope="class")
    def upright(self):
        """The acceptance corpus (360 signatures) and its images."""
        corpus = generate_synthetic_corpus(seed=202, n_users=20, n_genuine=12, n_forgery=6)
        return [(tr, preprocess(tr)) for tr in corpus.all_trajectories()]

    @staticmethod
    def changed_by_rotation(upright, degrees):
        """How many images a rotation of the input about the origin changes."""
        c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        changed = 0
        for tr, image in upright:
            turned = preprocess(Trajectory(tr.x * c - tr.y * s, tr.x * s + tr.y * c, tr.t,
                                           tr.pressure, tr.pen_down, user_id=tr.user_id))
            changed += not (np.array_equal(turned.pressure, image.pressure)
                            and np.array_equal(turned.time, image.time))
        return changed

    @pytest.mark.parametrize("degrees", [15, 30, 45])
    def test_rotation_up_to_45_degrees_gives_bit_identical_images(self, upright, degrees):
        assert self.changed_by_rotation(upright, degrees) == 0

    def test_a_half_turn_changes_every_image(self, upright):
        """A known limit: the principal axis is fixed only modulo pi, so a
        signature turned by 180 degrees is drawn upside down."""
        assert self.changed_by_rotation(upright, 180) == len(upright)

    def test_perfectly_collinear_input_raises_cleanly(self):
        tr = traj_from_xy(np.arange(10.0), 2.0 * np.arange(10.0) + 1.0)
        with pytest.raises(ValueError, match="degenerate extent"):
            preprocess(tr)

    @pytest.mark.parametrize("spread", [1e160, 1e200, 1e300, 1e307])
    def test_overflowing_spread_raises(self, spread, tiny_model):
        # x*x or the translation overflows; the image must not be drawn from it
        corpus = generate_synthetic_corpus(seed=33, n_users=1, n_genuine=1, n_forgery=0)
        tr = corpus.all_trajectories()[0]
        x, y = (((v - v.min()) / np.ptp(v) - 0.5) * spread for v in (tr.x, tr.y))
        with pytest.raises(ValueError, match="must not exceed"):
            Trajectory(x, y, tr.t, tr.pressure, tr.pen_down)
        # columns set after validation: the stages refuse them too, without a warning
        huge = Trajectory(tr.x, tr.y, tr.t, tr.pressure, tr.pen_down)
        huge.x, huge.y = x, y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                preprocess(huge)
            with pytest.raises(ValueError):
                describe(huge, tiny_model)

    def test_timestamps_a_subnormal_step_apart_raise_without_a_warning(self, tiny_model):
        n = 12
        x, y = np.cos(np.arange(n)) * 50.0, np.sin(np.arange(n)) * 30.0
        tr = traj_from_xy(x, y, t=np.arange(n) * 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the spline overflows"):
                describe(tr, tiny_model)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cols=sample_columns())
    # a spline that overshoots by about 1e159 past samples within the limits
    @example(cols=([0, 1e9, 0, 0, 1, 2, 3, 4], [0, 2, 1, 3, 2, 4, 3, 5],
                   [0, 1e-150, 5e17, 6e17, 7e17, 8e17, 9e17, 1e18], [1] * 8, [1] * 8))
    # an exactly linear stroke whose pressure slope overflows over a subnormal step
    @example(cols=([k * 2.0**-500 for k in range(8)],
                   [v * 2.0**-500 for v in (0, 0, 0, 0, 5, 1, 3, 2)],
                   [k * 2.0**-1000 for k in range(8)], [0, 1.7e308, 0, 1.7e308, 1, 1, 1, 1],
                   [1, 1, 1, 1, 0, 0, 0, 0]))
    def test_any_finite_input_is_described_or_refused_without_a_warning(self, cols,
                                                                        tiny_model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = describe(Trajectory(*cols), tiny_model).values
            except ValueError:
                return
        assert np.all((values > 0) & (values < 1))
