import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigverify import (calibrate_threshold, fit_user_model, load_user_model,
                       save_user_model, verify)
from sigverify.descriptor import Descriptor
from sigverify.oneclass import THRESHOLD_SLACK, ZERO_VARIANCE_EPSILON, UserModel, score


def descriptors_from(rows, user_id="u", label="genuine"):
    return [Descriptor(values=np.asarray(r, dtype=float), user_id=user_id,
                       label=label) for r in rows]


CORNERS = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)]


class TestFitUserModel:
    def test_toy_square_has_known_moments(self):
        m = fit_user_model(descriptors_from(CORNERS), reg=0.9)
        assert np.allclose(m.mean, [1.0, 1.0])
        # isotropic sample covariance (4/3) I is untouched by shrinkage
        assert np.allclose(m.covariance, (4.0 / 3.0) * np.eye(2))
        assert m.n_train == 4

    def test_shrinkage_pulls_toward_scaled_identity(self):
        rows = [(0.0, 0.0), (4.0, 0.1), (8.0, -0.1), (12.0, 0.0)]
        s = np.cov(np.asarray(rows), rowvar=False)
        for reg in (0.0, 0.5, 1.0):
            m = fit_user_model(descriptors_from(rows), reg=reg)
            expect = (1 - reg) * s + reg * (np.trace(s) / 2.0) * np.eye(2)
            assert np.allclose(m.covariance, expect)

    def test_single_descriptor_gets_isotropic_floor(self):
        m = fit_user_model(descriptors_from([(0.3, 0.7, 0.1)]))
        assert np.allclose(m.covariance, ZERO_VARIANCE_EPSILON * np.eye(3))
        assert m.n_train == 1

    def test_identical_descriptors_get_isotropic_floor(self):
        m = fit_user_model(descriptors_from([(0.5, 0.5)] * 6))
        assert np.allclose(m.covariance, ZERO_VARIANCE_EPSILON * np.eye(2))

    def test_mixed_users_are_rejected(self):
        d = descriptors_from([(0.0, 0.0)], user_id="alice") + \
            descriptors_from([(1.0, 1.0)], user_id="bob")
        with pytest.raises(ValueError, match="mixed"):
            fit_user_model(d)

    def test_forgery_labels_are_rejected(self):
        d = descriptors_from([(0.0, 0.0), (1.0, 1.0)], label="skilled_forgery")
        with pytest.raises(ValueError, match="genuine"):
            fit_user_model(d)

    def test_reg_bounds_are_enforced(self):
        d = descriptors_from(CORNERS)
        for reg in (-0.1, 1.5):
            with pytest.raises(ValueError, match="reg"):
                fit_user_model(d, reg=reg)

    def test_empty_training_set_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_user_model([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_descriptors_are_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            fit_user_model([np.array([0.0, 1.0]), np.array([bad, 0.0])])

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), (3, 0)])
    def test_a_malformed_stack_is_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"descriptor stack has dimension {shape}, expected (n, dim)")):
            fit_user_model(np.zeros(shape))

    def test_plain_arrays_are_accepted(self):
        m = fit_user_model([np.array([0.0, 0.0]), np.array([2.0, 2.0])],
                           user_id="raw")
        assert m.user_id == "raw" and m.n_train == 2


class TestScore:
    def test_toy_square_reference_scores(self):
        m = fit_user_model(descriptors_from(CORNERS), reg=0.9)
        assert score(m, np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
        # sigma = (4/3) I so a (2, 0) offset scores 4 * 3/4 = 3
        assert score(m, np.array([3.0, 1.0])) == pytest.approx(3.0, rel=1e-12)
        assert score(m, np.array([1.0, 3.0])) == pytest.approx(3.0, rel=1e-12)

    def test_matches_explicit_inverse_on_random_models(self, rng):
        for _ in range(25):
            h = int(rng.integers(2, 8))
            n = int(rng.integers(h + 1, 20))
            rows = rng.normal(size=(n, h))
            m = fit_user_model(descriptors_from(rows), reg=0.5)
            q = rng.normal(size=h)
            diff = q - m.mean
            expect = float(diff @ np.linalg.inv(m.covariance) @ diff)
            assert score(m, q) == pytest.approx(expect, rel=1e-9)

    def test_score_grows_with_distance(self):
        m = fit_user_model(descriptors_from(CORNERS))
        near = score(m, np.array([1.1, 1.0]))
        far = score(m, np.array([5.0, 1.0]))
        assert 0 < near < far

    def test_a_replaced_covariance_is_factored_anew(self, rng):
        m = fit_user_model(descriptors_from(rng.normal(size=(12, 4))), reg=0.5)
        q = rng.normal(size=4)
        diff = q - m.mean
        for k in (0.01, 100.0):
            scaled = dataclasses.replace(m, covariance=k * m.covariance)
            expect = float(diff @ np.linalg.solve(scaled.covariance, diff))
            assert score(scaled, q) == pytest.approx(expect, rel=1e-9)

    def test_dimension_mismatch_is_rejected(self):
        m = fit_user_model(descriptors_from(CORNERS))
        with pytest.raises(ValueError, match="dimension"):
            score(m, np.ones(3))

    @pytest.mark.parametrize("shape", [(), (1, 4, 2), (3, 3), (0, 3)])
    def test_other_shapes_are_refused(self, shape):
        m = fit_user_model(descriptors_from(CORNERS))
        with pytest.raises(ValueError, match=re.escape(
                f"descriptor has dimension {shape}, model expects (2,)")):
            score(m, np.ones(shape))

    def test_a_stack_gives_one_score_per_row(self):
        m = fit_user_model(descriptors_from(CORNERS))
        rows = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]])
        got = score(m, rows)
        assert got.dtype == np.float64 and got.shape == (3,)
        assert got.tolist() == [score(m, r) for r in rows]
        empty = score(m, np.empty((0, 2)))
        assert empty.dtype == np.float64 and empty.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_refused(self, bad):
        m = fit_user_model(descriptors_from(CORNERS))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            score(m, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            score(m, np.array([[1.0, 1.0], [bad, 1.0]]))

    @pytest.mark.parametrize("descriptor", [[0.5, 0.5], [[1.0, 1.0], [0.5, 0.5]]])
    def test_a_non_finite_score_is_refused(self, descriptor):
        # the solve overflows inside LAPACK, so the score is inf, not a decision
        m = UserModel("u", np.array([1e308, 0.0]), np.diag([1e-6, 1.0]),
                      reg=0.5, n_train=1)
        with pytest.raises(ValueError, match=re.escape(
                "user model 'u' gives a non-finite score")):
            score(m, np.array(descriptor))
        m.threshold = 1.0
        with pytest.raises(ValueError, match="non-finite score"):
            verify(m, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("covariance, error", [
        (np.ones((2, 3)), ValueError), (np.ones(2), ValueError),
        # inf only in the upper half, which a lower factorization never reads
        (np.array([[1.0, np.inf], [0.0, 1.0]]), ValueError),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), np.linalg.LinAlgError)])
    def test_unusable_covariance_is_refused(self, covariance, error):
        with pytest.raises(error):
            UserModel("u", np.zeros(2), covariance, reg=0.5, n_train=1)


class TestThresholdAndVerify:
    def test_threshold_reference_values(self):
        m = fit_user_model(descriptors_from(CORNERS))
        calibrate_threshold(m, [1.0, 4.0, 3.0, 2.0])
        assert m.threshold == 6.0
        calibrate_threshold(m, [0.25])
        assert m.threshold == 0.25 * THRESHOLD_SLACK == 0.375
        calibrate_threshold(m, [0.0, 0.0])
        assert m.threshold == 0.0

    def test_quantile_is_not_a_parameter(self):
        m = fit_user_model(descriptors_from(CORNERS))
        with pytest.raises(TypeError, match="quantile"):
            calibrate_threshold(m, [1.0], quantile=0.5)
        with pytest.raises(ValueError, match="at least one"):
            calibrate_threshold(m, [])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=50))
    def test_threshold_is_the_former_top_rank_bit_for_bit(self, scores):
        m = UserModel("u", np.zeros(2), np.eye(2), reg=0.5, n_train=1)
        calibrate_threshold(m, scores)
        s = np.asarray(scores)  # the nearest rank at quantile 1.0, times the slack
        former = float(np.sort(s)[math.ceil(1.0 * s.size) - 1] * THRESHOLD_SLACK)
        assert np.float64(m.threshold).tobytes() == np.float64(former).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_training_scores_are_rejected(self, bad):
        m = fit_user_model(descriptors_from(CORNERS))
        with pytest.raises(ValueError, match="non-finite"):
            calibrate_threshold(m, [1.0, bad])
        assert m.threshold is None

    def test_verify_respects_the_threshold(self):
        m = fit_user_model(descriptors_from(CORNERS))
        train_scores = [score(m, np.asarray(c, float)) for c in CORNERS]
        calibrate_threshold(m, train_scores)
        ok, s = verify(m, np.array([1.0, 1.0]))
        assert ok and s == pytest.approx(0.0, abs=1e-12)
        bad, s_far = verify(m, np.array([9.0, 9.0]))
        assert not bad and s_far > m.threshold

    @pytest.mark.parametrize("rows", [2, 1])
    def test_verify_refuses_a_stack(self, rows):
        m = fit_user_model(descriptors_from(CORNERS))
        m.threshold = 10.0
        for stack in (np.ones((rows, 2)), Descriptor(np.ones((rows, 2)), "u", "genuine")):
            with pytest.raises(ValueError, match=re.escape(
                    f"descriptor has dimension ({rows}, 2), model expects (2,)")):
                verify(m, stack)

    def test_verify_without_calibration_raises(self):
        m = fit_user_model(descriptors_from(CORNERS))
        with pytest.raises(ValueError, match="threshold"):
            verify(m, np.array([1.0, 1.0]))

    def test_acceptance_is_inclusive_at_the_boundary(self):
        m = fit_user_model(descriptors_from(CORNERS))
        m.threshold = score(m, np.array([3.0, 1.0]))
        ok, _ = verify(m, np.array([3.0, 1.0]))
        assert ok


class TestUserModelFile:
    def test_round_trip_preserves_scores(self, tmp_path, rng):
        rows = rng.normal(size=(10, 5))
        m = fit_user_model(descriptors_from(rows, user_id="carol"))
        calibrate_threshold(m, [score(m, r) for r in rows])
        f = tmp_path / "carol.usermodel"
        save_user_model(m, f)
        back = load_user_model(f)
        assert back.user_id == "carol"
        assert back.threshold == m.threshold
        assert back.n_train == m.n_train and back.reg == m.reg
        probe = rng.normal(size=5)
        assert score(back, probe) == pytest.approx(score(m, probe), rel=1e-12)

    def test_save_refuses_an_uncalibrated_model(self, tmp_path):
        m = fit_user_model(descriptors_from(CORNERS))
        f = tmp_path / "u.usermodel"
        with pytest.raises(ValueError, match=re.escape(
                "user model 'u' has no calibrated threshold")):
            save_user_model(m, f)
        assert not f.exists()

    def test_wrong_kind_is_rejected(self, tmp_path, tiny_model):
        from sigverify import save_model
        from sigverify.container import ContainerError
        f = tmp_path / "model.sig"
        save_model(tiny_model, f)
        with pytest.raises(ContainerError, match="user model"):
            load_user_model(f)

    def test_saved_bytes_are_deterministic(self, tmp_path):
        m = fit_user_model(descriptors_from(CORNERS, user_id="dave"))
        calibrate_threshold(m, score(m, np.array(CORNERS)))
        f1, f2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_user_model(m, f1)
        save_user_model(m, f2)
        assert f1.read_bytes() == f2.read_bytes()
