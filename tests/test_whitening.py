import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_pipeline as ref
from sigverify import WhitenConfig, apply_whitening, fit_whitening
from sigverify.whitening import _fix_eigenvector_signs


def correlated_cloud(rng, n, scales, mixing=None):
    d = len(scales)
    z = rng.standard_normal((n, d)) * np.asarray(scales)
    if mixing is None:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mixing = q
    return z @ mixing.T + rng.uniform(-5, 5, d)


class TestFitWhitening:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_the_np_cov_fit_and_leaves_its_input_alone(self, data):
        n, d = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 8))
        values = st.sampled_from([0.0, -0.0, 1.0, 0.25]) | st.floats(-1e3, 1e3)
        x = data.draw(arrays(np.float64, (n, d), elements=values))
        if data.draw(st.booleans()):
            x = np.asfortranarray(x)
        cfg = WhitenConfig(epsilon=data.draw(st.sampled_from([1e-6, 0.01])),
                           retained_variance=data.draw(st.sampled_from([0.5, 0.99, 1.0])),
                           mode=data.draw(st.sampled_from(["pca", "zca"])))
        before = x.copy(order="K")
        tf = fit_whitening(x, cfg)
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))
        assert x.flags.f_contiguous == before.flags.f_contiguous
        for got, want in zip((tf.mean, tf.basis, tf.eigenvalues), ref.fit_whitening(x, cfg),
                             strict=True):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_matches_svd_reference_on_3d_cloud(self):
        # independent route: principal axes straight from the SVD of the
        # centered data, then the same variance equalization
        rng = np.random.default_rng(17)
        x = correlated_cloud(rng, 4000, [6.0, 2.0, 0.5])
        cfg = WhitenConfig(epsilon=0.01, retained_variance=1.0)
        tf = fit_whitening(x, cfg)

        centered = x - x.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        eigs = svals ** 2 / (len(x) - 1)
        assert np.allclose(tf.eigenvalues, eigs, rtol=1e-8)
        for row, eig, axis in zip(tf.basis, eigs, vt):
            expect = axis / np.sqrt(eig + cfg.epsilon)
            assert np.allclose(row, expect) or np.allclose(row, -expect)

    def test_whitened_output_is_decorrelated_and_unit_variance(self):
        rng = np.random.default_rng(23)
        x = correlated_cloud(rng, 6000, [5.0, 3.0, 1.0, 0.7])
        tf = fit_whitening(x, WhitenConfig(epsilon=1e-6, retained_variance=1.0))
        w = apply_whitening(tf, x)
        cov = np.cov(w, rowvar=False)
        assert np.allclose(np.diag(cov), 1.0, atol=1e-3)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-6

    def test_epsilon_shrinks_each_output_variance(self):
        rng = np.random.default_rng(5)
        x = correlated_cloud(rng, 8000, [4.0, 1.0], mixing=np.eye(2))
        eps = 2.0
        tf = fit_whitening(x, WhitenConfig(epsilon=eps, retained_variance=1.0))
        w = apply_whitening(tf, x)
        got = np.var(w, axis=0, ddof=1)
        expect = tf.eigenvalues / (tf.eigenvalues + eps)
        assert np.allclose(got, expect, rtol=1e-8)

    def test_retained_variance_controls_the_cut(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal((5000, 3)) * [10.0, 1.0, 0.01]
        # variance mass ~ 0.9899, 0.00990, 0.0000010
        tf = fit_whitening(z, WhitenConfig(retained_variance=0.98))
        assert tf.output_dim == 1
        tf = fit_whitening(z, WhitenConfig(retained_variance=0.995))
        assert tf.output_dim == 2
        tf = fit_whitening(z, WhitenConfig(retained_variance=1.0))
        assert tf.output_dim == 3

    def test_eigenvalues_are_descending(self, rng):
        x = correlated_cloud(rng, 500, [3.0, 2.0, 1.0, 0.5, 0.1])
        tf = fit_whitening(x)
        assert np.all(np.diff(tf.eigenvalues) <= 0)

    def test_basis_sign_is_deterministic(self):
        rng = np.random.default_rng(3)
        x = correlated_cloud(rng, 1000, [4.0, 2.0, 1.0])
        a = fit_whitening(x)
        b = fit_whitening(np.flipud(x).copy())  # same sample, new order
        assert np.allclose(a.basis, b.basis)
        for row in a.basis:
            nz = row[np.abs(row) > 1e-12 * np.abs(row).max()]
            assert nz[0] > 0

    def test_rank_deficiency_is_flagged(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 10))
        tf = fit_whitening(x, WhitenConfig(retained_variance=1.0))
        assert not tf.full_rank_input
        full = fit_whitening(rng.standard_normal((40, 10)))
        assert full.full_rank_input

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_whitening(np.ones((1, 4)))
        with pytest.raises(ValueError, match="2-D"):
            fit_whitening(np.ones(4))
        bad = np.ones((5, 3))
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_whitening(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WhitenConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            WhitenConfig(retained_variance=0.0)
        with pytest.raises(ValueError):
            WhitenConfig(retained_variance=1.2)
        with pytest.raises(ValueError):
            WhitenConfig(mode="lda")


class TestFixEigenvectorSigns:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_per_column_loop_in_c_order(self, data):
        rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 8))
        values = (st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-13, -1e-13])
                  | st.floats(-1e3, 1e3))
        vectors = data.draw(arrays(np.float64, (rows, cols), elements=values))
        if data.draw(st.booleans()):
            vectors = np.asfortranarray(vectors)  # as eigh's columns come reordered
        before = vectors.copy(order="K")
        got, want = _fix_eigenvector_signs(vectors), ref.fix_eigenvector_signs(vectors)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
        assert vectors.tobytes(order="A") == before.tobytes(order="A")

    def test_a_reordered_eigenbasis_matches_the_loop(self):
        x = correlated_cloud(np.random.default_rng(5), 400, np.linspace(0.1, 3.0, 24))
        eigvals, eigvecs = np.linalg.eigh(np.cov(x, rowvar=False))
        vectors = eigvecs[:, np.argsort(eigvals)[::-1]]
        assert vectors.flags.f_contiguous and not vectors.flags.c_contiguous
        got = _fix_eigenvector_signs(vectors)
        assert got.tobytes() == ref.fix_eigenvector_signs(vectors).tobytes()
        assert got.flags.c_contiguous
        assert np.all(got[0] > 0)  # a generic basis has no zero in its first row


class TestZca:
    def test_dimension_is_preserved_and_variance_ignored(self):
        rng = np.random.default_rng(41)
        x = correlated_cloud(rng, 3000, [8.0, 2.0, 0.3])
        tf = fit_whitening(x, WhitenConfig(mode="zca", retained_variance=0.5))
        assert tf.output_dim == tf.input_dim == 3

    def test_zca_basis_is_symmetric(self):
        rng = np.random.default_rng(42)
        x = correlated_cloud(rng, 3000, [5.0, 1.0, 0.2])
        tf = fit_whitening(x, WhitenConfig(mode="zca"))
        assert np.allclose(tf.basis, tf.basis.T)

    def test_zca_output_is_white(self):
        rng = np.random.default_rng(43)
        x = correlated_cloud(rng, 8000, [5.0, 2.0, 1.0])
        tf = fit_whitening(x, WhitenConfig(mode="zca", epsilon=1e-8))
        w = apply_whitening(tf, x)
        assert np.allclose(np.cov(w, rowvar=False), np.eye(3), atol=1e-3)

    def test_zca_stays_close_to_the_input_axes(self):
        # among all whitening rotations, this one should look most like
        # the original coordinates: strictly dominant diagonal
        rng = np.random.default_rng(44)
        x = correlated_cloud(rng, 5000, [3.0, 1.5, 0.8], mixing=np.eye(3))
        tf = fit_whitening(x, WhitenConfig(mode="zca"))
        mags = np.abs(tf.basis)
        assert np.all(np.argmax(mags, axis=1) == np.arange(3))


class TestApplyWhitening:
    def test_single_vector_matches_batch_row(self):
        rng = np.random.default_rng(6)
        x = correlated_cloud(rng, 200, [2.0, 1.0])
        tf = fit_whitening(x)
        batch = apply_whitening(tf, x[:5])
        for i in range(5):
            one = apply_whitening(tf, x[i])
            assert np.array_equal(one, batch[i])

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(7)
        tf = fit_whitening(rng.standard_normal((50, 4)))
        with pytest.raises(ValueError, match="dimension"):
            apply_whitening(tf, np.ones(5))

    def test_mean_maps_to_origin(self):
        rng = np.random.default_rng(8)
        x = correlated_cloud(rng, 300, [2.0, 1.0, 0.5])
        tf = fit_whitening(x)
        assert np.allclose(apply_whitening(tf, tf.mean), 0.0)
