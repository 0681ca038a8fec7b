import dataclasses
import tracemalloc

import numpy as np
import pytest

from sigverify import (AeConfig, PatchConfig, PreprocessConfig, Trajectory, WhitenConfig,
                       apply_whitening, describe, describe_baseline, extract_dense,
                       fit_whitening, generate_synthetic_corpus, load_model, preprocess,
                       sample_training_patches, save_model, train, train_descriptor)
from sigverify.container import ContainerError
from sigverify.autoencoder import encode


class TestTrainDescriptor:
    def test_model_carries_configs_and_sources(self, tiny_model, tiny_corpus):
        assert tiny_model.hidden == 8
        assert tiny_model.whitening.output_dim == tiny_model.ae.input_dim
        assert tiny_model.train_sources == (tiny_corpus.source,)
        assert tiny_model.seed == 5

    def test_the_configs_are_frozen(self, tiny_model):
        # the model keeps the caller's config objects: a patch size changed
        # after training would save and load, then fail every describe
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_model.patch_cfg.size = 8
        for config in (tiny_model.preprocess_cfg, tiny_model.ae.config, WhitenConfig()):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, dataclasses.fields(config)[0].name, None)

    def test_training_is_deterministic(self, tiny_corpus):
        kw = dict(patch_cfg=PatchConfig(train_count=500),
                  ae_cfg=AeConfig(hidden=4, max_iter=10, seed=1), seed=2)
        trajs = tiny_corpus.all_trajectories()[:6]
        a = train_descriptor(trajs, **kw)
        b = train_descriptor(trajs, **kw)
        assert np.array_equal(a.ae.params.pack(), b.ae.params.pack())
        assert np.array_equal(a.whitening.basis, b.whitening.basis)

    def test_empty_training_set_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            train_descriptor([])

    def test_equals_the_stages_run_one_at_a_time(self, tiny_corpus):
        trajs = tiny_corpus.all_trajectories()[:6]
        patch_cfg, ae_cfg = PatchConfig(train_count=800), AeConfig(hidden=6, max_iter=5)
        model = train_descriptor(trajs, patch_cfg=patch_cfg, ae_cfg=ae_cfg, seed=3)
        images = [preprocess(t, PreprocessConfig()) for t in trajs]
        raw = sample_training_patches(images, patch_cfg, 3)
        transform = fit_whitening(raw)
        ae = train(apply_whitening(transform, raw), ae_cfg)
        for name in ("mean", "basis", "eigenvalues"):
            assert np.array_equal(getattr(model.whitening, name), getattr(transform, name))
        assert np.array_equal(model.ae.params.pack(), ae.params.pack())
        assert model.ae.cost_history == ae.cost_history

    def test_traced_peak_stays_under_three_patch_arrays(self, tiny_corpus):
        # images, raw patches, whitened patches and the cost_grad batch
        # temporaries are never all alive at once
        patch_cfg = PatchConfig(train_count=5000)
        trajs = tiny_corpus.all_trajectories()
        tracemalloc.start()
        try:
            train_descriptor(trajs, patch_cfg=patch_cfg, ae_cfg=AeConfig(hidden=64, max_iter=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        raw_bytes = patch_cfg.train_count * patch_cfg.dim * 8
        assert peak < 3 * raw_bytes, f"traced peak is {peak / raw_bytes:.2f}x the raw patches"

    def test_traced_peak_stays_under_a_third_of_the_dense_rasters(self):
        # the pool is held compact, so memory does not grow by a raster
        # per unlabeled signature
        trajs = generate_synthetic_corpus(seed=23, n_users=12, n_genuine=10,
                                          n_forgery=0).all_trajectories()
        tracemalloc.start()
        try:
            train_descriptor(trajs, patch_cfg=PatchConfig(train_count=500),
                             ae_cfg=AeConfig(max_iter=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        side = PreprocessConfig().canvas
        dense_bytes = len(trajs) * 2 * side * side * 8
        assert peak < dense_bytes / 3, f"traced peak is {peak / dense_bytes:.2f}x the rasters"


class TestDescribe:
    def test_values_live_strictly_inside_unit_interval(self, tiny_model, tiny_corpus):
        for tr in tiny_corpus.all_trajectories()[:8]:
            d = describe(tr, tiny_model)
            assert d.values.shape == (tiny_model.hidden,)
            assert np.all(d.values > 0.0) and np.all(d.values < 1.0)
            assert d.user_id == tr.user_id and d.label == tr.label

    def test_length_is_independent_of_duration(self, tiny_model, tiny_corpus):
        lengths = {describe(tr, tiny_model).values.shape
                   for tr in tiny_corpus.all_trajectories()[:8]}
        assert lengths == {(tiny_model.hidden,)}

    def test_baseline_descriptor_has_whitened_dimension(self, tiny_model, tiny_corpus):
        tr = tiny_corpus.all_trajectories()[0]
        d = describe_baseline(tr, tiny_model)
        assert d.values.shape == (tiny_model.whitening.output_dim,)

    def test_translation_gives_bit_identical_descriptors(self, tiny_model, tiny_corpus):
        for tr in tiny_corpus.all_trajectories()[:4]:
            moved = Trajectory(tr.x + 512.0, tr.y + 1024.0, tr.t, tr.pressure,
                               tr.pen_down, user_id=tr.user_id, label=tr.label)
            a = describe(tr, tiny_model).values
            b = describe(moved, tiny_model).values
            assert np.array_equal(a, b)

    def test_uniform_scaling_moves_descriptors_very_little(self, tiny_model, tiny_corpus):
        for tr in tiny_corpus.all_trajectories()[:4]:
            big = Trajectory(tr.x * 3.0, tr.y * 3.0, tr.t, tr.pressure,
                             tr.pen_down, user_id=tr.user_id, label=tr.label)
            a = describe(tr, tiny_model).values
            b = describe(big, tiny_model).values
            assert np.max(np.abs(a - b)) <= 0.01

    def test_pooling_ignores_patch_order(self, tiny_model, tiny_corpus):
        tr = tiny_corpus.all_trajectories()[0]
        dense = extract_dense(preprocess(tr, tiny_model.preprocess_cfg), tiny_model.patch_cfg)
        white = apply_whitening(tiny_model.whitening, dense)
        perm = np.random.default_rng(3).permutation(len(white))
        a = encode(tiny_model.ae, white).mean(axis=0)
        b = encode(tiny_model.ae, white[perm]).mean(axis=0)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestModelFile:
    def test_save_load_round_trip_reproduces_descriptors(self, tiny_model,
                                                         tiny_corpus, tmp_path):
        f = tmp_path / "model.sig"
        save_model(tiny_model, f)
        back = load_model(f)
        assert back.preprocess_cfg == tiny_model.preprocess_cfg
        assert back.patch_cfg == tiny_model.patch_cfg
        assert back.ae.config == tiny_model.ae.config
        assert np.array_equal(back.whitening.basis, tiny_model.whitening.basis)
        assert np.array_equal(back.whitening.mean, tiny_model.whitening.mean)
        for tr in tiny_corpus.all_trajectories()[:3]:
            a = describe(tr, tiny_model).values
            b = describe(tr, back).values
            assert np.array_equal(a, b)

    def test_saved_bytes_are_deterministic(self, tiny_model, tmp_path):
        f1, f2 = tmp_path / "a.sig", tmp_path / "b.sig"
        save_model(tiny_model, f1)
        save_model(tiny_model, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_wrong_kind_is_rejected(self, tiny_model, tmp_path):
        from sigverify import calibrate_threshold, fit_user_model, save_user_model
        from sigverify.descriptor import Descriptor
        d = [Descriptor(values=np.array([0.1, 0.2]), user_id="u", label="genuine"),
             Descriptor(values=np.array([0.3, 0.1]), user_id="u", label="genuine")]
        um = calibrate_threshold(fit_user_model(d, user_id="u"), [1.0])
        f = tmp_path / "user.bin"
        save_user_model(um, f)
        with pytest.raises(ContainerError, match="descriptor"):
            load_model(f)

    def test_unsupported_model_version_is_rejected(self, tiny_model, tmp_path):
        from sigverify import container
        f = tmp_path / "model.sig"
        save_model(tiny_model, f)
        meta, arrays = container.read_container(f)
        meta["version"] = "99"
        container.write_container(f, meta, arrays)
        with pytest.raises(ContainerError, match="version 99"):
            load_model(f)
