"""The config dataclasses as the one schema: model metadata, CLI keys, docs."""

import argparse
import dataclasses
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import craft, digested
from sigverify import (AeConfig, AeParams, PatchConfig, PreprocessConfig,
                       WhitenConfig, calibrate_threshold, container, describe, descriptor,
                       load_model, load_user_model, save_model, save_user_model,
                       train_descriptor, verify)
from sigverify.cli import _build_config
from sigverify.container import ContainerError
from sigverify.autoencoder import MAX_HIDDEN
from sigverify.descriptor import (CONFIG_GROUPS, MAX_DENSE_VALUES, MODEL_FIELDS, MODEL_SHAPES,
                                  config_group)
from sigverify.preprocess import MAX_CANVAS, MAX_SPLINE_POINTS
from sigverify.oneclass import USER_MODEL_FIELDS, USER_MODEL_SHAPES, fit_user_model, score

README = Path(__file__).resolve().parent.parent / "README.md"

seeds = st.integers(min_value=0, max_value=2**63)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                     allow_infinity=False)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def configs(draw):
    # the whitening is built patch.dim = 2 size**2 wide; load_model refuses a
    # patch larger than the canvas, and max(dense grid, patch.dim) times
    # max(patch.dim, ae.hidden) over MAX_DENSE_VALUES (so size is at most 38)
    size = draw(st.integers(1, 38))
    canvas, stride = draw(st.integers(max(16, size), MAX_CANVAS)), draw(st.integers(1, size))
    hidden, dim = draw(st.integers(1, 64)), 2 * size**2
    grid = ((canvas - size) // stride + 1) ** 2
    assume(max(grid, dim) * max(dim, hidden) <= MAX_DENSE_VALUES)
    groups = {
        "preprocess": dict(canvas=canvas, smooth=draw(st.booleans()),
                           spline_points_per_segment=draw(st.integers(1, MAX_SPLINE_POINTS)),
                           cov_epsilon=draw(positive)),
        "patch": dict(size=size, stride=stride,
                      train_count=draw(st.integers(1, 10**9)),
                      skip_blank=draw(st.booleans()),
                      blank_threshold=draw(non_negative),
                      oversample_factor=draw(st.integers(1, 2**63))),
        "whiten": dict(epsilon=draw(non_negative),
                       retained_variance=draw(st.one_of(unit_open, st.just(1.0))),
                       mode=draw(st.sampled_from(["pca", "zca"]))),
        # the stored weights are resized to hidden, so it stays small
        "ae": dict(hidden=hidden,
                   weight_decay=draw(non_negative),
                   sparsity_weight=draw(non_negative),
                   sparsity_target=draw(unit_open),
                   max_iter=draw(st.integers(0, 10**6)),
                   memory=draw(st.integers(1, 10**6)),
                   grad_tol=draw(positive), seed=draw(seeds)),
    }
    for prefix, values in groups.items():  # every field of every group is drawn
        assert set(values) == {f.name for f in dataclasses.fields(CONFIG_GROUPS[prefix])}
    return {prefix: CONFIG_GROUPS[prefix](**values) for prefix, values in groups.items()}


class TestModelMetadataRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(cfgs=configs())
    def test_every_config_field_survives_save_and_load(self, tiny_model, cfgs):
        whiten = cfgs["whiten"]
        h, d, dim = cfgs["ae"].hidden, 2, cfgs["patch"].dim  # d: the whitened width
        whitening = dataclasses.replace(tiny_model.whitening, config=whiten,
                                        mean=np.zeros(dim), basis=np.zeros((d, dim)),
                                        eigenvalues=np.ones(d))
        params = AeParams(W1=np.zeros((h, d)), b1=np.zeros(h),
                          W2=np.zeros((d, h)), b2=np.zeros(d))
        model = dataclasses.replace(
            tiny_model, preprocess_cfg=cfgs["preprocess"], patch_cfg=cfgs["patch"],
            whitening=whitening,
            ae=dataclasses.replace(tiny_model.ae, config=cfgs["ae"], params=params))
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "model.sig"
            save_model(model, f)
            back = load_model(f)
        assert back.preprocess_cfg == cfgs["preprocess"]
        assert back.patch_cfg == cfgs["patch"]
        assert back.whitening.config == whiten
        assert back.ae.config == cfgs["ae"]
        assert back.whitening.full_rank_input == tiny_model.whitening.full_rank_input


@pytest.fixture(scope="module")
def saved(tiny_model, tmp_path_factory):
    """One saved file of each model kind, the source of every crafted file
    here: ``tiny_model`` and a small user model."""
    directory = tmp_path_factory.mktemp("saved")
    save_model(tiny_model, directory / "model.sig")
    user = fit_user_model(np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]]), user_id="u")
    user.threshold = 1.5
    save_user_model(user, directory / "u.usermodel")
    return {"descriptor": directory / "model.sig", "usermodel": directory / "u.usermodel"}


def _set(key, value, table="meta"):
    """Edit for ``craft``: the metadata entry ``key`` (the array, with
    ``table="arrays"``) set to ``value``, or dropped when it is None."""
    def edit(meta, arrays):
        entries = arrays if table == "arrays" else meta
        if value is None:
            del entries[key]
        else:
            entries[key] = value
    return edit


def _load_once(load, path):
    """``load(path)``, then ``path`` deleted, so the next file there is new."""
    try:
        return load(path)
    finally:
        path.unlink()


# the config floats whose range checks must also reject NaN and infinity
NON_FINITE_KEYS = ["preprocess.cov_epsilon", "patch.blank_threshold", "whiten.epsilon",
                   "ae.weight_decay", "ae.sparsity_weight", "ae.grad_tol"]


class TestNonFiniteConfigFloats:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", NON_FINITE_KEYS)
    def test_dataclass_refuses(self, key, value):
        prefix, name = key.split(".")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CONFIG_GROUPS[prefix](**{name: value})

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", NON_FINITE_KEYS)
    def test_crafted_model_fails_closed(self, saved, tmp_path, key, value):
        f = craft(saved["descriptor"], tmp_path / "model.sig", _set(key, value))
        prefix, name = key.split(".")
        with pytest.raises(ContainerError, match=re.escape(
                f"{f}: bad {prefix}.* setting: {name} must be finite")):
            load_model(f)


class TestBadModelMetadata:
    @pytest.mark.parametrize("key, value", [
        ("ae.memory", None), ("patch.size", "ten"), ("version", "one"),
        ("seed", None), ("preprocess.smooth", "yes"), ("whiten.mode", None),
        ("whiten.full_rank_input", "1"), ("ae.final_cost", "cheap"),
        ("ae.converged", None), ("patch.oversample_factor", "1.5"),
    ])
    def test_descriptor_model_fails_closed_naming_the_key(self, saved, tmp_path, key, value):
        f = craft(saved["descriptor"], tmp_path / "model.sig", _set(key, value))
        with pytest.raises(ContainerError, match=re.escape(key)):
            load_model(f)

    @pytest.mark.parametrize("key, value", [
        ("n_train", None), ("reg", "x"), ("version", None), ("version", "one"),
        ("threshold", "high"), ("threshold", None), ("user_id", None),
    ])
    def test_user_model_fails_closed_naming_the_key(self, saved, tmp_path, key, value):
        f = craft(saved["usermodel"], tmp_path / "u.usermodel", _set(key, value))
        with pytest.raises(ContainerError, match=re.escape(key)):
            load_user_model(f)

    @pytest.mark.parametrize("key, value", [
        ("threshold", "inf"), ("threshold", "nan"), ("threshold", "-1"),
        ("threshold", "unset"),
        ("n_train", "0"), ("n_train", "-5"), ("reg", "7.5"), ("reg", "-0.1"),
    ])
    def test_user_model_value_out_of_range_fails_closed(self, saved, tmp_path, key, value):
        f = craft(saved["usermodel"], tmp_path / "u.usermodel", _set(key, value))
        refusal = ("could not convert string to float: 'unset'" if value == "unset"
                   else f"{value!r} is out of range")
        with pytest.raises(ContainerError, match=re.escape(
                f"{f}: bad metadata value for {key}: {refusal}")):
            load_user_model(f)

    @pytest.mark.parametrize("key, value", [
        ("threshold", "0.0"), ("n_train", "1"), ("reg", "0.0"), ("reg", "1.0"),
    ])
    def test_user_model_values_at_the_bounds_load(self, saved, tmp_path, key, value):
        f = craft(saved["usermodel"], tmp_path / "u.usermodel", _set(key, value))
        assert getattr(load_user_model(f), key) == float(value)


class TestBadModelArrays:
    @pytest.mark.parametrize("key", ["whitening.mean", "whitening.basis",
                                     "whitening.eigenvalues", "ae.W1", "ae.b1",
                                     "ae.W2", "ae.b2"])
    def test_missing_descriptor_array_is_named(self, saved, tmp_path, key):
        f = craft(saved["descriptor"], tmp_path / "model.sig", _set(key, None, "arrays"))
        with pytest.raises(ContainerError, match=re.escape(f"{f}: array {key!r} is missing")):
            load_model(f)

    @pytest.mark.parametrize("key, shape_of", [
        ("ae.W1", lambda h, o, i: (h + 1, o)),   # more rows than ae.hidden
        ("ae.W1", lambda h, o, i: (h, o - 1)),   # not the whitening output dimension
        ("ae.W1", lambda h, o, i: (h * o,)),
        ("ae.b1", lambda h, o, i: (h - 1,)),
        ("ae.W2", lambda h, o, i: (h, o)),
        ("ae.b2", lambda h, o, i: (o + 1,)),
        ("whitening.mean", lambda h, o, i: (i + 1,)),
        ("whitening.eigenvalues", lambda h, o, i: (o, 1)),
    ])
    def test_mis_shaped_descriptor_array_is_named(self, tiny_model, saved, tmp_path,
                                                  key, shape_of):
        dims = (tiny_model.hidden, tiny_model.whitening.output_dim,
                tiny_model.whitening.input_dim)
        f = craft(saved["descriptor"], tmp_path / "model.sig",
                  _set(key, np.zeros(shape_of(*dims)), "arrays"))
        with pytest.raises(ContainerError, match=re.escape(f"{f}: array {key!r} has shape")):
            load_model(f)

    def test_hidden_that_disagrees_with_the_weights_fails_closed(self, tiny_model, saved,
                                                                 tmp_path):
        f = craft(saved["descriptor"], tmp_path / "model.sig",
                  _set("ae.hidden", str(tiny_model.hidden + 1)))
        with pytest.raises(ContainerError, match="array 'ae.W1' has shape"):
            load_model(f)

    def test_config_check_failure_names_file_and_key(self, saved, tmp_path):
        f = craft(saved["descriptor"], tmp_path / "model.sig",
                  lambda meta, arrays: meta.update({"patch.size": "10", "patch.stride": "50"}))
        with pytest.raises(ContainerError,
                           match=re.escape(f"{f}: bad patch.* setting: need 1 <= stride")):
            load_model(f)

    @pytest.mark.parametrize("key", ["mean", "covariance"])
    def test_missing_user_model_array_is_named(self, saved, tmp_path, key):
        f = craft(saved["usermodel"], tmp_path / "u.usermodel", _set(key, None, "arrays"))
        with pytest.raises(ContainerError, match=re.escape(f"{f}: array {key!r} is missing")):
            load_user_model(f)

    @pytest.mark.parametrize("key, value, named", [
        ("mean", np.zeros(3), "mean"), ("mean", np.zeros((1, 2)), "mean"),
        ("covariance", np.eye(3), "mean"),  # the square covariance sets the size
        ("covariance", np.ones((2, 3)), "covariance"),
        ("covariance", np.ones(4), "covariance"),
    ])
    def test_mean_and_covariance_must_agree(self, saved, tmp_path, key, value, named):
        f = craft(saved["usermodel"], tmp_path / "u.usermodel", _set(key, value, "arrays"))
        with pytest.raises(ContainerError, match=re.escape(f"{f}: array {named!r} has shape")):
            load_user_model(f)

    @pytest.mark.parametrize("covariance, error", [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "covariance is not finite positive definite"),
        (np.array([[1.0, 0.0], [0.0, np.nan]]), "array 'covariance' is not finite"),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), "array 'covariance' is not finite")])
    def test_unusable_covariance_fails_closed(self, saved, tmp_path, covariance, error):
        f = craft(saved["usermodel"], tmp_path / "u.usermodel",
                  _set("covariance", covariance, "arrays"))
        with pytest.raises(ContainerError, match=re.escape(f"{f}: {error}")):
            load_user_model(f)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_user_mean_fails_closed(self, saved, tmp_path, value):
        f = craft(saved["usermodel"], tmp_path / "u.usermodel",
                  _set("mean", np.array([0.2, value]), "arrays"))
        with pytest.raises(ContainerError, match=re.escape(f"{f}: array 'mean' is not finite")):
            load_user_model(f)


def _resized(settings, hidden=None, size=10, out=1):
    """Edit for ``craft``: the metadata updated by ``settings``; given
    ``hidden``, also ``ae.hidden`` and ``patch.size`` set and the whitening
    ``out`` components wide, every array sized to match."""
    def edit(meta, arrays):
        meta.update(settings)
        if hidden is None:
            return
        meta.update({"ae.hidden": str(hidden), "patch.size": str(size)})
        dim = 2 * size * size
        arrays.update({"whitening.mean": np.zeros(dim), "whitening.basis": np.zeros((out, dim)),
                       "whitening.eigenvalues": np.ones(out),
                       "ae.W1": np.zeros((hidden, out)), "ae.b1": np.zeros(hidden),
                       "ae.W2": np.zeros((out, hidden)), "ae.b2": np.zeros(out)})
    return edit


def _too_large(canvas, size, stride, hidden, grid):
    return (f"preprocess.canvas {canvas}, patch.size {size}, patch.stride {stride} and "
            f"ae.hidden {hidden} are too large: max({grid} dense patches, patch.dim "
            f"{2 * size * size}) times max(patch.dim, ae.hidden) is over the limit of "
            "8388608 values")


class TestSizeLimits:
    """Each size a descriptor model sets is bounded: the raster side, the spline
    count, the encoding width, and the arrays that the dense patch grid, the
    patch width and the encoding width make together."""

    @pytest.mark.parametrize("prefix, name, limit", [
        ("preprocess", "canvas", MAX_CANVAS),
        ("preprocess", "spline_points_per_segment", MAX_SPLINE_POINTS),
        ("ae", "hidden", MAX_HIDDEN)])
    def test_dataclass_refuses_a_size_over_its_limit(self, prefix, name, limit):
        assert getattr(CONFIG_GROUPS[prefix](**{name: limit}), name) == limit
        with pytest.raises(ValueError, match=re.escape(f"{name} must be in [")
                           + f".*, {limit}\\](, got {limit + 1})?$"):
            CONFIG_GROUPS[prefix](**{name: limit + 1})

    @pytest.mark.parametrize("edit, error", [
        (_resized({"preprocess.canvas": "100000"}),
         "bad preprocess.* setting: canvas must be in [16, 1024], got 100000"),
        (_resized({"preprocess.spline_points_per_segment": "1000000"}),
         "bad preprocess.* setting: spline_points_per_segment must be in [1, 16]"),
        (_resized({}, 200_000), "bad ae.* setting: hidden must be in [1, 2048], got 200000"),
        (_resized({"preprocess.canvas": "512", "patch.stride": "2", "patch.skip_blank": "false"}),
         _too_large(512, 10, 2, 8, 63504)),
        (_resized({"preprocess.canvas": "1024", "patch.stride": "1"}),
         _too_large(1024, 10, 1, 8, 1030225)),
        (_resized({"preprocess.canvas": "400"}, 2048), _too_large(400, 10, 5, 2048, 6241)),
        (_resized({"preprocess.canvas": "1024", "patch.stride": "32"}, 8, size=64),
         _too_large(1024, 64, 32, 8, 961)),
        (_resized({}, 8, out=201), "array 'whitening.basis' has 201 rows, more than its "
         "200 columns")],
        ids=["canvas", "spline", "hidden", "grid", "stride1", "grid-hidden", "patch-dim",
             "basis"])
    def test_a_model_over_a_limit_fails_at_load_naming_file_and_keys(
            self, saved, tmp_path, edit, error):
        f = craft(saved["descriptor"], tmp_path / "model.sig", edit)
        with pytest.raises(ContainerError, match="^" + re.escape(f"{f}: {error}") + "$"):
            load_model(f)

    @pytest.mark.parametrize("canvas, edit", [
        (1024, _resized({"preprocess.canvas": "1024"})),  # 41209 patches x 200
        (325, _resized({"preprocess.canvas": "325"}, 2048)),  # 4096 patches x 2048: the limit
        (977, _resized({"preprocess.canvas": "977", "patch.stride": "15"},  # 4096 x 2048 again
                       2048, size=32))], ids=["canvas", "hidden", "patch-dim"])
    def test_the_largest_legal_sizes_load(self, saved, tmp_path, canvas, edit):
        model = load_model(craft(saved["descriptor"], tmp_path / "model.sig", edit))
        assert model.preprocess_cfg.canvas == canvas

    @pytest.mark.parametrize("pre_cfg, patch_cfg, ae_cfg, error", [
        (PreprocessConfig(canvas=512), PatchConfig(stride=2, skip_blank=False), AeConfig(),
         _too_large(512, 10, 2, 64, 63504)),
        (PreprocessConfig(canvas=400), PatchConfig(), AeConfig(hidden=2048),
         _too_large(400, 10, 5, 2048, 6241)),
        (PreprocessConfig(), PatchConfig(size=39), AeConfig(), _too_large(101, 39, 5, 64, 169)),
        (PreprocessConfig(canvas=16), PatchConfig(size=17), AeConfig(),
         "patch.size 17 exceeds preprocess.canvas 16")])
    def test_training_refuses_the_sizes_before_preprocessing(
            self, tiny_corpus, monkeypatch, pre_cfg, patch_cfg, ae_cfg, error):
        def no_preprocess(*args):
            raise AssertionError("the pool was preprocessed")
        monkeypatch.setattr(descriptor, "preprocess", no_preprocess)
        with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
            train_descriptor(tiny_corpus.all_trajectories(), pre_cfg, patch_cfg,
                             ae_cfg=ae_cfg)


# each model file kind: its loader and the schema that loader reads
SCHEMAS = {"descriptor": (load_model, MODEL_FIELDS, MODEL_SHAPES),
           "usermodel": (load_user_model, USER_MODEL_FIELDS, USER_MODEL_SHAPES)}


class TestModelFileSchema:
    @pytest.mark.parametrize("kind", SCHEMAS)
    def test_the_writer_writes_exactly_what_the_schema_reads(self, saved, tmp_path, kind):
        load, fields, shapes = SCHEMAS[kind]
        meta, arrays = container.read_container(saved[kind])
        assert set(meta) == {"kind", "version", *fields}
        assert set(arrays) == set(shapes)
        f = tmp_path / "crafted"
        for key in meta:
            craft(saved[kind], f, _set(key, None))
            named = "found kind=None" if key == "kind" else f"metadata key {key!r} is missing"
            with pytest.raises(ContainerError,
                               match=re.escape(f"{f}: ") + ".*" + re.escape(named)):
                _load_once(load, f)
        for key in arrays:
            craft(saved[kind], f, _set(key, None, "arrays"))
            with pytest.raises(ContainerError,
                               match=re.escape(f"{f}: array {key!r} is missing")):
                _load_once(load, f)

    @pytest.mark.parametrize("kind", SCHEMAS)
    def test_any_flipped_byte_is_refused(self, saved, tmp_path, kind):
        load = SCHEMAS[kind][0]
        f = tmp_path / "flipped"
        original = saved[kind].read_bytes()
        n = len(original)
        # the header and metadata, any byte, and the digest
        at = st.one_of(st.integers(0, min(n, 1024) - 1), st.integers(0, n - 1),
                       st.integers(n - 32, n - 1))

        @settings(max_examples=300, deadline=None)
        @given(at=at, mask=st.integers(1, 255))
        def flipped_byte_is_refused(at, mask):
            raw = bytearray(original)
            raw[at] ^= mask
            f.write_bytes(bytes(raw))
            with pytest.raises(ContainerError):
                _load_once(load, f)

        flipped_byte_is_refused()

    @pytest.mark.parametrize("kind", SCHEMAS)
    def test_a_non_finite_array_element_is_refused(self, saved, tmp_path, kind):
        load, _, shapes = SCHEMAS[kind]
        g = tmp_path / f"crafted-{kind}"

        @settings(max_examples=60, deadline=None)
        @given(key=st.sampled_from(sorted(shapes)), at=st.integers(0, 2**31),
               bad=st.sampled_from([np.nan, np.inf, -np.inf]))
        def non_finite_element_is_refused(key, at, bad):
            def edit(meta, arrays):  # a valid digest: only the value is wrong
                arrays[key].flat[at % arrays[key].size] = bad
            craft(saved[kind], g, edit)
            with pytest.raises(ContainerError, match=re.escape(
                    f"{g}: array {key!r} is not finite")):
                _load_once(load, g)

        non_finite_element_is_refused()


# the float values a mutated array element takes
EXTREMES = [np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324]


class TestReDigestedMutation:
    """A model file with a valid digest either fails to load, naming the file,
    or works: describing and verifying a claim gives a decision or a
    ValueError, never a numpy warning or a non-finite score."""

    @pytest.mark.parametrize("kind", SCHEMAS)
    def test_fails_closed_or_works_quietly(self, tiny_model, tiny_corpus, tmp_path, kind):
        genuine = tiny_corpus.users[tiny_corpus.user_ids()[0]].genuine
        values = np.array([describe(t, tiny_model).values for t in genuine])
        user = fit_user_model(values, user_id="u")
        calibrate_threshold(user, score(user, values))
        files = {"descriptor": tmp_path / "model.sig", "usermodel": tmp_path / "u.usermodel"}
        save_model(tiny_model, files["descriptor"])
        save_user_model(user, files["usermodel"])
        raw = files[kind].read_bytes()
        _, arrays = container.read_container(files[kind])
        (meta_len,) = struct.unpack_from("<I", raw, 8)
        f = tmp_path / f"mutated-{kind}"  # loaded in place of files[kind]

        @settings(max_examples=150, deadline=None)
        @given(data=st.data())
        def mutation_fails_closed_or_works(data):
            how = data.draw(st.sampled_from(["metadata character", "payload byte", "float"]))
            if how == "float":
                key = data.draw(st.sampled_from(sorted(arrays)))
                bad = data.draw(st.sampled_from(EXTREMES))
                at = data.draw(st.integers(0, arrays[key].size - 1))

                def edit(meta, arrays):
                    arrays[key].flat[at] = bad
                craft(files[kind], f, edit)
            else:
                payload = bytearray(raw[:-32])
                if how == "metadata character":
                    at = data.draw(st.integers(12, 12 + meta_len - 1))
                    payload[at] = data.draw(st.sampled_from(b"0123456789.-+e=\nazx "))
                else:
                    at = data.draw(st.integers(0, len(payload) - 1))
                    payload[at] = data.draw(st.integers(0, 255))
                f.write_bytes(digested(bytes(payload)))
            paths = {**files, kind: f}
            try:
                descriptor_model = load_model(paths["descriptor"])
                user_model = load_user_model(paths["usermodel"])
            except ContainerError as exc:
                assert str(f) in str(exc)
                return
            finally:
                f.unlink()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    _, s = verify(user_model, describe(genuine[0], descriptor_model))
                except ValueError:  # e.g. a non-finite descriptor or score
                    return
            assert np.isfinite(s)

        mutation_fails_closed_or_works()


class TestModelHeader:
    def test_user_model_version_mismatch_names_file_and_versions(self, saved, tmp_path):
        f = craft(saved["usermodel"], tmp_path / "u.usermodel", _set("version", "2"))
        with pytest.raises(ContainerError, match=re.escape(
                f"{f}: user model version 2 does not match supported version 1")):
            load_user_model(f)

    def test_descriptor_model_version_mismatch_names_file_and_versions(self, saved, tmp_path):
        f = craft(saved["descriptor"], tmp_path / "model.sig", _set("version", "2"))
        with pytest.raises(ContainerError, match=re.escape(
                f"{f}: descriptor model version 2 does not match supported version 1")):
            load_model(f)

    def test_user_model_metadata_text(self, tmp_path):
        f = tmp_path / "u.usermodel"
        model = fit_user_model(np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]]),
                               reg=np.float64(0.9), user_id="u")
        model.threshold = 1.5
        save_user_model(model, f)
        meta, _ = container.read_container(f)
        assert meta == {"kind": "usermodel", "version": "1", "user_id": "u",
                        "reg": "0.9", "n_train": "3", "threshold": "1.5"}
        model.threshold = 0.1 + 0.2
        save_user_model(model, f)
        assert container.read_container(f)[0]["threshold"] == "0.30000000000000004"


def _run_config(*items):
    return _build_config(argparse.Namespace(config=None, set=list(items), seed=None))


class TestCliSchema:
    def test_every_config_field_is_a_cli_key_with_its_default(self):
        values = _run_config()
        for prefix, cls in CONFIG_GROUPS.items():
            for f in dataclasses.fields(cls):
                assert values[f"{prefix}.{f.name}"] == f.default

    def test_group_builds_the_dataclass_from_run_values(self):
        values = _run_config("patch.oversample_factor=3", "whiten.mode=zca",
                             "preprocess.smooth=false")
        assert config_group("patch", values) == PatchConfig(oversample_factor=3)
        assert config_group("whiten", values) == WhitenConfig(mode="zca")
        assert config_group("preprocess", values) == PreprocessConfig(smooth=False)
        assert config_group("ae", values) == AeConfig()

    @pytest.mark.parametrize("key, accepted, refused", [
        ("oneclass.reg", ["0", "1", "0.5"], ["-0.1", "1.5", "nan", "inf"]),
        ("eval.folds", ["2", "10"], ["1", "0", "-3"]),
        ("synth.users", ["1"], ["0", "-1"]), ("synth.genuine", ["1"], ["0"]),
        ("synth.forgery", ["0"], ["-1"])])
    def test_bounded_run_keys_are_range_checked(self, key, accepted, refused):
        for raw in accepted:
            _run_config(f"{key}={raw}")
        for raw in refused:
            with pytest.raises(ValueError, match=re.escape(
                    f"bad value for {key}: {raw!r} is out of range")):
                _run_config(f"{key}={raw}")

    def test_the_threshold_quantile_is_not_a_key(self):
        for raw in ("1", "0.25", "0"):
            with pytest.raises(ValueError, match=re.escape(
                    "unknown configuration key 'oneclass.quantile'")):
                _run_config(f"oneclass.quantile={raw}")

    def test_readme_configuration_table_matches_the_echoed_defaults(self, capsys):
        text = README.read_text()
        section = text[text.index("## Configuration"):]
        section = section[:section.index("\n## ", 1)]
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]*)` \|", section, re.MULTILINE)
        documented = dict(rows)
        assert len(documented) == len(rows), "a key is documented twice"
        _run_config()
        echoed = dict(re.findall(r"^config (\S+) = (.*)$", capsys.readouterr().err,
                                 re.MULTILINE))
        assert documented == echoed

