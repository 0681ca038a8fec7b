"""Fixed-length signature descriptor learned from unlabeled signatures.

Training preprocesses every unlabeled trajectory, samples random patches,
fits a whitening transform, and trains the sparse autoencoder on the
whitened patches.  Describing a signature preprocesses it, extracts dense
patches, whitens and encodes each one, and mean-pools the hidden
activations componentwise, giving a vector of length ``hidden`` with
every entry strictly inside (0, 1) regardless of signature duration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import container
from .autoencoder import AeConfig, AeParams, AutoencoderModel, encode, train
from .dataset import Trajectory
from .patches import PatchConfig, extract_dense, sample_training_patches
from .preprocess import PreprocessConfig, preprocess
from .whitening import WhitenConfig, WhiteningTransform, _fit_centring, apply_whitening

MODEL_VERSION = 1
# fixed limit on the float64 values of any one array that describing a signature
# holds (64 MiB; see check_sizes).  Canvas 1024 at the default patch fits.
MAX_DENSE_VALUES = 2**23


@dataclass
class Descriptor:
    values: np.ndarray
    user_id: str
    label: str


@dataclass
class DescriptorModel:
    preprocess_cfg: PreprocessConfig
    patch_cfg: PatchConfig
    whitening: WhiteningTransform
    ae: AutoencoderModel
    seed: int = 0
    train_sources: tuple = ()

    @property
    def hidden(self) -> int:
        return self.ae.config.hidden


def check_sizes(pre: PreprocessConfig, patch: PatchConfig, ae: AeConfig) -> None:
    """Refuse a patch larger than the canvas, and sizes with an array over
    ``MAX_DENSE_VALUES`` values: the dense patches, their encoding, the whitening
    basis and the encoder weights (whitened width at most patch.dim) all fit in
    max(dense grid, patch.dim) x max(patch.dim, ae.hidden)."""
    if patch.size > pre.canvas:
        raise ValueError(f"patch.size {patch.size} exceeds preprocess.canvas {pre.canvas}")
    grid = ((pre.canvas - patch.size) // patch.stride + 1) ** 2
    if max(grid, patch.dim) * max(patch.dim, ae.hidden) > MAX_DENSE_VALUES:
        raise ValueError(
            f"preprocess.canvas {pre.canvas}, patch.size {patch.size}, patch.stride "
            f"{patch.stride} and ae.hidden {ae.hidden} are too large: max({grid} dense "
            f"patches, patch.dim {patch.dim}) times max(patch.dim, ae.hidden) is over the "
            f"limit of {MAX_DENSE_VALUES} values")


def train_descriptor(unlabeled: list[Trajectory],
                     pre_cfg: PreprocessConfig = PreprocessConfig(),
                     patch_cfg: PatchConfig = PatchConfig(),
                     whiten_cfg: WhitenConfig = WhitenConfig(),
                     ae_cfg: AeConfig = AeConfig(),
                     seed: int = 0) -> DescriptorModel:
    """Learn a descriptor model from unlabeled trajectories.

    The unlabeled set must be disjoint from any evaluation corpus; this
    is the caller's responsibility, and the source tags stored on the
    model let downstream runs check it.  Deterministic given inputs,
    configs and seed.
    """
    if not unlabeled:
        raise ValueError("need at least one unlabeled trajectory")
    check_sizes(pre_cfg, patch_cfg, ae_cfg)
    raw = sample_training_patches((preprocess(t, pre_cfg) for t in unlabeled),
                                  patch_cfg, seed)
    transform = _fit_centring(raw, whiten_cfg)
    white = raw @ transform.basis.T  # raw is centred: apply_whitening's projection
    del raw  # each array is dropped once the next is built
    model = train(white, ae_cfg)
    sources = tuple(sorted({t.source for t in unlabeled if t.source}))
    return DescriptorModel(preprocess_cfg=pre_cfg, patch_cfg=patch_cfg,
                           whitening=transform, ae=model, seed=seed,
                           train_sources=sources)


def _pooled(traj: Trajectory, model: DescriptorModel, encoder) -> Descriptor:
    """Mean of ``encoder``'s rows for the whitened dense patches.  A finite model's
    GEMM or ``exp`` may overflow quietly (``exp`` to its limit 0); a non-finite mean fails."""
    dense = extract_dense(preprocess(traj, model.preprocess_cfg), model.patch_cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = encoder(apply_whitening(model.whitening, dense))
        values = np.add.reduce(rows, axis=0) / len(rows)  # ndarray.mean's sum and divide
    if not np.isfinite(values).all():
        raise ValueError("the descriptor model gives a non-finite descriptor")
    return Descriptor(values=values, user_id=traj.user_id, label=traj.label)


def describe(traj: Trajectory, model: DescriptorModel) -> Descriptor:
    """Mean-pooled hidden activations over the signature's dense patches."""
    return _pooled(traj, model, lambda white: encode(model.ae, white))


def describe_baseline(traj: Trajectory, model: DescriptorModel) -> Descriptor:
    """Reference descriptor without the autoencoder: mean whitened patch.

    Used as the raw-pixel baseline when judging whether the learned
    encoding actually helps.
    """
    return _pooled(traj, model, lambda white: white)


# -- serialization ----------------------------------------------------------

# the config dataclasses by key prefix: one schema for model metadata and CLI keys
CONFIG_GROUPS = {"preprocess": PreprocessConfig, "patch": PatchConfig,
                 "whiten": WhitenConfig, "ae": AeConfig}
# each named once: the training record kept from an AutoencoderModel, and the
# arrays of its whitening and its encoder
_AE_STATE = ("final_cost", "n_iter", "converged", "line_search_failed")
_WHITENING_ARRAYS = ("mean", "basis", "eigenvalues")
_AE_ARRAYS = ("W1", "b1", "W2", "b2")


def config_group(prefix: str, values):
    """The config dataclass of ``prefix`` built from flat ``prefix.name`` values;
    a refusal names the group."""
    cls = CONFIG_GROUPS[prefix]
    try:
        return cls(**{f.name: values[f"{prefix}.{f.name}"] for f in dataclasses.fields(cls)})
    except ValueError as exc:  # a failed config check, such as stride <= size
        raise ValueError(f"bad {prefix}.* setting: {exc}") from None


def save_model(model: DescriptorModel, path) -> None:
    wt, ae = model.whitening, model.ae
    configs = zip(CONFIG_GROUPS, (model.preprocess_cfg, model.patch_cfg, wt.config, ae.config))
    meta = {"kind": "descriptor", "version": MODEL_VERSION, "seed": model.seed,
            "sources": ",".join(model.train_sources),
            "whiten.full_rank_input": wt.full_rank_input,
            **{f"ae.{n}": getattr(ae, n) for n in _AE_STATE},
            **{f"{prefix}.{f.name}": getattr(obj, f.name)
               for prefix, obj in configs for f in dataclasses.fields(obj)}}
    arrays = {f"whitening.{n}": getattr(wt, n) for n in _WHITENING_ARRAYS}
    arrays.update({f"ae.{n}": getattr(ae.params, n) for n in _AE_ARRAYS})
    container.write_container(path, meta, arrays)


# the descriptor model file schema (see container.read_model)
MODEL_FIELDS = {"seed": int, "sources": lambda text: tuple(s for s in text.split(",") if s),
                "whiten.full_rank_input": bool,
                **{f"ae.{f.name}": f.type for f in dataclasses.fields(AutoencoderModel)
                   if f.name in _AE_STATE},
                **{f"{prefix}.{f.name}": f.type for prefix, cls in CONFIG_GROUPS.items()
                   for f in dataclasses.fields(cls)}}
MODEL_SHAPES = {"whitening.basis": ("out", "in"), "whitening.mean": ("in",),
                "whitening.eigenvalues": ("out",), "ae.W1": ("ae.hidden", "out"),
                "ae.b1": ("ae.hidden",), "ae.W2": ("out", "ae.hidden"), "ae.b2": ("out",)}


def load_model(path) -> DescriptorModel:
    values, arrays = container.read_model(path, "descriptor", MODEL_VERSION,
                                          MODEL_FIELDS, MODEL_SHAPES)
    try:  # one check path with training: each config group, then the sizes
        cfgs = {prefix: config_group(prefix, values) for prefix in CONFIG_GROUPS}
        check_sizes(cfgs["preprocess"], cfgs["patch"], cfgs["ae"])
    except ValueError as exc:
        raise container.ContainerError(f"{path}: {exc}") from None
    transform = WhiteningTransform(
        **{n: arrays[f"whitening.{n}"] for n in _WHITENING_ARRAYS},
        config=cfgs["whiten"], full_rank_input=values["whiten.full_rank_input"])
    patch, width = cfgs["patch"], transform.input_dim
    if width != patch.dim:
        raise container.ContainerError(f"{path}: array 'whitening.mean' has {width} entries, "
                                       f"patch.size {patch.size} needs {patch.dim}")
    if (out := transform.output_dim) > width:  # a fitted whitening never widens
        raise container.ContainerError(f"{path}: array 'whitening.basis' has {out} rows, "
                                       f"more than its {width} columns")
    ae = AutoencoderModel(params=AeParams(**{n: arrays[f"ae.{n}"] for n in _AE_ARRAYS}),
                          config=cfgs["ae"], **{n: values[f"ae.{n}"] for n in _AE_STATE})
    return DescriptorModel(preprocess_cfg=cfgs["preprocess"], patch_cfg=cfgs["patch"],
                           whitening=transform, ae=ae, seed=values["seed"],
                           train_sources=values["sources"])
