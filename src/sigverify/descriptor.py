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


def config_fields(prefix: str) -> tuple:
    """(name, declared type, default) of each field of a config group."""
    return tuple((f.name, f.type, f.default) for f in dataclasses.fields(CONFIG_GROUPS[prefix]))


def config_group(prefix: str, values):
    """The config dataclass of ``prefix`` built from flat ``prefix.name`` values."""
    return CONFIG_GROUPS[prefix](**{name: values[f"{prefix}.{name}"]
                                    for name, _, _ in config_fields(prefix)})


def save_model(model: DescriptorModel, path) -> None:
    wt, ae = model.whitening, model.ae
    meta = {
        "kind": "descriptor",
        "version": MODEL_VERSION,
        "seed": model.seed,
        "sources": ",".join(model.train_sources),
        "whiten.full_rank_input": wt.full_rank_input,
        "ae.final_cost": ae.final_cost,
        "ae.n_iter": ae.n_iter,
        "ae.converged": ae.converged,
        "ae.line_search_failed": ae.line_search_failed,
    }
    groups = {"preprocess": model.preprocess_cfg, "patch": model.patch_cfg,
              "whiten": wt.config, "ae": ae.config}
    for prefix, obj in groups.items():
        for name, _, _ in config_fields(prefix):
            meta[f"{prefix}.{name}"] = getattr(obj, name)
    arrays = {f"whitening.{n}": getattr(wt, n) for n in ("mean", "basis", "eigenvalues")}
    arrays.update({f"ae.{n}": getattr(ae.params, n) for n in ("W1", "b1", "W2", "b2")})
    container.write_container(path, meta, arrays)


# the descriptor model file schema (see container.read_model)
MODEL_FIELDS = {"seed": int, "sources": lambda text: tuple(s for s in text.split(",") if s),
                "whiten.full_rank_input": bool, "ae.final_cost": float, "ae.n_iter": int,
                "ae.converged": bool, "ae.line_search_failed": bool,
                **{f"{prefix}.{name}": kind for prefix in CONFIG_GROUPS
                   for name, kind, _ in config_fields(prefix)}}
MODEL_SHAPES = {"whitening.basis": ("out", "in"), "whitening.mean": ("in",),
                "whitening.eigenvalues": ("out",), "ae.W1": ("ae.hidden", "out"),
                "ae.b1": ("ae.hidden",), "ae.W2": ("out", "ae.hidden"), "ae.b2": ("out",)}


def load_model(path) -> DescriptorModel:
    values, arrays = container.read_model(path, "descriptor", MODEL_VERSION,
                                          MODEL_FIELDS, MODEL_SHAPES)
    cfgs = {}
    for prefix in CONFIG_GROUPS:
        try:
            cfgs[prefix] = config_group(prefix, values)
        except ValueError as exc:  # a failed config check, such as stride <= size
            raise container.ContainerError(f"{path}: bad {prefix}.* metadata: {exc}") from None
    patch, canvas, width = cfgs["patch"], cfgs["preprocess"].canvas, len(arrays["whitening.mean"])
    if patch.size > canvas:
        raise container.ContainerError(f"{path}: patch.size {patch.size} exceeds "
                                       f"preprocess.canvas {canvas}")
    if width != patch.dim:
        raise container.ContainerError(f"{path}: array 'whitening.mean' has {width} entries, "
                                       f"patch.size {patch.size} needs {patch.dim}")
    transform = WhiteningTransform(
        **{n: arrays[f"whitening.{n}"] for n in ("mean", "basis", "eigenvalues")},
        config=cfgs["whiten"], full_rank_input=values["whiten.full_rank_input"])
    params = AeParams(**{n: arrays[f"ae.{n}"] for n in ("W1", "b1", "W2", "b2")})
    ae = AutoencoderModel(
        params=params, config=cfgs["ae"],
        **{n: values[f"ae.{n}"]
           for n in ("final_cost", "n_iter", "converged", "line_search_failed")})
    return DescriptorModel(preprocess_cfg=cfgs["preprocess"], patch_cfg=cfgs["patch"],
                           whitening=transform, ae=ae, seed=values["seed"],
                           train_sources=values["sources"])
