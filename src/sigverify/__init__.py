"""Online signature verification.

Pen trajectories are preprocessed into two-channel raster images, local
patches are whitened and encoded by a sparse autoencoder trained on
unlabeled signatures, and the mean-pooled activations form a fixed-length
descriptor.  Each enrolled user gets a one-class Gaussian model over their
genuine descriptors; verification thresholds a Mahalanobis score.
"""

from .autoencoder import (AeConfig, AeParams, AutoencoderModel, cost_grad, encode,
                          forward, init_params, kl_divergence, train)
from .dataset import (GENUINE, SKILLED_FORGERY, Corpus, ParseError, Trajectory,
                      UserSignatures, format_canonical, generate_synthetic_corpus,
                      load_corpus, parse_canonical, parse_svc2004, save_corpus)
from .descriptor import (MODEL_VERSION, Descriptor, DescriptorModel, describe,
                         describe_baseline, load_model, save_model,
                         train_descriptor)
from .evaluation import (EvalReport, RocCurve, ScoreSet, UserResult, auc, eer,
                         format_report, roc, roc_csv, run_experiment,
                         scores_csv, split_protocol)
from .oneclass import (UserModel, calibrate_threshold, fit_user_model,
                       load_user_model, save_user_model, verify)
from .oneclass import score as score_descriptor
from .optimize import MinimizeResult, minimize_lbfgs
from .patches import PatchConfig, extract_dense, sample_training_patches
from .preprocess import (PreprocessConfig, SignatureImage, normalize_extent,
                         orientation_angle, preprocess, rasterize, rotate,
                         smooth)
from .whitening import (WhitenConfig, WhiteningTransform, apply_whitening,
                        fit_whitening)

__version__ = "0.1.0"
