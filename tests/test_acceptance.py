"""End-to-end checks of the documented behavior guarantees.

Each test prints one PASS/FAIL line (repeated in the terminal summary) so
a full run reads as a checklist.  The synthetic benchmark trains a real
descriptor model at a reduced but honest scale; the public-dataset
benchmark only runs when SIGVERIFY_SVC2004_DIR points at a local copy.
"""

import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from sigverify import (AeConfig, AeParams, PatchConfig, PreprocessConfig,
                       Trajectory, WhitenConfig, apply_whitening, cost_grad,
                       describe, describe_baseline, fit_whitening,
                       generate_synthetic_corpus, init_params, kl_divergence,
                       load_corpus, normalize_extent, orientation_angle,
                       preprocess, run_experiment, sample_training_patches,
                       train_descriptor)
from sigverify.cli import main
from sigverify.dataset import Corpus, UserSignatures, parse_svc2004

from conftest import record_criterion, skip_criterion
from test_autoencoder import fd_gradient, relative_error
from test_evaluation import oracle_auc, oracle_eer, random_score_set


@pytest.fixture(scope="module")
def desk():
    """Labelled corpus, disjoint unlabeled pool, and a trained model."""
    corpus = generate_synthetic_corpus(seed=202, n_users=20, n_genuine=12,
                                       n_forgery=10)
    unlabeled = generate_synthetic_corpus(seed=101, n_users=10, n_genuine=5,
                                          n_forgery=0)
    started = time.perf_counter()
    model = train_descriptor(unlabeled.all_trajectories(),
                             patch_cfg=PatchConfig(train_count=20_000),
                             ae_cfg=AeConfig(hidden=64, max_iter=200, seed=0),
                             seed=0)
    return corpus, model, time.perf_counter() - started


def test_criterion_1_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 9))
        h = int(rng.integers(1, 6))
        m = int(rng.integers(1, 11))
        cfg = AeConfig(hidden=h,
                       weight_decay=float(rng.uniform(0, 0.01)),
                       sparsity_weight=float(rng.uniform(0, 4.0)),
                       sparsity_target=float(rng.uniform(0.02, 0.3)),
                       seed=int(rng.integers(10_000)))
        params = init_params(d, cfg)
        batch = rng.normal(size=(m, d))
        _, grad = cost_grad(params, batch, cfg)
        err = relative_error(grad.pack(), fd_gradient(params, batch, cfg))
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    record_criterion(1, "training gradient", worst <= 1e-6 and elapsed < 10.0,
                     f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_frozen_reference_constants():
    kl = float(kl_divergence(0.05, np.array([0.5]))[0])
    kl_ok = abs(kl - 0.4946) <= 1e-3

    angle = orientation_angle(np.arange(10.0), np.arange(10.0))
    angle_ok = abs(angle - np.pi / 4) <= 1e-9

    x, y = normalize_extent(np.array([2.0, 4.0, 6.0]), np.array([2.0, 4.0, 6.0]))
    extent_ok = x.tolist() == [0.0, 50.0, 100.0] and y.tolist() == [0.0, 50.0, 100.0]

    record_criterion(2, "reference constants",
                     kl_ok and angle_ok and extent_ok,
                     f"kl {kl:.6f}, angle {angle:.12f}")


def test_criterion_3_error_rates_match_brute_force():
    rng = np.random.default_rng(1003)
    from sigverify import auc, eer, roc
    started = time.perf_counter()
    worst_eer = worst_auc = 0.0
    for _ in range(500):
        s = random_score_set(rng)
        e = eer(roc(s))
        a = auc(s)
        worst_eer = max(worst_eer, abs(e - oracle_eer(s.genuine.tolist(),
                                                      s.forgery.tolist())))
        worst_auc = max(worst_auc, abs(a - oracle_auc(s.genuine.tolist(),
                                                      s.forgery.tolist())))
    elapsed = time.perf_counter() - started
    record_criterion(3, "error-rate oracle",
                     worst_eer <= 1e-12 and worst_auc <= 1e-12 and elapsed < 5.0,
                     f"eer dev {worst_eer:.1e}, auc dev {worst_auc:.1e}, "
                     f"{elapsed:.1f}s")


def test_criterion_4_whitened_patches_are_decorrelated():
    corpus = generate_synthetic_corpus(seed=77, n_users=8, n_genuine=4,
                                       n_forgery=0)
    images = [preprocess(t) for t in corpus.all_trajectories()]
    cfg = PatchConfig(train_count=10_000)
    raw = sample_training_patches(images, cfg, seed=7)
    wcfg = WhitenConfig()
    tf = fit_whitening(raw, wcfg)
    white = apply_whitening(tf, raw)
    cov = np.cov(white, rowvar=False)
    off = np.abs(cov - np.diag(np.diag(cov))).max()
    strong = tf.eigenvalues >= 10.0 * wcfg.epsilon
    diag = np.diag(cov)[strong]
    diag_ok = bool(np.all((diag >= 0.5) & (diag <= 1.5)))
    record_criterion(4, "patch whitening", off <= 0.05 and diag_ok,
                     f"max off-diag {off:.2e}, "
                     f"{int(strong.sum())}/{len(cov)} strong components")


def test_criterion_5_descriptor_invariances(desk):
    corpus, model, _ = desk
    trajs = [corpus.users[uid].genuine[0] for uid in corpus.user_ids()[:5]]

    translation_ok = True
    for tr in trajs:
        moved = Trajectory(tr.x + 731.0, tr.y - 52.0, tr.t, tr.pressure,
                           tr.pen_down, user_id=tr.user_id, label=tr.label)
        a = describe(tr, model).values
        b = describe(moved, model).values
        translation_ok &= bool(np.array_equal(a, b))

    scale_dev = 0.0
    for tr in trajs:
        big = Trajectory(tr.x * 3.0, tr.y * 3.0, tr.t, tr.pressure,
                         tr.pen_down, user_id=tr.user_id, label=tr.label)
        a = describe(tr, model).values
        b = describe(big, model).values
        scale_dev = max(scale_dev, float(np.max(np.abs(a - b))))

    from sigverify.autoencoder import encode
    from sigverify.patches import extract_dense
    perm_dev = 0.0
    rng = np.random.default_rng(5)
    for tr in trajs:
        dense = extract_dense(preprocess(tr, model.preprocess_cfg), model.patch_cfg)
        white = apply_whitening(model.whitening, dense)
        a = encode(model.ae, white).mean(axis=0)
        b = encode(model.ae, white[rng.permutation(len(white))]).mean(axis=0)
        perm_dev = max(perm_dev, float(np.max(np.abs(a - b))))

    record_criterion(5, "descriptor invariances",
                     translation_ok and scale_dev <= 0.01 and perm_dev <= 1e-12,
                     f"scale dev {scale_dev:.2e}, pooling dev {perm_dev:.1e}")


def test_criterion_6_command_line_runs_are_byte_identical(tmp_path):
    fast = ["--set", "ae.hidden=8", "--set", "ae.max_iter=15",
            "--set", "patch.train_count=800"]
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "29",
                 "--set", "synth.users=4", "--set", "synth.genuine=6",
                 "--set", "synth.forgery=2"]) == 0

    identical = True
    pairs = []
    for run in ("a", "b"):
        model = tmp_path / f"model_{run}.sig"
        users = tmp_path / f"users_{run}"
        report = tmp_path / f"report_{run}"
        assert main(["learn-descriptor", "--corpus", str(corpus),
                     "--out", str(model), "--seed", "29"] + fast) == 0
        assert main(["enroll", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(users)]) == 0
        assert main(["evaluate", "--model", str(model), "--corpus",
                     str(corpus), "--out", str(report)]) == 0
        pairs.append((model, users, report))

    (model_a, users_a, report_a), (model_b, users_b, report_b) = pairs
    identical &= model_a.read_bytes() == model_b.read_bytes()
    for f in sorted(users_a.iterdir()):
        identical &= f.read_bytes() == (users_b / f.name).read_bytes()
    names_a = sorted(p.name for p in report_a.iterdir())
    names_b = sorted(p.name for p in report_b.iterdir())
    identical &= names_a == names_b
    for name in names_a:
        identical &= (report_a / name).read_bytes() == \
            (report_b / name).read_bytes()
    record_criterion(6, "repeatable cli artifacts", identical,
                     f"{2 + len(names_a) + len(list(users_a.iterdir()))} "
                     "files compared")


def test_criterion_7_synthetic_benchmark_beats_its_baseline(desk):
    corpus, model, train_time = desk
    started = time.perf_counter()
    learned = run_experiment(corpus, model, k=4, reg=0.9, seed=0)
    baseline = run_experiment(corpus, model, k=4, reg=0.9, seed=0,
                              describe_fn=describe_baseline)
    elapsed = train_time + (time.perf_counter() - started)
    ok = (learned.mean_eer <= 0.15
          and learned.mean_eer < baseline.mean_eer
          and elapsed <= 600.0)
    record_criterion(7, "synthetic benchmark", ok,
                     f"eer {learned.mean_eer:.4f} vs baseline "
                     f"{baseline.mean_eer:.4f}, {elapsed:.0f}s")


def _load_svc_directory(root: Path) -> Corpus:
    """Flat directory of U<user>S<sample>.TXT files; samples 1-20 are
    genuine, 21-40 skilled forgeries."""
    corpus = Corpus(source=str(root))
    pattern = re.compile(r"U(\d+)S(\d+)\.TXT$", re.IGNORECASE)
    for f in sorted(root.iterdir()):
        m = pattern.match(f.name)
        if not m:
            continue
        uid = f"user{int(m.group(1)):03d}"
        sample = int(m.group(2))
        label = "genuine" if sample <= 20 else "skilled_forgery"
        traj = parse_svc2004(f.read_text(), user_id=uid, label=label,
                             source=corpus.source)
        corpus.users.setdefault(uid, UserSignatures())
        bucket = (corpus.users[uid].genuine if label == "genuine"
                  else corpus.users[uid].skilled_forgeries)
        bucket.append(traj)
    if not corpus.users:
        raise ValueError(f"no U*S*.TXT signature files under {root}")
    return corpus


def test_criterion_8_public_dataset_benchmark():
    root = os.environ.get("SIGVERIFY_SVC2004_DIR")
    if not root:
        skip_criterion(8, "public dataset benchmark",
                       "SIGVERIFY_SVC2004_DIR not set")
    root = Path(root)
    corpus = (_load_svc_directory(root) if any(root.glob("*.TXT"))
              else load_corpus(root, layout="svc2004"))
    users = corpus.user_ids()
    held_out = {uid: corpus.users[uid] for uid in users[: len(users) // 4]}
    evaluated = {uid: corpus.users[uid] for uid in users[len(users) // 4:]}
    unlabeled = Corpus(users=held_out, source=corpus.source + "-heldout")
    eval_corpus = Corpus(users=evaluated, source=corpus.source)
    model = train_descriptor(
        [t for u in unlabeled.users.values() for t in u.genuine],
        patch_cfg=PatchConfig(train_count=100_000),
        ae_cfg=AeConfig(hidden=2000, max_iter=700, seed=0), seed=0)
    report = run_experiment(eval_corpus, model, k=4, reg=0.9, seed=0)
    record_criterion(8, "public dataset benchmark", report.mean_eer <= 0.05,
                     f"mean eer {report.mean_eer:.4f} over "
                     f"{len(report.per_user)} users")


def test_criterion_9_degenerate_inputs_never_crash(desk):
    _, model, _ = desk
    n = 16
    base_t = np.arange(n, dtype=float)
    wave = 10.0 * np.sin(np.linspace(0, 3, n))
    ramp = np.linspace(0, 40, n)
    cases = {
        "coincident points": Trajectory([5.0] * n, [5.0] * n, base_t,
                                        [1.0] * n, [True] * n),
        "horizontal line": Trajectory(ramp, [5.0] * n, base_t, [1.0] * n,
                                      [True] * n),
        "diagonal line": Trajectory(ramp, ramp * 2.0 + 1.0, base_t,
                                    [1.0] * n, [True] * n),
        "all pen up": Trajectory(ramp, wave + 20.0, base_t, [0.0] * n,
                                 [False] * n),
        "zero pressure": Trajectory(ramp, wave + 20.0, base_t, [0.0] * n,
                                    [True] * n),
        "single pen down": Trajectory(ramp, wave + 20.0, base_t, [0.0] * (n - 1) + [1.0],
                                      [False] * (n - 1) + [True]),
        "frozen clock": Trajectory(ramp, wave + 20.0, [3.0] * n, [1.0] * n,
                                   [True] * n),
        "repeated timestamps": Trajectory(ramp, wave + 20.0,
                                          np.repeat(np.arange(n // 2), 2).astype(float),
                                          [1.0] * n, [True] * n),
        "two samples": Trajectory([0.0, 60.0], [0.0, 45.0], [0.0, 1.0],
                                  [1.0, 1.0], [True, True]),
        "huge coordinates": Trajectory(ramp * 1e6, (wave + 20.0) * 1e6,
                                       base_t, [1.0] * n, [True] * n),
        "tiny extent": Trajectory(ramp * 1e-9, (wave + 20.0) * 1e-9, base_t,
                                  [1.0] * n, [True] * n),
    }
    failures = []
    handled = 0
    for name, tr in cases.items():
        try:
            d = describe(tr, model)
            if not (np.all(np.isfinite(d.values))
                    and d.values.shape == (model.hidden,)):
                failures.append(f"{name}: non-finite or misshapen output")
        except ValueError:
            handled += 1  # a clear rejection is acceptable
        except Exception as exc:  # noqa: BLE001 - the point of the test
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    record_criterion(9, "degenerate inputs", not failures,
                     f"{len(cases) - handled} described, {handled} rejected "
                     f"cleanly" + ("; " + "; ".join(failures) if failures else ""))
