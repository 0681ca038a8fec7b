import io
import os
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import sigverify
from conftest import craft
from sigverify.cli import COMMANDS, build_parser, main

FAST = ["--set", "ae.hidden=8", "--set", "ae.max_iter=15",
        "--set", "patch.train_count=800"]
# the config floats whose range checks must also reject NaN and infinity
NON_FINITE_KEYS = ["preprocess.cov_epsilon", "patch.blank_threshold", "whiten.epsilon",
                   "ae.weight_decay", "ae.sparsity_weight", "ae.grad_tol"]
SMALL = ["--set", "synth.users=4", "--set", "synth.genuine=6",
         "--set", "synth.forgery=2"]
# the max RSS README states for `verify` of the zigzag below at canvas 1024:
# it reads about 250 MB, and 1.3 GB if rasterize walks every pixel at once
VERIFY_CEILING_MB = 400
# runs its arguments as its only child, then prints the exit code and the
# child's max RSS in KiB
RSS_WRAPPER = ("import resource, subprocess, sys\n"
               "code = subprocess.run(sys.argv[1:]).returncode\n"
               "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def run_cli(*argv, launcher=()):
    """``python -m sigverify.cli`` in a fresh interpreter, its output captured;
    ``launcher`` is a command line to run it under."""
    src = str(Path(sigverify.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([*launcher, sys.executable, "-m", "sigverify.cli", *argv],
                          capture_output=True, text=True, env=env)


def _crafted(workspace, tmp_path, path, edit):
    """The workspace's models under ``tmp_path``: ``path`` crafted by
    ``edit(meta, arrays)``, the others copied.  Returns the descriptor model."""
    shutil.copytree(workspace / "users", tmp_path / "users",
                    ignore=shutil.ignore_patterns(Path(path).name))
    if path != "model.sig":
        shutil.copy(workspace / "model.sig", tmp_path)
    craft(workspace / path, tmp_path / path, edit)
    return tmp_path / "model.sig"


def _verify_crafted(workspace, tmp_path, capsys, path, edit):
    """``verify`` with ``_crafted``'s models; any numpy warning is an error.
    Returns the exit code, stdout and stderr."""
    _crafted(workspace, tmp_path, path, edit)
    sig = workspace / "corpus" / "user000" / "genuine" / "000.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--model", str(tmp_path / "model.sig"),
                     "--user-models", str(tmp_path / "users"), "--user", "user000", str(sig)])
    return (code, *capsys.readouterr())


def _patch_size_18(meta, arrays):
    meta["patch.size"] = "18"


def _canvas_16(meta, arrays):  # the whitening as wide as the new patch.size
    meta.update({"preprocess.canvas": "16", "patch.size": "17"})
    arrays["whitening.mean"] = np.zeros(578)
    arrays["whitening.basis"] = np.zeros((len(arrays["ae.b2"]), 578))


def _overflowing_whitening(meta, arrays):  # +-inf whitened values: inf - inf in encode
    arrays["whitening.basis"][:] = 1e308


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    model = root / "model.sig"
    users = root / "users"
    assert main(["synth", "--out", str(corpus), "--seed", "13"] + SMALL) == 0
    assert main(["learn-descriptor", "--corpus", str(corpus), "--out",
                 str(model), "--seed", "13"] + FAST) == 0
    assert main(["enroll", "--model", str(model), "--corpus", str(corpus),
                 "--out", str(users)]) == 0
    return root


class TestSynth:
    def test_refuses_non_empty_directory(self, workspace, capsys):
        code = main(["synth", "--out", str(workspace / "corpus")])
        assert code == 1
        assert "not empty" in capsys.readouterr().err

    def test_force_overwrites(self, workspace):
        out = workspace / "corpus"
        assert main(["synth", "--out", str(out), "--seed", "13", "--force"]
                    + SMALL) == 0

    def test_writes_loadable_canonical_files(self, workspace):
        from sigverify import load_corpus
        corpus = load_corpus(workspace / "corpus")
        assert len(corpus.users) == 4
        assert all(len(u.genuine) == 6 for u in corpus.users.values())


class TestConfigHandling:
    def test_unknown_set_key_fails(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"),
                     "--set", "nope.key=1"])
        assert code == 1
        assert "unknown configuration key" in capsys.readouterr().err

    def test_malformed_set_fails(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"), "--set", "seed"])
        assert code == 1
        assert "key=value" in capsys.readouterr().err

    def test_bad_value_type_fails(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"),
                     "--set", "synth.users=many"])
        assert code == 1
        assert "bad value" in capsys.readouterr().err

    def test_config_file_with_comments(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# corpus shape\nsynth.users = 2\n\nsynth.genuine = 5\n")
        code = main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)])
        assert code == 0
        err = capsys.readouterr().err
        assert "config synth.users = 2" in err
        assert "config synth.genuine = 5" in err

    def test_config_file_bad_line_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.users\n")
        code = main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg)])
        assert code == 1
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_set_overrides_config_file_and_seed_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nsynth.users = 2\n")
        code = main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(cfg), "--set", "synth.users=3",
                     "--seed", "42"])
        assert code == 0
        err = capsys.readouterr().err
        assert "config seed = 42" in err
        assert "config synth.users = 3" in err

    def test_a_negative_seed_flag_fails_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: bad value for seed: '-1' is out of range"]
        assert not out.exists()

    def test_missing_config_file_fails(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "c"),
                     "--config", str(tmp_path / "none.cfg")])
        assert code == 1
        assert "cannot read config file" in capsys.readouterr().err

    # (config file text or None for a missing file, --set items, error line):
    # the first failing setting, in file-then---set order, is the one reported
    @pytest.mark.parametrize("text, sets, error", [
        ("", ["seed"], "--set expects key=value, got 'seed'"),
        ("# corpus shape\n\nsynth.users  # no value\n", [],
         "{cfg}:3: expected 'key = value', got 'synth.users'"),
        ("", ["nope.key=1"], "unknown configuration key 'nope.key'"),
        ("", ["synth.users=many"],
         "bad value for synth.users: invalid literal for int() with base 10: 'many'"),
        (None, [], "cannot read config file: [Errno 2] No such file or directory: '{cfg}'"),
        ("synth.users = many\nsynth.genuine\n", [],
         "bad value for synth.users: invalid literal for int() with base 10: 'many'"),
        ("nope = 1\n", ["seed"], "unknown configuration key 'nope'"),
        ("", ["eval.folds=1", "seed"], "bad value for eval.folds: '1' is out of range"),
        ("", ["seed=-1"], "bad value for seed: '-1' is out of range"),
        ("", ["synth.users=0"], "bad value for synth.users: '0' is out of range"),
        ("", ["synth.genuine=0"], "bad value for synth.genuine: '0' is out of range"),
        ("", ["synth.forgery=-1"], "bad value for synth.forgery: '-1' is out of range")])
    def test_a_bad_setting_is_one_exact_error_line(self, tmp_path, capsys, text, sets, error):
        cfg, out = tmp_path / "run.cfg", tmp_path / "c"
        if text is not None:
            cfg.write_text(text)
        argv = ["synth", "--out", str(out), "--config", str(cfg)]
        code = main(argv + [arg for item in sets for arg in ("--set", item)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: " + error.format(cfg=cfg)]
        assert not out.exists()

    @pytest.mark.parametrize("item", ["synth.forgery_perturbation=inf",
                                      "synth.genuine_jitter=-1"])
    def test_removed_synth_keys_fail_closed(self, tmp_path, capsys, item):
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out), "--set", item]) == 1
        err = capsys.readouterr().err.splitlines()
        key = item.partition("=")[0]
        assert f"error: unknown configuration key {key!r}" in err
        assert all(line.startswith(("config ", "error: ")) for line in err), err
        assert not out.exists()


class TestLearnDescriptor:
    def test_refuses_existing_model_without_force(self, workspace, capsys):
        code = main(["learn-descriptor", "--corpus", str(workspace / "corpus"),
                     "--out", str(workspace / "model.sig")] + FAST)
        assert code == 1
        assert "already exists" in capsys.readouterr().err

    def test_force_overwrites_an_existing_model_as_a_fresh_run_would(self, workspace,
                                                                     tmp_path):
        model = tmp_path / "model.sig"
        model.write_bytes(b"an older model")
        assert main(["learn-descriptor", "--corpus", str(workspace / "corpus"), "--out",
                     str(model), "--seed", "13", "--force"] + FAST) == 0
        assert model.read_bytes() == (workspace / "model.sig").read_bytes()

    def test_unconverged_training_warns(self, workspace, tmp_path, capsys):
        code = main(["learn-descriptor", "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "m.sig"), "--set", "ae.hidden=8",
                     "--set", "patch.train_count=800", "--set", "ae.max_iter=1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: training stopped unconverged" in err
        assert "ae.max_iter=1" in err

    def test_a_failed_line_search_warns_once(self, workspace, tmp_path, capsys, monkeypatch):
        train = sigverify.cli.train_descriptor

        def failing(*args, **kwargs):
            model = train(*args, **kwargs)
            model.ae.line_search_failed = True
            return model

        monkeypatch.setattr(sigverify.cli, "train_descriptor", failing)
        assert main(["learn-descriptor", "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "m.sig")] + FAST) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("config ")]
        assert warned == ["warning: line search failed before the iteration budget; "
                          "the model is the last accepted iterate"]

    def test_prints_the_evaluation_count_and_final_gradient_norm(self, workspace, tmp_path,
                                                                   capsys):
        model = tmp_path / "m.sig"
        assert main(["learn-descriptor", "--corpus", str(workspace / "corpus"), "--out",
                     str(model), "--seed", "13"] + FAST) == 0
        out = capsys.readouterr().out
        found = re.search(r"(\d+) iterations, (\d+) evaluations, "
                          r"final gradient inf-norm (\S+), ", out)
        assert found, out
        trained = sigverify.train_descriptor(
            sigverify.load_corpus(workspace / "corpus").all_trajectories(),
            patch_cfg=sigverify.PatchConfig(train_count=800),
            ae_cfg=sigverify.AeConfig(hidden=8, max_iter=15), seed=13).ae
        assert found.groups() == (str(trained.n_iter), str(trained.n_evals),
                                  f"{trained.grad_inf:.3g}")
        assert trained.n_evals > trained.n_iter > 0
        # in memory only: the model file does not store them
        meta, _ = sigverify.container.read_container(model)
        assert not [key for key in meta if "evals" in key or "grad_inf" in key]
        assert sigverify.load_model(model).ae.n_evals == 0

    def test_missing_corpus_fails(self, tmp_path, capsys):
        code = main(["learn-descriptor", "--corpus", str(tmp_path / "none"),
                     "--out", str(tmp_path / "m.sig")] + FAST)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", NON_FINITE_KEYS)
    def test_non_finite_config_float_is_refused(self, workspace, tmp_path, capsys,
                                                key, value):
        model = tmp_path / "model.sig"
        code = main(["learn-descriptor", "--corpus", str(workspace / "corpus"),
                     "--out", str(model), "--set", f"{key}={value}"] + FAST)
        assert code == 1
        prefix, name = key.split(".")
        assert (f"\nerror: bad {prefix}.* setting: {name} must be finite"
                in capsys.readouterr().err)
        assert not model.exists()

    @pytest.mark.parametrize("setting, error", [
        ("ae.grad_tol=inf", "bad ae.* setting: grad_tol must be finite and positive"),
        ("ae.seed=-1", "bad ae.* setting: seed must be non-negative"),
        ("patch.oversample_factor=0",
         "bad patch.* setting: oversample_factor must be at least 1"),
        ("patch.oversample_factor=-3",
         "bad patch.* setting: oversample_factor must be at least 1"),
        ("preprocess.canvas=1025", "bad preprocess.* setting: canvas must be in [16, 1024], "
         "got 1025"),
        ("preprocess.spline_points_per_segment=17",
         "bad preprocess.* setting: spline_points_per_segment must be in [1, 16]"),
        ("ae.hidden=2049", "bad ae.* setting: hidden must be in [1, 2048], got 2049"),
        ("patch.size=200", "patch.size 200 exceeds preprocess.canvas 101")])
    def test_bad_config_fails_before_the_corpus_is_read(self, workspace, tmp_path,
                                                         capsys, setting, error):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        (corpus / "user000" / "genuine" / "bad.txt").write_text("not a signature\n")
        model = tmp_path / "model.sig"
        code = main(["learn-descriptor", "--corpus", str(corpus), "--out", str(model)]
                    + FAST + ["--set", setting])
        assert code == 1
        err = capsys.readouterr().err
        assert f"\nerror: {error}\n" in err
        # the junk file, had it been read, would give a "warning: skipped" line
        assert all(line.startswith(("config ", "error: ")) for line in err.splitlines()), err
        assert not model.exists()

    def test_a_dense_grid_over_the_limit_fails_before_training(self, workspace, tmp_path,
                                                               capsys):
        model = tmp_path / "model.sig"
        code = main(["learn-descriptor", "--corpus", str(workspace / "corpus"),
                     "--out", str(model), "--set", "preprocess.canvas=1024",
                     "--set", "patch.stride=1"] + FAST)
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: preprocess.canvas 1024, patch.size 10, patch.stride 1 and ae.hidden 8 "
            "are too large: max(1030225 dense patches, patch.dim 200) times max(patch.dim, "
            "ae.hidden) is over the limit of 8388608 values")
        assert not model.exists()

    # one check path: the error line of learn-descriptor is the message of
    # load_model on the workspace model re-digested with the same settings,
    # less the model file's name
    @pytest.mark.parametrize("settings", [
        {"ae.seed": "-1"}, {"preprocess.canvas": "16", "patch.size": "17"},
        {"preprocess.canvas": "1024", "patch.stride": "1"}],
        ids=["dataclass", "size-over-canvas", "dense-grid"])
    def test_training_and_loading_refuse_a_setting_alike(self, workspace, tmp_path, capsys,
                                                         settings):
        model = tmp_path / "new.sig"
        sets = [arg for item in settings.items() for arg in ("--set", "=".join(item))]
        assert main(["learn-descriptor", "--corpus", str(workspace / "corpus"),
                     "--out", str(model)] + FAST + sets) == 1
        trained = capsys.readouterr().err.splitlines()[-1]
        assert trained.startswith("error: ") and not model.exists()
        crafted = _crafted(workspace, tmp_path, "model.sig",
                           lambda meta, arrays: meta.update(settings))
        with pytest.raises(sigverify.container.ContainerError) as refused:
            sigverify.load_model(crafted)
        assert str(refused.value) == f"{crafted}: " + trained.removeprefix("error: ")

    def test_rank_deficient_whitening_is_a_warning_line(self, workspace, tmp_path, capsys):
        # 150 patches of dimension 2 * 10 * 10 = 200
        code = main(["learn-descriptor", "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "model.sig")] + FAST
                    + ["--set", "patch.train_count=150"])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("warning: whitening fitted on 150 patches for dimension 200; "
                         "covariance is rank deficient\n") == 1, err


class TestEnroll:
    def test_existing_models_are_skipped_without_force(self, workspace, capsys):
        code = main(["enroll", "--model", str(workspace / "model.sig"),
                     "--corpus", str(workspace / "corpus"),
                     "--out", str(workspace / "users")])
        assert code == 0
        assert "skipping" in capsys.readouterr().err

    def test_force_reenrolls(self, workspace, capsys):
        code = main(["enroll", "--model", str(workspace / "model.sig"),
                     "--corpus", str(workspace / "corpus"),
                     "--out", str(workspace / "users"), "--force"])
        assert code == 0
        out = capsys.readouterr().out
        assert "enrolled 4 users" in out

    def test_each_user_is_scored_through_score_once(self, workspace, tmp_path,
                                                    monkeypatch):
        calls = []

        def counting_score(model, rows):
            calls.append(model.user_id)
            return real(model, rows)

        real = sigverify.cli.score
        monkeypatch.setattr(sigverify.cli, "score", counting_score)
        assert main(["enroll", "--model", str(workspace / "model.sig"),
                     "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "users")]) == 0
        assert calls == [f.stem for f in sorted((tmp_path / "users").iterdir())]
        assert len(calls) == 4

    def test_user_id_with_a_newline_is_not_enrolled(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus" / "user000", corpus / "user000")
        shutil.copytree(workspace / "corpus" / "user001", corpus / "user\nid=x")
        code = main(["enroll", "--model", str(workspace / "model.sig"),
                     "--corpus", str(corpus), "--out", str(tmp_path / "users")])
        assert code == 0
        assert (f"warning: could not enroll user\nid=x with {workspace / 'model.sig'}: "
                "cannot store metadata 'user_id'='user\\nid=x'") in capsys.readouterr().err
        assert [f.name for f in (tmp_path / "users").iterdir()] == ["user000.usermodel"]

    # one genuine signature, or identical copies of it, gives a threshold of 0,
    # or (three copies: the mean rounds off the copies) a covariance near 0
    @pytest.mark.parametrize("copies, reason", [
        (0, "no genuine signatures"),
        *((n, "enrollment needs at least two distinct genuine signatures") for n in (1, 2, 3))])
    def test_a_user_without_genuine_signatures_is_not_enrolled(self, workspace, tmp_path,
                                                               capsys, copies, reason):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus" / "user000", corpus / "user000")
        shutil.copytree(workspace / "corpus" / "user001" / "forgery",
                        corpus / "user001" / "forgery")
        (corpus / "user001" / "genuine").mkdir()
        for i in range(copies):
            shutil.copy(workspace / "corpus" / "user001" / "genuine" / "000.txt",
                        corpus / "user001" / "genuine" / f"{i:03d}.txt")
        code = main(["enroll", "--model", str(workspace / "model.sig"),
                     "--corpus", str(corpus), "--out", str(tmp_path / "users")])
        assert code == 0
        assert (f"warning: could not enroll user001 with {workspace / 'model.sig'}: "
                f"{reason}\n" in capsys.readouterr().err)
        assert [f.name for f in (tmp_path / "users").iterdir()] == ["user000.usermodel"]

    def test_a_corpus_with_no_enrollable_user_fails(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus" / "user001" / "forgery",
                        corpus / "user001" / "forgery")
        code = main(["enroll", "--model", str(workspace / "model.sig"),
                     "--corpus", str(corpus), "--out", str(tmp_path / "users")])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: no user could be enrolled with {workspace / 'model.sig'} (1 failures)")
        assert not (tmp_path / "users").exists()

    def test_a_model_giving_non_finite_descriptors_is_named_and_leaves_no_output(
            self, workspace, tmp_path, capsys):
        model = _crafted(workspace, tmp_path, "model.sig", _overflowing_whitening)
        out = tmp_path / "enrolled"
        code = main(["enroll", "--model", str(model), "--corpus", str(workspace / "corpus"),
                     "--out", str(out)])
        assert code == 1
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("config ")]
        assert err == [f"warning: could not enroll user{i:03d} with {model}: the descriptor "
                       "model gives a non-finite descriptor" for i in range(4)] + [
            f"error: no user could be enrolled with {model} (4 failures)"]
        assert not out.exists()

    def test_svc2004_corpus_enrolls_and_verifies_like_its_canonical_copy(
            self, workspace, tmp_path, capsys):
        from sigverify import load_corpus
        canonical = load_corpus(workspace / "corpus")
        svc = tmp_path / "svc"
        for uid, sigs in canonical.users.items():
            for sub, trajs in (("genuine", sigs.genuine),
                               ("forgery", sigs.skilled_forgeries)):
                (svc / uid / sub).mkdir(parents=True)
                for i, t in enumerate(trajs):
                    # x y t button azimuth altitude pressure, after the count
                    rows = [f"{x!r} {y!r} {ts!r} {int(down)} 0 0 {p!r}" for x, y, ts, down, p
                            in zip(*(a.tolist() for a in (t.x, t.y, t.t, t.pen_down,
                                                          t.pressure)))]
                    (svc / uid / sub / f"{i:03d}.txt").write_text(
                        "\n".join([str(len(t)), *rows]) + "\n")
        model = str(workspace / "model.sig")
        svc_set = ["--set", "corpus.layout=svc2004"]
        for corpus, users, extra in ((workspace / "corpus", tmp_path / "u", []),
                                     (svc, tmp_path / "u-svc", svc_set)):
            assert main(["enroll", "--model", model, "--corpus", str(corpus),
                         "--out", str(users)] + extra) == 0
        capsys.readouterr()
        for uid in canonical.user_ids():
            assert ((tmp_path / "u" / f"{uid}.usermodel").read_bytes()
                    == (tmp_path / "u-svc" / f"{uid}.usermodel").read_bytes())
        outputs = []
        for sig, extra in ((workspace / "corpus" / "user000" / "forgery" / "000.txt", []),
                           (svc / "user000" / "forgery" / "000.txt", svc_set)):
            outputs.append((main(["verify", "--model", model, "--user-models",
                                  str(tmp_path / "u"), "--user", "user000", str(sig)]
                                 + extra), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[1][0] == 2 and outputs[1][1].startswith("reject score=")

    def test_writes_one_file_per_user(self, workspace):
        files = sorted(p.name for p in (workspace / "users").glob("*.usermodel"))
        assert files == [f"user{i:03d}.usermodel" for i in range(4)]


class TestVerify:
    def test_genuine_signature_accepts_with_exit_zero(self, workspace, capsys):
        sig = workspace / "corpus" / "user000" / "genuine" / "000.txt"
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(workspace / "users"),
                     "--user", "user000", str(sig)])
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 0
        assert re.fullmatch(
            r"accept score=[0-9.eE+-]+ threshold=[0-9.eE+-]+", out)

    def test_forged_signature_rejects_with_exit_two(self, workspace, capsys):
        sig = workspace / "corpus" / "user000" / "forgery" / "000.txt"
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(workspace / "users"),
                     "--user", "user000", str(sig)])
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2
        assert re.fullmatch(
            r"reject score=[0-9.eE+-]+ threshold=[0-9.eE+-]+", out)

    def test_other_users_signature_rejects(self, workspace, capsys):
        sig = workspace / "corpus" / "user001" / "genuine" / "000.txt"
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(workspace / "users"),
                     "--user", "user000", str(sig)])
        capsys.readouterr()
        assert code == 2

    def test_user_model_enrolled_for_another_user_is_refused(self, workspace, tmp_path,
                                                             capsys):
        users = tmp_path / "users"
        shutil.copytree(workspace / "users", users)
        shutil.copy(users / "user000.usermodel", users / "user002.usermodel")
        sig = workspace / "corpus" / "user000" / "genuine" / "000.txt"
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(users), "--user", "user002", str(sig)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "accept" not in out
        assert (f"error: {users / 'user002.usermodel'} was enrolled for user "
                "'user000', not 'user002'") in err

    def test_user_model_of_another_width_is_refused(self, workspace, tmp_path, capsys):
        import numpy as np

        from sigverify import calibrate_threshold, fit_user_model, save_user_model
        user_model = fit_user_model(np.random.default_rng(0).normal(size=(5, 3)),
                                    user_id="user000")
        calibrate_threshold(user_model, [1.0])
        save_user_model(user_model, tmp_path / "user000.usermodel")
        sig = workspace / "corpus" / "user000" / "genuine" / "000.txt"
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(tmp_path), "--user", "user000", str(sig)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "accept" not in out and "reject" not in out
        assert err.splitlines()[-1] == (
            "error: user model dimension 3 does not match descriptor hidden size 8")

    def test_unknown_user_fails(self, workspace, capsys):
        sig = workspace / "corpus" / "user000" / "genuine" / "000.txt"
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(workspace / "users"),
                     "--user", "ghost", str(sig)])
        assert code == 1
        assert "no enrolled model" in capsys.readouterr().err

    def test_parse_error_names_the_signature_file(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(sigverify.dataset, "MAX_SAMPLES", 5)
        sig = workspace / "corpus" / "user000" / "genuine" / "000.txt"
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(workspace / "users"),
                     "--user", "user000", str(sig)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {sig}: line 7: more samples than the limit of 5")

    def test_undecodable_signature_names_the_file(self, workspace, tmp_path, capsys):
        sig = tmp_path / "latin1.txt"
        sig.write_bytes(b"x y t p d\n0 0 0 1 1\n1 1 10 \xff 1\n")
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(workspace / "users"),
                     "--user", "user000", str(sig)])
        assert code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: {sig}: ") and "can't decode byte 0xff" in last

    def test_a_coordinate_beyond_the_limit_fails_closed_quietly(self, workspace, tmp_path):
        sig = tmp_path / "huge.txt"
        sig.write_text("x y t p d\n0 0 0 1 1\n1e300 1 1 1 1\n2 5 2 1 1\n3 1 3 1 1\n"
                       "4 6 4 1 1\n")
        proc = run_cli("verify", "--model", str(workspace / "model.sig"),
                       "--user-models", str(workspace / "users"), "--user", "user000",
                       str(sig))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            f"error: {sig}: line 3: |x| and |y| must not exceed 1e+09, nor |t| 1e+18")
        assert all(line.startswith(("config ", "error: "))
                   for line in proc.stderr.splitlines()), proc.stderr

    def test_the_worst_signature_at_the_largest_canvas_stays_under_the_ceiling(
            self, workspace, tmp_path):
        # one pen-down stroke of 20,000 samples, x zigzagging between 0 and 100:
        # every segment crosses the canvas, at the largest canvas a model may have
        sig = tmp_path / "zigzag.txt"
        sig.write_text("x y t p d\n" + "".join(f"{100 * (i % 2)} {i / 400} {i} 1 1\n"
                                               for i in range(20_000)))
        model = _crafted(workspace, tmp_path, "model.sig",
                         lambda meta, arrays: meta.update({"preprocess.canvas": "1024"}))
        proc = run_cli("verify", "--model", str(model), "--user-models",
                       str(tmp_path / "users"), "--user", "user000", str(sig),
                       launcher=(sys.executable, "-c", RSS_WRAPPER))
        code, max_rss_kib = map(int, proc.stdout.splitlines()[-1].split())
        assert code in (0, 2), proc.stderr
        assert max_rss_kib / 1024 < VERIFY_CEILING_MB, f"max RSS {max_rss_kib / 1024:.0f} MB"

    def test_unreadable_signature_fails(self, workspace, capsys):
        code = main(["verify", "--model", str(workspace / "model.sig"),
                     "--user-models", str(workspace / "users"),
                     "--user", "user000", str(workspace / "nope.txt")])
        assert code == 1
        assert "cannot read signature" in capsys.readouterr().err


class TestEvaluate:
    def test_writes_report_and_score_dumps(self, workspace, capsys):
        out = workspace / "report"
        code = main(["evaluate", "--model", str(workspace / "model.sig"),
                     "--corpus", str(workspace / "corpus"),
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "mean EER" in stdout
        assert (out / "report.txt").is_file()
        assert (out / "scores.csv").is_file()
        rocs = sorted(p.name for p in out.glob("roc_*.csv"))
        assert rocs == [f"roc_user{i:03d}.csv" for i in range(4)]
        text = (out / "report.txt").read_text()
        assert "mean eer" in text

    def test_each_roc_file_is_the_curve_its_eer_was_read_from(self, workspace, tmp_path):
        from sigverify import format_report, load_corpus, load_model, roc_csv, run_experiment
        out = tmp_path / "report"
        assert main(["evaluate", "--model", str(workspace / "model.sig"),
                     "--corpus", str(workspace / "corpus"), "--out", str(out)]) == 0
        report = run_experiment(load_corpus(workspace / "corpus"),
                                load_model(workspace / "model.sig"))
        assert (out / "report.txt").read_text() == format_report(report)  # same run
        assert sorted(out.glob("roc_*.csv")) == [out / f"roc_{uid}.csv"
                                                 for uid in sorted(report.per_user)]
        for uid, result in report.per_user.items():
            assert (out / f"roc_{uid}.csv").read_text() == roc_csv(result.roc)

    def test_each_corpus_and_exclusion_warning_prints_once(self, workspace, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        bad = corpus / "user000" / "genuine" / "bad.txt"
        bad.write_text("not a signature\n")
        sparse = corpus / "user999" / "genuine"
        sparse.mkdir(parents=True)
        for name in ("000.txt", "001.txt"):
            shutil.copy(corpus / "user001" / "genuine" / name, sparse / name)
        proc = run_cli("evaluate", "--model", str(workspace / "model.sig"),
                       "--corpus", str(corpus), "--out", str(tmp_path / "report"))
        assert proc.returncode == 0, proc.stderr
        # the loader no longer states the protocol's rule with its own k
        assert "the evaluation protocol needs at least 4" not in proc.stderr
        for message in (f"warning: skipped {bad}: ",
                        "warning: evaluation corpus shares source tags ['corpus'] "
                        "with the descriptor training set\n",
                        "warning: user user999 has 2 genuine signatures, fewer than "
                        "k=4; excluded from the protocol\n"):
            assert proc.stderr.count(message) == 1, proc.stderr
        assert all(line.startswith(("config ", "warning: "))
                   for line in proc.stderr.splitlines()), proc.stderr

    def test_a_corpus_given_as_dot_shares_its_source_tag(self, workspace, tmp_path,
                                                         monkeypatch, capsys):
        shutil.copytree(workspace / "corpus", tmp_path / "mine")
        monkeypatch.chdir(tmp_path / "mine")
        model = tmp_path / "model.sig"
        assert main(["learn-descriptor", "--corpus", ".", "--out", str(model),
                     "--seed", "13"] + FAST) == 0
        assert main(["evaluate", "--model", str(model), "--corpus", ".",
                     "--out", str(tmp_path / "report")]) == 0
        assert ("warning: evaluation corpus shares source tags ['mine'] with the "
                "descriptor training set\n") in capsys.readouterr().err

    def test_a_failed_experiment_leaves_no_output_directory(self, workspace, tmp_path,
                                                            capsys):
        # every user has fewer genuine signatures than folds
        out = tmp_path / "report"
        code = main(["evaluate", "--model", str(workspace / "model.sig"),
                     "--corpus", str(workspace / "corpus"), "--out", str(out),
                     "--set", "eval.folds=50"])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"error: cannot evaluate {workspace / 'corpus'} with {workspace / 'model.sig'}: "
                "no user produced a reportable score set") in err
        assert all(line.startswith(("config ", "error: ")) for line in err.splitlines()), err
        assert not out.exists()

    def test_a_model_giving_non_finite_descriptors_is_named(self, workspace, tmp_path,
                                                              capsys):
        model = _crafted(workspace, tmp_path, "model.sig", _overflowing_whitening)
        corpus, out = workspace / "corpus", tmp_path / "report"
        code = main(["evaluate", "--model", str(model), "--corpus", str(corpus),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: cannot evaluate {corpus} with {model}: the descriptor model gives a "
            "non-finite descriptor")
        assert not out.exists()

    @pytest.mark.parametrize("folds, kept, warned", [(3, 3, False), (5, 4, True)])
    def test_exclusion_follows_eval_folds(self, workspace, tmp_path, capsys,
                                          folds, kept, warned):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        for f in sorted((corpus / "user003" / "genuine").glob("*.txt"))[kept:]:
            f.unlink()
        out = tmp_path / "report"
        code = main(["evaluate", "--model", str(workspace / "model.sig"),
                     "--corpus", str(corpus), "--out", str(out),
                     "--set", f"eval.folds={folds}"])
        assert code == 0
        err = capsys.readouterr().err
        message = (f"warning: user user003 has {kept} genuine signatures, fewer than "
                   f"k={folds}; excluded from the protocol\n")
        assert err.count("user003") == err.count(message) == int(warned), err
        assert (out / "roc_user003.csv").is_file() is not warned


class TestParsing:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["synth"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "signature verification" in capsys.readouterr().out

    def test_without_argv_main_reads_the_command_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["sigverify", "verify", "--help"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("usage: sigverify verify ")


def _outcome(parse, argv):
    """(exit code, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_parser(argv):
    build_parser.__wrapped__().parse_args(argv)
    raise AssertionError(f"{argv} parsed: the case runs a command")


PARITY = [["--help"], ["-h"], *([name, "--help"] for name in COMMANDS),
          [],                                    # no command
          ["--bogus"],                           # an unknown top-level flag
          ["frobnicate"],                        # an unknown command
          ["--seed", "1", "synth"],              # an option before the command
          ["synth"],                             # a missing required flag
          ["synth", "--out", "x", "--seed", "x"],  # a bad --seed value
          ["verify", "--bogus"],                 # an unknown flag, and missing ones
          ["synth", "--out", "x", "--bogus"]]    # an unknown flag: top-level usage


class TestParserParity:
    """``main`` parses every command with one parser, built once per process;
    what it prints and returns, call after call, must be what a freshly built
    parser gives."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", PARITY, ids=" ".join)
    def test_main_prints_what_the_full_parser_prints(self, argv, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        fresh = _outcome(_fresh_parser, argv)
        for _ in range(2):
            assert _outcome(main, argv) == fresh


class TestConfigSchema:
    def test_oversample_factor_is_settable_echoed_and_stored(self, workspace,
                                                             tmp_path, capsys):
        from sigverify import container
        model = tmp_path / "m.sig"
        code = main(["learn-descriptor", "--corpus", str(workspace / "corpus"),
                     "--out", str(model), "--set", "patch.oversample_factor=3"]
                    + FAST)
        assert code == 0
        assert "config patch.oversample_factor = 3\n" in capsys.readouterr().err
        meta, _ = container.read_container(model)
        assert meta["patch.oversample_factor"] == "3"

    @pytest.mark.parametrize("command", ["synth", "verify"])
    def test_unknown_corpus_layout_is_rejected_when_set(self, workspace, tmp_path,
                                                        capsys, command):
        argv = {"synth": ["synth", "--out", str(tmp_path / "c")],
                "verify": ["verify", "--model", str(workspace / "model.sig"),
                           "--user-models", str(workspace / "users"),
                           "--user", "user000",
                           str(workspace / "corpus" / "user000" / "genuine" / "000.txt")]}
        code = main(argv[command] + ["--set", "corpus.layout=svc"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: bad value for corpus.layout:" in err
        assert "expected one of ['canonical', 'svc2004']" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("command, setting", [
        ("enroll", "oneclass.reg=2"), ("enroll", "oneclass.quantile=0"),
        ("evaluate", "oneclass.reg=nan"), ("evaluate", "eval.folds=1")])
    def test_bad_one_class_or_fold_value_fails_before_any_output(
            self, workspace, tmp_path, capsys, command, setting):
        out = tmp_path / "out"
        code = main([command, "--model", str(workspace / "model.sig"),
                     "--corpus", str(workspace / "corpus"), "--out", str(out),
                     "--set", setting])
        assert code == 1
        captured = capsys.readouterr()
        key, _, value = setting.partition("=")
        error = (f"unknown configuration key {key!r}" if key == "oneclass.quantile"
                 else f"bad value for {key}: {value!r} is out of range")
        assert captured.err.splitlines() == [f"error: {error}"]
        assert captured.out == "" and not out.exists()

    def test_missing_model_metadata_is_named_in_the_error(self, workspace,
                                                          tmp_path, capsys):
        code, _, err = _verify_crafted(workspace, tmp_path, capsys, "model.sig",
                                       lambda meta, arrays: meta.pop("ae.memory"))
        assert code == 1
        assert "metadata key 'ae.memory' is missing" in err

    @pytest.mark.parametrize("path, array", [("model.sig", "ae.W1"),
                                             ("users/user000.usermodel", "mean")])
    def test_missing_model_array_is_named_in_the_error(self, workspace, tmp_path,
                                                       capsys, path, array):
        code, _, err = _verify_crafted(workspace, tmp_path, capsys, path,
                                       lambda meta, arrays: arrays.pop(array))
        assert code == 1
        assert f"{tmp_path / path}: array {array!r} is missing" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_user_mean_is_named_in_the_error(self, workspace, tmp_path,
                                                        capsys, value):
        def edit(meta, arrays):
            arrays["mean"][0] = float(value)
        code, _, err = _verify_crafted(workspace, tmp_path, capsys,
                                       "users/user000.usermodel", edit)
        assert code == 1
        assert f"{tmp_path / 'users' / 'user000.usermodel'}: array 'mean' is not finite" in err
        assert np.isfinite(sigverify.container.read_container(
            workspace / "users" / "user000.usermodel")[1]["mean"]).all()

    # a digest-valid crafted file: a NaN encoder bias fails at load, naming the
    # file and the array; a user mean that overflows the score fails, not
    # rejects, and no numpy warning is raised on the way
    @pytest.mark.parametrize("path, array, value, error", [
        ("model.sig", "ae.b1", np.nan, "{file}: array 'ae.b1' is not finite"),
        ("users/user000.usermodel", "mean", 1e308,
         "user model 'user000' gives a non-finite score"),
        ("users/user000.usermodel", "mean", 1e200,
         "user model 'user000' gives a non-finite score")])
    def test_a_crafted_model_fails_closed(self, workspace, tmp_path, capsys,
                                          path, array, value, error):
        def edit(meta, arrays):
            arrays[array][0] = value
        code, out, err = _verify_crafted(workspace, tmp_path, capsys, path, edit)
        assert code == 1 and out == ""
        *config, last = err.splitlines()
        assert last == "error: " + error.format(file=tmp_path / path)
        assert all(line.startswith("config ") for line in config), err

    # metadata that contradicts the arrays fails at load, and a model whose
    # whitening overflows fails in describe: either error names the model file
    @pytest.mark.parametrize("edit, error", [
        (_patch_size_18, "{model}: array 'whitening.mean' has 200 entries, "
                         "patch.size 18 needs 648"),
        (_canvas_16, "{model}: patch.size 17 exceeds preprocess.canvas 16"),
        (_overflowing_whitening, "cannot describe {sig} with {model}: "
                                 "the descriptor model gives a non-finite descriptor")],
        ids=["size18", "canvas16", "overflow"])
    def test_a_model_that_cannot_describe_fails_naming_the_file(
            self, workspace, tmp_path, capsys, edit, error):
        code, out, err = _verify_crafted(workspace, tmp_path, capsys, "model.sig", edit)
        assert code == 1 and out == ""
        *config, last = err.splitlines()
        assert last == "error: " + error.format(
            model=tmp_path / "model.sig",
            sig=workspace / "corpus" / "user000" / "genuine" / "000.txt")
        assert all(line.startswith("config ") for line in config), err

    def test_an_overflowing_encoder_weight_still_decides_quietly(self, workspace,
                                                                tmp_path, capsys):
        # an exp overflow gives its exact limit 0: the model still decides, with no warning
        def edit(meta, arrays):
            arrays["ae.W1"][0, 0] = -1e308
        code, out, err = _verify_crafted(workspace, tmp_path, capsys, "model.sig", edit)
        assert code in (0, 2) and re.fullmatch(
            r"(accept|reject) score=\S+ threshold=\S+\n", out)
        assert all(line.startswith("config ") for line in err.splitlines()), err

    def test_user_model_with_an_infinite_threshold_is_refused(self, workspace, tmp_path,
                                                              capsys):
        users = tmp_path / "users"
        _crafted(workspace, tmp_path, "users/user000.usermodel",
                 lambda meta, arrays: meta.update({"threshold": "inf"}))
        sig = workspace / "corpus" / "user001" / "genuine" / "000.txt"
        code = main(["verify", "--model", str(tmp_path / "model.sig"),
                     "--user-models", str(users), "--user", "user000", str(sig)])
        assert code == 1
        out, err = capsys.readouterr()
        assert "accept" not in out
        assert f"{users / 'user000.usermodel'}: bad metadata value for threshold" in err
