"""Command line interface.

Subcommands: ``synth``, ``learn-descriptor``, ``enroll``, ``verify``,
``evaluate``.  Every run parameter lives in a flat key=value namespace:
``prefix.field`` for each field of the config dataclasses in
``descriptor.CONFIG_GROUPS``, plus the run keys no dataclass owns, which
``DEFAULTS`` lists.  Values come from built-in defaults, then an optional
``--config`` file of ``key = value`` lines (``#`` starts a comment),
then repeated ``--set key=value`` overrides, then dedicated flags such
as ``--seed``.  Unknown keys are rejected.  The effective configuration
is echoed to stderr at the start of every command.

Exit codes: 0 success (or: signature accepted), 2 signature rejected,
1 any error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

import numpy as np

from .container import bounded, format_value, parse_value
from .dataset import (ParseError, generate_synthetic_corpus, load_corpus, parser_for,
                      save_corpus)
from .descriptor import (CONFIG_GROUPS, check_sizes, config_group, describe, load_model,
                         save_model, train_descriptor)
from .evaluation import format_report, roc_csv, run_experiment, scores_csv
from .oneclass import (USER_MODEL_FIELDS, calibrate_threshold, fit_user_model,
                       load_user_model, save_user_model, score, verify)


def _layout(text: str) -> str:
    parser_for(text)  # raises on a layout without a parser
    return text


# key -> (type, default): every config dataclass field under its group
# prefix, then the run keys no dataclass owns (none is stored in a model)
DEFAULTS = {f"{prefix}.{f.name}": (f.type, f.default) for prefix, cls in CONFIG_GROUPS.items()
            for f in dataclasses.fields(cls)}
DEFAULTS.update({
    "seed": (bounded(int, lambda v: v >= 0), 0),
    "corpus.layout": (_layout, "canonical"),
    "oneclass.reg": (USER_MODEL_FIELDS["reg"], 0.9),
    "eval.folds": (bounded(int, lambda v: v >= 2), 4),
    "synth.users": (bounded(int, lambda v: v >= 1), 10),
    "synth.genuine": (bounded(int, lambda v: v >= 1), 10),
    "synth.forgery": (bounded(int, lambda v: v >= 0), 5),
})


def _build_config(args) -> dict:
    """The run values: the defaults, then each ``--config`` line, then each
    ``--set`` item, then ``--seed``; echoed to stderr.  The first bad setting
    fails, with nothing echoed."""
    settings = []  # (text, the message it fails with if it has no "=")
    if args.config:
        path = Path(args.config)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from None
        for i, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                settings.append((line, f"{path}:{i}: expected 'key = value', got {line!r}"))
    settings += [(item, f"--set expects key=value, got {item!r}") for item in args.set or []]
    if args.seed is not None:  # --seed N is the last --set seed=N
        settings.append((f"seed={args.seed}", None))
    values = {key: default for key, (_, default) in DEFAULTS.items()}
    for setting, malformed in settings:
        key, sep, raw = setting.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(malformed)
        if key not in DEFAULTS:
            raise ValueError(f"unknown configuration key {key!r}")
        try:
            values[key] = parse_value(raw.strip(), DEFAULTS[key][0])
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {exc}") from None
    for key in sorted(values):
        print(f"config {key} = {format_value(values[key])}", file=sys.stderr)
    return values


def cmd_synth(args, cfg) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ValueError(f"output directory {out} is not empty "
                         "(use --force to write anyway)")
    corpus = generate_synthetic_corpus(cfg["seed"], cfg["synth.users"],
                                       cfg["synth.genuine"], cfg["synth.forgery"])
    written = save_corpus(corpus, out)
    print(f"wrote {len(written)} signature files for "
          f"{len(corpus.users)} users under {out}")
    return 0


def _warn(*messages):
    """Print conditions the library returned, one ``warning:`` line each."""
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


def _load_corpus_arg(args, cfg):
    corpus = load_corpus(Path(args.corpus), layout=cfg["corpus.layout"])
    _warn(*corpus.warnings)
    return corpus


def cmd_learn_descriptor(args, cfg) -> int:
    # a bad config value or size fails here, before any file is touched
    pre, patch, whiten, ae = (config_group(prefix, cfg) for prefix in CONFIG_GROUPS)
    check_sizes(pre, patch, ae)
    out = Path(args.out)
    if out.exists() and not args.force:
        raise ValueError(f"model file {out} already exists (use --force to overwrite)")
    corpus = _load_corpus_arg(args, cfg)
    unlabeled = corpus.all_trajectories()
    started = time.perf_counter()
    model = train_descriptor(unlabeled, pre, patch, whiten, ae, seed=cfg["seed"])
    elapsed = time.perf_counter() - started
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    if not model.whitening.full_rank_input:
        _warn(f"whitening fitted on {cfg['patch.train_count']} patches for dimension "
              f"{model.whitening.input_dim}; covariance is rank deficient")
    if model.ae.line_search_failed:
        _warn("line search failed before the iteration budget; "
              "the model is the last accepted iterate")
    elif not model.ae.converged:
        _warn("training stopped unconverged at the iteration budget "
              f"(ae.max_iter={cfg['ae.max_iter']}): the gradient is still above "
              f"ae.grad_tol={cfg['ae.grad_tol']:g}")
    print(f"trained on {len(unlabeled)} signatures: whitened patch dim "
          f"{model.whitening.output_dim}, hidden {model.hidden}, "
          f"final cost {model.ae.final_cost:.6f}, "
          f"{model.ae.n_iter} iterations, {model.ae.n_evals} evaluations, "
          f"final gradient inf-norm {model.ae.grad_inf:.3g}, {elapsed:.1f}s")
    print(f"saved descriptor model to {out}")
    return 0


def cmd_enroll(args, cfg) -> int:
    model = load_model(Path(args.model))
    corpus = _load_corpus_arg(args, cfg)
    out = Path(args.out)
    enrolled, skipped, failed = 0, 0, 0
    for uid in corpus.user_ids():
        genuine = corpus.users[uid].genuine
        target = out / f"{uid}.usermodel"
        if target.exists() and not args.force:
            skipped += 1
            _warn(f"{target} exists, skipping {uid} (use --force to re-enroll)")
            continue
        try:
            if not genuine:
                raise ValueError("no genuine signatures")
            values = np.array([describe(t, model).values for t in genuine])
            if len(np.unique(values, axis=0)) < 2:  # a model that rejects all but these
                raise ValueError("enrollment needs at least two distinct genuine signatures")
            user_model = fit_user_model(values, reg=cfg["oneclass.reg"], user_id=uid)
            calibrate_threshold(user_model, score(user_model, values))
            out.mkdir(parents=True, exist_ok=True)  # only for a model to write
            save_user_model(user_model, target)
            enrolled += 1
            print(f"enrolled {uid}: {len(values)} genuine signatures, "
                  f"threshold {user_model.threshold:.6f}")
        except (ValueError, OSError) as exc:
            failed += 1
            _warn(f"could not enroll {uid} with {args.model}: {exc}")
    print(f"enrolled {enrolled} users into {out} ({skipped} already present)")
    if enrolled == 0 and skipped == 0:
        raise ValueError(f"no user could be enrolled with {args.model} ({failed} failures)")
    return 0


def cmd_verify(args, cfg) -> int:
    model = load_model(Path(args.model))
    user_file = Path(args.user_models) / f"{args.user}.usermodel"
    if not user_file.is_file():
        raise ValueError(f"no enrolled model for user {args.user!r} at {user_file}")
    user_model = load_user_model(user_file)
    if user_model.user_id != args.user:
        raise ValueError(f"{user_file} was enrolled for user {user_model.user_id!r}, "
                         f"not {args.user!r}")
    if user_model.dim != model.hidden:
        raise ValueError(
            f"user model dimension {user_model.dim} does not match "
            f"descriptor hidden size {model.hidden}")
    sig_path = Path(args.signature)
    try:
        with sig_path.open() as stream:
            traj = parser_for(cfg["corpus.layout"])(stream, user_id=args.user)
    except OSError as exc:
        raise ValueError(f"cannot read signature file: {exc}") from None
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{sig_path}: {exc}") from None
    try:
        desc = describe(traj, model)
    except ValueError as exc:  # of the signature, or of a model that overflows
        raise ValueError(f"cannot describe {sig_path} with {args.model}: {exc}") from None
    accepted, s = verify(user_model, desc)
    word = "accept" if accepted else "reject"
    print(f"{word} score={s:.9g} threshold={user_model.threshold:.9g}")
    return 0 if accepted else 2


def cmd_evaluate(args, cfg) -> int:
    model = load_model(Path(args.model))
    corpus = _load_corpus_arg(args, cfg)
    started = time.perf_counter()
    try:
        report = run_experiment(corpus, model, k=cfg["eval.folds"],
                                reg=cfg["oneclass.reg"], seed=cfg["seed"])
    except ValueError as exc:
        raise ValueError(f"cannot evaluate {args.corpus} with {args.model}: {exc}") from None
    _warn(*report.warnings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # only once the experiment succeeded
    (out / "report.txt").write_text(format_report(report))
    (out / "scores.csv").write_text(scores_csv(report))
    for uid, result in sorted(report.per_user.items()):
        (out / f"roc_{uid}.csv").write_text(roc_csv(result.roc))
    print(f"mean EER {report.mean_eer:.6f}  mean AUC {report.mean_auc:.6f}  "
          f"pooled EER {report.pooled_eer:.6f}  "
          f"({time.perf_counter() - started:.1f}s)")
    print(f"report and score dumps written to {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems are errors, not "reject" (exit code 2 is taken)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


_MODEL = {"--model": "descriptor model file"}
# subcommand -> (help, function, {argument: help}): every --flag but --force
# is required, and a name without dashes is positional
COMMANDS = {
    "synth": ("generate a synthetic corpus", cmd_synth,
              {"--out": "corpus output directory", "--force": None}),
    "learn-descriptor": ("train the descriptor on an unlabeled corpus", cmd_learn_descriptor,
                         {"--corpus": None, "--out": "descriptor model file",
                          "--force": None}),
    "enroll": ("fit and calibrate per-user models", cmd_enroll,
               {**_MODEL, "--corpus": None, "--out": "user model output directory",
                "--force": None}),
    "verify": ("verify one signature against a user", cmd_verify,
               {**_MODEL, "--user-models": "directory of enrolled user models",
                "--user": None, "signature": "signature file to verify"}),
    "evaluate": ("run the k-fold protocol on a corpus", cmd_evaluate,
                 {**_MODEL, "--corpus": None, "--out": "report output directory"}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sigverify`` parser, built once per process: ``parse_args`` fills
    a fresh namespace on each call, and help and usage are laid out when
    printed, at that moment's ``COLUMNS``, so one parser serves every command."""
    parser = _Parser(prog="sigverify",
                     description="online signature verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg, arg_help in arguments.items():
            if arg == "--force":
                p.add_argument(arg, action="store_true")
            elif arg.startswith("--"):
                p.add_argument(arg, required=True, help=arg_help)
            else:
                p.add_argument(arg, help=arg_help)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration key")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args, _build_config(args))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # deliberate catch-all: map failures to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
