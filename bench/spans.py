"""Spans around sigverify's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a timing wrapper on
every ``sigverify`` module attribute that holds it (and in the parser
table of ``sigverify.dataset``), so calls made inside the package are
seen too: ``describe`` calls ``sigverify.descriptor.preprocess``, the
evaluation calls ``sigverify.evaluation.score`` and so on.  Wrappers
return what the function returns and re-raise what it raises.
``uninstall`` puts the original functions back, so an untraced phase
runs the library's own code.

A span is ``[name, start, end, parent, op, phase, extra]``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, so spans written by a
child process line up with the parent's), ``parent`` is the index of the
enclosing span or ``None``, ``op`` is the id of the claim or operation
the span belongs to, and ``extra`` holds counters read from arguments
and results.  Spans stay in memory until ``dump``.
"""

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

_perf = time.perf_counter


def _dense_counts(args, result):
    image, cfg = args[0], args[1]
    per_axis = (image.side - cfg.size) // cfg.stride + 1
    return {"kept": int(result.shape[0]), "grid": per_axis * per_axis}


def _lbfgs_counts(args, result):
    grad_inf = float(abs(result.grad).max()) if result.grad.size else 0.0
    return {"iters": result.n_iter, "evals": result.n_evals,
            "converged": int(result.converged), "grad_inf": grad_inf}


# (module, function, span name, counter hook); span names are
# "<module>.<what>", and the module part names the layer.
TARGETS = [
    ("dataset", "parse_canonical", "dataset.parse", None),
    ("dataset", "format_canonical", "dataset.format", None),
    ("dataset", "generate_synthetic_corpus", "dataset.generate", None),
    ("dataset", "load_corpus", "dataset.load_corpus", None),
    ("dataset", "save_corpus", "dataset.save_corpus", None),
    ("preprocess", "preprocess", "preprocess.preprocess",
     lambda a, r: {"samples_in": len(a[0])}),
    ("preprocess", "smooth", "preprocess.smooth",
     lambda a, r: {"samples_out": len(r)}),
    ("preprocess", "orientation_angle", "preprocess.orientation_angle", None),
    ("preprocess", "rotate", "preprocess.rotate", None),
    ("preprocess", "normalize_extent", "preprocess.normalize_extent", None),
    ("preprocess", "rasterize", "preprocess.rasterize", None),
    ("patches", "extract_dense", "patches.extract_dense", _dense_counts),
    ("patches", "sample_training_patches", "patches.sample", None),
    ("whitening", "fit_whitening", "whitening.fit",
     lambda a, r: {"out_dim": r.output_dim}),
    ("whitening", "apply_whitening", "whitening.apply", None),
    ("autoencoder", "encode", "autoencoder.encode", None),
    ("autoencoder", "train", "autoencoder.train", None),
    ("autoencoder", "cost_grad", "autoencoder.cost_grad", None),
    ("optimize", "minimize_lbfgs", "optimize.minimize_lbfgs", _lbfgs_counts),
    ("descriptor", "describe", "descriptor.describe", None),
    ("descriptor", "train_descriptor", "descriptor.train_descriptor", None),
    ("descriptor", "save_model", "descriptor.save_model", None),
    ("descriptor", "load_model", "descriptor.load_model", None),
    ("oneclass", "fit_user_model", "oneclass.fit", None),
    ("oneclass", "score", "oneclass.score", None),
    ("oneclass", "calibrate_threshold", "oneclass.calibrate", None),
    ("oneclass", "verify", "oneclass.verify", None),
    ("oneclass", "save_user_model", "oneclass.save", None),
    ("oneclass", "load_user_model", "oneclass.load", None),
    ("evaluation", "run_experiment", "evaluation.run_experiment", None),
    ("evaluation", "split_protocol", "evaluation.split", None),
    ("evaluation", "roc", "evaluation.roc", None),
    ("evaluation", "eer", "evaluation.eer", None),
    ("evaluation", "auc", "evaluation.auc", None),
    ("evaluation", "scores_csv", "evaluation.scores_csv", None),
    ("container", "write_container", "container.write",
     lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("container", "read_container", "container.read", None),
]

NAME, START, END, PARENT, OP, PHASE, EXTRA = range(7)


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.phase = "setup"
        self._patched = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, _perf(), None, stack[-1] if stack else None,
                    self.op, self.phase, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = _perf()
            if hook is not None:
                span[EXTRA] = hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name, op=None):
        """A span opened by the benchmark itself, such as one claim.

        Yields the span's index, for ``adopt``."""
        previous_op = self.op
        if op is not None:
            self.op = op
        span = [name, _perf(), None, self.stack[-1] if self.stack else None,
                self.op, self.phase, None]
        index = len(self.spans)
        self.spans.append(span)
        self.stack.append(index)
        try:
            yield index
        finally:
            self.stack.pop()
            span[END] = _perf()
            self.op = previous_op

    def install(self):
        import sigverify
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sigverify" or n.startswith("sigverify."))]
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules["sigverify." + module_name], attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
            parsers = sigverify.dataset._PARSERS  # load_corpus and the CLI look up here
            for key, value in list(parsers.items()):
                if value is original:
                    self._patched.append((parsers, key, original))
                    parsers[key] = wrapper

    def uninstall(self):
        for where, key, original in reversed(self._patched):
            if isinstance(where, dict):
                where[key] = original
            else:
                setattr(where, key, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "phase", "extra"], "spans": self.spans}, f)

    def adopt(self, child_spans, parent_index):
        """Append spans written by a child process under one of ours."""
        base = len(self.spans)
        for span in child_spans:
            span = list(span)
            span[PARENT] = parent_index if span[PARENT] is None else span[PARENT] + base
            span[OP] = self.spans[parent_index][OP]
            span[PHASE] = self.phase
            self.spans.append(span)


# -- analysis -----------------------------------------------------------------

def nesting_violations(spans):
    """Spans that are unfinished or do not lie inside their parent."""
    bad = []
    for i, s in enumerate(spans):
        if s[END] is None or s[END] < s[START]:
            bad.append((i, s[NAME], "unfinished"))
            continue
        p = s[PARENT]
        if p is not None:
            parent = spans[p]
            if parent[END] is None or s[START] < parent[START] or s[END] > parent[END]:
                bad.append((i, s[NAME], f"outside parent {parent[NAME]}"))
    return bad


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _under(spans, i, name):
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, op_names):
    """Per-layer metrics of a traced run, named as in BENCHMARK.json.

    Per-call times are medians over every span of that name, set-up
    included, so a layer used only while setting up (training the
    descriptor for ``verify``) still shows; counts are means.  Per-op
    figures count only spans of the timed phase, divided by the number of
    timed operations.  A layer the workload never calls reads 0.
    """
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def durations(name, where=None):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, [])
                if where is None or where(i)]

    def mean(values, scale=1.0):
        return statistics.fmean(values) * scale if values else 0.0

    def median(values, scale=1.0):
        return statistics.median(values) * scale if values else 0.0

    def extras(name, key):
        return [spans[i][EXTRA][key] for i in by_name.get(name, [])
                if spans[i][EXTRA] is not None]

    def self_of(name, scale):
        return median([own[i] for i in by_name.get(name, [])], scale)

    timed_ops = [i for i, s in enumerate(spans)
                 if s[NAME] in op_names and s[PHASE] == "timed"]
    n_ops = max(len(timed_ops), 1)

    def per_op(name):
        return sum(1 for i in by_name.get(name, []) if spans[i][PHASE] == "timed") / n_ops

    n_pre = len(by_name.get("preprocess.preprocess", []))
    orient = sum(sum(durations(n)) for n in ("preprocess.orientation_angle",
                                             "preprocess.rotate",
                                             "preprocess.normalize_extent"))
    kept = extras("patches.extract_dense", "kept")
    grid = extras("patches.extract_dense", "grid")
    rates = sum(sum(durations(n)) for n in ("evaluation.roc", "evaluation.eer",
                                            "evaluation.auc"))
    n_users_rated = len(by_name.get("evaluation.auc", []))
    lbfgs = by_name.get("optimize.minimize_lbfgs", [])
    in_describe = lambda i: _under(spans, i, "descriptor.describe")  # noqa: E731

    timed = lambda i: spans[i][PHASE] == "timed"  # noqa: E731
    imports = durations("cli.import", timed)
    commands = durations("cli.main", timed)
    shares = layer_shares(spans, op_names)

    return {
        "dataset.parse_ms": median(durations("dataset.parse"), 1e3),
        "preprocess.smooth_ms": median(durations("preprocess.smooth"), 1e3),
        "preprocess.orient_ms": orient / n_pre * 1e3 if n_pre else 0.0,
        "preprocess.rasterize_ms": median(durations("preprocess.rasterize"), 1e3),
        "preprocess.samples_in": mean(extras("preprocess.preprocess", "samples_in")),
        "preprocess.samples_out": mean(extras("preprocess.smooth", "samples_out")),
        "patches.dense_ms": median(durations("patches.extract_dense"), 1e3),
        "patches.kept_per_sig": mean(kept),
        "patches.kept_frac": sum(kept) / sum(grid) if grid else 0.0,
        "patches.sample_s": median(durations("patches.sample")),
        "whitening.apply_ms": median(durations("whitening.apply", in_describe), 1e3),
        "whitening.fit_s": median(durations("whitening.fit")),
        "whitening.out_dim": mean(extras("whitening.fit", "out_dim")),
        "autoencoder.encode_ms": median(durations("autoencoder.encode"), 1e3),
        "autoencoder.cost_grad_ms": median(durations("autoencoder.cost_grad"), 1e3),
        "autoencoder.cost_grad_calls": (len(by_name.get("autoencoder.cost_grad", []))
                                        / len(lbfgs) if lbfgs else 0.0),
        "optimize.iters": mean(extras("optimize.minimize_lbfgs", "iters")),
        "optimize.evals": mean(extras("optimize.minimize_lbfgs", "evals")),
        "optimize.converged": mean(extras("optimize.minimize_lbfgs", "converged")),
        "optimize.final_grad_inf": mean(extras("optimize.minimize_lbfgs", "grad_inf")),
        "optimize.self_s": self_of("optimize.minimize_lbfgs", 1.0),
        "descriptor.describe_ms": median(durations("descriptor.describe"), 1e3),
        "descriptor.describe_self_ms": self_of("descriptor.describe", 1e3),
        "descriptor.train_self_s": self_of("descriptor.train_descriptor", 1.0),
        "oneclass.score_us": median(durations("oneclass.score"), 1e6),
        "oneclass.score_calls": per_op("oneclass.score"),
        "oneclass.fit_ms": median(durations("oneclass.fit"), 1e3),
        "oneclass.calibrate_ms": median(durations("oneclass.calibrate"), 1e3),
        "evaluation.split_ms": median(durations("evaluation.split"), 1e3),
        "evaluation.rates_ms": rates / n_users_rated * 1e3 if n_users_rated else 0.0,
        "evaluation.self_s": self_of("evaluation.run_experiment", 1.0),
        "container.write_ms": median(durations("container.write"), 1e3),
        "container.bytes": mean(extras("container.write", "bytes")),
        "container.read_ms": median(durations("container.read"), 1e3),
        "cli.interp_s": median(durations("cli.interp", timed)),
        "cli.import_s": median(imports),
        "cli.command_s": median(commands),
        # the share of operation time inside some layer, not the harness
        "trace.coverage": sum(v for layer, v in shares.items() if layer != "op"),
    }


def layer_shares(spans, op_names):
    """Share of timed operation time spent in each layer's own code."""
    own = self_times(spans)
    total = sum(s[END] - s[START] for s in spans
                if s[NAME] in op_names and s[PHASE] == "timed")
    shares = {}
    for i, s in enumerate(spans):
        if s[PHASE] == "timed" and s[OP] is not None:
            layer = s[NAME].split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + own[i]
    return {k: v / total for k, v in sorted(shares.items())} if total else {}
