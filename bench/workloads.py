"""The three workloads: set-up, timed operations and output checks.

Each workload object is built from the run seed, a size and a scratch
directory.  ``setup(tracer)`` makes the inputs and state, warm-up
included (only ``cli`` uses the tracer: given one, its set-up commands
and timed commands run cold, in fresh interpreters),
``measure(seconds, tracer, min_ops)`` runs timed operations as a closed
loop with one caller, appends one record per operation and returns the
``(operation id, seconds)`` pairs of each kind of operation, and
``check()`` verifies every record and returns an ``Outcome``.  Each
workload cycles through a fixed list of distinct operations, continuing
the cycle from one ``measure`` call to the next, so every operation
repeats within a run and repeats must give identical output.
A workload's ``min_ops`` is the least number of main operations a run
needs: at least a whole cycle, so the digest covers every operation.  The
library only ever sees inputs generated here; it is called through its
public functions (``sigverify.*``) and, for ``cli``, its command.
"""

import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sigverify as sv
import sigverify.cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SIZES = {
    "full": {
        "setups": 3,
        # descriptor trained in set-up for verify and evaluate-wide: the
        # acceptance-test shape with a short iteration budget (describe
        # cost depends on the whitened dimension and hidden, not on
        # convergence)
        "pool_users": 10, "pool_genuine": 5, "setup_train_count": 20_000,
        "hidden": 64, "setup_iters": 5,
        "verify_users": 20, "verify_genuine": 12, "verify_forgery": 10,
        # 80 distinct claims, one cycle ~0.7 s: each stretch of a second or
        # more at full speed sees every claim, so each claim's fastest
        # repeat is a full-speed one, and the mean over 80 claims varies
        # little with the seed's draw; at least 1000 claims a run, so ten
        # lie beyond the 99th percentile
        "enroll_from": 6, "min_claims": 1000,
        "claim_mix": {"genuine": 28, "skilled": 24, "random": 26, "degenerate": 2},
        "warm_users": 2, "warm_claims": 20,
        "wide_users": 12, "wide_genuine": 8, "wide_forgery": 4,
        "wide_warm_users": 4,
        # as many distinct claims as verify, so op_ms does not hang on the
        # few signatures one seed draws
        "cli_users": 10, "cli_genuine": 10, "cli_forgery": 4, "cli_held_out": 2,
        "cli_train_count": 2000, "cli_iters": 5,
        "cli_kinds": ("genuine", "skilled", "random", "bad", "genuine"), "cli_claims": 80,
    },
    "tiny": {
        "setups": 1,
        "pool_users": 3, "pool_genuine": 2, "setup_train_count": 500,
        "hidden": 8, "setup_iters": 3,
        "verify_users": 3, "verify_genuine": 6, "verify_forgery": 2,
        "enroll_from": 4, "min_claims": 24,
        "claim_mix": {"genuine": 8, "skilled": 7, "random": 8, "degenerate": 1},
        "warm_users": 1, "warm_claims": 3,
        "wide_users": 5, "wide_genuine": 4, "wide_forgery": 1,
        "wide_warm_users": 2,
        "cli_users": 2, "cli_genuine": 5, "cli_forgery": 1, "cli_held_out": 1,
        "cli_train_count": 300, "cli_iters": 3,
        "cli_kinds": ("genuine", "bad", "random"), "cli_claims": 3,
    },
}

REG = 0.9
FOLDS = 4


@dataclass
class Outcome:
    attempted: int
    failed: int
    digest: str
    digest_ops: int  # operations whose output the digest covers
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def keep_going(started, timings, seconds, min_ops):
    """Closed-loop stop rule: start another operation while it should
    finish inside the measured time, and always reach ``min_ops``."""
    if len(timings) < min_ops or not timings:
        return True
    typical = statistics.median(t for _, t in timings)
    return time.perf_counter() - started + typical <= seconds


def _span(tracer, name, op):
    return tracer.span(name, op) if tracer is not None else nullcontext()


def _descriptor(pool_seed, p):
    pool = sv.generate_synthetic_corpus(seed=pool_seed, n_users=p["pool_users"],
                                        n_genuine=p["pool_genuine"], n_forgery=0)
    return sv.train_descriptor(
        pool.all_trajectories(),
        patch_cfg=sv.PatchConfig(train_count=p["setup_train_count"]),
        ae_cfg=sv.AeConfig(hidden=p["hidden"], max_iter=p["setup_iters"], seed=0),
        seed=pool_seed)


def _degenerate_texts(seed):
    """Claims that must be refused with ValueError, one of each kind."""
    rng = np.random.default_rng([seed, 99])
    n = int(rng.integers(20, 60))
    t = np.arange(n) * 8.0
    x0 = float(np.round(rng.uniform(50.0, 150.0)))
    ones = np.ones(n, dtype=bool)
    coincident = sv.Trajectory(np.full(n, x0), np.full(n, x0 + 1.0), t,
                               np.full(n, 0.5), ones)
    flat = sv.Trajectory(np.linspace(0.0, 100.0, n), np.full(n, x0), t,
                         np.full(n, 0.5), ones)
    backwards = sv.format_canonical(flat).splitlines()
    backwards[2], backwards[3] = backwards[3], backwards[2]
    return [sv.format_canonical(coincident), sv.format_canonical(flat),
            "\n".join(backwards) + "\n", "x y t p d\n1.0 2.0 0.0 0.5 1\n"]


# -- verify -------------------------------------------------------------------

class Verify:
    """Enrollment, then a stream of verification claims, warm, in-process."""

    name = "verify"
    op_names = ("op.enroll", "op.claim")

    def __init__(self, seed, size, workdir):
        self.seed, self.p, self.workdir = seed, SIZES[size], Path(workdir)
        self.enrolls, self.claim_records, self.users = [], [], {}
        self.min_ops = self.p["min_claims"]

    def setup(self, tracer=None):
        p = self.p
        corpus = sv.generate_synthetic_corpus(
            seed=2 * self.seed, n_users=p["verify_users"],
            n_genuine=p["verify_genuine"], n_forgery=p["verify_forgery"])
        self.model = _descriptor(2 * self.seed + 1, p)
        self.corpus = corpus
        uids = corpus.user_ids()
        texts = {}
        for uid in uids:
            sigs = corpus.users[uid]
            for j, t in enumerate(sigs.genuine):
                texts[uid, "g", j] = sv.format_canonical(t)
            for j, t in enumerate(sigs.skilled_forgeries):
                texts[uid, "f", j] = sv.format_canonical(t)
        degenerate = _degenerate_texts(self.seed)
        rng = np.random.default_rng([self.seed, 7])
        held_out = range(p["enroll_from"], p["verify_genuine"])
        kinds = [kind for kind, n in p["claim_mix"].items() for _ in range(n)]
        rng.shuffle(kinds)
        claims = []
        for i, kind in enumerate(kinds):
            u = uids[int(rng.integers(len(uids)))]
            if kind == "genuine":
                text = texts[u, "g", int(rng.choice(held_out))]
            elif kind == "skilled":
                text = texts[u, "f", int(rng.integers(p["verify_forgery"]))]
            elif kind == "random":
                others = [v for v in uids if v != u]
                v = others[int(rng.integers(len(others)))]
                text = texts[v, "g", int(rng.integers(p["verify_genuine"]))]
            else:
                text = degenerate[int(rng.integers(len(degenerate)))]
            claims.append((i, u, kind, text))
        self.claims = claims
        self.outdir = self.workdir / "users"
        self.outdir.mkdir(parents=True, exist_ok=True)
        # warm-up, untimed and unchecked: a few enrollments, and the first
        # claims verified against the first of them
        warm = [self._enroll(uid, self.workdir / "warm")[0]
                for uid in uids[:p["warm_users"]]]
        for _, u, kind, text in claims[:p["warm_claims"]]:
            if kind != "degenerate":
                sv.verify(warm[0], sv.describe(sv.parse_canonical(text, user_id=u),
                                               self.model))

    def _enroll(self, uid, outdir):
        genuine = self.corpus.users[uid].genuine[:self.p["enroll_from"]]
        descs = [sv.describe(t, self.model) for t in genuine]
        user = sv.fit_user_model(descs, reg=REG, user_id=uid)
        sv.calibrate_threshold(user, [sv.score_descriptor(user, d) for d in descs])
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / f"{uid}.usermodel"
        sv.save_user_model(user, path)
        return user, path

    def measure(self, seconds, tracer=None, min_ops=1):
        """Enroll every user on the first call (and when traced), then
        run claims until ``seconds`` have passed since the call."""
        started = time.perf_counter()
        enrolls = []
        if not self.users or tracer is not None:
            for uid in self.corpus.user_ids():
                t0 = time.perf_counter()
                with _span(tracer, "op.enroll", f"enroll:{uid}"):
                    user, path = self._enroll(uid, self.outdir)
                elapsed = time.perf_counter() - t0
                self.users[uid] = user
                self.enrolls.append((uid, user, sha256(path.read_bytes()), elapsed))
                enrolls.append((uid, elapsed))
        users, timings = self.users, []
        while keep_going(started, timings, seconds, min_ops):
            index, u, kind, text = self.claims[len(self.claim_records) % len(self.claims)]
            t0 = time.perf_counter()
            try:
                with _span(tracer, "op.claim", f"claim:{index}"):
                    traj = sv.parse_canonical(text, user_id=u)
                    desc = sv.describe(traj, self.model)
                    accepted, score = sv.verify(users[u], desc)
                outcome = (repr(score), "accept" if accepted else "reject", desc.values)
            except ValueError as exc:
                outcome = ("ValueError", str(exc), None)
            except Exception as exc:  # counted as a failed claim
                outcome = ("error", f"{type(exc).__name__}: {exc}", None)
            elapsed = time.perf_counter() - t0
            timings.append((index, elapsed))
            self.claim_records.append((index, u, kind, outcome, users[u]))
        return {"claim": timings, "enroll": enrolls}

    def check(self):
        notes, failed = [], 0
        n_users = len(self.corpus.user_ids())
        first_enroll = {}
        for uid, user, file_sha, _ in self.enrolls:
            line = f"enroll {uid} {user.threshold!r} {file_sha}"
            if first_enroll.setdefault(uid, line) != line:
                failed += 1
                notes.append(f"enrollment of {uid} is not deterministic")
        for uid, user, _, _ in self.enrolls[:n_users]:
            back = sv.load_user_model(self.outdir / f"{uid}.usermodel")
            if not (np.array_equal(back.mean, user.mean)
                    and np.array_equal(back.covariance, user.covariance)
                    and back.threshold == user.threshold):
                failed += 1
                notes.append(f"user model of {uid} does not read back")
        first = {}
        for index, u, kind, outcome, user in self.claim_records:
            ok = self._claim_ok(kind, outcome, user, notes, index)
            # a refusal's message is not part of the output contract
            line = f"{index} {outcome[0]}" + ("" if outcome[0] == "ValueError"
                                              else f" {outcome[1]}")
            if first.setdefault(index, line) != line:
                ok = False
                notes.append(f"claim {index} is not deterministic")
            failed += not ok
        lines = list(first_enroll.values()) + [first[i] for i in sorted(first)]
        return Outcome(attempted=len(self.enrolls) + len(self.claim_records),
                       failed=failed, digest=sha256("\n".join(lines)),
                       digest_ops=n_users + len(first), notes=notes)

    def _claim_ok(self, kind, outcome, user, notes, index):
        status, detail, values = outcome
        if kind == "degenerate":
            if status != "ValueError":
                notes.append(f"degenerate claim {index} was not refused: {status}")
            return status == "ValueError"
        if status in ("ValueError", "error"):
            notes.append(f"claim {index} raised {detail}")
            return False
        score = float(status)
        ok = (values.shape == (self.model.hidden,) and np.all(values > 0)
              and np.all(values < 1))
        diff = values - user.mean
        reference = float(diff @ np.linalg.solve(user.covariance, diff))
        ok = ok and abs(score - reference) <= 1e-8 * max(1.0, abs(reference))
        ok = ok and (detail == "accept") == (score <= user.threshold)
        if not ok:
            notes.append(f"claim {index}: score {score!r} or decision {detail} "
                         f"disagrees with the reference {reference!r}")
        return ok


# -- evaluate-wide ------------------------------------------------------------

class EvaluateWide:
    """The k-fold protocol on many users with few signatures each.

    Every signature is described once in set-up and ``run_experiment``
    gets them through its ``describe_fn`` parameter, so the timed
    operation is the protocol itself: splits, fits, the scoring that grows
    with the square of the user count, and the ROC work.  Twelve users
    keep an operation near 0.1 s, so a run repeats it ~100 times and its
    fastest repeat is steady on a noisy host; the describe path is timed
    by ``verify``.
    """

    name = "evaluate-wide"
    op_names = ("op.evaluate",)

    def __init__(self, seed, size, workdir):
        self.seed, self.p, self.workdir = seed, SIZES[size], Path(workdir)
        self.records = []
        self.min_ops = 1

    def setup(self, tracer=None):
        p = self.p
        self.corpus = sv.generate_synthetic_corpus(
            seed=2 * self.seed, n_users=p["wide_users"], n_genuine=p["wide_genuine"],
            n_forgery=p["wide_forgery"])
        self.model = _descriptor(2 * self.seed + 1, p)
        described = {id(t): sv.describe(t, self.model)
                     for t in self.corpus.all_trajectories()}
        self.describe_fn = lambda traj, model: described[id(traj)]
        # warm-up: the same protocol on a few of the users, untimed
        few = self.corpus.user_ids()[:p["wide_warm_users"]]
        warm = sv.Corpus(users={u: self.corpus.users[u] for u in few},
                         source=self.corpus.source)
        sv.scores_csv(sv.run_experiment(warm, self.model, k=FOLDS, reg=REG,
                                        seed=self.seed, describe_fn=self.describe_fn))

    def measure(self, seconds, tracer=None, min_ops=1):
        started, timings = time.perf_counter(), []
        while keep_going(started, timings, seconds, min_ops):
            t0 = time.perf_counter()
            with _span(tracer, "op.evaluate", f"evaluate:{len(self.records)}"):
                report = sv.run_experiment(self.corpus, self.model, k=FOLDS, reg=REG,
                                           seed=self.seed, describe_fn=self.describe_fn)
                text = sv.scores_csv(report)
            timings.append((0, time.perf_counter() - t0))
            # keep only what check() needs, so memory does not grow per run
            self.records.append((sha256(text), self._well_formed(report), report.mean_eer))
        return {"evaluate": timings}

    def _well_formed(self, report):
        p = self.p
        users, genuine = p["wide_users"], p["wide_genuine"]
        # each genuine signature is a test sample in k - 1 folds
        expected_rows = users * ((FOLDS - 1) * genuine + FOLDS * (
            p["wide_forgery"] + (users - 1) * genuine))
        scores = np.array([r[3] for r in report.score_rows])
        return (len(report.score_rows) == expected_rows
                and bool(np.all(np.isfinite(scores)) and np.all(scores >= 0))
                and 0.0 <= report.mean_eer <= 1.0
                and math.isclose(report.mean_eer, statistics.fmean(
                    u.eer for u in report.per_user.values())))

    def check(self):
        notes, failed = [], 0
        first = self.records[0][0]
        for digest, well_formed, _ in self.records:
            ok = digest == first and well_formed
            if not ok:
                notes.append("an evaluation differs from the first or is malformed")
            failed += not ok
        return Outcome(attempted=len(self.records), failed=failed, digest=first,
                       digest_ops=len(self.records), notes=notes,
                       details={"mean_eer": self.records[0][2]})


# -- cli ----------------------------------------------------------------------

VERDICT = re.compile(r"^(accept|reject) score=(\S+) threshold=(\S+)$")


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, cwd, out_path, err_path):
    """Run one child to completion; returns its exit code."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
    proc.wait()
    return proc.returncode


class Cli:
    """``sigverify verify`` commands, one claim each, one at a time.

    Untraced, a command is a call of ``sigverify.cli.main`` in this
    process: argument and configuration handling, reading both model
    containers and the signature file, the describe path and the verdict.
    A fresh interpreter per command spends ~1.2 s starting (mostly
    ``import sigverify``, ~30k page faults), and on a shared 2-vCPU VM
    that start followed the host's speed from run to run: over ten seeds
    its quartile spread was ~25%, as wide as the bound.  So cold commands
    are left to the traced run, where set-up and every command run in a
    fresh interpreter (through ``cli_shim.py`` when traced) and the
    ``cli`` layer metrics give a cold command's start-up, import and
    command time.
    """

    name = "cli"
    op_names = ("op.command",)

    def __init__(self, seed, size, workdir):
        self.seed, self.p, self.workdir = seed, SIZES[size], Path(workdir)
        self.records = []
        self.n_children = 0
        self.cold = False
        self.min_ops = self.p["cli_claims"]
        # the claims the digest covers: one of each kind, the first ones run
        self.n_digested = len(self.p["cli_kinds"])

    def _cli(self, argv, tracer, name, op):
        """Run the command line once; returns (exit code, stdout, seconds,
        stderr).  Cold, the shim records spans when traced."""
        if not self.cold:
            out, err = io.StringIO(), io.StringIO()
            with _span(tracer, name, op):
                t0 = time.perf_counter()
                with redirect_stdout(out), redirect_stderr(err):
                    code = sv.cli.main(argv)
                elapsed = time.perf_counter() - t0
            return code, out.getvalue(), elapsed, err.getvalue()
        k = self.n_children
        self.n_children += 1
        out, err = self.workdir / f"out{k}.txt", self.workdir / f"err{k}.txt"
        if tracer is None:
            cmd = [sys.executable, "-m", "sigverify.cli", *argv]
        else:
            spans_file = self.workdir / f"spans{k}.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(spans_file),
                   "--", *argv]
        with _span(tracer, name, op) as index:
            t0 = time.perf_counter()
            code = run_child(cmd, self.workdir, out, err)
            elapsed = time.perf_counter() - t0
        if tracer is not None and spans_file.exists():
            tracer.adopt(json.loads(spans_file.read_text())["spans"], index)
        return code, out.read_text(), elapsed, err.read_text()

    def setup(self, tracer=None):
        p, w = self.p, self.workdir
        self.cold = tracer is not None
        if self.cold:  # a cold command takes ~1.4 s; cover the digested claims
            self.min_ops = self.n_digested
        w.mkdir(parents=True, exist_ok=True)
        corpus, held, bad = w / "corpus", w / "held", w / "bad"
        steps = [
            ["synth", "--out", str(corpus), "--seed", str(self.seed),
             "--set", f"synth.users={p['cli_users']}",
             "--set", f"synth.genuine={p['cli_genuine']}",
             "--set", f"synth.forgery={p['cli_forgery']}"],
            ["learn-descriptor", "--corpus", str(corpus), "--out", str(w / "model.sig"),
             "--seed", str(self.seed), "--set", f"patch.train_count={p['cli_train_count']}",
             "--set", f"ae.hidden={p['hidden']}", "--set", f"ae.max_iter={p['cli_iters']}"],
            ["enroll", "--model", str(w / "model.sig"), "--corpus", str(corpus),
             "--out", str(w / "users")],
        ]
        for k, argv in enumerate(steps):
            code, _, _, err = self._cli(argv, tracer, "setup.command", f"setup:{k}")
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {code}: {err[-2000:]}")
            if k == 0:
                # hold some genuine signatures out of the enrolled corpus
                for user_dir in sorted(corpus.iterdir()):
                    files = sorted((user_dir / "genuine").glob("*.txt"))
                    (held / user_dir.name).mkdir(parents=True)
                    for f in files[-p["cli_held_out"]:]:
                        f.rename(held / user_dir.name / f.name)
        bad.mkdir()
        (bad / "malformed.txt").write_text("this is not a signature\n")
        (bad / "coincident.txt").write_text(_degenerate_texts(self.seed)[0])
        uids = sorted(d.name for d in corpus.iterdir())
        rng = np.random.default_rng([self.seed, 11])
        claims = []
        for i in range(p["cli_claims"]):
            kind = p["cli_kinds"][i % len(p["cli_kinds"])]
            u = uids[int(rng.integers(len(uids)))]
            if kind == "genuine":
                pick = sorted((held / u).glob("*.txt"))
            elif kind == "skilled":
                pick = sorted((corpus / u / "forgery").glob("*.txt"))
            elif kind == "random":
                v = [x for x in uids if x != u][int(rng.integers(len(uids) - 1))]
                pick = sorted((corpus / v / "genuine").glob("*.txt"))
            else:
                pick = sorted(bad.glob("*.txt"))
            claims.append((i, u, pick[int(rng.integers(len(pick)))]))
        self.claims = claims

    def measure(self, seconds, tracer=None, min_ops=1):
        w = self.workdir
        started, timings = time.perf_counter(), []
        while keep_going(started, timings, seconds, min_ops):
            index, u, path = self.claims[len(self.records) % len(self.claims)]
            argv = ["verify", "--model", str(w / "model.sig"), "--user-models",
                    str(w / "users"), "--user", u, str(path)]
            code, out, elapsed, _ = self._cli(argv, tracer, "op.command",
                                              f"command:{index}")
            if self.cold and tracer is not None:
                # the start and exit of a bare interpreter, outside any command
                with tracer.span("cli.interp"):
                    run_child([sys.executable, "-c", "pass"], w, w / "bare.out",
                              w / "bare.err")
            timings.append((index, elapsed))
            self.records.append((index, u, path, code, out))
        return {"command": timings}

    def check(self):
        w = self.workdir
        model = sv.load_model(w / "model.sig")
        expected = {}
        for index, u, path in self.claims:
            try:
                user = sv.load_user_model(w / "users" / f"{u}.usermodel")
                traj = sv.parse_canonical(path.read_text(), user_id=u)
                accepted, score = sv.verify(user, sv.describe(traj, model))
                expected[index] = (0 if accepted else 2, score, user.threshold)
            except ValueError:
                expected[index] = (1, None, None)
        notes, failed, first = [], 0, {}
        for index, u, path, code, out in self.records:
            want, score, threshold = expected[index]
            ok = code == want
            if ok and want in (0, 2):
                m = VERDICT.match(out.strip())
                ok = (m is not None and len(out.strip().splitlines()) == 1
                      and m.group(1) == ("accept" if want == 0 else "reject")
                      and math.isclose(float(m.group(2)), score, rel_tol=1e-8)
                      and math.isclose(float(m.group(3)), threshold, rel_tol=1e-8))
            elif ok:
                ok = out == ""
            line = f"{index} {code} {out.strip()}"
            if first.setdefault(index, line) != line:
                ok = False
            if not ok:
                notes.append(f"command {index} ({path.name} as {u}): exit {code}, "
                             f"expected {want}; stdout {out.strip()!r}")
            failed += not ok
        lines = [sha256((w / "model.sig").read_bytes())]
        lines += [sha256(f.read_bytes()) for f in sorted((w / "users").glob("*"))]
        lines += [first[i] for i in range(self.n_digested)]
        return Outcome(attempted=len(self.records), failed=failed,
                       digest=sha256("\n".join(lines)), digest_ops=self.n_digested,
                       notes=notes)


WORKLOADS = {w.name: w for w in (Verify, EvaluateWide, Cli)}

