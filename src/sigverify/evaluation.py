"""Verification protocol, error-rate metrics and the full experiment.

Scores follow the one-class convention: smaller means more genuine-like,
and a signature is accepted when its score is at or below the threshold.
So at a threshold t the false rejection rate is the fraction of genuine
scores above t and the false acceptance rate is the fraction of forgery
scores at or below t.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Corpus
from .descriptor import DescriptorModel, describe
from .oneclass import fit_user_model, score

LABELS = ("genuine", "skilled", "random")


@dataclass
class ScoreSet:
    """Genuine and forgery scores, each held as a sorted float64 copy."""

    genuine: np.ndarray
    forgery: np.ndarray

    def __post_init__(self):
        g = self.genuine = np.sort(np.asarray(self.genuine, dtype=np.float64))
        f = self.forgery = np.sort(np.asarray(self.forgery, dtype=np.float64))
        if g.size == 0 or f.size == 0:
            raise ValueError("a score set needs both genuine and forgery scores")
        # sorted, -inf comes first and +inf and NaN last: only the ends can fail
        if not all(map(math.isfinite, (g[0], g[-1], f[0], f[-1]))):
            raise ValueError("scores must be finite")


@dataclass
class RocCurve:
    far: np.ndarray
    frr: np.ndarray
    thresholds: np.ndarray


@dataclass
class UserResult:
    eer: float
    auc: float
    n_genuine_test: int
    n_forgery_test: int
    eer_skilled: float
    eer_random: float
    roc: RocCurve  # the pooled curve that eer is read from


@dataclass
class EvalReport:
    per_user: dict
    mean_eer: float
    mean_auc: float
    pooled_eer: float
    mean_eer_skilled: float
    mean_eer_random: float
    config: dict
    excluded_users: list = field(default_factory=list)
    # (user, fold, label, scores) per part, fold-major: fold, then user, then label
    score_parts: list = field(default_factory=list)
    warnings: list = field(default_factory=list)  # one message per condition met

    @property
    def score_rows(self) -> list:
        """Every score as a (user, fold, label, score) row, in ``score_parts`` order."""
        return [(uid, fold, label, s) for uid, fold, label, part in self.score_parts
                for s in part.tolist()]


def _user_rng(seed: int, user_id: str):
    digest = hashlib.sha256(user_id.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def split_protocol(corpus: Corpus, k: int = 4, seed: int = 0):
    """Per-user train/test index pairs of every fold of the k-fold protocol.

    Each user's genuine signatures are shuffled once (deterministically
    per user and seed) and partitioned into k nearly equal blocks, the
    first ``n % k`` one longer; in fold i block i trains the model and
    the other blocks, in block order, are the genuine test set.  Users
    with fewer than k genuine signatures are excluded in every fold and
    listed in ``excluded``.

    Returns (splits, excluded) where splits maps user_id to a list of k
    ``(train_idx, test_idx)`` pairs, fold by fold, of integer arrays
    indexing ``corpus.users[user_id].genuine``.
    """
    if k < 2:
        raise ValueError(f"need at least 2 folds, got k={k}")
    splits, excluded = {}, []
    for uid in corpus.user_ids():
        n = len(corpus.users[uid].genuine)
        if n < k:
            excluded.append(uid)
            continue
        blocks = np.array_split(_user_rng(seed, uid).permutation(n), k)
        splits[uid] = [(blocks[i], np.concatenate(blocks[:i] + blocks[i + 1:]))
                       for i in range(k)]
    return splits, excluded


def roc(scores: ScoreSet) -> RocCurve:
    """Operating points at midpoints between consecutive distinct scores.

    One threshold below the minimum and one above the maximum complete
    the curve, so it always starts at (far 0, frr 1) and ends at
    (far 1, frr 0).  Thresholds are strictly increasing; far is
    non-decreasing and frr non-increasing along the curve.
    """
    genuine, forgery = scores.genuine, scores.forgery
    # both sides are sorted, so a stable sort (timsort) merges the two runs
    pooled = np.sort(np.concatenate([genuine, forgery]), kind="stable")
    pooled = pooled[np.concatenate([[True], pooled[1:] != pooled[:-1]])]
    mids = (pooled[:-1] + pooled[1:]) / 2.0
    thresholds = np.concatenate([[pooled[0] - 1.0], mids, [pooled[-1] + 1.0]])
    accepted_genuine = np.searchsorted(genuine, thresholds, side="right")
    accepted_forgery = np.searchsorted(forgery, thresholds, side="right")
    # single integer-count divisions keep the rates exact rationals
    frr = (genuine.size - accepted_genuine) / genuine.size
    far = accepted_forgery / forgery.size
    return RocCurve(far=far, frr=frr, thresholds=thresholds)


def eer(curve: RocCurve) -> float:
    """Equal error rate of a ROC curve.

    If an operating point has far == frr exactly, its rate is returned
    (the smallest threshold wins ties); otherwise the rate is linearly
    interpolated between the two points where far - frr changes sign.
    """
    diff = curve.far - curve.frr
    exact = np.flatnonzero(diff == 0)
    if exact.size:
        return float(curve.far[exact[0]])
    sign_change = np.flatnonzero((diff[:-1] < 0) & (diff[1:] > 0))
    if sign_change.size == 0:
        raise ValueError("ROC curve has no far/frr crossing")
    i = int(sign_change[0])
    fa, fb = curve.far[i], curve.far[i + 1]
    ra, rb = curve.frr[i], curve.frr[i + 1]
    s = (ra - fa) / ((fb - fa) - (rb - ra))
    return float(fa + s * (fb - fa))


def auc(scores: ScoreSet) -> float:
    """P(genuine score < forgery score) + 0.5 P(tie), by rank statistic.  Twice its
    numerator, the pairs with genuine < forgery plus those with genuine <= forgery,
    is an exact integer."""
    genuine, forgery = scores.genuine, scores.forgery
    twice = sum(np.searchsorted(genuine, forgery, side).sum() for side in ("left", "right"))
    return float(twice / 2.0 / (genuine.size * forgery.size))


def _nanmean(values) -> float:
    values = [v for v in values if not np.isnan(v)]
    return float(np.mean(values)) if values else float("nan")


def run_experiment(corpus: Corpus, model: DescriptorModel, k: int = 4,
                   reg: float = 0.9, seed: int = 0,
                   describe_fn=None) -> EvalReport:
    """Full k-fold verification experiment over a labelled corpus.

    Every trajectory is described once, into one stacked array of each
    user's genuine descriptors and one of their skilled forgeries.  Each
    user has one block, built once: their genuine rows, their skilled
    forgeries, then every other user's genuine rows.  Per fold, a model
    fitted on the training rows scores the whole block in one solve, bit
    for bit as per-signature scoring; the test, skilled and random rows'
    scores pool across folds into the user's ROC curve.  The report
    carries per-user EER/AUC, their means, the forgery-type subsets, a
    secondary EER with one global pooled threshold, and every score, fold-major.

    Nothing is printed or logged: each condition met is one message in
    ``report.warnings``, or in the ValueError raised if no user is reportable.
    """
    if describe_fn is None:
        describe_fn = describe
    warnings = []
    overlap = set(model.train_sources) & {corpus.source}
    if overlap:
        warnings.append(f"evaluation corpus shares source tags {sorted(overlap)} "
                        "with the descriptor training set")

    uids = corpus.user_ids()
    groups = [g for uid in uids for g in (corpus.users[uid].genuine,
                                          corpus.users[uid].skilled_forgeries)]
    values = np.array([describe_fn(t, model).values for g in groups for t in g],
                      dtype=np.float64)
    stacked = np.split(values, np.cumsum([len(g) for g in groups])[:-1])
    genuine, skilled = dict(zip(uids, stacked[0::2])), dict(zip(uids, stacked[1::2]))

    splits, excluded = split_protocol(corpus, k, seed)
    warnings += [f"user {uid} has {len(corpus.users[uid].genuine)} genuine signatures, "
                 f"fewer than k={k}; excluded from the protocol" for uid in excluded]
    per_user, parts, pooled_gen, pooled_forg = {}, {}, [], []
    for uid in sorted(splits):
        block = np.concatenate([genuine[uid], skilled[uid],
                                *(genuine[o] for o in uids if o != uid)])
        a, b = len(genuine[uid]), len(genuine[uid]) + len(skilled[uid])
        parts[uid] = []  # per fold: (genuine, skilled, random) scores
        for train_idx, test_idx in splits[uid]:
            s = score(fit_user_model(genuine[uid][train_idx], reg=reg, user_id=uid), block)
            parts[uid].append((s[test_idx], s[a:b], s[b:]))
        # each fold tests k - 1 genuine blocks of at least one row: only forg can be empty
        gen, skl, rnd = (np.concatenate(p) for p in zip(*parts[uid]))
        forg = np.concatenate([skl, rnd])
        pooled_gen.append(gen)
        pooled_forg.append(forg)
        if forg.size == 0:
            warnings.append(f"user {uid} has no reportable score set; skipped")
            continue
        scores = ScoreSet(gen, forg)
        curve = roc(scores)
        eer_sk = eer(roc(ScoreSet(gen, skl))) if skl.size else float("nan")
        eer_rn = eer(roc(ScoreSet(gen, rnd))) if rnd.size else float("nan")
        per_user[uid] = UserResult(eer=eer(curve), auc=auc(scores),
                                   n_genuine_test=gen.size, n_forgery_test=forg.size,
                                   eer_skilled=eer_sk, eer_random=eer_rn, roc=curve)

    if not per_user:
        raise ValueError("; ".join(["no user produced a reportable score set", *warnings]))
    # a ScoreSet sorts its input, so pooling per-user arrays in user order changes nothing
    pooled = eer(roc(ScoreSet(np.concatenate(pooled_gen), np.concatenate(pooled_forg))))
    return EvalReport(
        per_user=per_user,
        mean_eer=float(np.mean([u.eer for u in per_user.values()])),
        mean_auc=float(np.mean([u.auc for u in per_user.values()])),
        pooled_eer=pooled,
        mean_eer_skilled=_nanmean([u.eer_skilled for u in per_user.values()]),
        mean_eer_random=_nanmean([u.eer_random for u in per_user.values()]),
        config={"k": k, "reg": reg, "seed": seed, "hidden": model.hidden,
                "source": corpus.source},
        excluded_users=excluded,
        score_parts=[(uid, fold, label, part) for fold in range(k) for uid in parts
                     for label, part in zip(LABELS, parts[uid][fold])],
        warnings=warnings,
    )


# -- deterministic text renderings -------------------------------------------

def format_report(report: EvalReport) -> str:
    lines = ["signature verification report"]
    for key in sorted(report.config):
        lines.append(f"config {key} = {report.config[key]}")
    if report.excluded_users:
        lines.append("excluded users: " + " ".join(report.excluded_users))
    lines.append("")
    lines.append(f"{'user':<12} {'eer':>8} {'auc':>8} {'eer_skilled':>12} "
                 f"{'eer_random':>11} {'n_gen':>6} {'n_forg':>7}")
    for uid in sorted(report.per_user):
        u = report.per_user[uid]
        lines.append(f"{uid:<12} {u.eer:8.4f} {u.auc:8.4f} {u.eer_skilled:12.4f} "
                     f"{u.eer_random:11.4f} {u.n_genuine_test:6d} "
                     f"{u.n_forgery_test:7d}")
    lines.append("")
    lines.append(f"mean eer          = {report.mean_eer:.6f}")
    lines.append(f"mean auc          = {report.mean_auc:.6f}")
    lines.append(f"mean eer skilled  = {report.mean_eer_skilled:.6f}")
    lines.append(f"mean eer random   = {report.mean_eer_random:.6f}")
    lines.append(f"pooled-threshold eer = {report.pooled_eer:.6f} "
                 "(secondary; one global threshold)")
    return "\n".join(lines) + "\n"


def scores_csv(report: EvalReport) -> str:
    lines = ["user_id,fold,label,score"]
    for uid, fold, label, part in report.score_parts:
        if part.size:
            prefix = f"{uid},{fold},{label},"
            lines.append(prefix + ("\n" + prefix).join(map(repr, part.tolist())))
    return "\n".join(lines) + "\n"


def roc_csv(curve: RocCurve) -> str:
    lines = ["far,frr,threshold"]
    for fa, rr, th in zip(curve.far, curve.frr, curve.thresholds):
        lines.append(f"{float(fa)!r},{float(rr)!r},{float(th)!r}")
    return "\n".join(lines) + "\n"
