"""Batched evaluation agrees exactly with one-descriptor-at-a-time scoring.

``reference_pipeline`` keeps the ``np.cov`` and ``cho_factor`` user-model
fit, the per-vector ``cho_solve`` score and the evaluation loop that
scored every test row with its own call.  The library fits with direct
LAPACK calls and scores each (user, fold) block with one solve; every
property here requires bit-identical fits and scores, and ``scores.csv``
text equal byte for byte to the per-row renderer.  The rank-based AUC is
checked against ``scipy.stats.rankdata``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import reference_pipeline as ref
from sigverify import (Corpus, ScoreSet, UserSignatures, auc, eer, fit_user_model,
                       generate_synthetic_corpus, roc, run_experiment, scores_csv)
from sigverify.descriptor import Descriptor
from sigverify.oneclass import ZERO_VARIANCE_EPSILON, score

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def user_models(draw):
    """A fitted user model, rows to score and the training rows, over every
    fit branch."""
    kind = draw(st.sampled_from(["spread", "identical", "single", "jitter"]))
    dim = draw(st.integers(2 if kind == "jitter" else 1, 128))
    batch = draw(st.integers(1, 300))
    reg = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 if kind == "single" else draw(st.integers(2, 2 * dim + 3))
    train = rng.normal(size=(n, dim)) * scale + rng.normal(size=dim)
    if kind == "identical":  # dyadic values keep the mean, so S is exactly 0
        train[:] = np.round(train[0] * 8) / 8
    if kind == "jitter":
        # integer rows with a constant column: an exactly singular covariance
        train = rng.integers(-3, 4, size=(max(n, 2), dim)).astype(float)
        train[:, 0] = 1.0
        train[1, -1] += 1.0  # some variance, so the floor is not used
        reg = 0.0
    model = fit_user_model(train, reg=reg, user_id="u")
    if kind in ("identical", "single"):
        assert np.array_equal(model.covariance, ZERO_VARIANCE_EPSILON * np.eye(dim))
    if kind == "jitter":  # the LinAlgError branch added the floor to the diagonal
        assert model.covariance[0, 0] == ZERO_VARIANCE_EPSILON
    rows = model.mean + rng.normal(size=(batch, dim)) * scale * draw(
        st.sampled_from([0.1, 1.0, 10.0]))
    return model, rows, train


class TestFitOracle:
    @SETTINGS
    @given(case=user_models())
    def test_fit_equals_np_cov_and_cho_factor(self, case):
        model, _, train = case
        expect = ref.fit_user_model(train, model.reg)
        for got, want in ((model.mean, expect.mean), (model.covariance, expect.covariance),
                          (model._factor, expect._factor)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        listed = fit_user_model(list(train), reg=model.reg)  # rows one by one
        assert listed.covariance.tobytes() == model.covariance.tobytes()
        kept = train.copy()
        fit_user_model(train, reg=model.reg)
        assert np.array_equal(train, kept)  # the caller's rows are not centred


class TestScoreKernel:
    @SETTINGS
    @given(case=user_models())
    def test_block_scores_equal_per_vector_solves(self, case):
        model, rows, _ = case
        expect = np.array([ref.score(model, r) for r in rows])
        got = score(model, rows)
        assert got.dtype == np.float64 and got.shape == (len(rows),)
        assert np.array_equal(got, expect)
        assert score(model, rows[0]) == expect[0]
        assert score(model, Descriptor(rows[-1], "u", "genuine")) == expect[-1]


def _descriptor(dim):
    """A deterministic stand-in describe: per-user landmark plus noise."""
    def describe(traj, model):
        u = int(traj.user_id[-3:])
        key = int(traj.x.sum() * 65536) % 9973
        noise = np.random.default_rng(key).normal(size=dim)
        values = np.arange(dim) % (u + 2) + (0.3 if traj.label == "genuine" else 1.5) * noise
        return Descriptor(values=values, user_id=traj.user_id, label=traj.label)
    return describe


class FakeModel:
    hidden = 0  # the stand-in's dimension is not the hidden size
    train_sources = ()


POOL = generate_synthetic_corpus(seed=71, n_users=5, n_genuine=9, n_forgery=3)


@st.composite
def protocols(draw):
    """A corpus cut from POOL with uneven per-user counts, and k, reg, seed."""
    k = draw(st.integers(2, 5))
    uids = POOL.user_ids()[:draw(st.integers(2, 5))]
    users = {}
    for i, uid in enumerate(uids):
        # the first two users always take part, so a report exists
        n_genuine = draw(st.integers(k if i < 2 else 1, 9))
        n_skilled = draw(st.integers(0, 3))
        users[uid] = UserSignatures(POOL.users[uid].genuine[:n_genuine],
                                    POOL.users[uid].skilled_forgeries[:n_skilled])
    return (Corpus(users=users, source="pool"), k,
            draw(st.sampled_from([0.0, 0.9, 1.0])), draw(st.integers(0, 2**16)),
            draw(st.integers(1, 12)))


class TestRunExperimentOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=protocols())
    def test_scores_csv_is_byte_identical_to_per_vector_scoring(self, case):
        corpus, k, reg, seed, dim = case
        describe = _descriptor(dim)
        report = run_experiment(corpus, FakeModel(), k=k, reg=reg, seed=seed,
                                describe_fn=describe)
        rows = ref.run_experiment_rows(corpus, FakeModel(), k, reg, seed, describe)
        assert report.score_rows == rows
        assert scores_csv(report) == ref.scores_csv_rows(rows)
        # each user's rates are those roc, eer and auc give of the user's ScoreSets
        for uid, result in report.per_user.items():
            side = {label: np.array([r[3] for r in rows if r[0] == uid and r[2] == label])
                    for label in ("genuine", "skilled", "random")}
            forgery = np.concatenate([side["skilled"], side["random"]])
            curve = ref.roc(side["genuine"], forgery)
            for got, want in zip((result.roc.far, result.roc.frr, result.roc.thresholds),
                                 curve):
                assert got.tobytes() == want.tobytes()
            assert result.auc == auc(ScoreSet(side["genuine"], forgery))
            for label, got in (("skilled", result.eer_skilled),
                               ("random", result.eer_random)):
                want = (eer(roc(ScoreSet(side["genuine"], side[label])))
                        if side[label].size else float("nan"))
                assert got == want or np.isnan(got) and np.isnan(want)

    def test_named_corner_cases_match_the_oracle(self):
        pool = POOL.users
        cases = [  # (genuine counts, skilled counts, k)
            ((9, 9, 3, 9), (3, 0, 3, 2), 4),  # user 2 excluded, user 1 without skilled
            ((7, 5, 6), (0, 0, 0), 3),        # no skilled forgeries at all
            ((9, 2, 9), (1, 3, 2), 2),        # uneven blocks at k = 2
            ((9, 8, 5, 7, 6), (3, 2, 1, 0, 3), 5),
        ]
        describe = _descriptor(6)
        for genuine, skilled, k in cases:
            uids = POOL.user_ids()[:len(genuine)]
            corpus = Corpus(users={
                u: UserSignatures(pool[u].genuine[:g], pool[u].skilled_forgeries[:s])
                for u, g, s in zip(uids, genuine, skilled)}, source="pool")
            report = run_experiment(corpus, FakeModel(), k=k, seed=3,
                                    describe_fn=describe)
            rows = ref.run_experiment_rows(corpus, FakeModel(), k, 0.9, 3, describe)
            assert scores_csv(report) == ref.scores_csv_rows(rows)
            excluded = [u for u, g in zip(uids, genuine) if g < k]
            assert report.excluded_users == excluded


def _rank_auc(genuine, forgery):
    ranks = rankdata(np.concatenate([genuine, forgery]))
    n_g, n_f = len(genuine), len(forgery)
    return (float(ranks[n_g:].sum()) - n_f * (n_f + 1) / 2.0) / (n_g * n_f)


TIED = st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e300]) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestAucRanks:
    @settings(max_examples=300, deadline=None)
    @given(genuine=st.lists(TIED, min_size=1, max_size=40),
           forgery=st.lists(TIED, min_size=1, max_size=40))
    def test_auc_equals_the_rankdata_statistic(self, genuine, forgery):
        got = auc(ScoreSet(genuine=genuine, forgery=forgery))
        assert got == _rank_auc(np.array(genuine), np.array(forgery))


class TestRocOracle:
    @settings(max_examples=300, deadline=None)
    @given(genuine=st.lists(TIED, min_size=1, max_size=40),
           forgery=st.lists(TIED, min_size=1, max_size=40))
    def test_roc_equals_the_unique_curve(self, genuine, forgery):
        curve = roc(ScoreSet(genuine=genuine, forgery=forgery))
        for got, want in zip((curve.far, curve.frr, curve.thresholds),
                             ref.roc(np.array(genuine), np.array(forgery))):
            assert got.tobytes() == want.tobytes()
