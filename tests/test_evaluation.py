import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import reference_pipeline as ref
import sigverify
from sigverify import (Corpus, ScoreSet, UserSignatures, auc, eer,
                       generate_synthetic_corpus, roc, run_experiment,
                       split_protocol)
from sigverify.descriptor import Descriptor
from sigverify import evaluation
from sigverify.evaluation import format_report, roc_csv, scores_csv


def oracle_rates(genuine, forgery, tau):
    far = sum(1 for s in forgery if s <= tau) / len(forgery)
    frr = sum(1 for s in genuine if s > tau) / len(genuine)
    return far, frr


def oracle_eer(genuine, forgery):
    """EER by direct counting at every operating point.

    Exact far == frr vertices win (smallest threshold first); otherwise
    the crossing of the piecewise-linear curve is found with np.interp
    on the far - frr difference.
    """
    pooled = sorted(set(genuine) | set(forgery))
    taus = [pooled[0] - 1.0]
    taus += [(a + b) / 2.0 for a, b in zip(pooled, pooled[1:])]
    taus += [pooled[-1] + 1.0]
    points = [oracle_rates(genuine, forgery, t) for t in taus]
    for far, frr in points:
        if far == frr:
            return far
    for (fa, ra), (fb, rb) in zip(points, points[1:]):
        if fa - ra < 0 and fb - rb > 0:
            return float(np.interp(0.0, [fa - ra, fb - rb], [fa, fb]))
    raise AssertionError("no crossing")


def oracle_auc(genuine, forgery):
    wins = 0.0
    for g in genuine:
        for f in forgery:
            if g < f:
                wins += 1.0
            elif g == f:
                wins += 0.5
    return wins / (len(genuine) * len(forgery))


# an integer grid forces ties and exact vertices; the bound keeps midpoints finite
SCORES = st.lists(st.one_of(st.integers(-3, 3).map(float),
                            st.floats(-1e6, 1e6, allow_nan=False)), min_size=1, max_size=12)


def random_score_set(rng):
    n_g = int(rng.integers(1, 13))
    n_f = int(rng.integers(1, 13))
    if rng.integers(2):  # integer grid forces ties and exact vertices
        g = rng.integers(0, 6, n_g).astype(float)
        f = rng.integers(0, 6, n_f).astype(float)
    else:
        g = np.round(rng.normal(2.0, 1.0, n_g), 2)
        f = np.round(rng.normal(3.0, 1.0, n_f), 2)
    return ScoreSet(genuine=g, forgery=f)


class TestScoreSet:
    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError, match="both"):
            ScoreSet(genuine=[], forgery=[1.0])
        with pytest.raises(ValueError, match="both"):
            ScoreSet(genuine=[1.0], forgery=[])

    def test_rejects_non_finite_scores(self):
        # in any position, not only where the input ends
        for bad, side, at in itertools.product([np.nan, np.inf, -np.inf],
                                               ["genuine", "forgery"], range(5)):
            scores = {"genuine": [1.0, 2.0, 3.0, 4.0, 5.0],
                      "forgery": [2.5, 0.5, 9.0, 1.5, 4.0]}
            scores[side][at] = bad
            with pytest.raises(ValueError, match="finite"):
                ScoreSet(**scores)

    @given(g=SCORES, f=SCORES, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_holds_sorted_copies_and_rates_ignore_the_input_order(self, g, f, data):
        g, f = np.array(g), np.array(f)
        held = ScoreSet(g, f)
        for kept, raw in ((held.genuine, g), (held.forgery, f)):
            assert kept.dtype == np.float64 and not np.shares_memory(kept, raw)
            assert kept.tolist() == sorted(raw.tolist())
        shuffled = ScoreSet(data.draw(st.permutations(g)), data.draw(st.permutations(f)))
        ordered = ScoreSet(np.sort(g), np.sort(f))
        a, b = roc(shuffled), roc(ordered)
        for name, expect in zip(("far", "frr", "thresholds"), ref.roc(g, f)):
            assert (getattr(a, name).tobytes() == getattr(b, name).tobytes()
                    == expect.tobytes())
        # Mann-Whitney U of the forgeries over the pair count, average ranks for ties
        u = rankdata(np.concatenate([g, f]))[g.size:].sum() - f.size * (f.size + 1) / 2
        assert auc(shuffled) == auc(ordered) == u / (g.size * f.size)


class TestRoc:
    def test_curve_spans_both_corners_and_is_monotone(self, rng):
        for _ in range(100):
            s = random_score_set(rng)
            curve = roc(s)
            assert curve.far[0] == 0.0 and curve.frr[0] == 1.0
            assert curve.far[-1] == 1.0 and curve.frr[-1] == 0.0
            assert np.all(np.diff(curve.far) >= 0)
            assert np.all(np.diff(curve.frr) <= 0)
            assert np.all(np.diff(curve.thresholds) > 0)

    def test_rates_match_direct_counting(self, rng):
        for _ in range(50):
            s = random_score_set(rng)
            curve = roc(s)
            for far, frr, tau in zip(curve.far, curve.frr, curve.thresholds):
                e_far, e_frr = oracle_rates(s.genuine.tolist(),
                                            s.forgery.tolist(), tau)
                assert far == e_far and frr == e_frr


class TestEer:
    def test_perfect_separation_scores_zero(self):
        s = ScoreSet(genuine=[0.0, 1.0], forgery=[10.0, 11.0])
        assert eer(roc(s)) == 0.0

    def test_total_confusion_scores_one(self):
        s = ScoreSet(genuine=[10.0, 11.0], forgery=[0.0, 1.0])
        assert eer(roc(s)) == 1.0

    def test_identical_singletons_interpolate_to_half(self):
        s = ScoreSet(genuine=[1.0], forgery=[1.0])
        assert eer(roc(s)) == pytest.approx(0.5)

    def test_matches_brute_force_on_random_sets(self, rng):
        for _ in range(500):
            s = random_score_set(rng)
            expect = oracle_eer(s.genuine.tolist(), s.forgery.tolist())
            assert eer(roc(s)) == pytest.approx(expect, abs=1e-12)


class TestAuc:
    def test_perfect_and_inverted_orderings(self):
        assert auc(ScoreSet(genuine=[0.0, 1.0], forgery=[5.0, 6.0])) == 1.0
        assert auc(ScoreSet(genuine=[5.0, 6.0], forgery=[0.0, 1.0])) == 0.0

    def test_all_ties_give_half(self):
        assert auc(ScoreSet(genuine=[2.0, 2.0], forgery=[2.0, 2.0, 2.0])) == 0.5

    def test_matches_pairwise_counting(self, rng):
        for _ in range(500):
            s = random_score_set(rng)
            expect = oracle_auc(s.genuine.tolist(), s.forgery.tolist())
            assert auc(s) == pytest.approx(expect, abs=1e-12)

    def test_importing_the_package_leaves_scipy_stats_unloaded(self):
        # scipy.stats is slow to import, and the rank-statistic auc does without it
        assert leaves_unloaded("import sigverify", "scipy.stats")

    def test_importing_the_package_and_cli_leaves_scipy_interpolate_unloaded(self):
        # the stroke splines are fitted in-house; scipy.interpolate would be
        # most of the import time of every command
        assert leaves_unloaded("import sigverify, sigverify.cli", "scipy.interpolate")

    def test_importing_the_package_and_cli_leaves_scipy_linalg_unloaded(self):
        # the three LAPACK routines are loaded by file (sigverify._lapack):
        # scipy.linalg's package init was half the cold start of a command
        assert leaves_unloaded("import sigverify, sigverify.cli", "scipy.linalg")


def leaves_unloaded(statement: str, module: str) -> bool:
    """Whether ``statement`` runs in a fresh interpreter without loading ``module``."""
    src = str(Path(sigverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys; {statement}; sys.exit({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(seed=61, n_users=4, n_genuine=9,
                                     n_forgery=3)


class TestSplitProtocol:
    def test_train_blocks_partition_the_genuine_set(self, corpus):
        k = 4
        splits, _ = split_protocol(corpus, k=k, seed=3)
        for uid in corpus.user_ids():
            assert len(splits[uid]) == k
            trains = []
            for fold, (train, test) in enumerate(splits[uid]):
                assert train.dtype.kind == test.dtype.kind == "i"
                # 9 genuine, 4 blocks: sizes 3, 2, 2, 2
                assert len(train) == (3 if fold == 0 else 2)
                assert len(train) + len(test) == 9
                assert not set(train) & set(test)
                trains.append(train)
            # every signature trains exactly once, and the test set is the
            # other blocks in block order
            assert sorted(np.concatenate(trains)) == list(range(9))
            for fold, (_, test) in enumerate(splits[uid]):
                others = [t for b, t in enumerate(trains) if b != fold]
                assert np.array_equal(test, np.concatenate(others))

    def test_split_is_deterministic_and_seed_sensitive(self, corpus):
        a, _ = split_protocol(corpus, k=4, seed=5)
        b, _ = split_protocol(corpus, k=4, seed=5)
        c, _ = split_protocol(corpus, k=4, seed=6)
        for uid in corpus.user_ids():
            for (a_train, a_test), (b_train, b_test) in zip(a[uid], b[uid]):
                assert np.array_equal(a_train, b_train)
                assert np.array_equal(a_test, b_test)
        differs = any(not np.array_equal(a[u][1][0], c[u][1][0])
                      for u in corpus.user_ids())
        assert differs

    def test_users_get_independent_shuffles(self, corpus):
        splits, _ = split_protocol(corpus, k=4, seed=0)
        orders = {tuple(folds[0][0]) for folds in splits.values()}
        assert len(orders) > 1

    def test_sparse_users_are_excluded_with_warning(self, corpus, capsys, caplog):
        sparse = corpus.user_ids()[3]
        users = dict(corpus.users)
        users[sparse] = UserSignatures(users[sparse].genuine[:3],
                                       users[sparse].skilled_forgeries)
        thinned = Corpus(users=users, source=corpus.source)
        splits, excluded = split_protocol(thinned, k=4, seed=0)
        assert excluded == [sparse]
        assert sorted(splits) == corpus.user_ids()[:3]
        report = run_experiment(thinned, FakeModel(), k=4, seed=0,
                                describe_fn=stub_describe)
        assert report.warnings == [f"user {sparse} has 3 genuine signatures, "
                                   "fewer than k=4; excluded from the protocol"]
        assert capsys.readouterr() == ("", "") and caplog.records == []

    def test_fold_and_k_validation(self, corpus):
        with pytest.raises(ValueError, match="folds"):
            split_protocol(corpus, k=1)


def stub_describe(traj, model):
    """Deterministic stand-in: a per-user landmark plus label noise."""
    u = int(traj.user_id[-3:])
    base = np.zeros(4)
    base[u % 4] = 10.0
    key = int(traj.x.sum() * 65536) % 997
    noise = np.random.default_rng(key).normal(size=4)
    spread = 0.05 if traj.label == "genuine" else 2.0
    return Descriptor(values=base + spread * noise, user_id=traj.user_id,
                      label=traj.label)


class FakeModel:
    hidden = 4
    train_sources = ()


@pytest.fixture(scope="module")
def report():
    c = generate_synthetic_corpus(seed=63, n_users=4, n_genuine=8, n_forgery=2)
    return run_experiment(c, FakeModel(), k=4, reg=0.9, seed=0,
                          describe_fn=stub_describe)


class TestRunExperiment:
    def test_separable_descriptors_give_near_zero_eer(self, report):
        assert report.mean_eer <= 0.05
        assert report.mean_auc >= 0.95
        assert 0 <= report.pooled_eer <= 1

    def test_score_rows_have_expected_counts(self, report):
        rows = report.score_rows
        for uid, result in report.per_user.items():
            gen = [r for r in rows if r[0] == uid and r[2] == "genuine"]
            skl = [r for r in rows if r[0] == uid and r[2] == "skilled"]
            rnd = [r for r in rows if r[0] == uid and r[2] == "random"]
            assert len(gen) == 4 * 6  # 8 genuine, 2 per train block
            assert len(skl) == 4 * 2
            assert len(rnd) == 4 * 3 * 8
            assert result.n_genuine_test == len(gen)
            assert result.n_forgery_test == len(skl) + len(rnd)

    def test_forgery_rows_are_complete(self, corpus):
        # user 3 has too few genuine signatures for k=4: excluded, but its
        # genuine signatures are still random forgeries for everyone else
        users = dict(corpus.users)
        sparse = corpus.user_ids()[3]
        users[sparse] = UserSignatures(users[sparse].genuine[:3],
                                       users[sparse].skilled_forgeries)
        report = run_experiment(Corpus(users=users, source=corpus.source),
                                FakeModel(), k=4, seed=0, describe_fn=stub_describe)
        assert report.excluded_users == [sparse]
        assert sorted(report.per_user) == corpus.user_ids()[:3]
        for uid in report.per_user:
            others = sum(len(users[o].genuine) for o in users if o != uid)
            assert others == 2 * 9 + 3
            for fold in range(4):
                labels = [r[2] for r in report.score_rows
                          if r[0] == uid and r[1] == fold]
                assert labels == (["genuine"] * (9 - (3 if fold == 0 else 2))
                                  + ["skilled"] * 3 + ["random"] * others)

    def test_pooled_eer_uses_every_score_row(self, report):
        rows = report.score_rows
        pooled = ScoreSet([r[3] for r in rows if r[2] == "genuine"],
                          [r[3] for r in rows if r[2] != "genuine"])
        assert report.pooled_eer == eer(roc(pooled))

    def test_each_user_keeps_the_curve_its_eer_is_read_from(self, report):
        for uid, result in report.per_user.items():
            rows = [r for r in report.score_rows if r[0] == uid]
            curve = roc(ScoreSet([r[3] for r in rows if r[2] == "genuine"],
                                 [r[3] for r in rows if r[2] != "genuine"]))
            for name in ("far", "frr", "thresholds"):
                assert getattr(result.roc, name).tobytes() == getattr(curve, name).tobytes()
            assert eer(result.roc) == result.eer

    def test_each_user_is_shuffled_once_per_run(self, corpus, monkeypatch):
        drawn = []

        def counting_rng(seed, uid):
            drawn.append(uid)
            return user_rng(seed, uid)

        user_rng = evaluation._user_rng
        monkeypatch.setattr(evaluation, "_user_rng", counting_rng)
        run_experiment(corpus, FakeModel(), k=4, seed=0, describe_fn=stub_describe)
        assert drawn == corpus.user_ids()

    def test_the_protocol_is_split_once_through_split_protocol(self, corpus, monkeypatch):
        calls = []

        def counting_split(*args, **kwargs):
            calls.append((args, kwargs))
            return split(*args, **kwargs)

        split = evaluation.split_protocol
        monkeypatch.setattr(evaluation, "split_protocol", counting_split)
        report = run_experiment(corpus, FakeModel(), k=4, seed=2, describe_fn=stub_describe)
        assert len(calls) == 1
        splits, _ = split(corpus, k=4, seed=2)
        for uid, folds in splits.items():
            genuine = [r for r in report.score_rows if r[0] == uid and r[2] == "genuine"]
            assert len(genuine) == sum(len(test) for _, test in folds)

    @pytest.mark.parametrize("n_forgery, curves_per_user", [(3, 3), (0, 2)])
    def test_every_rate_is_read_through_roc_and_auc(self, monkeypatch, n_forgery,
                                                    curves_per_user):
        calls = {"roc": 0, "auc": 0}

        def counting(name):
            real = getattr(evaluation, name)

            def wrapper(scores):
                calls[name] += 1
                return real(scores)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluation, name, counting(name))
        corpus = generate_synthetic_corpus(seed=61, n_users=4, n_genuine=9,
                                           n_forgery=n_forgery)
        report = run_experiment(corpus, FakeModel(), k=4, seed=0, describe_fn=stub_describe)
        users = len(report.per_user)
        assert users == 4
        # per user: the pooled curve, each forgery subset that has scores, one auc;
        # then one curve of every score for the pooled-threshold eer
        assert calls == {"roc": curves_per_user * users + 1, "auc": users}

    def test_every_block_is_scored_through_score(self, corpus, monkeypatch):
        calls = []

        def recording_score(model, rows):
            calls.append((model.user_id, rows))
            return real(model, rows)

        real = evaluation.score
        monkeypatch.setattr(evaluation, "score", recording_score)
        run_experiment(corpus, FakeModel(), k=4, seed=0, describe_fn=stub_describe)
        splits, _ = evaluation.split_protocol(corpus, k=4, seed=0)
        # one call per (user, fold), each on the user's one block: their genuine
        # rows, their skilled forgeries, then every other user's genuine rows
        assert [uid for uid, _ in calls] == [uid for uid in sorted(splits) for _ in range(4)]
        n_genuine = sum(len(u.genuine) for u in corpus.users.values())
        for uid in splits:
            block, *rest = [rows for u, rows in calls if u == uid]
            assert all(rows is block for rows in rest)
            user = corpus.users[uid]
            assert block.shape == (n_genuine + len(user.skilled_forgeries), 4)
            genuine = np.array([stub_describe(t, None).values for t in user.genuine])
            assert block[:len(genuine)].tobytes() == genuine.tobytes()

    def test_subset_rates_are_populated(self, report):
        for result in report.per_user.values():
            assert np.isfinite(result.eer_skilled)
            assert np.isfinite(result.eer_random)
        assert np.isfinite(report.mean_eer_skilled)
        assert np.isfinite(report.mean_eer_random)

    def test_report_is_reproducible(self, report):
        corpus = generate_synthetic_corpus(seed=63, n_users=4, n_genuine=8,
                                           n_forgery=2)
        again = run_experiment(corpus, FakeModel(), k=4, reg=0.9, seed=0,
                               describe_fn=stub_describe)
        assert again.score_rows == report.score_rows
        assert format_report(again) == format_report(report)

    def test_no_skilled_forgeries_still_reports(self):
        corpus = generate_synthetic_corpus(seed=64, n_users=3, n_genuine=6,
                                           n_forgery=0)
        report = run_experiment(corpus, FakeModel(), k=4, seed=0,
                                describe_fn=stub_describe)
        assert np.isnan(report.mean_eer_skilled)
        assert np.isfinite(report.mean_eer_random)

    def test_all_users_sparse_raises(self):
        corpus = generate_synthetic_corpus(seed=65, n_users=2, n_genuine=3,
                                           n_forgery=1)
        with pytest.raises(ValueError, match="no user") as info:
            run_experiment(corpus, FakeModel(), k=4, seed=0,
                           describe_fn=stub_describe)
        # the conditions that explain the failure travel with it
        for uid in corpus.user_ids():
            assert (f"user {uid} has 3 genuine signatures, fewer than k=4; "
                    "excluded from the protocol") in str(info.value)

    @pytest.mark.parametrize("k, kept, warned", [(3, 3, False), (5, 4, True)])
    def test_the_exclusion_rule_uses_the_real_k(self, corpus, k, kept, warned):
        sparse = corpus.user_ids()[0]
        users = dict(corpus.users)
        users[sparse] = UserSignatures(users[sparse].genuine[:kept],
                                       users[sparse].skilled_forgeries)
        report = run_experiment(Corpus(users=users, source=corpus.source),
                                FakeModel(), k=k, seed=0, describe_fn=stub_describe)
        message = (f"user {sparse} has {kept} genuine signatures, fewer than k={k}; "
                   "excluded from the protocol")
        assert report.warnings == ([message] if warned else [])
        assert (sparse in report.per_user) is not warned

    def test_shared_source_is_reported_not_printed(self, corpus, capsys, caplog):
        class OverlappingModel(FakeModel):
            train_sources = ("other", corpus.source)

        report = run_experiment(corpus, OverlappingModel(), k=4, seed=0,
                                describe_fn=stub_describe)
        assert report.warnings == [f"evaluation corpus shares source tags "
                                   f"['{corpus.source}'] with the descriptor training set"]
        assert capsys.readouterr() == ("", "") and caplog.records == []

    def test_a_user_without_forgeries_is_warned_after_the_exclusions(self, corpus):
        # one user without genuine signatures (excluded), one without forgeries
        sole, empty = corpus.user_ids()[:2]
        users = {sole: UserSignatures(corpus.users[sole].genuine, []),
                 empty: UserSignatures([], corpus.users[empty].skilled_forgeries)}
        with pytest.raises(ValueError) as info:
            run_experiment(Corpus(users=users, source=corpus.source), FakeModel(),
                           k=4, seed=0, describe_fn=stub_describe)
        assert str(info.value) == "; ".join([
            "no user produced a reportable score set",
            f"user {empty} has 0 genuine signatures, fewer than k=4; "
            "excluded from the protocol",
            f"user {sole} has no reportable score set; skipped"])

    def test_single_user_corpus_raises(self):
        corpus = generate_synthetic_corpus(seed=66, n_users=1, n_genuine=8,
                                           n_forgery=0)
        with pytest.raises(ValueError, match="no user"):
            run_experiment(corpus, FakeModel(), k=4, seed=0,
                           describe_fn=stub_describe)


class TestRenderings:
    def test_report_text_lists_every_user(self, tiny_corpus):
        report = run_experiment(tiny_corpus, FakeModel(), k=4, seed=0,
                                describe_fn=stub_describe)
        text = format_report(report)
        for uid in report.per_user:
            assert uid in text
        assert "mean eer" in text

    def test_scores_csv_round_trips(self, tiny_corpus):
        report = run_experiment(tiny_corpus, FakeModel(), k=4, seed=0,
                                describe_fn=stub_describe)
        lines = scores_csv(report).strip().splitlines()
        assert lines[0] == "user_id,fold,label,score"
        assert len(lines) == len(report.score_rows) + 1
        for line, row in zip(lines[1:], report.score_rows):
            uid, fold, label, s = line.split(",")
            assert (uid, int(fold), label, float(s)) == row

    def test_roc_csv_round_trips(self, rng):
        s = random_score_set(rng)
        curve = roc(s)
        lines = roc_csv(curve).strip().splitlines()
        assert lines[0] == "far,frr,threshold"
        vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(vals[:, 0], curve.far)
        assert np.array_equal(vals[:, 1], curve.frr)
        assert np.array_equal(vals[:, 2], curve.thresholds)
