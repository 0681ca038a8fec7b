import io
import tracemalloc

import numpy as np
import pytest

from sigverify import dataset
from sigverify import (GENUINE, SKILLED_FORGERY, ParseError, Trajectory,
                       format_canonical, generate_synthetic_corpus, load_corpus,
                       parse_canonical, parse_svc2004, save_corpus, split_protocol)


def make_traj(n=5, **meta):
    return Trajectory(x=np.arange(n, dtype=float), y=np.arange(n, dtype=float) * 2,
                      t=np.arange(n, dtype=float) * 10,
                      pressure=np.full(n, 0.5), pen_down=np.ones(n, bool), **meta)


class TestTrajectory:
    def test_parallel_arrays_and_samples(self):
        tr = make_traj(3)
        assert len(tr) == 3
        cols = (tr.x, tr.y, tr.t, tr.pressure, tr.pen_down)
        assert [c.dtype for c in cols] == [np.float64] * 4 + [np.bool_]
        assert [c[1] for c in cols] == [1.0, 2.0, 10.0, 0.5, True]

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_traj(1)

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Trajectory([0, 1], [0, 1], [5, 4], [1, 1], [True, True])

    def test_rejects_negative_pressure(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trajectory([0, 1], [0, 1], [0, 1], [1, -0.1], [True, True])

    def test_rejects_non_finite_fields(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory([0, np.inf], [0, 1], [0, 1], [1, 1], [True, True])

    def test_rejects_bad_label_and_empty_user(self):
        with pytest.raises(ValueError, match="label"):
            make_traj(label="traced")
        with pytest.raises(ValueError, match="user_id"):
            make_traj(user_id="")

    def test_rejects_ragged_arrays(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory([0, 1, 2], [0, 1], [0, 1], [1, 1], [True, True])


class TestSvcFormat:
    TEXT = ("3\n"
            "100 200 0 1 900 500 512\n"
            "110 210 10 1 900 500 600\n"
            "120 220 20 0 900 500 0\n")

    def test_parses_count_then_samples(self):
        tr = parse_svc2004(self.TEXT, user_id="u1")
        assert len(tr) == 3
        assert tr.x.tolist() == [100, 110, 120]
        assert tr.pressure.tolist() == [512, 600, 0]
        assert tr.pen_down.tolist() == [True, True, False]

    def test_pen_down_follows_button_state(self):
        tr = parse_svc2004("2\n0 0 0 7 0 0 1\n1 1 1 0 0 0 1\n")
        assert tr.pen_down.tolist() == [True, False]

    def test_reports_line_number_on_bad_field(self):
        bad = "2\n0 0 0 1 0 0 1\n0 zzz 1 1 0 0 1\n"
        with pytest.raises(ParseError, match="3"):
            parse_svc2004(bad)

    def test_rejects_wrong_sample_count(self):
        with pytest.raises(ParseError):
            parse_svc2004("5\n0 0 0 1 0 0 1\n1 1 1 1 0 0 1\n")

    def test_rejects_a_malformed_sample_count(self):
        with pytest.raises(ParseError, match="line 1: malformed sample count 'two'"):
            parse_svc2004("two\n0 0 0 1 0 0 1\n1 1 1 1 0 0 1\n")

    def test_rejects_wrong_field_count(self):
        with pytest.raises(ParseError, match="expected 7 fields"):
            parse_svc2004("2\n0 0 0 1 0 0 1\n0 0 1 1\n")


class TestCanonicalFormat:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            tr = Trajectory(rng.normal(size=n) * 1e3, rng.normal(size=n),
                            np.sort(rng.uniform(0, 1e4, n)),
                            rng.uniform(0, 1, n), rng.integers(0, 2, n) > 0,
                            user_id="rt")
            back = parse_canonical(format_canonical(tr), user_id="rt")
            assert back.equals(tr)

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_canonical("1 2 3 4 1\n")

    def test_rejects_bad_pen_flag(self):
        text = "x y t p d\n0 0 0 1 1\n1 1 1 1 2\n"
        with pytest.raises(ParseError, match="3"):
            parse_canonical(text)


class TestValidateOnce:
    """A parsed file runs the trajectory rules once, in the reader that names the line."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, original = [], dataset._sample_fault

        def counting(*cols):
            calls.append(len(cols[0]))
            return original(*cols)

        monkeypatch.setattr(dataset, "_sample_fault", counting)
        return calls

    def test_each_parse_checks_the_samples_once(self, calls):
        parse_canonical("x y t p d\n0 0 0 1 1\n1 1 1 1 0\n")
        assert calls == [2]
        parse_svc2004(TestSvcFormat.TEXT)
        assert calls == [2, 3]

    def test_a_direct_construction_still_checks(self, calls):
        with pytest.raises(ValueError, match="non-decreasing"):
            Trajectory([0, 1], [0, 1], [5, 4], [1, 1], [True, True])
        assert calls == [2]

    def test_a_sample_fault_precedes_the_declared_count_and_header(self, calls):
        with pytest.raises(ParseError, match="^line 3: timestamps must be non-decreasing$"):
            parse_svc2004("5\n0 0 5 1 0 0 1\n1 1 4 1 0 0 1\n")
        with pytest.raises(ParseError, match="^line 2: pressures must be non-negative$"):
            parse_canonical("x y t p q\n0 0 0 -1 1\n1 1 1 1 0\n")
        assert calls == [2, 2]


class TestInputLimits:
    """Fixed size limits, tested at small values patched in (no large files)."""

    def test_sample_limit(self, monkeypatch):
        monkeypatch.setattr(dataset, "MAX_SAMPLES", 3)
        rows = [f"{i} {i} {i} 1 1\n" for i in range(4)]
        assert len(parse_canonical("x y t p d\n" + "".join(rows[:3]))) == 3
        with pytest.raises(ParseError, match="line 5: more samples than the limit of 3"):
            parse_canonical("x y t p d\n" + "".join(rows))
        svc = "4\n" + "".join(f"{i} {i} {i} 1 0 0 1\n" for i in range(4))
        with pytest.raises(ParseError, match="limit of 3"):
            parse_svc2004(svc)

    def test_file_size_limit_stops_reading_a_stream(self, monkeypatch):
        text = "x y t p d\n0 0 0 1 1\n1 1 1 1 1\n"
        monkeypatch.setattr(dataset, "MAX_FILE_CHARS", len(text))
        assert len(parse_canonical(text)) == 2
        stream = io.StringIO(text + "2 2 2 1 1\n" * 1000)
        with pytest.raises(ParseError, match=f"limit of {len(text)} characters"):
            parse_canonical(stream)
        assert stream.tell() == len(text) + 1

    def test_reading_a_file_sets_aside_no_room_for_the_limit(self, tmp_path, tiny_corpus):
        path = tmp_path / "sig.txt"
        traj = tiny_corpus.all_trajectories()[0]
        path.write_text(format_canonical(traj))
        with path.open() as stream:
            tracemalloc.start()
            try:
                parsed = parse_canonical(stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(parsed.x, traj.x)
        assert peak < 2**20, f"parsing a {path.stat().st_size}-byte file traced {peak} bytes"

    def test_corpus_warning_names_the_file_and_the_limit(self, tmp_path, tiny_corpus,
                                                         monkeypatch):
        save_corpus(tiny_corpus, tmp_path / "c")
        longest = max(len(t) for t in tiny_corpus.all_trajectories())
        monkeypatch.setattr(dataset, "MAX_SAMPLES", longest - 1)
        corpus = load_corpus(tmp_path / "c")
        assert corpus.warnings
        assert all(w.startswith(f"skipped {tmp_path / 'c'}") and
                   f"limit of {longest - 1}" in w for w in corpus.warnings)

    def test_real_inputs_sit_far_below_the_limits(self, tiny_corpus):
        longest = max(len(t) for t in tiny_corpus.all_trajectories())
        assert 100 * longest < dataset.MAX_SAMPLES
        text = max((format_canonical(t) for t in tiny_corpus.all_trajectories()), key=len)
        assert 100 * len(text) < dataset.MAX_FILE_CHARS


class TestCorpusIo:
    def test_save_then_load_round_trips(self, tmp_path, tiny_corpus):
        save_corpus(tiny_corpus, tmp_path / "c")
        back = load_corpus(tmp_path / "c")
        assert back.user_ids() == tiny_corpus.user_ids()
        for uid in back.user_ids():
            a, b = back.users[uid], tiny_corpus.users[uid]
            assert len(a.genuine) == len(b.genuine)
            assert len(a.skilled_forgeries) == len(b.skilled_forgeries)
            for ta, tb in zip(a.genuine, b.genuine):
                assert np.array_equal(ta.x, tb.x) and np.array_equal(ta.t, tb.t)

    def test_bad_file_is_skipped_with_warning(self, tmp_path, tiny_corpus):
        save_corpus(tiny_corpus, tmp_path / "c")
        victim = next((tmp_path / "c").rglob("000.txt"))
        victim.write_text("not a signature\n")
        corpus = load_corpus(tmp_path / "c")
        assert any("skipped" in w for w in corpus.warnings)

    def test_empty_corpus_is_an_error(self, tmp_path):
        (tmp_path / "c" / "userX" / "genuine").mkdir(parents=True)
        with pytest.raises(ValueError, match="no signatures"):
            load_corpus(tmp_path / "c")

    def test_missing_root_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nowhere")

    def test_unknown_layout_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="layout"):
            load_corpus(tmp_path, layout="exotic")

    def test_source_tag_is_the_directory_name_however_the_root_is_spelled(
            self, tmp_path, tiny_corpus, monkeypatch):
        save_corpus(tiny_corpus, tmp_path / "c")
        (tmp_path / "c" / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "c")
        for root in (tmp_path / "c", ".", "sub/..", "../c/"):
            corpus = load_corpus(root)
            assert corpus.source == "c"
            assert {t.source for t in corpus.all_trajectories()} == {"c"}

    def test_sparse_user_is_flagged(self, tmp_path, tiny_corpus):
        # the loader keeps sparse users as they are; the protocol, with its
        # own k, is the one rule that flags them
        save_corpus(tiny_corpus, tmp_path / "c")
        for uid, kept in (("user000", 3), ("user001", 4)):
            for f in sorted((tmp_path / "c" / uid / "genuine").glob("*.txt"))[kept:]:
                f.unlink()
        corpus = load_corpus(tmp_path / "c")
        assert corpus.warnings == []
        assert [len(corpus.users[u].genuine) for u in ("user000", "user001")] == [3, 4]
        for k, excluded in ((3, []), (4, ["user000"]), (5, ["user000", "user001"])):
            assert split_protocol(corpus, k=k)[1] == excluded


class TestSyntheticGenerator:
    def test_same_seed_reproduces_every_sample(self):
        a = generate_synthetic_corpus(seed=9, n_users=2, n_genuine=3, n_forgery=2)
        b = generate_synthetic_corpus(seed=9, n_users=2, n_genuine=3, n_forgery=2)
        for uid in a.user_ids():
            for ta, tb in zip(a.users[uid].genuine, b.users[uid].genuine):
                assert ta.equals(tb)
            for ta, tb in zip(a.users[uid].skilled_forgeries,
                              b.users[uid].skilled_forgeries):
                assert ta.equals(tb)

    def test_different_seeds_differ(self):
        a = generate_synthetic_corpus(seed=9, n_users=1, n_genuine=1, n_forgery=0)
        b = generate_synthetic_corpus(seed=10, n_users=1, n_genuine=1, n_forgery=0)
        ta = a.users["user000"].genuine[0]
        tb = b.users["user000"].genuine[0]
        assert not (len(ta) == len(tb) and np.array_equal(ta.x, tb.x))

    def test_shapes_labels_and_counts(self):
        c = generate_synthetic_corpus(seed=1, n_users=3, n_genuine=4, n_forgery=2)
        assert c.user_ids() == ["user000", "user001", "user002"]
        assert len(c.all_trajectories()) == 3 * (4 + 2)
        for uid in c.user_ids():
            for tr in c.users[uid].genuine:
                assert tr.label == GENUINE and tr.user_id == uid
            for tr in c.users[uid].skilled_forgeries:
                assert tr.label == SKILLED_FORGERY and tr.user_id == uid

    def test_trajectories_are_plausible_pen_data(self):
        c = generate_synthetic_corpus(seed=4, n_users=3, n_genuine=3, n_forgery=1)
        for tr in c.all_trajectories():
            assert 80 <= len(tr) <= 200
            dt = np.diff(tr.t)
            assert np.all(dt >= 4.0 - 1e-9) and np.all(dt <= 12.0 + 1e-9)
            assert tr.pen_down.any() and not tr.pen_down.all()  # mid-air gap
            assert np.all(tr.pressure[~tr.pen_down] == 0.0)

    def test_samples_are_quantized_for_exact_translation(self):
        c = generate_synthetic_corpus(seed=4, n_users=1, n_genuine=2, n_forgery=0)
        for tr in c.all_trajectories():
            for v in (tr.x, tr.y, tr.t, tr.pressure):
                assert np.array_equal(v * 65536.0, np.round(v * 65536.0))

    def test_forgeries_differ_more_than_genuine_repeats(self):
        c = generate_synthetic_corpus(seed=2, n_users=5, n_genuine=4, n_forgery=4)

        def span_stats(trajs):
            return np.array([tr.x.max() - tr.x.min() for tr in trajs])

        worse = 0
        for uid in c.user_ids():
            gen = span_stats(c.users[uid].genuine)
            forg = span_stats(c.users[uid].skilled_forgeries)
            if np.abs(forg - gen.mean()).mean() > np.abs(gen - gen.mean()).mean():
                worse += 1
        assert worse >= 4  # forgery geometry drifts further for nearly all users

    def test_rejects_empty_requests(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(seed=0, n_users=0, n_genuine=1, n_forgery=0)
        with pytest.raises(ValueError):
            generate_synthetic_corpus(seed=0, n_users=1, n_genuine=0, n_forgery=0)
