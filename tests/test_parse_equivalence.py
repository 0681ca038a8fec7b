"""One table reader parses both signature formats exactly as the old parsers did.

``reference_pipeline`` keeps the two per-line parsers that the reader
replaced.  Every valid file must parse to an equal trajectory, and every
file with a single fault and no blank lines must raise ParseError naming
the same line.  The old parsers counted only non-blank lines and let
non-finite fields through to ``Trajectory``; the explicit tests at the end
pin the new behaviour there.  Both apply the sample limits (``|x|`` and
``|y|`` at most ``MAX_COORDINATE``, ``|t|`` at most ``MAX_TIMESTAMP``) before
the pressure rule.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference_pipeline as ref
from sigverify import (ParseError, Trajectory, format_canonical, parse_canonical,
                       parse_svc2004)
from sigverify import dataset
from sigverify.dataset import MAX_COORDINATE, MAX_TIMESTAMP, OUT_OF_BOUNDS

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

FINITE = st.floats(allow_nan=False, allow_infinity=False)
COORDINATE = st.floats(-MAX_COORDINATE, MAX_COORDINATE)
TIMESTAMP = st.floats(-MAX_TIMESTAMP, MAX_TIMESTAMP)
PRESSURE = st.sampled_from([0.0, -0.0, 0.5]) | st.floats(0.0, allow_infinity=False)
ANY_FLOAT = FINITE | st.sampled_from([float("nan"), float("inf"), float("-inf")])
PARSERS = {"canonical": (parse_canonical, ref.parse_canonical),
           "svc2004": (parse_svc2004, ref.parse_svc2004)}


def token(value, style):
    """Text form number ``style`` (any int) of ``value``; ``float()`` reads it back."""
    forms = [repr(value), f"{value:.17e}", f"{value:.17g}".upper()]
    if np.isfinite(value) and value == int(value) and abs(value) < 2**53:
        forms.append(str(int(value)))
    if not forms[0].startswith("-"):
        forms.append("+" + forms[0])
    return forms[style % len(forms)]


def floats(n, elements=FINITE):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def table(draw, layout, min_n=2, wide=False):
    """(header tokens, data token rows) of a valid file.

    Fields are finite, ``t`` is non-decreasing and pressure non-negative;
    SVC2004 buttons are any finite value and its unused angles any float.
    ``x``, ``y`` and ``t`` lie within the sample limits, or with ``wide``
    half the time anywhere in the finite range, where most files break them.
    """
    n = draw(st.integers(min_n, 16))
    width = 5 if layout == "canonical" else 7
    styles = iter(draw(st.lists(st.integers(0, 4), min_size=n * width, max_size=n * width)))
    beyond = wide and draw(st.booleans())
    coordinate, timestamp = (FINITE, FINITE) if beyond else (COORDINATE, TIMESTAMP)
    x, y = draw(floats(n, coordinate)), draw(floats(n, coordinate))
    t = sorted(draw(floats(n, st.sampled_from([0.0, 1.0, 2.5]) | timestamp)))
    p = draw(floats(n, PRESSURE))
    if layout == "canonical":
        d = draw(floats(n, st.sampled_from([0.0, 1.0])))
        cols = [x, y, t, p]
    else:
        cols = [x, y, t, draw(floats(n, st.sampled_from([0.0, 1.0, -0.0, 7.0]) | FINITE)),
                draw(floats(n, ANY_FLOAT)), draw(floats(n, ANY_FLOAT)), p]
    rows = [[token(col[i], next(styles)) for col in cols] for i in range(n)]
    if layout == "canonical":
        return ["x", "y", "t", "p", "d"], [r + ["1" if d[i] else "0"] for i, r in enumerate(rows)]
    count = draw(st.sampled_from([str(n), f"+{n}", f"0{n}"]))
    return [count] + draw(st.lists(st.sampled_from(["extra", "7", "#"]), max_size=2)), rows


@st.composite
def valid_file(draw, layout):
    """A file with varied separators, line endings and blank lines, valid
    but for values beyond the sample limits."""
    header, rows = draw(table(layout, wide=True))
    seps = iter(draw(st.lists(st.sampled_from([" ", "  ", "\t", " \t "]),
                              min_size=8 * (len(rows) + 1), max_size=8 * (len(rows) + 1))))
    blanks = draw(st.lists(st.sampled_from([None, None, None, "", " ", "\t  "]),
                           min_size=len(rows) + 2, max_size=len(rows) + 2))
    lines = [] if blanks[-1] is None else [blanks[-1]]  # a blank line before the header
    for fields, blank in zip([header] + rows, blanks):
        indent = next(seps)[1:]  # often empty
        lines.append(indent + "".join(tok + next(seps) for tok in fields))
        if blank is not None:
            lines.append(blank)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


FAULTS_BOTH = ["fields", "token", "header", "negative_pressure", "swap", "one_sample",
               "empty", "beyond"]


@st.composite
def single_fault_file(draw, layout):
    """A file without blank lines that breaks exactly one rule."""
    kind = draw(st.sampled_from(FAULTS_BOTH + (["flag"] if layout == "canonical" else [])))
    if kind == "empty":
        return kind, draw(st.sampled_from(["", "\n", "  \n\t\n"]))
    header, rows = draw(table(layout, min_n=3))
    rows = [list(r) for r in rows]
    p_col = 3 if layout == "canonical" else 6
    r = draw(st.integers(0, len(rows) - 1))
    if kind == "fields":
        if draw(st.booleans()):
            del rows[r][draw(st.integers(0, len(rows[r]) - 1))]
        else:
            rows[r].insert(draw(st.integers(0, len(rows[r]))), "0")
    elif kind == "token":
        c = draw(st.integers(0, 3 if layout == "canonical" else 6))
        rows[r][c] = draw(st.sampled_from(["abc", "1.2.3", "--1", "0x10", "1e", "1,5",
                                           "one", "n/a"]))
    elif kind == "flag":
        rows[r][4] = draw(st.sampled_from(["2", "1.0", "true", "01", "-0", "+1", "z",
                                           "0.0", "-1"]))
    elif kind == "header":
        if layout == "canonical":
            header = draw(st.sampled_from([["x", "y", "t", "p"], ["x", "y", "t", "p", "d", "e"],
                                           ["X", "Y", "T", "P", "D"], ["x,y,t,p,d"],
                                           ["y", "x", "t", "p", "d"]]))
        else:
            n = len(rows)
            header = [draw(st.sampled_from([str(n - 1), str(n + 1), str(n + 5), "abc", "1.5",
                                            "0", "-3", "1", f"{n}.0"]))]
    elif kind == "beyond":
        c = draw(st.integers(0, 2))
        limit = MAX_TIMESTAMP if c == 2 else MAX_COORDINATE
        rows[r][c] = repr(draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.floats(limit, allow_infinity=False, exclude_min=True)))
    elif kind == "negative_pressure":
        rows[r][p_col] = repr(draw(st.sampled_from([-1.0, -1e-300, -5e-324, -1e300])))
    elif kind == "swap":
        t = [float(row[2]) for row in rows]
        rises = [i for i in range(len(t) - 1) if t[i] < t[i + 1]]
        assume(rises)
        i = draw(st.sampled_from(rises))
        rows[i][2], rows[i + 1][2] = rows[i + 1][2], rows[i][2]
    elif kind == "one_sample":
        rows = rows[:draw(st.integers(0 if layout == "canonical" else 1, 1))]
        if layout == "svc2004":
            header = ["1"]
    return kind, "\n".join(" ".join(f) for f in [header] + rows) + "\n"


def line_of(parse, text):
    with pytest.raises(ParseError) as info:
        parse(text)
    found = re.match(r"line (\d+): ", str(info.value))
    assert found, str(info.value)
    return int(found.group(1))


@pytest.mark.parametrize("layout", sorted(PARSERS))
class TestAgainstTheOldParsers:
    @SETTINGS
    @given(data=st.data())
    def test_valid_files_parse_to_equal_trajectories(self, layout, data):
        text = data.draw(valid_file(layout))
        new, old = PARSERS[layout]
        meta = {"user_id": "u7", "label": "skilled_forgery", "source": "src"}
        try:
            expect = old(text, **meta)
        except ParseError:  # a value beyond the limits: the same data line is named
            data_lines = [n for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
            assert data_lines.index(line_of(new, text)) + 1 == line_of(old, text)
            return
        got = new(text, **meta)
        assert got.equals(expect)
        assert all(v.flags.c_contiguous for v in (got.x, got.y, got.t, got.pressure))

    @SETTINGS
    @given(data=st.data())
    def test_single_fault_files_name_the_same_line(self, layout, data):
        kind, text = data.draw(single_fault_file(layout))
        new, old = PARSERS[layout]
        assert line_of(new, text) == line_of(old, text), kind


# the sample rules: the reader reports what Trajectory reports, at the sample's line
SAMPLE_VALUE = st.sampled_from([0.0, 1.0, -1.0, float("nan"), float("inf"), float("-inf"),
                                1e300, -1e300, 1e10, 1e19])


@SETTINGS
@given(x=st.lists(SAMPLE_VALUE, min_size=2, max_size=6), data=st.data())
def test_reader_and_trajectory_apply_the_same_sample_rules(x, data):
    n = len(x)
    y, t, p = (data.draw(st.lists(SAMPLE_VALUE, min_size=n, max_size=n)) for _ in range(3))
    text = "x y t p d\n" + "".join(f"{a!r} {b!r} {c!r} {d!r} 1\n"
                                   for a, b, c, d in zip(x, y, t, p))
    try:
        Trajectory(x, y, t, p, [True] * n)
    except ValueError as exc:
        with pytest.raises(ParseError) as info:
            parse_canonical(text)
        line, reason = str(info.value).split(": ", 1)
        assert reason == str(exc)
        i = int(line.split()[1]) - 2
        assert reason != "sample fields must be finite" or not np.isfinite(
            [x[i], y[i], t[i], p[i]]).all()
        assert reason != OUT_OF_BOUNDS or max(abs(x[i]), abs(y[i])) > MAX_COORDINATE or abs(
            t[i]) > MAX_TIMESTAMP
        assert reason != "pressures must be non-negative" or p[i] < 0
        assert reason != "timestamps must be non-decreasing" or t[i] < t[i - 1]
    else:
        assert parse_canonical(text).equals(Trajectory(x, y, t, p, [True] * n))


class TestFileLines:
    @pytest.mark.parametrize("text, line", [
        ("x y t p d\n\n0 0 0 1 1\n1 1 1 1 2\n", 4),          # bad flag
        ("\n\nx y t p d\n0 0 0 1 1\n\n1 1 1 -1 1\n", 6),     # negative pressure
        ("x y t p d\n\n0 0 5 1 1\n\n\n1 1 4 1 1\n", 6),      # decreasing timestamp
        ("x y t p d\n  \n0 0 0 1 1\n\t\n1 zzz 1 1 1\n", 5),  # non-numeric field
        ("x y t p d\n\n\n0 0 0 1\n", 4),                     # field count
        ("\n\nx y t\n0 0 0 1 1\n0 0 1 1 1\n", 3),            # header
        ("x y t p d\n\n0 0 0 1 1\n\n\n", 3),                 # one sample
    ])
    def test_canonical_errors_name_the_file_line(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: "):
            parse_canonical(text)

    @pytest.mark.parametrize("text, line", [
        ("\n\n2\n0 0 0 1 0 0 1\n\n0 zzz 1 1 0 0 1\n", 6),   # non-numeric field
        ("2\n\n0 0 0 1 0 0 1\n\n0 0 1 1 0\n", 5),           # field count
        ("\n3\n0 0 0 1 0 0 1\n0 0 1 1 0 0 1\n", 2),         # sample count
        ("2\n\n0 0 9 1 0 0 1\n\n\n0 0 1 1 0 0 1\n", 6),     # decreasing timestamp
        ("2\n0 0 0 1 0 0 1\n\n0 0 1 1 0 0 -2\n", 4),        # negative pressure
    ])
    def test_svc_errors_name_the_file_line(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: "):
            parse_svc2004(text)


class TestNonFiniteFields:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "-1e999", "NaN"])
    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    def test_canonical(self, bad, column):
        fields = ["0", "0", "1", "1", "1"]
        fields[column] = bad
        text = "x y t p d\n0 0 0 1 1\n" + " ".join(fields) + "\n2 2 2 1 1\n"
        with pytest.raises(ParseError, match=r"^line 3: sample fields must be finite$"):
            parse_canonical(text)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "-1e999", "NaN"])
    @pytest.mark.parametrize("column", [0, 1, 2, 6])
    def test_svc(self, bad, column):
        fields = ["0", "0", "1", "1", "0", "0", "1"]
        fields[column] = bad
        text = "3\n" + " ".join(fields) + "\n1 1 2 1 0 0 1\n2 2 3 1 0 0 1\n"
        with pytest.raises(ParseError, match=r"^line 2: sample fields must be finite$"):
            parse_svc2004(text)

    def test_non_finite_azimuth_and_altitude_are_still_ignored(self):
        text = "2\n0 0 0 1 nan inf 1\n1 1 1 1 1e999 -inf 1\n"
        assert parse_svc2004(text).equals(ref.parse_svc2004(text))


class TestSampleLimits:
    MESSAGE = r"\|x\| and \|y\| must not exceed 1e\+09, nor \|t\| 1e\+18$"

    @pytest.mark.parametrize("bad", ["1e300", "-1e300"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_canonical(self, bad, column):
        fields = ["0", "0", "1", "1", "1"]
        fields[column] = bad
        text = "x y t p d\n0 0 0 1 1\n" + " ".join(fields) + "\n2 2 2 1 1\n"
        with pytest.raises(ParseError, match="^line 3: " + self.MESSAGE):
            parse_canonical(text)

    @pytest.mark.parametrize("bad", ["1e300", "-1e300"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_svc(self, bad, column):
        fields = ["0", "0", "1", "1", "0", "0", "1"]
        fields[column] = bad
        text = "3\n" + " ".join(fields) + "\n1 1 2 1 0 0 1\n2 2 3 1 0 0 1\n"
        with pytest.raises(ParseError, match="^line 2: " + self.MESSAGE):
            parse_svc2004(text)

    def test_values_at_the_limits_are_accepted_and_just_beyond_refused(self):
        at = [-MAX_COORDINATE, MAX_COORDINATE]
        traj = Trajectory(at, at[::-1], [-MAX_TIMESTAMP, MAX_TIMESTAMP], [1, 1], [1, 1])
        assert parse_canonical(format_canonical(traj)).equals(traj)
        for column in range(3):
            cols = [at, at, [-MAX_TIMESTAMP, MAX_TIMESTAMP]]
            cols[column] = [cols[column][0], np.nextafter(cols[column][1], np.inf)]
            with pytest.raises(ValueError, match="^" + self.MESSAGE):
                Trajectory(*cols, [1, 1], [1, 1])


def canonical(*rows, end="\n"):
    return end.join(["x y t p d", *rows]) + end


def svc(*rows, end="\n"):
    return end.join([str(len(rows)), *rows]) + end


# (layout, text, whether the single conversion reads every data row) for the
# places where str.splitlines, str.split and numpy's field conversion could
# part ways; str.splitlines also breaks lines at \x0b, \x0c, \x1c, \x85 and \u2028
BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
EDGE_FILES = {
    "canonical CRLF": ("canonical", canonical("0 0 0 1 1", "1 1 1 1 1", end="\r\n"), True),
    "svc CRLF": ("svc2004", svc("0 0 0 1 0 0 1", "1 1 1 1 0 0 1", end="\r\n"), True),
    "canonical blank lines": (
        "canonical", "\n \nx y t p d\n\t\n0 0 0 1 1\n\n  \n1 1 1 1 1\n \n", True),
    "svc blank lines": ("svc2004", "\n2\n \n0 0 0 1 0 0 1\n\t \n\n1 1 1 1 0 0 1\n", True),
    "blank lines before a bad field": (
        "canonical", "x y t p d\n\n \t\n0 0 0 1 1\n\n1 zz 1 1 1\n", False),
    **{f"canonical {b!r} in a data line": (
        "canonical", canonical("0 0 0 1 1", f"1 1{b}1 1 1", "2 2 2 1 1"), False) for b in BREAKS},
    **{f"svc {b!r} in a data line": (
        "svc2004", svc("0 0 0 1 0 0 1", f"1 1 1 1{b}0 0 1"), False) for b in BREAKS},
    **{f"{b!r} ending a data line": (
        "canonical", canonical(f"0 0 0 1 1{b}", "1 1 1 1 1"), True) for b in BREAKS},
    "canonical no-break space": ("canonical", canonical("0\xa00 0 1 1", "1 1 1\xa01 1"), True),
    "svc no-break space": ("svc2004", svc("0 0 0\xa01 0 0 1", "1 1 1 1 0 0\xa01"), True),
    "canonical 1_0 and non-ASCII digits": (
        "canonical", canonical("1_0 \u0661\u0662 0 1 1", "\uff11 \u0e51_0 1 1_0 1"), True),
    "svc 1_0 and non-ASCII digits": (
        "svc2004", svc("1_0 \u0661\u0662 0 1_0 0 0 1", "1 1 1 \u0661 0 0 1"), True),
    "a bad underscore": ("canonical", canonical("0 0 0 1 1", "1__0 1 1 1 1"), False),
    **{f"canonical pen flag {f}": ("canonical", canonical("0 0 0 1 1", f"1 1 1 1 {f}"), False)
       for f in ("1.0", "+1", "01")},
    **{f"svc button {f}": ("svc2004", svc("0 0 0 1 0 0 1", f"1 1 1 {f} 0 0 1"), True)
       for f in ("1.0", "+1", "01")},
    "canonical ragged row": ("canonical", canonical("0 0 0 1 1", "1 1 1 1", "2 2 2 1 1 1"), False),
    "svc ragged row": ("svc2004", svc("0 0 0 1 0 0 1", "1 1 1 1 0 0 1 1"), False),
    "a short row in every line": ("canonical", canonical("0 0 0 1", "1 1 1 1"), False),
    **{f"canonical {v} field": ("canonical", canonical("0 0 0 1 1", f"1 {v} 1 1 1"), True)
       for v in ("nan", "-inf", "Infinity")},
    **{f"svc {v} field": ("svc2004", svc("0 0 0 1 0 0 1", f"1 1 1 1 0 {v} 1"), True)
       for v in ("nan", "inf")},
    "svc nan pressure": ("svc2004", svc("0 0 0 1 0 0 1", "1 1 1 1 0 0 nan"), True),
    "header only": ("canonical", canonical(), False),
}


def outcome(parse, text):
    """The trajectory a parse gives, or its ParseError text."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_the_single_conversion_parses_as_the_per_line_loop(name, monkeypatch):
    layout, text, converted = EDGE_FILES[name]
    parse = PARSERS[layout][0]
    tables, convert = [], dataset._table

    def spy(*args):
        tables.append(convert(*args))
        return tables[-1]

    monkeypatch.setattr(dataset, "_table", spy)
    fast = outcome(parse, text)
    assert [t is not None for t in tables] == [converted]
    monkeypatch.setattr(dataset, "_table", lambda *args: None)
    by_line = outcome(parse, text)
    if isinstance(by_line, str):
        assert fast == by_line
    else:
        assert isinstance(fast, Trajectory) and fast.equals(by_line)
