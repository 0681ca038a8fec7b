"""Signature corpora: file formats, directory layout, synthetic generation.

Two on-disk trajectory formats are supported.

SVC2004 format
    First line: sample count N. Then exactly N lines of 7 whitespace
    separated numeric fields::

        X Y timestamp button azimuth altitude pressure

    Azimuth and altitude are parsed and discarded.  A sample is pen-down
    when its button status is nonzero.

Canonical format
    Header line ``x y t p d`` followed by one sample per line with those
    five columns; ``d`` is the pen-down flag and must be exactly 0 or 1.
    Floats are written with shortest round-trip precision so that a
    write/read cycle reproduces every field exactly.

A corpus on disk is laid out as ``<root>/<user>/{genuine,forgery}/*.txt``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GENUINE = "genuine"
SKILLED_FORGERY = "skilled_forgery"
LABELS = (GENUINE, SKILLED_FORGERY)

# Coordinates, timestamps and pressures emitted by the synthetic generator
# are quantized to this grid so that adding a modest integer offset is exact
# in double precision (translation invariance then holds bit-for-bit).
_SYNTH_QUANTUM = 1.0 / 65536.0
GENUINE_JITTER = 0.008
FORGERY_PERTURBATION = 0.08


# Fixed input limits, far above any real signature (a 200 Hz tablet writes
# 100,000 samples in over 8 minutes): a larger file fails before the
# per-sample work and before more than the limit is read from a stream.
MAX_FILE_CHARS = 16 * 2**20
MAX_SAMPLES = 100_000
# Sample limits, far beyond any tablet (coordinates below 1e5) and with room
# for absolute clocks in ms or us: preprocessing's squares stay finite.
MAX_COORDINATE = 1e9
MAX_TIMESTAMP = 1e18
OUT_OF_BOUNDS = f"|x| and |y| must not exceed {MAX_COORDINATE:g}, nor |t| {MAX_TIMESTAMP:g}"
# characters asked of a stream per read call
READ_CHUNK = 1 << 16


class ParseError(ValueError):
    """A signature file does not match its declared format."""


class Trajectory:
    """Time-ordered pen samples of one signature.

    Samples are stored as parallel arrays: float64 ``x``, ``y``, ``t``,
    ``pressure`` and boolean ``pen_down``.  At least two samples are
    required, all fields finite, ``|x|`` and ``|y|`` at most ``MAX_COORDINATE``,
    ``|t|`` at most ``MAX_TIMESTAMP``, ``t`` non-decreasing and pressures non-negative.
    """

    __slots__ = ("x", "y", "t", "pressure", "pen_down", "user_id", "label", "source")

    def __init__(self, x, y, t, pressure, pen_down,
                 user_id="anonymous", label=GENUINE, source="", *, _checked=False):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.t = np.asarray(t, dtype=np.float64)
        self.pressure = np.asarray(pressure, dtype=np.float64)
        self.pen_down = np.asarray(pen_down, dtype=bool)
        self.user_id = user_id
        self.label = label
        self.source = source
        n = len(self.x)
        for name in ("y", "t", "pressure", "pen_down"):
            if len(getattr(self, name)) != n:
                raise ValueError("sample arrays must have equal length")
        if n < 2:
            raise ValueError(f"a trajectory needs at least 2 samples, got {n}")
        # the parsers pass _checked: _read_table has run the rules and named the line
        if not _checked and (fault := _sample_fault(self.x, self.y, self.t, self.pressure)):
            raise ValueError(fault[1])
        if not user_id:
            raise ValueError("user_id must be non-empty")
        if label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {label!r}")

    def __len__(self):
        return len(self.x)

    def equals(self, other) -> bool:
        """Exact field-for-field equality, metadata included."""
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.pressure, other.pressure)
            and np.array_equal(self.pen_down, other.pen_down)
            and (self.user_id, self.label, self.source)
            == (other.user_id, other.label, other.source)
        )

    def __repr__(self):
        return (f"Trajectory(n={len(self)}, user_id={self.user_id!r}, "
                f"label={self.label!r}, source={self.source!r})")


def _sample_fault(x, y, t, pressure):
    """``(index, reason)`` of the first sample that breaks a trajectory rule, or None.

    A decrease of ``t`` is charged to the later sample.  A sample that
    breaks several rules reports the first of them in the order below.
    """
    # the bound tests are false for NaN and +-inf too, so one mask serves the
    # first two rules; a sample it flags with a non-finite field breaks the first
    outside = ~((np.abs(x) <= MAX_COORDINATE) & (np.abs(y) <= MAX_COORDINATE)
                & (np.abs(t) <= MAX_TIMESTAMP) & np.isfinite(pressure))
    rules = {OUT_OF_BOUNDS: outside,
             "pressures must be non-negative": pressure < 0,
             "timestamps must be non-decreasing": np.concatenate(([False], t[1:] < t[:-1]))}
    faults = [(int(bad.argmax()), reason) for reason, bad in rules.items() if bad.any()]
    fault = min(faults, key=lambda fault: fault[0], default=None)
    if fault and fault[1] == OUT_OF_BOUNDS and not np.isfinite(
            [col[fault[0]] for col in (x, y, t, pressure)]).all():
        return fault[0], "sample fields must be finite"
    return fault


def _read_bounded(stream) -> str:
    """At most ``MAX_FILE_CHARS + 1`` characters of a stream, read
    ``READ_CHUNK`` at a time: ``read(n)`` sets aside room for n characters
    before it reads, 16 MiB for ``n = MAX_FILE_CHARS + 1``."""
    parts, left = [], MAX_FILE_CHARS + 1
    while left and (part := stream.read(min(left, READ_CHUNK))):
        parts.append(part)
        left -= len(part)
    return "".join(parts)


def _read_table(stream, width: int, columns: tuple, pen: int | None = None):
    """Header tokens, file lines and sample columns of a signature file.

    Returns the tokens of the first non-blank line, the 1-based file line
    of it and of each data line (blank lines count), and the fields at
    ``columns`` (x, y, t, pressure, pen) as a ``(5, samples)`` float array.
    ParseError names the line of an empty file, a wrong field count, a pen
    field (at index ``pen``) not exactly 0 or 1, a non-numeric field or a
    sample that breaks a trajectory rule; it names the limit a file of
    more than ``MAX_FILE_CHARS`` characters or ``MAX_SAMPLES`` samples
    exceeds.  At most ``MAX_FILE_CHARS + 1`` characters are read from a stream.
    """
    text = _read_bounded(stream) if hasattr(stream, "read") else stream
    if len(text) > MAX_FILE_CHARS:
        raise ParseError(f"file is longer than the limit of {MAX_FILE_CHARS} characters")
    lines, rows = [], []
    for n, ln in enumerate(text.splitlines(), start=1):
        if fields := ln.split():
            lines.append(n)
            rows.append(fields)
    if not rows:
        raise ParseError("line 1: empty file")
    if len(rows) > MAX_SAMPLES + 1:
        raise ParseError(f"line {lines[MAX_SAMPLES + 1]}: more samples than "
                         f"the limit of {MAX_SAMPLES}")
    if (table := _table(rows[1:], width, pen)) is None:
        table = _line_table(lines, rows, width, pen)
    cols = table.T[list(columns)]
    fault = _sample_fault(*cols[:4])
    if fault is not None:
        raise ParseError(f"line {lines[fault[0] + 1]}: {fault[1]}")
    return rows[0], lines, cols


def _table(rows, width: int, pen):
    """The data rows as one float array, every field converted at once (numpy
    reads a str with ``float()``), or None if the per-line loop must name a line."""
    try:
        table = np.array(rows, dtype=np.float64)
    except ValueError:  # a ragged row or a non-numeric field
        return None
    fits = table.shape[1:] == (width,) and (pen is None or {r[pen] for r in rows} <= {"0", "1"})
    return table if fits else None


def _line_table(lines, rows, width: int, pen):
    """``_table`` line by line: ParseError names the first line with a wrong
    field count, a pen field not exactly 0 or 1, or a non-numeric field."""
    values = []
    for n, fields in zip(lines[1:], rows[1:]):
        if len(fields) != width:
            raise ParseError(f"line {n}: expected {width} fields, got {len(fields)}")
        if pen is not None and fields[pen] not in ("0", "1"):
            raise ParseError(f"line {n}: pen-down flag must be 0 or 1, got {fields[pen]!r}")
        for tok in fields:
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"line {n}: non-numeric field {tok!r}") from None
    return np.array(values).reshape(-1, width)


def parse_svc2004(stream, user_id="anonymous", label=GENUINE, source="") -> Trajectory:
    """Parse one SVC2004 signature file (a string or a file-like object)."""
    header, lines, (x, y, t, pressure, button) = _read_table(stream, 7, (0, 1, 2, 6, 3))
    try:
        declared = int(header[0])
    except ValueError:
        raise ParseError(
            f"line {lines[0]}: malformed sample count {' '.join(header)!r}") from None
    if declared < 2:
        raise ParseError(f"line {lines[0]}: sample count must be at least 2, got {declared}")
    if len(x) != declared:
        raise ParseError(f"line {lines[0]}: declared {declared} samples "
                         f"but file has {len(x)} data lines")
    return Trajectory(x, y, t, pressure, button != 0,
                      user_id=user_id, label=label, source=source, _checked=True)


def parse_canonical(stream, user_id="anonymous", label=GENUINE, source="") -> Trajectory:
    """Parse one canonical-format signature file."""
    header, lines, (x, y, t, pressure, pen) = _read_table(stream, 5, (0, 1, 2, 3, 4), pen=4)
    if header != ["x", "y", "t", "p", "d"]:
        raise ParseError(
            f"line {lines[0]}: expected header 'x y t p d', got {' '.join(header)!r}")
    if len(x) < 2:
        raise ParseError(f"line {lines[-1]}: need at least 2 samples, got {len(x)}")
    return Trajectory(x, y, t, pressure, pen == 1,
                      user_id=user_id, label=label, source=source, _checked=True)


def format_canonical(traj: Trajectory) -> str:
    """Serialize a trajectory to canonical format (exact round trip)."""
    rows = zip(*(c.tolist() for c in (traj.x, traj.y, traj.t, traj.pressure, traj.pen_down)))
    lines = [f"{x!r} {y!r} {t!r} {p!r} {1 if d else 0}\n" for x, y, t, p, d in rows]
    return "x y t p d\n" + "".join(lines)


_PARSERS = {"svc2004": parse_svc2004, "canonical": parse_canonical}


def parser_for(layout: str):
    """The parse function of a corpus layout: ``canonical`` or ``svc2004``."""
    if layout not in _PARSERS:
        raise ValueError(f"unknown layout {layout!r}, expected one of {sorted(_PARSERS)}")
    return _PARSERS[layout]


@dataclass
class UserSignatures:
    genuine: list = field(default_factory=list)
    skilled_forgeries: list = field(default_factory=list)


@dataclass
class Corpus:
    """Signatures grouped per user, plus any loader warnings."""

    users: dict = field(default_factory=dict)
    source: str = ""
    warnings: list = field(default_factory=list)

    def user_ids(self) -> list[str]:
        return sorted(self.users)

    def all_trajectories(self) -> list[Trajectory]:
        return [traj for uid in self.user_ids()
                for traj in self.users[uid].genuine + self.users[uid].skilled_forgeries]


def load_corpus(root, layout="canonical") -> Corpus:
    """Load ``<root>/<user>/{genuine,forgery}/*.txt`` into a Corpus.

    Files that fail to parse are skipped with a warning collected on the
    returned corpus.  Every user with a signature is kept: how many genuine
    signatures a user needs is the evaluation protocol's rule, not the loader's.
    """
    root = Path(root)
    parse = parser_for(layout)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} does not exist")
    source = os.path.basename(os.path.abspath(root))  # not '' for '.', nor '..'
    corpus = Corpus(source=source)
    for user_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        uid = user_dir.name
        sigs = UserSignatures()
        for sub, label, bucket in (
            ("genuine", GENUINE, sigs.genuine),
            ("forgery", SKILLED_FORGERY, sigs.skilled_forgeries),
        ):
            subdir = user_dir / sub
            if not subdir.is_dir():
                continue
            for f in sorted(subdir.glob("*.txt")):
                try:
                    with f.open() as stream:
                        bucket.append(parse(stream, user_id=uid, label=label, source=source))
                except (ParseError, ValueError, OSError) as exc:
                    corpus.warnings.append(f"skipped {f}: {exc}")
        if sigs.genuine or sigs.skilled_forgeries:
            corpus.users[uid] = sigs
    if not corpus.users:  # a user is added only with a signature
        raise ValueError(f"no signatures could be loaded from {root}")
    return corpus


def save_corpus(corpus: Corpus, root) -> list[Path]:
    """Write a corpus in canonical format, returning the files created."""
    root = Path(root)
    written = []
    for uid in corpus.user_ids():
        sigs = corpus.users[uid]
        for sub, trajs in (("genuine", sigs.genuine), ("forgery", sigs.skilled_forgeries)):
            d = root / uid / sub
            d.mkdir(parents=True, exist_ok=True)
            for i, traj in enumerate(trajs):
                f = d / f"{i:03d}.txt"
                f.write_text(format_canonical(traj))
                written.append(f)
    return written


# ---------------------------------------------------------------------------
# Synthetic corpus
#
# Every user is a latent pen model: x(t) and y(t) are two-term sinusoids and
# pressure is a smooth positive profile.  Genuine signatures evaluate the
# latent curve and add small i.i.d. jitter; skilled forgeries perturb the
# latent parameters by a larger relative amount first.  All randomness flows
# through per-purpose child generators seeded as [seed, user, stream, index]
# so any single trajectory can be regenerated in isolation.
# ---------------------------------------------------------------------------

def _user_latents(rng) -> dict:
    # left-to-right pen drift plus two oscillation terms per axis gives a
    # cursive look: wide, loopy, and clearly different from user to user
    lat = {
        "cx": rng.uniform(80.0, 120.0),
        "cy": rng.uniform(80.0, 120.0),
        "span": rng.uniform(60.0, 110.0),
        "a1x": rng.uniform(8.0, 18.0),
        "f1x": rng.uniform(1.5, 3.5),
        "ph1x": rng.uniform(0.0, 2.0 * np.pi),
        "a2x": rng.uniform(3.0, 8.0),
        "f2x": rng.uniform(4.0, 9.0),
        "ph2x": rng.uniform(0.0, 2.0 * np.pi),
        "a1y": rng.uniform(10.0, 22.0),
        "f1y": rng.uniform(1.5, 3.5),
        "ph1y": rng.uniform(0.0, 2.0 * np.pi),
        "a2y": rng.uniform(3.0, 9.0),
        "f2y": rng.uniform(4.0, 9.0),
        "ph2y": rng.uniform(0.0, 2.0 * np.pi),
        "p0": rng.uniform(0.45, 0.7),
        "pa": rng.uniform(0.1, 0.3),
        "pb": rng.uniform(0.05, 0.15),
        "fp": rng.uniform(1.0, 3.0),
        "php": rng.uniform(0.0, 2.0 * np.pi),
        "gap_at": rng.uniform(0.3, 0.7),
        "base_n": int(rng.integers(90, 186)),
    }
    return lat


_PERTURB_MULTIPLICATIVE = ("span", "a1x", "f1x", "a2x", "f2x", "a1y", "f1y",
                           "a2y", "f2y", "p0", "pa", "pb", "fp")
_PERTURB_ADDITIVE = ("ph1x", "ph2x", "ph1y", "ph2y", "php")


def _perturb_latents(lat: dict, rng) -> dict:
    out = dict(lat)
    for key in _PERTURB_MULTIPLICATIVE:
        out[key] = lat[key] * (1.0 + FORGERY_PERTURBATION * rng.standard_normal())
    for key in _PERTURB_ADDITIVE:
        out[key] = lat[key] + FORGERY_PERTURBATION * rng.standard_normal()
    return out


def _latent_curve(lat: dict, s: np.ndarray):
    """Evaluate the latent pen model at curve positions s in [0, 1]."""
    two_pi = 2.0 * np.pi
    x = (lat["cx"] + lat["span"] * s
         + lat["a1x"] * np.sin(two_pi * lat["f1x"] * s + lat["ph1x"])
         + lat["a2x"] * np.sin(two_pi * lat["f2x"] * s + lat["ph2x"]))
    y = (lat["cy"]
         + lat["a1y"] * np.sin(two_pi * lat["f1y"] * s + lat["ph1y"])
         + lat["a2y"] * np.sin(two_pi * lat["f2y"] * s + lat["ph2y"]))
    p = (lat["p0"]
         + lat["pa"] * np.sin(np.pi * s)
         + lat["pb"] * np.sin(two_pi * lat["fp"] * s + lat["php"]))
    return x, y, np.clip(p, 0.05, None)


def _quantize(v: np.ndarray) -> np.ndarray:
    return np.round(v / _SYNTH_QUANTUM) * _SYNTH_QUANTUM


def _render_trajectory(lat: dict, rng, **meta) -> Trajectory:
    n = int(np.clip(lat["base_n"] + rng.integers(-5, 6), 80, 200))
    dt = rng.uniform(4.0, 12.0)
    s = np.linspace(0.0, 1.0, n)
    x, y, p = _latent_curve(lat, s)
    amp = 30.0
    x = x + GENUINE_JITTER * amp * rng.standard_normal(n)
    y = y + GENUINE_JITTER * amp * rng.standard_normal(n)
    p = np.clip(p + 0.3 * GENUINE_JITTER * rng.standard_normal(n), 0.02, None)
    t = dt * np.arange(n)
    pen_down = np.ones(n, dtype=bool)
    # a short mid-air gap splits the signature into two strokes
    gap = (s >= lat["gap_at"]) & (s < lat["gap_at"] + 0.04)
    if gap.any() and not gap.all():
        pen_down[gap] = False
        p[gap] = 0.0
    return Trajectory(_quantize(x), _quantize(y), _quantize(t),
                      _quantize(p), pen_down, **meta)


def generate_synthetic_corpus(seed: int, n_users: int, n_genuine: int,
                              n_forgery: int) -> Corpus:
    """Deterministic synthetic corpus of plausible pen trajectories.

    Genuine signatures are the user's latent curve plus i.i.d. jitter of
    relative magnitude ``GENUINE_JITTER``; skilled forgeries perturb the
    latent parameters by the larger relative ``FORGERY_PERTURBATION``
    before rendering.  Identical arguments produce identical corpora.
    """
    if n_users < 1 or n_genuine < 1 or n_forgery < 0:
        raise ValueError("need n_users >= 1, n_genuine >= 1, n_forgery >= 0")
    source = f"synthetic-seed{seed}"
    corpus = Corpus(source=source)
    for u in range(n_users):
        uid = f"user{u:03d}"
        lat = _user_latents(np.random.default_rng([seed, u, 0]))
        sigs = UserSignatures()
        for j in range(n_genuine):
            sigs.genuine.append(_render_trajectory(
                lat, np.random.default_rng([seed, u, 1, j]),
                user_id=uid, label=GENUINE, source=source))
        for j in range(n_forgery):
            forged = _perturb_latents(lat, np.random.default_rng([seed, u, 2, j]))
            sigs.skilled_forgeries.append(_render_trajectory(
                forged, np.random.default_rng([seed, u, 3, j]),
                user_id=uid, label=SKILLED_FORGERY, source=source))
        corpus.users[uid] = sigs
    return corpus
