"""Records, file I/O, subject splits, class priors, and synthetic data.

A record is one subject's raw airflow signal plus one sleep-stage label
per 30-second epoch (per ``epoch_seconds`` generally; the desk profile
uses 4-second epochs at 4 Hz so everything runs in seconds).

On disk a corpus is a manifest of ``subject_id,signal_path,labels_path``
lines, a one-float-per-line signal file and a one-token-per-line label
file per subject. Synthetic corpora follow a Markov chain over stages
with configurable forbidden transitions and stage-dependent oscillation
signals; they stand in for polysomnography data that cannot ship with
the code.
"""

from __future__ import annotations

import bisect
import os
import warnings
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    DataParseError,
    DegenerateDistributionError,
    NumericError,
    ParameterError,
)
from .rng import SplitRng

NUM_STAGES = 4


class SleepStage(IntEnum):
    WAKE = 0
    REM = 1
    LIGHT = 2
    DEEP = 3


STAGE_TOKENS = ("W", "R", "L", "D")
_WRITE_BLOCK = 1 << 12  # samples formatted per write of a signal file
_TOKEN_TO_STAGE = {tok: SleepStage(i) for i, tok in enumerate(STAGE_TOKENS)}


@dataclass
class Record:
    """One subject-night: n signal samples and m = n / (rate * epoch_s) labels."""

    subject_id: str
    signal: np.ndarray
    labels: np.ndarray
    sample_rate_hz: int = 32
    epoch_seconds: int = 30

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=np.float64).reshape(-1)
        self.labels = np.asarray(self.labels, dtype=np.intp).reshape(-1)
        if self.sample_rate_hz < 1 or self.epoch_seconds < 1:
            raise ParameterError("sample_rate_hz and epoch_seconds must be positive")
        if self.num_epochs < 1:
            raise ParameterError(f"record {self.subject_id!r} has no labels")
        if self.labels.min() < 0 or self.labels.max() >= NUM_STAGES:
            raise ParameterError(f"record {self.subject_id!r} has labels outside 0..3")
        expected = self.num_epochs * self.samples_per_epoch
        if self.signal.size != expected:
            raise AlignmentError(
                f"record {self.subject_id!r}: {self.signal.size} samples but "
                f"{self.num_epochs} labels require {expected}"
            )

    @property
    def samples_per_epoch(self) -> int:
        return self.sample_rate_hz * self.epoch_seconds

    @property
    def num_epochs(self) -> int:
        return self.labels.size

    @property
    def num_samples(self) -> int:
        return self.signal.size


def parse_labels(lines, origin: str = "<labels>") -> np.ndarray:
    """Stage tokens (one per line) to integer labels; blanks are skipped."""
    out = []
    for lineno, raw in enumerate(lines, start=1):
        tok = raw.strip()
        if not tok:
            continue
        stage = _TOKEN_TO_STAGE.get(tok)
        if stage is None:
            raise DataParseError(f"{origin}:{lineno}: unknown stage token {tok!r}")
        out.append(int(stage))
    return np.asarray(out, dtype=np.intp)


def _read_lines(path: Path) -> list[str]:
    """A UTF-8 text file's lines, or DataParseError naming the file."""
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        raise DataParseError(f"{path}: {e}") from e


def _check_samples(signal: np.ndarray, path: Path, sid: str) -> None:
    """Reject a signal file that np.loadtxt parsed to no samples, or to NaN or
    infinite ones, naming the line that holds the first non-finite sample."""
    if signal.size == 0:
        raise DataParseError(f"{path}: no samples")
    bad = np.flatnonzero(~np.isfinite(signal))
    if not bad.size:
        return
    seen = 0
    with open(path, encoding="utf-8") as f:  # the lines and tokens np.loadtxt read
        for lineno, line in enumerate(f, start=1):
            seen += len(line.split("#")[0].split())
            if seen > bad[0]:
                raise DataParseError(f"{path}:{lineno}: non-finite sample in subject {sid!r}")
    raise DataParseError(f"{path}: non-finite sample in subject {sid!r}")


def load_records(
    manifest_path: str | Path,
    sample_rate_hz: int = 32,
    epoch_seconds: int = 30,
) -> list[Record]:
    """Read a manifest and every record it names.

    Relative signal/label paths resolve against the manifest's directory.
    """
    manifest = Path(manifest_path)
    if not manifest.is_file():
        raise DataParseError(f"manifest not found: {manifest}")
    base = manifest.parent
    records = []
    for lineno, raw in enumerate(_read_lines(manifest), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise DataParseError(
                f"{manifest}:{lineno}: expected 'subject_id,signal_path,labels_path'"
            )
        sid, sig_path, lab_path = parts
        sig_file = base / sig_path
        lab_file = base / lab_path
        try:
            with warnings.catch_warnings():  # an empty file warns; _check_samples names it
                warnings.simplefilter("ignore")
                signal = np.loadtxt(sig_file, dtype=np.float64, ndmin=1, encoding="utf-8")
        except (OSError, ValueError) as e:
            raise DataParseError(f"{sig_file}: {e}") from e
        _check_samples(signal, sig_file, sid)
        labels = parse_labels(_read_lines(lab_file), origin=str(lab_file))
        records.append(
            Record(sid, signal, labels, sample_rate_hz=sample_rate_hz, epoch_seconds=epoch_seconds)
        )
    if not records:
        raise DataParseError(f"manifest {manifest} lists no records")
    return records


def _check_writable(records: list[Record]) -> None:
    """Refuse, before any file exists, a corpus that load_records cannot read back."""
    if not records:
        raise ParameterError("no records to write")
    seen = set()
    for rec in records:
        sid = rec.subject_id
        if sid in seen:
            raise ParameterError(f"duplicate subject id {sid!r}")
        seen.add(sid)
        if (sid != sid.strip() or sid.startswith("#") or sid.splitlines() != [sid]
                or any(c in sid for c in (",", "/", "\0", os.sep))):
            raise ParameterError(f"subject id {sid!r} cannot be a manifest field and a file name")
        if not np.isfinite(rec.signal).all():
            raise NumericError(f"record {sid!r} has a non-finite sample")


def _write_signal(f, signal: np.ndarray) -> None:
    """One shortest round-trip repr per line, each distinct value formatted once.

    Values are keyed by their float64 bits, so 0.0 and -0.0 keep their own
    text. A record with more than half of its samples distinct formats
    sample by sample, because gathering the texts costs more than it saves.
    """
    keys = signal.view(np.int64)
    ordered = np.sort(keys)
    distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    if 2 * distinct.size > signal.size:
        for a in range(0, signal.size, _WRITE_BLOCK):
            f.write("\n".join(map(repr, signal[a : a + _WRITE_BLOCK].tolist())) + "\n")
        return
    texts = np.array([repr(v) + "\n" for v in distinct.view(np.float64).tolist()], dtype=object)
    for a in range(0, signal.size, _WRITE_BLOCK):
        f.write("".join(texts[np.searchsorted(distinct, keys[a : a + _WRITE_BLOCK])].tolist()))


def write_corpus(records: list[Record], out_dir: str | Path) -> Path:
    """Write signal/label files plus a manifest; returns the manifest path.

    Raises ParameterError for an empty list, a repeated subject id or one
    that a manifest field or a file name cannot hold, and NumericError for
    a non-finite sample, before it creates any file.
    """
    _check_writable(records)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for rec in records:
        sig_name = f"{rec.subject_id}.signal.txt"
        lab_name = f"{rec.subject_id}.labels.txt"
        with open(out / sig_name, "w", encoding="utf-8") as f:
            _write_signal(f, rec.signal)
        tokens = [STAGE_TOKENS[lab] + "\n" for lab in rec.labels.tolist()]
        (out / lab_name).write_text("".join(tokens), encoding="utf-8")
        lines.append(f"{rec.subject_id},{sig_name},{lab_name}")
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def split_by_subject(
    records: list[Record],
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> tuple[list[Record], list[Record], list[Record]]:
    """Disjoint train/validation/test partition by subject id.

    Validation and test sizes are round(fraction * count); whatever
    rounding leaves over (or takes away) lands on the training split.
    """
    if len(fractions) != 3 or any(f < 0 for f in fractions) or abs(sum(fractions) - 1) > 1e-9:
        raise ParameterError(f"fractions must be three non-negatives summing to 1: {fractions}")
    subjects = sorted({r.subject_id for r in records})
    n = len(subjects)
    if n < 3:
        raise ParameterError(f"need at least 3 subjects to split, got {n}")
    n_val = int(fractions[1] * n + 0.5)
    n_test = int(fractions[2] * n + 0.5)
    n_train = n - n_val - n_test
    if n_train < 1:
        raise ParameterError("rounding left no training subjects")
    order = SplitRng(seed).child("subject-split").generator().permutation(n)
    shuffled = [subjects[i] for i in order]
    split_of = {sid: (k >= n_train) + (k >= n_train + n_val) for k, sid in enumerate(shuffled)}
    by_split = ([], [], [])
    for rec in records:
        by_split[split_of[rec.subject_id]].append(rec)
    return by_split


def class_prior(labels) -> np.ndarray:
    """Inverse-frequency weights a_k = n_mean / n_k over the four stages."""
    arr = np.concatenate([np.asarray(x, dtype=np.intp).reshape(-1) for x in labels]) \
        if isinstance(labels, (list, tuple)) else np.asarray(labels, dtype=np.intp).reshape(-1)
    counts = np.bincount(arr, minlength=NUM_STAGES)
    if counts.size > NUM_STAGES:
        raise ParameterError("labels outside the four-stage alphabet")
    if (counts == 0).any():
        missing = [STAGE_TOKENS[i] for i in np.flatnonzero(counts == 0)]
        raise DegenerateDistributionError(
            f"class prior undefined: no occurrences of {', '.join(missing)}"
        )
    n_mean = arr.size / NUM_STAGES
    return n_mean / counts


# ---------------------------------------------------------------------------
# synthetic corpus generation
# ---------------------------------------------------------------------------

# Stand-in stage dynamics: Wake->Deep and Deep->REM are exactly zero, the
# rest is a plausible run-heavy chain. Not estimated from any dataset.
DEFAULT_TRANSITIONS = np.array(
    [
        [0.90, 0.03, 0.07, 0.00],
        [0.02, 0.87, 0.03, 0.08],
        [0.07, 0.07, 0.72, 0.14],
        [0.02, 0.00, 0.13, 0.85],
    ]
)

# Chain that keeps REM and Deep each under 10% of labels.
SKEWED_TRANSITIONS = np.array(
    [
        [0.93, 0.01, 0.06, 0.00],
        [0.06, 0.70, 0.20, 0.04],
        [0.05, 0.02, 0.89, 0.04],
        [0.04, 0.00, 0.26, 0.70],
    ]
)

# One fixed oscillation phase on purpose: with the default zero noise,
# epochs of one stage are exact duplicates, so a model cannot tell Wake
# and REM apart from the waveform alone (they share a signal profile by
# default) and cannot fingerprint individual epochs or subjects either;
# stage dynamics carry the distinguishing information.
_PHASE = 0.0


@dataclass
class SynthConfig:
    """Knobs for the synthetic corpus generator."""

    num_subjects: int = 40
    epochs_per_subject: int = 120
    sample_rate: int = 4
    epoch_seconds: int = 4
    transition_matrix: np.ndarray = field(default_factory=lambda: DEFAULT_TRANSITIONS.copy())
    stage_freq: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 0.5, 0.25]))
    stage_amp: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 1.0, 1.4]))
    stage_amp_var: np.ndarray = field(default_factory=lambda: np.zeros(4))
    stage_noise: np.ndarray = field(default_factory=lambda: np.zeros(4))
    seed: int = 7

    def __post_init__(self):
        self.transition_matrix = np.asarray(self.transition_matrix, dtype=np.float64)
        for name in ("stage_freq", "stage_amp", "stage_amp_var", "stage_noise"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64).reshape(-1))
            if getattr(self, name).size != NUM_STAGES:
                raise ParameterError(f"{name} needs {NUM_STAGES} values")
            if not np.isfinite(getattr(self, name)).all():
                raise ParameterError(f"{name} must be finite")
        if self.num_subjects < 1 or self.epochs_per_subject < 1:
            raise ParameterError("num_subjects and epochs_per_subject must be positive")
        if self.sample_rate < 1 or self.epoch_seconds < 1:
            raise ParameterError("sample_rate and epoch_seconds must be positive")
        tm = self.transition_matrix
        if tm.shape != (NUM_STAGES, NUM_STAGES) or not np.isfinite(tm).all() or (tm < 0).any():
            raise ParameterError("transition_matrix must be 4x4 with finite non-negative entries")
        if np.abs(tm.sum(axis=1) - 1.0).max() > 1e-12:
            raise ParameterError("transition_matrix rows must sum to 1 within 1e-12")


def _sample_chain(tm: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    """Markov chain from Wake; zero-probability moves can never be drawn."""
    moves = [np.flatnonzero(row).tolist() for row in tm]
    cdfs = [np.cumsum(row[row != 0]).tolist() for row in tm]
    state = int(SleepStage.WAKE)
    labels = [state]
    for u in rng.random(length - 1).tolist():
        cdf = cdfs[state]
        pick = bisect.bisect_right(cdf, u * cdf[-1])
        state = moves[state][min(pick, len(cdf) - 1)]
        labels.append(state)
    return np.array(labels, dtype=np.intp)


def synth_generate(config: SynthConfig) -> list[Record]:
    """Deterministic synthetic corpus for the given config and seed: each record
    draws its chain's uniforms, then per epoch one amplitude and spe noise normals."""
    root = SplitRng(config.seed)
    spe = config.sample_rate * config.epoch_seconds
    times = np.arange(spe) / config.sample_rate
    waves = np.array([np.sin(2.0 * np.pi * f * times + _PHASE) for f in config.stage_freq])
    records = []
    for i in range(config.num_subjects):
        rng = root.child("synth", i).generator()
        labels = _sample_chain(config.transition_matrix, config.epochs_per_subject, rng)
        z = rng.standard_normal((labels.size, 1 + spe))
        amp = config.stage_amp[labels] * np.abs(1.0 + config.stage_amp_var[labels] * z[:, 0])
        signal = waves[labels]  # scaled and noised in place: no third record-sized array
        signal *= amp[:, None]
        z[:, 1:] *= config.stage_noise[labels][:, None]
        signal += z[:, 1:]
        records.append(Record(f"synth{i:04d}", signal.reshape(-1), labels,
                              sample_rate_hz=config.sample_rate,
                              epoch_seconds=config.epoch_seconds))
    return records


def skewed_config(**overrides) -> SynthConfig:
    """REM/Deep-starved chain where each rare stage shadows a common one.

    REM shares Wake's waveform (as in the default corpus) and Deep
    shares Light's, so both rare stages are decidable only from stage
    dynamics; with their priors starved, class weighting has real room
    to change their recall.
    """
    cfg = SynthConfig(
        transition_matrix=SKEWED_TRANSITIONS.copy(),
        stage_freq=np.array([1.0, 1.0, 0.5, 0.5]),
        stage_amp=np.array([1.0, 1.0, 1.0, 1.0]),
    )
    return replace(cfg, **overrides) if overrides else cfg


# key=value serialization of SynthConfig --------------------------------------

_VECTOR_FIELDS = ("stage_freq", "stage_amp", "stage_amp_var", "stage_noise")
_INT_FIELDS = ("num_subjects", "epochs_per_subject", "sample_rate", "epoch_seconds", "seed")


def save_synth_config(config: SynthConfig, path: str | Path) -> None:
    lines = [f"{name}={getattr(config, name)}" for name in _INT_FIELDS]
    rows = [",".join(repr(float(v)) for v in r) for r in config.transition_matrix]
    lines.append("transition_matrix=" + ";".join(rows))
    for name in _VECTOR_FIELDS:
        lines.append(f"{name}=" + ",".join(repr(float(v)) for v in getattr(config, name)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_synth_config(path: str | Path) -> SynthConfig:
    kwargs = {}
    for lineno, raw in enumerate(_read_lines(Path(path)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataParseError(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            if key in _INT_FIELDS:
                kwargs[key] = int(value)
            elif key == "transition_matrix":
                kwargs[key] = np.array(
                    [[float(v) for v in row.split(",")] for row in value.split(";")]
                )
            elif key in _VECTOR_FIELDS:
                kwargs[key] = np.array([float(v) for v in value.split(",")])
            else:
                raise DataParseError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError as e:
            raise DataParseError(f"{path}:{lineno}: {e}") from e
    try:
        return SynthConfig(**kwargs)
    except ParameterError as e:
        raise ParameterError(f"{path}: {e}") from e
