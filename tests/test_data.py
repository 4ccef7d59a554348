import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from primitives import reference_signal_text, synth_generate_per_epoch

from ncrf.data import (
    _WRITE_BLOCK,
    DEFAULT_TRANSITIONS,
    STAGE_TOKENS,
    Record,
    SleepStage,
    SynthConfig,
    class_prior,
    load_records,
    load_synth_config,
    parse_labels,
    save_synth_config,
    skewed_config,
    split_by_subject,
    synth_generate,
    write_corpus,
)
from ncrf.errors import (
    AlignmentError,
    DataParseError,
    DegenerateDistributionError,
    NcrfError,
    NumericError,
    ParameterError,
)


def tiny_record(sid, labels, rate=32, epoch_s=30):
    labels = np.asarray(labels)
    n = labels.size * rate * epoch_s
    return Record(sid, np.zeros(n), labels, sample_rate_hz=rate, epoch_seconds=epoch_s)


# ---------------------------------------------------------------------------
# records and files
# ---------------------------------------------------------------------------


def test_record_alignment_arithmetic():
    rec = tiny_record("a", [0, 2])
    assert rec.num_samples == 1920
    assert rec.num_epochs == 2


def test_record_misaligned_signal_raises():
    with pytest.raises(AlignmentError, match="bad_subject"):
        Record("bad_subject", np.zeros(1919), [0, 2])


def test_record_paper_scale_arithmetic():
    # 7.5 hours at 32 Hz
    rec = tiny_record("full-night", np.zeros(900, dtype=int))
    assert rec.num_samples == 864_000
    assert rec.num_epochs == 900


def test_parse_labels_tokens_and_error_position():
    assert list(parse_labels(["W", "L", "D", "R"])) == [0, 2, 3, 1]
    with pytest.raises(DataParseError, match=":2:"):
        parse_labels(["W", "N1"], origin="x")


def test_corpus_roundtrip(tmp_path):
    cfg = SynthConfig(num_subjects=3, epochs_per_subject=5, seed=11)
    records = synth_generate(cfg)
    manifest = write_corpus(records, tmp_path)
    loaded = load_records(manifest, sample_rate_hz=4, epoch_seconds=4)
    assert [r.subject_id for r in loaded] == [r.subject_id for r in records]
    for a, b in zip(records, loaded):
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.signal, b.signal)  # repr round-trips floats


EXTREME_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e-7, 1e16]


def test_write_corpus_writes_one_repr_per_line_and_round_trips(tmp_path):
    rec = Record("x", EXTREME_VALUES, [2], sample_rate_hz=1, epoch_seconds=len(EXTREME_VALUES))
    manifest = write_corpus([rec], tmp_path)
    text = (tmp_path / "x.signal.txt").read_text()
    assert text == "".join(repr(v) + "\n" for v in EXTREME_VALUES)
    assert (tmp_path / "x.labels.txt").read_text() == "L\n"
    (loaded,) = load_records(manifest, sample_rate_hz=1, epoch_seconds=len(EXTREME_VALUES))
    assert loaded.signal.tobytes() == rec.signal.tobytes()


SEAM_SAMPLES = (1 << 16) + 3  # whole blocks of the writer and a last one 3 samples long


def _wide_signal(rng):
    """Every sample distinct, magnitudes from 1e-300 to 1e300."""
    signal = rng.standard_normal(SEAM_SAMPLES) * 10.0 ** rng.integers(-300, 300, size=SEAM_SAMPLES)
    signal[_WRITE_BLOCK - 1 : _WRITE_BLOCK + 1] = EXTREME_VALUES[:2]
    return signal


def _few_distinct_signal(rng):
    """Nine values, signed zeros and subnormals among them, with -0.0 and 0.0
    on both sides of every block seam."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 0.1, -1.0, 1e16])
    signal = pool[rng.integers(0, pool.size, size=SEAM_SAMPLES)]
    for k, seam in enumerate(range(_WRITE_BLOCK, SEAM_SAMPLES, _WRITE_BLOCK)):
        signal[seam - 1 : seam + 1] = (-0.0, 0.0) if k % 2 else (0.0, -0.0)
    return signal


def _distinct_share_signal(distinct):
    def make(rng):
        values = rng.standard_normal(distinct) * 10.0 ** rng.integers(-300, 300, size=distinct)
        values[:4] = (0.0, -0.0, 5e-324, -5e-324)
        repeats = values[rng.integers(0, distinct, size=SEAM_SAMPLES - distinct)]
        signal = rng.permutation(np.concatenate([values, repeats]))
        assert np.unique(signal.view(np.int64)).size == distinct
        return signal
    return make


@pytest.mark.parametrize("make", [
    _wide_signal,
    _few_distinct_signal,
    # the writer formats each distinct value once up to half of the samples distinct
    _distinct_share_signal(SEAM_SAMPLES // 2),
    _distinct_share_signal(SEAM_SAMPLES // 2 + 1),
], ids=["all-distinct", "few-distinct", "half-distinct", "over-half-distinct"])
def test_write_corpus_block_seams(tmp_path, make):
    assert SEAM_SAMPLES % _WRITE_BLOCK == 3
    rng = np.random.default_rng(3)
    signal = make(rng)
    rec = Record("seam", signal, rng.integers(0, 4, size=SEAM_SAMPLES), sample_rate_hz=1,
                 epoch_seconds=1)
    manifest = write_corpus([rec], tmp_path)
    lines = (tmp_path / "seam.signal.txt").read_text().split("\n")
    expected = reference_signal_text(signal).split("\n")
    # the first differing line: a diff of 65,539 lines would take minutes
    mismatch = [i for i, (a, b) in enumerate(zip(lines, expected)) if a != b]
    assert len(lines) == len(expected) and mismatch[:1] == []
    labels = (tmp_path / "seam.labels.txt").read_text()
    assert labels == "".join(STAGE_TOKENS[k] + "\n" for k in rec.labels)
    (loaded,) = load_records(manifest, sample_rate_hz=1, epoch_seconds=1)
    assert loaded.signal.tobytes() == signal.tobytes()
    assert loaded.labels.tobytes() == rec.labels.tobytes()


def _one_epoch(sid, signal=(0.0, 1.0)):
    return Record(sid, np.asarray(signal), [0], sample_rate_hz=1, epoch_seconds=2)


@pytest.mark.parametrize("records, error, named", [
    ([_one_epoch("a"), _one_epoch("b"), _one_epoch("a")], ParameterError, "a"),
    ([_one_epoch("a,b")], ParameterError, "a,b"),
    ([_one_epoch("a\nb")], ParameterError, "a\nb"),
    ([_one_epoch("a\r")], ParameterError, "a\r"),
    ([_one_epoch(" a")], ParameterError, " a"),
    ([_one_epoch("a\t")], ParameterError, "a\t"),
    ([_one_epoch("#a")], ParameterError, "#a"),
    ([_one_epoch("a/b")], ParameterError, "a/b"),
    ([_one_epoch("a"), _one_epoch("b", (0.0, np.nan))], NumericError, "b"),
    ([_one_epoch("a", (np.inf, 0.0))], NumericError, "a"),
    ([], ParameterError, None),
], ids=["duplicate", "comma", "newline", "carriage-return", "leading-space", "trailing-tab",
        "comment", "separator", "nan", "inf", "no-records"])
def test_write_corpus_refuses_a_corpus_it_cannot_read_back(tmp_path, records, error, named):
    with pytest.raises(error, match=None if named is None else re.escape(repr(named))):
        write_corpus(records, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", ["", "\n\n", "# airflow\n  \n# nothing else\n"])
def test_signal_file_without_samples_fails_in_one_error(tmp_path, content):
    records = synth_generate(SynthConfig(num_subjects=3, epochs_per_subject=4, seed=1))
    manifest = write_corpus(records, tmp_path)
    (tmp_path / "synth0001.signal.txt").write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataParseError, match=r"synth0001\.signal\.txt: no samples$"):
            load_records(manifest, sample_rate_hz=4, epoch_seconds=4)


def test_load_records_rejects_missing_manifest(tmp_path):
    with pytest.raises(DataParseError):
        load_records(tmp_path / "nope.txt")


def test_load_records_wrong_geometry_is_alignment_error(tmp_path):
    records = synth_generate(SynthConfig(num_subjects=3, epochs_per_subject=4, seed=1))
    manifest = write_corpus(records, tmp_path)
    with pytest.raises(AlignmentError, match="synth0000"):
        load_records(manifest, sample_rate_hz=8, epoch_seconds=4)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_records_rejects_nonfinite_samples(tmp_path, token):
    records = synth_generate(SynthConfig(num_subjects=3, epochs_per_subject=4, seed=1))
    manifest = write_corpus(records, tmp_path)
    signal = tmp_path / "synth0001.signal.txt"
    lines = signal.read_text().splitlines()
    lines[5] = token
    signal.write_text("\n".join(["# airflow", ""] + lines) + "\n")
    with pytest.raises(DataParseError, match=r"synth0001\.signal\.txt:8: .*'synth0001'"):
        load_records(manifest, sample_rate_hz=4, epoch_seconds=4)


@pytest.mark.parametrize("target", ["manifest.txt", "synth0001.labels.txt", "synth_config.txt"])
def test_non_utf8_input_files_raise_data_parse_error(tmp_path, target):
    records = synth_generate(SynthConfig(num_subjects=3, epochs_per_subject=4, seed=1))
    manifest = write_corpus(records, tmp_path)
    save_synth_config(SynthConfig(), tmp_path / "synth_config.txt")
    path = tmp_path / target
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    with pytest.raises(DataParseError, match=target.replace(".", r"\.")):
        if target == "synth_config.txt":
            load_synth_config(path)
        else:
            load_records(manifest, sample_rate_hz=4, epoch_seconds=4)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    manifest = write_corpus(synth_generate(SynthConfig(num_subjects=3, epochs_per_subject=4,
                                                       seed=1)), out)
    save_synth_config(SynthConfig(), out / "synth_config.txt")
    return manifest


def mutate(data, blob: bytes) -> bytes:
    """Random bytes, a truncation or a single bit flip of a valid file."""
    kind = data.draw(st.sampled_from(["random", "truncate", "flip"]))
    if kind == "random":
        return data.draw(st.binary(max_size=200))
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    out[data.draw(st.integers(0, len(out) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    return bytes(out)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_manifest_raises_only_package_errors(small_corpus, data):
    path = small_corpus.with_name("mutated_manifest.txt")
    path.write_bytes(mutate(data, small_corpus.read_bytes()))
    try:
        load_records(path, sample_rate_hz=4, epoch_seconds=4)
    except NcrfError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_labels_raise_only_package_errors(small_corpus, data):
    labels = small_corpus.with_name("mutated.labels.txt")
    labels.write_bytes(mutate(data, small_corpus.with_name("synth0001.labels.txt").read_bytes()))
    manifest = small_corpus.with_name("labels_manifest.txt")
    manifest.write_text("synth0001,synth0001.signal.txt,mutated.labels.txt\n")
    try:
        load_records(manifest, sample_rate_hz=4, epoch_seconds=4)
    except NcrfError:
        pass


SIGNAL_TOKENS = ["1", "-2.5", "1e3", "1e999", "nan", "-inf", "Infinity", ",", "#", " ", "\t",
                 "\n", "\r", "\r\n", "\x00", "\ufeff", "\x1c", "\x85", "\u2028", "0x1f", "1_0"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_signal_file_loads_finite_samples_or_raises_package_errors(small_corpus, data):
    kind = data.draw(st.sampled_from(["tokens", "bytes", "mutate"]))
    if kind == "tokens":
        soup = data.draw(st.lists(st.sampled_from(SIGNAL_TOKENS), max_size=40))
        blob = "".join(soup).encode(data.draw(st.sampled_from(["utf-8", "utf-16", "latin-1"])),
                                    errors="replace")
    elif kind == "bytes":
        blob = data.draw(st.binary(max_size=200))
    else:
        blob = mutate(data, small_corpus.with_name("synth0001.signal.txt").read_bytes())
    signal = small_corpus.with_name("fuzzed.signal.txt")
    signal.write_bytes(blob)
    manifest = small_corpus.with_name("signal_manifest.txt")
    manifest.write_text("synth0001,fuzzed.signal.txt,synth0001.labels.txt\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            (record,) = load_records(manifest, sample_rate_hz=4, epoch_seconds=4)
        except NcrfError:
            return
    assert np.isfinite(record.signal).all()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_synth_config_raises_only_package_errors(small_corpus, data):
    path = small_corpus.with_name("mutated_config.txt")
    path.write_bytes(mutate(data, small_corpus.with_name("synth_config.txt").read_bytes()))
    try:
        load_synth_config(path)
    except NcrfError:
        pass


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_sizes_ten_subjects():
    records = [tiny_record(f"s{i}", [0], rate=1, epoch_s=1) for i in range(10)]
    tr, va, te = split_by_subject(records, seed=0)
    assert (len(tr), len(va), len(te)) == (6, 2, 2)


def test_split_sizes_four_hundred_subjects():
    records = [tiny_record(f"s{i:03d}", [0], rate=1, epoch_s=1) for i in range(400)]
    tr, va, te = split_by_subject(records, seed=0)
    assert (len(tr), len(va), len(te)) == (240, 80, 80)


def test_split_deterministic_disjoint_exhaustive():
    records = [tiny_record(f"s{i}", [i % 4], rate=1, epoch_s=1) for i in range(17)]
    a = split_by_subject(records, seed=5)
    b = split_by_subject(records, seed=5)
    for part_a, part_b in zip(a, b):
        assert [r.subject_id for r in part_a] == [r.subject_id for r in part_b]
    ids = [set(r.subject_id for r in part) for part in a]
    assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])
    assert ids[0] | ids[1] | ids[2] == {r.subject_id for r in records}


def test_split_requires_three_subjects():
    records = [tiny_record("a", [0], 1, 1), tiny_record("b", [0], 1, 1)]
    with pytest.raises(ParameterError):
        split_by_subject(records)


# ---------------------------------------------------------------------------
# class prior
# ---------------------------------------------------------------------------


def test_class_prior_balanced():
    labels = np.repeat([0, 1, 2, 3], 50)
    np.testing.assert_array_equal(class_prior(labels), np.ones(4))


def test_class_prior_inverse_frequency():
    labels = np.repeat([0, 1, 2, 3], [100, 50, 25, 25])
    np.testing.assert_allclose(class_prior(labels), [0.5, 1.0, 2.0, 2.0])


def test_class_prior_weighted_counts_recover_total():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=1003)
    alpha = class_prior(labels)
    counts = np.bincount(labels, minlength=4)
    # each n_k * a_k equals n/4 up to float rounding
    np.testing.assert_allclose(counts * alpha, labels.size / 4, rtol=1e-14)
    assert (counts * alpha).sum() == pytest.approx(labels.size, rel=1e-14)


def test_class_prior_rare_classes_boosted():
    labels = np.repeat([0, 1, 2, 3], [500, 80, 350, 70])  # REM, Deep < 10%
    alpha = class_prior(labels)
    assert alpha[int(SleepStage.REM)] > 2.5
    assert alpha[int(SleepStage.DEEP)] > 2.5


def test_class_prior_missing_class_is_degenerate():
    with pytest.raises(DegenerateDistributionError, match="R"):
        class_prior([0, 0, 2, 3])


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_synth_identity_matrix_stays_wake():
    cfg = SynthConfig(num_subjects=3, epochs_per_subject=20, transition_matrix=np.eye(4), seed=2)
    for rec in synth_generate(cfg):
        assert (rec.labels == int(SleepStage.WAKE)).all()


def test_synth_never_crosses_zero_transitions():
    cfg = SynthConfig(num_subjects=20, epochs_per_subject=200, seed=3)
    zero_cells = np.argwhere(cfg.transition_matrix == 0)
    assert len(zero_cells)  # default matrix does forbid something
    for rec in synth_generate(cfg):
        bigrams = set(zip(rec.labels[:-1], rec.labels[1:]))
        for i, j in zero_cells:
            assert (i, j) not in bigrams


def test_synth_bigram_frequencies_match_chain():
    cfg = SynthConfig(num_subjects=90, epochs_per_subject=120, seed=4)
    counts = np.zeros((4, 4))
    total_labels = 0
    for rec in synth_generate(cfg):
        np.add.at(counts, (rec.labels[:-1], rec.labels[1:]), 1)
        total_labels += rec.num_epochs
    assert total_labels >= 10_000
    rows = counts.sum(axis=1, keepdims=True)
    empirical = counts / np.maximum(rows, 1)
    assert np.abs(empirical - cfg.transition_matrix).max() < 0.05


def test_synth_deterministic_per_seed():
    a = synth_generate(SynthConfig(num_subjects=2, epochs_per_subject=10, seed=9))
    b = synth_generate(SynthConfig(num_subjects=2, epochs_per_subject=10, seed=9))
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.signal, rb.signal)
        np.testing.assert_array_equal(ra.labels, rb.labels)


def test_synth_rejects_non_stochastic_matrix():
    bad = DEFAULT_TRANSITIONS.copy()
    bad[0, 0] += 0.01
    with pytest.raises(ParameterError):
        SynthConfig(transition_matrix=bad)


@pytest.mark.parametrize(
    "field", ["transition_matrix", "stage_freq", "stage_amp", "stage_amp_var", "stage_noise"]
)
def test_synth_config_rejects_nan(field):
    value = getattr(SynthConfig(), field).copy()
    value.reshape(-1)[1] = np.nan
    with pytest.raises(ParameterError, match=field):
        SynthConfig(**{field: value})


def test_skewed_config_starves_rem_and_deep():
    recs = synth_generate(skewed_config(num_subjects=30, epochs_per_subject=120, seed=5))
    labels = np.concatenate([r.labels for r in recs])
    shares = np.bincount(labels, minlength=4) / labels.size
    assert shares[int(SleepStage.REM)] < 0.10
    assert shares[int(SleepStage.DEEP)] < 0.10


@st.composite
def synth_configs(draw):
    """Small SynthConfigs with random zero transitions, noise and amplitude jitter."""
    tm = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))).reshape(4, 4)
    tm[np.array(draw(st.lists(st.booleans(), min_size=16, max_size=16))).reshape(4, 4)] = 0.0
    tm[tm.sum(axis=1) == 0, draw(st.integers(0, 3))] = 1.0
    vec = st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4)
    return SynthConfig(
        num_subjects=draw(st.integers(1, 3)),
        epochs_per_subject=draw(st.integers(1, 40)),
        sample_rate=draw(st.integers(1, 8)),
        epoch_seconds=draw(st.integers(1, 5)),
        transition_matrix=tm / tm.sum(axis=1, keepdims=True),
        stage_freq=draw(st.lists(st.floats(0.05, 4.0), min_size=4, max_size=4)),
        stage_amp=draw(vec),
        stage_amp_var=draw(vec),
        stage_noise=draw(vec),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(config=synth_configs())
@example(config=skewed_config(num_subjects=3, epochs_per_subject=40, seed=5))
@example(config=SynthConfig(num_subjects=2, epochs_per_subject=3, sample_rate=32,
                            epoch_seconds=30, stage_noise=[0.5, 0.1, 1.0, 0.2],
                            stage_amp_var=[0.3, 0.0, 0.2, 1.0], seed=8))
def test_synth_generate_equals_per_epoch_reference_bytes(config):
    for rec, ref in zip(synth_generate(config), synth_generate_per_epoch(config), strict=True):
        assert rec.subject_id == ref.subject_id
        assert rec.labels.tobytes() == ref.labels.tobytes()
        assert rec.signal.tobytes() == ref.signal.tobytes()


def test_synth_config_file_roundtrip(tmp_path):
    cfg = SynthConfig(num_subjects=5, epochs_per_subject=7, seed=42)
    path = tmp_path / "cfg.txt"
    save_synth_config(cfg, path)
    loaded = load_synth_config(path)
    assert loaded.num_subjects == 5
    assert loaded.epochs_per_subject == 7
    assert loaded.seed == 42
    np.testing.assert_array_equal(loaded.transition_matrix, cfg.transition_matrix)
    np.testing.assert_array_equal(loaded.stage_freq, cfg.stage_freq)


def test_synth_config_file_bad_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("wibble=3\n")
    with pytest.raises(DataParseError, match="wibble"):
        load_synth_config(path)
