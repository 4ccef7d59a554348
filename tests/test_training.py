import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrf import training
from ncrf.autodiff import ModelParams, Tape, Tensor
from ncrf.cnn import CnnConfig, ConvLayerSpec
from ncrf.data import Record, SynthConfig, synth_generate, split_by_subject
from ncrf.errors import CheckpointFormatError, NumericError, ParameterError
from ncrf.model import (
    MODEL_KINDS,
    ModelConfig,
    desk_config,
    evaluate,
    init_params,
    paper_config,
    param_shapes,
    record_loss,
)
from ncrf.rng import SplitRng
from ncrf.training import (
    Adam,
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history,
)


@pytest.fixture(scope="module")
def corpus():
    recs = synth_generate(SynthConfig(num_subjects=8, epochs_per_subject=24, seed=31))
    return split_by_subject(recs, seed=31)


def quick_config(**kwargs):
    defaults = dict(model_kind="crf", seed=5, max_epochs=3, patience=3, hidden_dim=12)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(l1_lambda=-1)
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ParameterError):
        TrainConfig(patience=0)


@pytest.mark.parametrize("field", ["l1_lambda", "learning_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_non_finite_numbers_by_name(field, value):
    with pytest.raises(ParameterError, match=field):
        TrainConfig(**{field: value})


def test_patience_stops_a_run_that_does_not_improve():
    # at this learning rate no step moves a weight, so validation kappa
    # never rises past epoch 1's and one stalled epoch ends the run
    records = synth_generate(SynthConfig(num_subjects=6, epochs_per_subject=20, seed=5))
    train_records, validation_records, _ = split_by_subject(records, seed=5)
    checkpoint, history = train(train_records, validation_records,
                                TrainConfig(max_epochs=50, patience=1, learning_rate=1e-300))
    assert [h.epoch for h in history] == [1, 2]
    assert checkpoint.epoch == 1


def test_records_of_two_geometries_are_rejected(corpus):
    train_records, validation_records, _ = corpus
    other = validation_records[0]
    assert other.epoch_seconds % 2 == 0
    # the same samples per epoch, at twice the rate over half the seconds
    odd = Record(other.subject_id, other.signal, other.labels,
                 sample_rate_hz=other.sample_rate_hz * 2, epoch_seconds=other.epoch_seconds // 2)
    with pytest.raises(ParameterError, match="records disagree on rate/epoch geometry"):
        train(train_records, [odd] + validation_records[1:], quick_config())


def test_training_is_bitwise_deterministic(corpus, tmp_path):
    tr, va, _ = corpus
    ckpt_a, hist_a = train(tr, va, quick_config())
    ckpt_b, hist_b = train(tr, va, quick_config())
    assert hist_a == hist_b
    for name in ckpt_a.params:
        np.testing.assert_array_equal(ckpt_a.params[name].data, ckpt_b.params[name].data)
    save_checkpoint(tmp_path / "a.ncrf", ckpt_a)
    save_checkpoint(tmp_path / "b.ncrf", ckpt_b)
    assert (tmp_path / "a.ncrf").read_bytes() == (tmp_path / "b.ncrf").read_bytes()
    write_history(hist_a, tmp_path / "a.csv")
    write_history(hist_b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_stored_kappa_matches_recomputation(corpus):
    tr, va, _ = corpus
    ckpt, _ = train(tr, va, quick_config())
    recomputed = evaluate(ckpt.model_config, ckpt.params, va).kappa
    assert ckpt.val_kappa == pytest.approx(recomputed, abs=1e-12)


def test_large_lambda_zeroes_all_transitions(corpus):
    tr, va, _ = corpus
    ckpt, _ = train(tr, va, quick_config(l1_lambda=10.0, max_epochs=4, patience=4))
    assert not ckpt.params["crf.T1"].data.any()
    assert not ckpt.params["crf.b_e"].data.any()


def test_prox_never_touches_feature_extractor():
    from ncrf.crf import l1_prox
    from ncrf.model import desk_config, init_params

    params = init_params(desk_config("crf", hidden_dim=12, channels=8), 2)
    params["crf.T1"].data[:] = 0.3
    before = {k: v.data.copy() for k, v in params.items()}
    l1_prox(params, 10.0)
    for name in params:
        if name.startswith("crf."):
            assert not params[name].data.any()
        else:
            np.testing.assert_array_equal(params[name].data, before[name])


def test_single_step_decreases_record_loss(corpus):
    from ncrf.model import desk_config, init_params

    tr, _, _ = corpus
    rec = tr[0]
    config = desk_config("crf", hidden_dim=12, channels=32, dropout_rate=0.0)
    params = init_params(config, 7)
    before_tape = Tape()
    before = record_loss(config, params, rec, tape=before_tape)
    before_tape.backward(before)
    grads = {name: before_tape.grad(t) for name, t in params.items()}
    Adam(1e-4).step(params, grads)
    after = record_loss(config, params, rec).item()
    assert after < before.item()


def test_adam_allocates_its_moments_on_the_first_step_only(monkeypatch):
    params = ModelParams(a=Tensor(np.ones((2, 3))), b=Tensor(np.ones(4)))
    grads = {"a": np.full((2, 3), 0.5), "b": np.full(4, -0.25)}
    made = []
    zeros_like = np.zeros_like

    def counted(a, *args, **kwargs):
        made.append(a.shape)
        return zeros_like(a, *args, **kwargs)

    monkeypatch.setattr(np, "zeros_like", counted)
    adam = Adam(1e-3)
    adam.step(params, grads)
    assert made == [(2, 3), (2, 3), (4,), (4,)]
    adam.step(params, grads)
    assert len(made) == 4


@pytest.mark.parametrize("kind", ["crf", "crf2"])
def test_record_gradients_are_arrays_of_their_parameters_shapes(corpus, kind):
    tr, _, _ = corpus
    config = desk_config(kind, hidden_dim=6, channels=4)
    params = init_params(config, 3)
    _, grads = training._record_gradients(config, params, tr[0], None, SplitRng(5), 1, 0)
    assert list(grads) == list(params)
    for name, g in grads.items():
        assert type(g) is np.ndarray and g.shape == params[name].shape, name


def test_nonfinite_loss_aborts_with_context(corpus):
    _, va, _ = corpus
    bad_signal = np.zeros(24 * 16)
    bad_signal[0] = np.nan
    bad = Record("broken", bad_signal, np.zeros(24, dtype=int),
                 sample_rate_hz=4, epoch_seconds=4)
    with pytest.raises(NumericError, match="broken"):
        train([bad], va, quick_config(max_epochs=1, patience=1))


@pytest.mark.parametrize("kind", ["softmax", "crf", "crf2"])
def test_finite_scores_that_overflow_the_loss_meet_the_loss_guard(corpus, kind):
    # every score is finite, so the CRF's finite check passes, but node scores
    # of +-1e308 overflow the log partition and the gold path's score
    tr, _, _ = corpus
    config = desk_config(kind, hidden_dim=6, channels=4)
    params = init_params(config, 3)
    params["head.b" if kind == "softmax" else "crf.b_n"].data[:] = [1e308, -1e308] * 2
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match=r"^non-finite training loss at epoch 1, record "):
        training._record_gradients(config, params, tr[0], None, SplitRng(5), 1, 0)


def test_nonfinite_gradient_norm_raises_before_adam_with_params_untouched(corpus, monkeypatch):
    # a NaN in one record's gradients: the clip skips a NaN norm, so without
    # the check Adam would write NaN into every parameter
    tr, va, _ = corpus
    record_gradients, step = training._record_gradients, training.Adam.step
    seen, steps = [], []

    def poisoned(model_config, params, record, *args):
        value, g = record_gradients(model_config, params, record, *args)
        if not seen:
            g[next(iter(g))].flat[0] = np.nan
        seen.append((record.subject_id, params, params.clone()))
        return value, g

    def counted(self, params, grads):
        steps.append(1)
        return step(self, params, grads)

    monkeypatch.setattr(training, "_record_gradients", poisoned)
    monkeypatch.setattr(training.Adam, "step", counted)
    with pytest.raises(NumericError, match=r"non-finite gradient norm nan at epoch 1") as err:
        train(tr, va, quick_config(batch_size=2, max_epochs=1, patience=1))
    ids = [sid for sid, _, _ in seen]
    assert len(ids) == 2 and re.search(re.escape(repr(ids)), str(err.value)), (ids, err.value)
    assert not steps
    _, params, before = seen[-1]
    for name, t in params.items():
        assert t.data.tobytes() == before[name].data.tobytes(), name


@pytest.mark.parametrize("batch_size", [1, 3])
def test_a_record_starts_with_no_gradient_of_an_earlier_record_alive(monkeypatch, batch_size):
    # one gradient dict at a time: when a record's forward starts, every
    # gradient dict an earlier record returned is dead, and the accumulator
    # exists only from a batch's second record on
    recs = synth_generate(SynthConfig(num_subjects=8, epochs_per_subject=12, seed=41))
    tr, va = recs[:6], recs[6:]
    returned, accumulators, alive = [], [], []
    record_gradients, record_loss_fn = training._record_gradients, training.record_loss

    def tracked_gradients(*args):
        value, g = record_gradients(*args)
        returned.extend(weakref.ref(a) for a in g.values() if isinstance(a, np.ndarray))
        return value, g

    def tracked_loss(*args, **kwargs):
        alive.append((sum(r() is not None for r in returned),
                      sum(r() is not None for r in accumulators)))
        return record_loss_fn(*args, **kwargs)

    class TrackedNumpy:  # numpy, with every np.zeros of the training loop watched
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, *args, **kwargs):
            arr = np.zeros(*args, **kwargs)
            accumulators.append(weakref.ref(arr))
            return arr

    monkeypatch.setattr(training, "_record_gradients", tracked_gradients)
    monkeypatch.setattr(training, "record_loss", tracked_loss)
    monkeypatch.setattr(training, "np", TrackedNumpy())
    train(tr, va, quick_config(batch_size=batch_size, max_epochs=2, patience=2))
    assert len(alive) == 2 * len(tr)
    n_params = len(accumulators) // (len(alive) // batch_size)
    expected = [(0, 0 if k % batch_size == 0 else n_params) for k in range(len(alive))]
    assert alive == expected


def test_empty_split_rejected(corpus):
    tr, _, _ = corpus
    with pytest.raises(ParameterError):
        train(tr, [], quick_config())


def test_batch_steps_average_gradients_in_batch_order(monkeypatch):
    # 24 training records: batch sizes 5 and 7 leave a short final batch
    recs = synth_generate(SynthConfig(num_subjects=28, epochs_per_subject=24, seed=37))
    tr, va = recs[:24], recs[24:]
    step = training.Adam.step
    for batch_size in (3, 4, 5, 7):
        config = quick_config(batch_size=batch_size, max_epochs=1, patience=1)
        runs = []
        for _ in range(2):
            calls = []

            def capture(self, params, grads, _calls=calls):
                _calls.append((params.clone(), {n: g.copy() for n, g in grads.items()}))
                return step(self, params, grads)

            monkeypatch.setattr(training.Adam, "step", capture)
            checkpoint, _ = train(tr, va, config)
            runs.append(calls)
        calls = runs[0]
        assert len(calls) == -(-len(tr) // batch_size), batch_size
        order = SplitRng(config.seed).child("shuffle", 1).generator().permutation(len(tr))
        for k in (0, len(calls) - 1):
            params, grads = calls[k]
            batch = [int(i) for i in order[k * batch_size : (k + 1) * batch_size]]
            expected = {n: np.zeros(t.shape) for n, t in params.items()}
            for i in batch:
                _, g = training._record_gradients(checkpoint.model_config, params, tr[i], None,
                                                  SplitRng(config.seed), 1, i)
                for n in expected:
                    expected[n] += g[n]
            for n in expected:
                expected[n] *= 1.0 / len(batch)
            training._clip_global_norm(expected, training.CLIP_NORM)
            for n in expected:
                assert grads[n].tobytes() == expected[n].tobytes(), (batch_size, k, n)
        for (p1, g1), (p2, g2) in zip(*runs, strict=True):
            for n in g1:
                assert g1[n].tobytes() == g2[n].tobytes(), (batch_size, n)
                assert p1[n].data.tobytes() == p2[n].data.tobytes(), (batch_size, n)


def test_cost_sensitive_requires_all_classes(corpus):
    _, va, _ = corpus
    rec = Record("onestage", np.zeros(10 * 16), np.zeros(10, dtype=int),
                 sample_rate_hz=4, epoch_seconds=4)
    from ncrf.errors import DegenerateDistributionError

    with pytest.raises(DegenerateDistributionError):
        train([rec], va, quick_config(cost_sensitive=True, max_epochs=1))


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_is_byte_identical(corpus, tmp_path):
    tr, va, _ = corpus
    ckpt, _ = train(tr, va, quick_config(max_epochs=1, patience=1))
    p1 = tmp_path / "one.ncrf"
    p2 = tmp_path / "two.ncrf"
    save_checkpoint(p1, ckpt)
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.seed == ckpt.seed
    assert loaded.epoch == ckpt.epoch
    assert loaded.val_kappa == ckpt.val_kappa
    assert loaded.model_config == ckpt.model_config
    for name in ckpt.params:
        np.testing.assert_array_equal(loaded.params[name].data, ckpt.params[name].data)


def test_truncated_checkpoint_rejected(corpus, tmp_path):
    tr, va, _ = corpus
    ckpt, _ = train(tr, va, quick_config(max_epochs=1, patience=1))
    path = tmp_path / "c.ncrf"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    for cut in (2, 9, len(blob) // 2, len(blob) - 3):
        (tmp_path / "cut.ncrf").write_bytes(blob[:cut])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(tmp_path / "cut.ncrf")


def test_bad_magic_and_version_rejected(corpus, tmp_path):
    tr, va, _ = corpus
    ckpt, _ = train(tr, va, quick_config(max_epochs=1, patience=1))
    path = tmp_path / "c.ncrf"
    save_checkpoint(path, ckpt)
    blob = bytearray(path.read_bytes())
    bad = tmp_path / "bad.ncrf"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad)
    blob[4] = 99
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(bad)


def test_trailing_garbage_rejected(corpus, tmp_path):
    tr, va, _ = corpus
    ckpt, _ = train(tr, va, quick_config(max_epochs=1, patience=1))
    path = tmp_path / "c.ncrf"
    save_checkpoint(path, ckpt)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    config = desk_config("crf", hidden_dim=4, channels=4)
    path = tmp_path_factory.mktemp("tiny") / "tiny.ncrf"
    save_checkpoint(path, Checkpoint(config, init_params(config, 0), seed=0, epoch=0,
                                     val_kappa=0.5))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_whole_or_raises_format_error(tiny_checkpoint, data):
    # random truncations, single bit flips and extensions
    blob = bytearray(tiny_checkpoint.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if kind == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip":
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    else:
        blob += data.draw(st.binary(min_size=1, max_size=16))
    path = tiny_checkpoint.with_name("mutated.ncrf")
    path.write_bytes(bytes(blob))
    try:
        checkpoint = load_checkpoint(path)
    except CheckpointFormatError:
        return
    assert set(checkpoint.params) == set(init_params(checkpoint.model_config, 0))


@pytest.mark.parametrize("old,new", [
    (b"hidden_dim=4", b"hidden_dim=x"),
    (b"hidden_dim=4", b"hidden_dim=0"),
    (b"val_kappa=0.5", b"val_kappa=x.5"),
    (b"cnn_layers=6:2:4:1:0.1", b"cnn_layers=6:2:4:1:1.1"),
    (b"cnn_layers=6:2:4:1", b"cnn_layers=6:2:4;1"),
    (b"model_kind=crf", b"model_kind=\xffrf"),
    (b"crf.T1", b"crf.\xff1"),
])
def test_malformed_checkpoint_fields_raise_format_error(tiny_checkpoint, tmp_path, old, new):
    # same-length edits, so every length prefix stays valid
    blob = tiny_checkpoint.read_bytes()
    assert blob.count(old) == 1 and len(new) == len(old)
    bad = tmp_path / "bad.ncrf"
    bad.write_bytes(blob.replace(old, new))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(bad)


def test_implausible_array_rank_is_rejected(tiny_checkpoint, tmp_path):
    # magic, version and array count, then the first array's name and rank
    blob = bytearray(tiny_checkpoint.read_bytes())
    name_len, = struct.unpack_from("<I", blob, 12)
    struct.pack_into("<I", blob, 16 + name_len, 9)
    bad = tmp_path / "rank9.ncrf"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="implausible rank 9"):
        load_checkpoint(bad)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_param_shapes_match_init_params(kind):
    with_projection = CnnConfig((ConvLayerSpec(3, 2, 4), ConvLayerSpec(3, 2, 5)), ((0, 1),))
    without = CnnConfig((ConvLayerSpec(3, 1, 4), ConvLayerSpec(3, 1, 4), ConvLayerSpec(3, 4, 4)),
                        ((0, 1),))
    configs = [
        desk_config(kind),
        paper_config(kind),
        ModelConfig(kind, with_projection, hidden_dim=6, sample_rate_hz=2, epoch_seconds=2),
        ModelConfig(kind, without, hidden_dim=6, sample_rate_hz=2, epoch_seconds=2),
    ]
    for config in configs:
        drawn = {name: t.shape for name, t in init_params(config, 0).items()}
        assert param_shapes(config) == drawn
        assert list(param_shapes(config)) == list(drawn)  # same order, so the same first error
    assert "cnn.res0.proj" in param_shapes(configs[2])
    assert "cnn.res0.proj" not in param_shapes(configs[3])


def test_oversized_metadata_is_rejected_without_allocating(tiny_checkpoint, tmp_path):
    # the metadata block is last: swap it for one that claims a 2000-wide GRU
    blob = tiny_checkpoint.read_bytes()
    start = blob.index(b"format_version=")
    meta = blob[start:].replace(b"hidden_dim=4\n", b"hidden_dim=2000\n")
    bad = tmp_path / "wide.ncrf"
    bad.write_bytes(blob[: start - 4] + struct.pack("<I", len(meta)) + meta)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError,
                           match=r"gru.W_z: stored shape \(4, 4\), expected \(2000, 4\)"):
            load_checkpoint(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
