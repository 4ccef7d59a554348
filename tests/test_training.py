import numpy as np
import pytest

from ncrf.autodiff import Tape
from ncrf.data import Record, SynthConfig, synth_generate, split_by_subject
from ncrf.errors import (
    CheckpointFormatError,
    KindMismatchError,
    NumericError,
    ParameterError,
)
from ncrf.model import evaluate, record_loss
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


def test_nonfinite_loss_aborts_with_context(corpus):
    _, va, _ = corpus
    bad_signal = np.zeros(24 * 16)
    bad_signal[0] = np.nan
    bad = Record("broken", bad_signal, np.zeros(24, dtype=int),
                 sample_rate_hz=4, epoch_seconds=4)
    with pytest.raises(NumericError, match="broken"):
        train([bad], va, quick_config(max_epochs=1, patience=1))


def test_empty_split_rejected(corpus):
    tr, _, _ = corpus
    with pytest.raises(ParameterError):
        train(tr, [], quick_config())


def test_thread_count_does_not_change_results(monkeypatch):
    # 24 training records: batch sizes 5 and 7 leave a short final batch
    recs = synth_generate(SynthConfig(num_subjects=28, epochs_per_subject=24, seed=37))
    tr, va = recs[:24], recs[24:]
    for workers, batch_size in ((2, 3), (3, 5), (2, 4), (2, 7)):
        results = []
        for count in (1, workers):
            monkeypatch.setenv("NCRF_THREADS", str(count))
            results.append(train(tr, va, quick_config(batch_size=batch_size, max_epochs=2,
                                                      patience=2)))
        (one, one_hist), (many, many_hist) = results
        assert one_hist == many_hist, (workers, batch_size)
        for name in one.params:
            assert one.params[name].data.tobytes() == many.params[name].data.tobytes(), \
                (workers, batch_size, name)


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


def test_kind_mismatch_guard(corpus):
    tr, va, _ = corpus
    ckpt, _ = train(tr, va, quick_config(max_epochs=1, patience=1))
    with pytest.raises(KindMismatchError):
        ckpt.require_kind("softmax")
    ckpt.require_kind("crf")  # no raise


def test_trailing_garbage_rejected(corpus, tmp_path):
    tr, va, _ = corpus
    ckpt, _ = train(tr, va, quick_config(max_epochs=1, patience=1))
    path = tmp_path / "c.ncrf"
    save_checkpoint(path, ckpt)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)
