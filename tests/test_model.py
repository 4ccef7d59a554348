import numpy as np
import pytest

from ncrf.autodiff import Tape, Tensor
from ncrf.data import Record, SynthConfig, synth_generate
from ncrf.errors import ConfigurationError, NumericError
from ncrf.model import (
    ModelConfig,
    decode_record,
    desk_config,
    evaluate,
    hidden_states,
    init_params,
    record_loss,
)
from ncrf.rng import SplitRng


@pytest.fixture(scope="module")
def small_records():
    return synth_generate(SynthConfig(num_subjects=4, epochs_per_subject=12, seed=21))


def test_config_rejects_unknown_kind():
    from ncrf.cnn import desk_cnn_config

    with pytest.raises(ConfigurationError):
        ModelConfig("transformer", desk_cnn_config())


def test_config_rejects_rate_mismatch():
    from ncrf.cnn import desk_cnn_config

    with pytest.raises(ConfigurationError):
        ModelConfig("crf", desk_cnn_config(), sample_rate_hz=32, epoch_seconds=30)


def test_init_params_covers_all_blocks():
    params = init_params(desk_config("crf2", hidden_dim=8, channels=4), 0)
    names = set(params)
    assert any(n.startswith("cnn.") for n in names)
    assert any(n.startswith("gru.") for n in names)
    assert {"crf.w_n", "crf.b_n", "crf.T1", "crf.b_e", "crf.T2"} <= names
    soft = init_params(desk_config("softmax", hidden_dim=8, channels=4), 0)
    assert "head.W_o" in soft and not any(n.startswith("crf.") for n in soft)


def test_init_params_deterministic():
    a = init_params(desk_config("crf", hidden_dim=8, channels=4), 42)
    b = init_params(desk_config("crf", hidden_dim=8, channels=4), 42)
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)


def test_hidden_states_shape(small_records):
    config = desk_config("crf", hidden_dim=8, channels=4)
    params = init_params(config, 0)
    rec = small_records[0]
    h = hidden_states(config, params, Tensor(rec.signal.reshape(1, -1)))
    assert h.shape == (8, rec.num_epochs)


@pytest.mark.parametrize("kind", ["softmax", "crf", "crf2"])
def test_losses_finite_and_decodes_full_length(kind, small_records):
    config = desk_config(kind, hidden_dim=8, channels=4)
    params = init_params(config, 1)
    rec = small_records[0]
    tape = Tape()
    loss = record_loss(config, params, rec, tape=tape)
    assert np.isfinite(loss.item())
    tape.backward(loss)
    path = decode_record(config, params, rec)
    assert path.shape == (rec.num_epochs,)
    assert path.min() >= 0 and path.max() < 4


def test_forward_deterministic_given_seed(small_records):
    config = desk_config("crf", hidden_dim=8, channels=4)
    params = init_params(config, 3)
    rec = small_records[1]
    rng1 = SplitRng(9).child("d").generator()
    rng2 = SplitRng(9).child("d").generator()
    a = record_loss(config, params, rec, training=True, rng=rng1).item()
    b = record_loss(config, params, rec, training=True, rng=rng2).item()
    assert a == b


def test_record_geometry_checked(small_records):
    config = desk_config("crf", hidden_dim=8, channels=4)
    params = init_params(config, 0)
    bad = Record("x", np.zeros(960), np.zeros(1, dtype=int), sample_rate_hz=32, epoch_seconds=30)
    with pytest.raises(ConfigurationError):
        record_loss(config, params, bad)


def test_evaluate_produces_report(small_records):
    config = desk_config("softmax", hidden_dim=8, channels=4)
    params = init_params(config, 0)
    report = evaluate(config, params, small_records)
    assert report.confusion.sum() == sum(r.num_epochs for r in small_records)
    assert -1.0 <= report.kappa <= 1.0


def test_softmax_with_nan_weights_fails_to_decode(small_records):
    config = desk_config("softmax", hidden_dim=8, channels=4)
    params = init_params(config, 0)
    params["gru.U_z"].data[0, 0] = np.nan
    with pytest.raises(NumericError):
        decode_record(config, params, small_records[0])


def test_softmax_loss_finite_when_true_logit_is_far_below(small_records):
    config = desk_config("softmax", hidden_dim=8, channels=4)
    params = init_params(config, 0)
    rec = small_records[0]
    # wherever the first epoch's label is the true one, its logit sits about
    # 2,000 below the row maximum, so exp(logit - log Z) underflows to 0
    params["head.b"].data[rec.labels[0]] = -2000.0
    tape = Tape()
    loss = record_loss(config, params, rec, tape=tape)
    assert np.isfinite(loss.item()) and loss.item() > 1000.0
    tape.backward(loss)
    assert all(np.isfinite(tape.grad(t)).all() for t in params.values())
