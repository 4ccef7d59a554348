import numpy as np
import pytest

from ncrf.autodiff import Tape, Tensor
from ncrf.cnn import input_span
from ncrf.crf import node_scores
from ncrf.data import SynthConfig, synth_generate
from ncrf.errors import ParameterError
from ncrf.model import desk_config, hidden_states, init_params
from ncrf.saliency import export_saliency, saliency_map
from ncrf.training import Checkpoint
from primitives import gather_pairs, reduce_sum


@pytest.fixture(scope="module")
def record():
    return synth_generate(SynthConfig(num_subjects=1, epochs_per_subject=10, seed=77))[0]


def make_checkpoint(kind="crf", seed=0, dropout_rate=0.1):
    config = desk_config(kind, hidden_dim=8, channels=4, dropout_rate=dropout_rate)
    return Checkpoint(
        model_config=config,
        params=init_params(config, seed),
        seed=seed,
        epoch=0,
        val_kappa=0.0,
    )


def test_dead_network_gives_all_zero_map(record):
    ckpt = make_checkpoint()
    for name, t in ckpt.params.items():
        if name.startswith("cnn.") and "kernels" in name:
            t.data[:] = 0.0
    weights = saliency_map(ckpt, record, 3, target=0)
    np.testing.assert_array_equal(weights, np.zeros(record.samples_per_epoch))


@pytest.mark.parametrize("kind", ["softmax", "crf"])
def test_map_normalized_to_unit_peak(kind, record):
    ckpt = make_checkpoint(kind)
    weights = saliency_map(ckpt, record, 4)
    assert weights.shape == (record.samples_per_epoch,)
    assert weights.min() >= 0.0
    assert weights.max() == pytest.approx(1.0)


def test_target_class_tokens_accepted(record):
    ckpt = make_checkpoint()
    for target in ("W", "R", "L", "D", 2):
        w = saliency_map(ckpt, record, 2, target=target)
        assert w.shape == (record.samples_per_epoch,)
    with pytest.raises(ParameterError):
        saliency_map(ckpt, record, 2, target="N1")


def test_epoch_out_of_range(record):
    ckpt = make_checkpoint()
    with pytest.raises(ParameterError):
        saliency_map(ckpt, record, record.num_epochs)


def test_zero_gradient_strictly_after_receptive_field(record):
    ckpt = make_checkpoint(dropout_rate=0.0)
    config = ckpt.model_config
    t = 4
    # gradient of epoch t's score w.r.t. the whole signal, the score picked
    # by the composed gather and sum
    tape = Tape()
    signal = Tensor(record.signal.reshape(1, -1))
    hidden = hidden_states(config, ckpt.params, signal, tape=tape)
    scores = node_scores(hidden, ckpt.params, tape)
    tape.backward(reduce_sum(gather_pairs(scores, [t], [1], tape), tape=tape))
    grad = tape.grad(signal)[0]
    # h_t sees features 0..t, whose receptive field ends at the span of feature t
    _, hi = input_span(config.cnn, record.num_samples, t)
    assert np.abs(grad[hi + 1 :]).max() == 0.0
    assert np.abs(grad[: hi + 1]).max() > 0.0
    # saliency_map's one-node pick gives the same weights, bit for bit
    spe = record.samples_per_epoch
    weights = np.abs(grad[t * spe : (t + 1) * spe])
    assert weights.max() > 0.0
    weights = weights / weights.max()
    assert saliency_map(ckpt, record, t, target=1).tobytes() == weights.tobytes()


def test_perturbation_outside_receptive_field_leaves_map_unchanged(record):
    ckpt = make_checkpoint(dropout_rate=0.0)
    t = 3
    base = saliency_map(ckpt, record, t, target=2)
    _, hi = input_span(ckpt.model_config.cnn, record.num_samples, t)
    assert hi + 1 < record.num_samples
    poked = record.signal.copy()
    poked[hi + 1] += 25.0
    from ncrf.data import Record

    twin = Record(record.subject_id, poked, record.labels,
                  record.sample_rate_hz, record.epoch_seconds)
    np.testing.assert_array_equal(saliency_map(ckpt, twin, t, target=2), base)


def test_map_invariant_under_input_scaling(record):
    # c = 1 exactly, then a tiny perturbation that keeps every ReLU on
    # the same side
    ckpt = make_checkpoint(dropout_rate=0.0)
    base = saliency_map(ckpt, record, 5, target=1)
    from ncrf.data import Record

    same = Record(record.subject_id, record.signal * 1.0, record.labels,
                  record.sample_rate_hz, record.epoch_seconds)
    np.testing.assert_array_equal(saliency_map(ckpt, same, 5, target=1), base)
    for c in (1 + 1e-6, 1 - 1e-6):
        scaled = Record(record.subject_id, record.signal * c, record.labels,
                        record.sample_rate_hz, record.epoch_seconds)
        got = saliency_map(ckpt, scaled, 5, target=1)
        np.testing.assert_allclose(got, base, atol=1e-4)


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------


def test_export_formats(tmp_path):
    weights = np.linspace(0, 1, 960)
    signal = np.sin(np.linspace(0, 20, 960))
    csv_path, pgm_path = export_saliency(weights, signal, tmp_path / "epoch3")

    rows = csv_path.read_text().splitlines()
    assert len(rows) == 960
    first_sig, first_w = rows[0].split(",")
    assert float(first_sig) == pytest.approx(signal[0])
    assert float(first_w) == 0.0

    blob = pgm_path.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"960 16"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == 960 * 16
    assert pixels[0] == 255  # weight 0 -> light
    assert pixels[959] == 0  # weight 1 -> dark


def test_export_length_mismatch(tmp_path):
    with pytest.raises(ParameterError):
        export_saliency(np.zeros(4), np.zeros(5), tmp_path / "x")
