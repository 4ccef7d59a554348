"""The package names that the benchmark under ``bench/`` wraps and calls.

``bench/spans.py`` replaces six module-level functions with timing
wrappers, so ``training.train`` and ``model.decode_record`` must reach
them through module globals. ``bench/workloads.py`` calls package
functions with fixed argument forms. A rename or a changed signature
would otherwise show up only as a failed benchmark run.
"""

import collections
import functools

import numpy as np
import pytest

from ncrf import crf, data, model, training
from ncrf.autodiff import Tape, Tensor
from ncrf.cnn import cnn_forward, desk_cnn_config
from ncrf.gru import gru_forward

HOOKS = (
    (training, "evaluate"),
    (training, "_clip_global_norm"),
    (training.Adam, "step"),
    (training, "l1_prox"),
    (model, "cnn_forward"),
    (model, "gru_forward"),
)


@pytest.fixture(scope="module")
def records():
    return data.synth_generate(data.SynthConfig(num_subjects=3, epochs_per_subject=16, seed=5))


def test_training_and_decoding_call_every_wrapped_function(records, monkeypatch, tmp_path):
    calls = collections.Counter()
    for owner, attr in HOOKS:
        original = getattr(owner, attr)

        def wrapper(*args, _original=original, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, functools.wraps(original)(wrapper))
    config = training.TrainConfig(
        model_kind="crf", cost_sensitive=False, l1_lambda=0.5, learning_rate=1e-3,
        max_epochs=1, patience=1, seed=0, hidden_dim=4, cnn=desk_cnn_config(channels=4),
    )
    checkpoint, history = training.train(records[:2], records[2:], config)
    assert len(history) == 1
    path = tmp_path / "crf.ncrf"
    training.save_checkpoint(path, checkpoint)
    loaded = training.load_checkpoint(path)
    model.decode_record(loaded.model_config, loaded.params, records[0])
    assert {attr for _, attr in HOOKS} == {attr for attr, n in calls.items() if n > 0}


@pytest.mark.parametrize("kind", ["crf", "crf2"])
def test_workload_call_forms(kind, records):
    rec = records[0]
    cfg = model.ModelConfig(kind, desk_cnn_config(channels=4), 4,
                            rec.sample_rate_hz, rec.epoch_seconds)
    params = model.init_params(cfg, 0)
    weights = data.class_prior([r.labels for r in records])
    for w in (weights, None):
        tape = Tape()
        signal = Tensor(rec.signal.reshape(1, -1))
        feats = cnn_forward(signal, cfg.cnn, params, training=True,
                            rng=np.random.default_rng([0, 0]), tape=tape)
        hidden = gru_forward(feats, params, candidate_tanh=cfg.candidate_tanh, tape=tape)
        pots = crf.potentials_from_hidden(hidden, params, tape)
        if w is not None:
            loss = crf.cost_sensitive_loss(pots, rec.labels, w, tape)
        else:
            loss = crf.crf_nll(pots, rec.labels, tape)
        tape.backward(loss)
        reference = model.record_loss(cfg, params, rec, w, training=True,
                                      rng=np.random.default_rng([0, 0]))
        assert loss.item() == reference.item()
    untaped = crf.potentials_from_hidden(
        gru_forward(Tensor(feats.data), params, candidate_tanh=cfg.candidate_tanh), params)
    path, _ = crf.viterbi(untaped)
    assert len(path) == rec.num_epochs
    t2 = params.get("crf.T2")
    pots = crf.CrfPotentials(Tensor(untaped.scores.data[:3]), Tensor(params["crf.T1"].data),
                             Tensor(params["crf.b_e"].data),
                             Tensor(t2.data) if t2 is not None else None)
    assert np.isfinite(crf.log_partition(pots).item())
    assert crf.marginals(pots).data.shape == (3, 4)
