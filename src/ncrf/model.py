"""Full-network assembly: CNN -> GRU -> (softmax | CRF) over one record.

A ModelConfig pins everything needed to rebuild the network from a
checkpoint: the convolution stack, recurrent width, output kind, and
the record geometry it expects. Model kinds:

  softmax  per-epoch independent classification
  crf      first-order chain CRF output layer
  crf2     chain CRF with additional second-order edges
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import crf as crf_ops
from .autodiff import ModelParams, Tape, Tensor
from .cnn import CnnConfig, cnn_forward, cnn_init, desk_cnn_config, paper_cnn_config
from .crf import potentials_from_hidden
from .data import NUM_STAGES, Record
from .errors import ConfigurationError, ParameterError
from .gru import gru_forward, gru_init
from .heads import argmax_decode, head_init, softmax_logits, softmax_nll, softmax_rows
from .metrics import EvalReport, eval_report
from .rng import SplitRng

MODEL_KINDS = ("softmax", "crf", "crf2")


@dataclass(frozen=True)
class ModelConfig:
    model_kind: str
    cnn: CnnConfig
    hidden_dim: int = 64
    sample_rate_hz: int = 4
    epoch_seconds: int = 4
    candidate_tanh: bool = False
    num_labels: int = NUM_STAGES

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.model_kind!r}")
        if self.hidden_dim < 1:
            raise ConfigurationError("hidden_dim must be positive")
        self.cnn.validate_rate(self.sample_rate_hz * self.epoch_seconds)

    @property
    def uses_crf(self) -> bool:
        return self.model_kind in ("crf", "crf2")

    @property
    def crf_order(self) -> int:
        return 2 if self.model_kind == "crf2" else 1


def desk_config(model_kind: str = "crf", hidden_dim: int = 64, channels: int = 32,
                dropout_rate: float = 0.1, candidate_tanh: bool = False) -> ModelConfig:
    """4 Hz / 4 s profile; the whole pipeline runs in minutes on a laptop."""
    return ModelConfig(
        model_kind=model_kind,
        cnn=desk_cnn_config(channels=channels, dropout_rate=dropout_rate),
        hidden_dim=hidden_dim,
        sample_rate_hz=4,
        epoch_seconds=4,
        candidate_tanh=candidate_tanh,
    )


def paper_config(model_kind: str = "crf", hidden_dim: int = 125, channels: int = 256,
                 dropout_rate: float = 0.1, candidate_tanh: bool = False) -> ModelConfig:
    """32 Hz / 30 s profile with the five-layer convolution stack."""
    return ModelConfig(
        model_kind=model_kind,
        cnn=paper_cnn_config(channels=channels, dropout_rate=dropout_rate),
        hidden_dim=hidden_dim,
        sample_rate_hz=32,
        epoch_seconds=30,
        candidate_tanh=candidate_tanh,
    )


def init_params(config: ModelConfig, seed_or_rng) -> ModelParams:
    """All learnable arrays for the configured network, seeded."""
    root = seed_or_rng if isinstance(seed_or_rng, SplitRng) else SplitRng(int(seed_or_rng))
    feature_dim = config.cnn.layers[-1].out_channels
    params = ModelParams()
    params.update(cnn_init(config.cnn, root.child("init.cnn").generator()))
    params.update(gru_init(feature_dim, config.hidden_dim, root.child("init.gru").generator()))
    if config.uses_crf:
        params.update(
            crf_ops.crf_init(
                config.hidden_dim,
                num_labels=config.num_labels,
                order=config.crf_order,
                rng=root.child("init.crf").generator(),
            )
        )
    else:
        params.update(
            head_init(config.hidden_dim, config.num_labels, root.child("init.head").generator())
        )
    return params


def check_record(config: ModelConfig, record: Record) -> None:
    if (record.sample_rate_hz, record.epoch_seconds) != (
        config.sample_rate_hz,
        config.epoch_seconds,
    ):
        raise ConfigurationError(
            f"record {record.subject_id!r} is {record.sample_rate_hz} Hz / "
            f"{record.epoch_seconds} s but the model expects "
            f"{config.sample_rate_hz} Hz / {config.epoch_seconds} s"
        )


def hidden_states(
    config: ModelConfig,
    params: ModelParams,
    signal: Tensor,
    training: bool = False,
    rng: np.random.Generator | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """[hidden_dim, m] contextual states for a [1, n] signal tensor."""
    features = cnn_forward(signal, config.cnn, params, training=training, rng=rng, tape=tape)
    return gru_forward(features, params, candidate_tanh=config.candidate_tanh, tape=tape)


def _signal_tensor(record: Record) -> Tensor:
    return Tensor(record.signal.reshape(1, -1))


def record_loss(
    config: ModelConfig,
    params: ModelParams,
    record: Record,
    class_weights: np.ndarray | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Training objective for one record (sum over its epochs)."""
    check_record(config, record)
    hidden = hidden_states(config, params, _signal_tensor(record), training, rng, tape)
    if config.uses_crf:
        potentials = potentials_from_hidden(hidden, params, tape)
        if class_weights is not None:
            return crf_ops.cost_sensitive_loss(potentials, record.labels, class_weights, tape)
        return crf_ops.crf_nll(potentials, record.labels, tape)
    probs = softmax_rows(softmax_logits(hidden, params, tape), tape)
    return softmax_nll(probs, record.labels, class_weights, tape)


def decode_record(config: ModelConfig, params: ModelParams, record: Record) -> np.ndarray:
    """Predicted stage per epoch: Viterbi for CRF kinds, argmax otherwise."""
    check_record(config, record)
    hidden = hidden_states(config, params, _signal_tensor(record))
    if config.uses_crf:
        path, _ = crf_ops.viterbi(potentials_from_hidden(hidden, params))
        return np.asarray(path, dtype=np.intp)
    return np.asarray(argmax_decode(softmax_logits(hidden, params)), dtype=np.intp)


def evaluate(config: ModelConfig, params: ModelParams, records: list[Record]) -> EvalReport:
    if not records:
        raise ParameterError("evaluation needs at least one record")
    triples = [(r.subject_id, r.labels, decode_record(config, params, r)) for r in records]
    return eval_report(triples)
