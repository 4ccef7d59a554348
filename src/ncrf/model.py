"""Full-network assembly: CNN -> GRU -> chain CRF over one record.

A ModelConfig pins everything needed to rebuild the network from a
checkpoint: the convolution stack, recurrent width, output kind, and
the record geometry it expects. Model kinds, listed by CRF order:

  softmax  per-epoch independent classification: the chain with no edges
  crf      first-order chain CRF output layer
  crf2     chain CRF with additional second-order edges

Every kind trains on the same losses and decodes with the same Viterbi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import crf as crf_ops
from .autodiff import ModelParams, Tape, Tensor
from .cnn import CnnConfig, cnn_forward, cnn_init, desk_cnn_config, paper_cnn_config
from .data import NUM_STAGES, Record
from .errors import ConfigurationError, ParameterError
from .gru import gru_forward, gru_init
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
    def crf_order(self) -> int:
        """0 for softmax, 1 for crf, 2 for crf2."""
        return MODEL_KINDS.index(self.model_kind)


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
    # softmax draws from "init.head", so seeded softmax models keep their initial weights
    stream = "init.crf" if config.crf_order else "init.head"
    params.update(
        crf_ops.crf_init(
            config.hidden_dim,
            num_labels=config.num_labels,
            order=config.crf_order,
            rng=root.child(stream).generator(),
        )
    )
    return params


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every array ``init_params`` makes, in its order, without allocating."""
    cnn, h, k = config.cnn, config.hidden_dim, config.num_labels
    shapes: dict[str, tuple[int, ...]] = {}
    c_in = cnn.input_channels
    for i, layer in enumerate(cnn.layers):
        shapes[f"cnn.layer{i}.kernels"] = (layer.out_channels, c_in, layer.kernel_width)
        shapes[f"cnn.layer{i}.bias"] = (layer.out_channels,)
        c_in = layer.out_channels
    for j, (src, tgt) in enumerate(cnn.residual_pairs):
        if cnn.needs_projection(src, tgt):
            shapes[f"cnn.res{j}.proj"] = (cnn.channels_of(src), cnn.channels_of(tgt))
    for gate in ("z", "r", "h"):
        shapes |= {f"gru.W_{gate}": (h, c_in), f"gru.U_{gate}": (h, h), f"gru.b_{gate}": (h,)}
    if config.crf_order == 0:
        return shapes | {"head.W_o": (k, h), "head.b": (k,)}
    shapes |= {"crf.w_n": (k, h), "crf.b_n": (k,), "crf.T1": (k, k), "crf.b_e": ()}
    if config.crf_order == 2:
        shapes["crf.T2"] = (k, k)
    return shapes


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
    potentials = crf_ops.potentials_from_hidden(hidden, params, tape)
    if class_weights is not None:
        return crf_ops.cost_sensitive_loss(potentials, record.labels, class_weights, tape)
    return crf_ops.crf_nll(potentials, record.labels, tape)


def decode_record(config: ModelConfig, params: ModelParams, record: Record) -> np.ndarray:
    """Predicted stage per epoch: the Viterbi path, which for the softmax
    kind is the per-epoch argmax. Non-finite scores raise NumericError."""
    check_record(config, record)
    hidden = hidden_states(config, params, _signal_tensor(record))
    path, _ = crf_ops.viterbi(crf_ops.potentials_from_hidden(hidden, params))
    return np.asarray(path, dtype=np.intp)


def expected_moves(config: ModelConfig, params: ModelParams, records: list[Record]) -> np.ndarray:
    """[K, K] sum over records of d log Z / d T1: the model's expected
    number of i -> j moves given each record's signal."""
    t1 = params["crf.T1"]
    counts = np.zeros(t1.shape)
    for rec in records:
        check_record(config, rec)
        hidden = hidden_states(config, params, _signal_tensor(rec))
        tape = Tape()
        tape.backward(crf_ops.log_partition(crf_ops.potentials_from_hidden(hidden, params), tape))
        counts += tape.grad(t1)
    return counts


def evaluate(config: ModelConfig, params: ModelParams, records: list[Record]) -> EvalReport:
    if not records:
        raise ParameterError("evaluation needs at least one record")
    triples = [(r.subject_id, r.labels, decode_record(config, params, r)) for r in records]
    return eval_report(triples)
