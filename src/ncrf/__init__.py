"""Sleep staging from raw airflow signal.

A 1-D residual CNN turns the signal into one feature vector per epoch,
a unidirectional GRU adds temporal context, and a chain CRF produces
the stage sequence; the softmax baseline is the chain with no edges.
Training is end-to-end through a small reverse-mode tape, with an
optional inverse-frequency class prior and an L1 proximal step that
sparsifies the CRF parameters. Exact inference (forward-backward, Viterbi) is
validated against brute-force enumeration oracles in the test suite.
"""

from .autodiff import ModelParams, Tape, Tensor, grad_check
from .cnn import CnnConfig, ConvLayerSpec, cnn_forward, cnn_init
from .crf import (
    CrfPotentials,
    brute_force_best,
    brute_force_log_partition,
    brute_force_marginals,
    cost_sensitive_loss,
    crf_nll,
    l1_prox,
    log_partition,
    marginals,
    node_scores,
    sequence_score,
    viterbi,
)
from .data import (
    Record,
    SleepStage,
    SynthConfig,
    class_prior,
    load_records,
    split_by_subject,
    synth_generate,
)
from .gru import gru_forward, gru_init
from .metrics import EvalReport, accuracy, eval_report, kappa, se_mae, sleep_efficiency
from .model import ModelConfig, decode_record, desk_config, evaluate, init_params, paper_config
from .saliency import export_saliency, saliency_map
from .training import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "CnnConfig",
    "Checkpoint",
    "ConvLayerSpec",
    "CrfPotentials",
    "EvalReport",
    "ModelConfig",
    "ModelParams",
    "Record",
    "SleepStage",
    "SynthConfig",
    "Tape",
    "Tensor",
    "TrainConfig",
    "accuracy",
    "brute_force_best",
    "brute_force_log_partition",
    "brute_force_marginals",
    "class_prior",
    "cnn_forward",
    "cnn_init",
    "cost_sensitive_loss",
    "crf_nll",
    "decode_record",
    "desk_config",
    "eval_report",
    "evaluate",
    "export_saliency",
    "grad_check",
    "gru_forward",
    "gru_init",
    "init_params",
    "kappa",
    "l1_prox",
    "load_checkpoint",
    "load_records",
    "log_partition",
    "marginals",
    "node_scores",
    "paper_config",
    "saliency_map",
    "save_checkpoint",
    "se_mae",
    "sequence_score",
    "sleep_efficiency",
    "split_by_subject",
    "synth_generate",
    "train",
    "viterbi",
]
