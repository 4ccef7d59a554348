"""Input-gradient saliency for one epoch of a record.

The per-sample weight is the absolute gradient of the target class's
node score (for the softmax kind, its logit) with respect to the raw
input signal, restricted to the samples owned by the chosen epoch and
normalized by the slice maximum. An all-zero gradient slice stays
all-zero.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor
from .crf import CrfPotentials, potentials_from_hidden, viterbi
from .data import Record, SleepStage, STAGE_TOKENS
from .errors import ParameterError
from .model import check_record, hidden_states
from .training import Checkpoint

STRIP_HEIGHT = 16  # rows of the graymap; each repeats the weights


def _resolve_target(target, potentials: CrfPotentials, epoch_index: int) -> int:
    if isinstance(target, str) and target != "predicted":
        tok = target.strip().upper()
        if tok not in STAGE_TOKENS:
            raise ParameterError(f"unknown target class {target!r}; use W/R/L/D or 'predicted'")
        return STAGE_TOKENS.index(tok)
    if target != "predicted":
        label = int(target)
        if not 0 <= label < potentials.num_labels:
            raise ParameterError(f"target class {label} out of range")
        return label
    path, _ = viterbi(potentials)
    return path[epoch_index]


def saliency_map(
    checkpoint: Checkpoint,
    record: Record,
    epoch_index: int,
    target: str | int | SleepStage = "predicted",
) -> np.ndarray:
    """Per-sample weights in [0, 1] for the chosen epoch (dropout off)."""
    config = checkpoint.model_config
    check_record(config, record)
    if not 0 <= epoch_index < record.num_epochs:
        raise ParameterError(
            f"epoch {epoch_index} out of range for {record.num_epochs}-epoch record"
        )
    tape = Tape()
    signal = Tensor(record.signal.reshape(1, -1))
    hidden = hidden_states(config, checkpoint.params, signal, training=False, tape=tape)
    potentials = potentials_from_hidden(hidden, checkpoint.params, tape)
    label = _resolve_target(target, potentials, epoch_index)
    scores = potentials.scores
    score = Tensor(scores.data[epoch_index, label])

    def pick(g):
        g_scores = np.zeros(scores.shape)
        g_scores[epoch_index, label] = g
        return (g_scores,)

    tape.record(score, (scores,), pick)
    tape.backward(score)
    grad = tape.grad(signal)[0]
    spe = record.samples_per_epoch
    weights = np.abs(grad[epoch_index * spe : (epoch_index + 1) * spe])
    peak = weights.max()
    if peak > 0:
        weights = weights / peak
    return weights


def export_saliency(
    weights: np.ndarray,
    signal_slice: np.ndarray,
    path_prefix: str | Path,
) -> tuple[Path, Path]:
    """Write ``<prefix>.csv`` (signal,weight rows) and ``<prefix>.pgm``.

    The graymap inverts the weights so a weight of 1 is black: darker
    pixels mean more influence on the score.
    """
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    signal_slice = np.asarray(signal_slice, dtype=np.float64).reshape(-1)
    if weights.size != signal_slice.size:
        raise ParameterError(
            f"{weights.size} weights do not match {signal_slice.size} signal samples"
        )
    prefix = Path(path_prefix)
    csv_path = prefix.with_suffix(prefix.suffix + ".csv")
    pgm_path = prefix.with_suffix(prefix.suffix + ".pgm")

    with open(csv_path, "w") as f:
        for v, w in zip(signal_slice, weights):
            f.write(f"{float(v)!r},{float(w)!r}\n")

    pixels = np.clip(np.rint(255.0 * (1.0 - weights)), 0, 255).astype(np.uint8)
    strip = np.tile(pixels, (STRIP_HEIGHT, 1))
    with open(pgm_path, "wb") as f:
        f.write(f"P5\n{weights.size} {STRIP_HEIGHT}\n255\n".encode("ascii"))
        f.write(strip.tobytes())
    return csv_path, pgm_path
