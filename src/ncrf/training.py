"""End-to-end training with Adam, early stopping on validation kappa,
an L1 proximal step on the CRF block, and checkpoint persistence.

Runs are bitwise deterministic for a fixed (data, config, seed): record
order, dropout masks, and initialization all derive from one splittable
seed. Training is single-threaded: each optimizer step sums its records'
gradients into zeros in batch order, then scales by 1/batch size.

Checkpoint container: magic ``NCRF``, little-endian u32 version, u32
array count, then per array (u32 name length, utf-8 name, u32 rank,
u64 dims, float64 payload), then a u32-length key=value metadata block.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ModelParams, Tape, Tensor
from .cnn import CnnConfig, ConvLayerSpec, desk_cnn_config
from .crf import l1_prox
from .data import Record, class_prior
from .errors import (
    CheckpointFormatError,
    KindMismatchError,
    NcrfError,
    NumericError,
    ParameterError,
)
from .model import ModelConfig, evaluate, init_params, param_shapes, record_loss
from .rng import SplitRng

CHECKPOINT_MAGIC = b"NCRF"
CHECKPOINT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
CLIP_NORM = 5.0  # bound on the global gradient norm of each optimizer step


@dataclass
class TrainConfig:
    model_kind: str = "crf"
    cost_sensitive: bool = False
    l1_lambda: float = 0.005
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 10
    batch_size: int = 1
    seed: int = 0
    hidden_dim: int = 64
    cnn: CnnConfig | None = None  # None picks the desk stack
    candidate_tanh: bool = False

    def __post_init__(self):
        # NaN fails every comparison, so the checks are written to pass only finite values
        if not 0 <= self.l1_lambda < math.inf:
            raise ParameterError(f"l1_lambda must be finite and >= 0, got {self.l1_lambda!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ParameterError(f"learning_rate must be finite and positive, "
                                 f"got {self.learning_rate!r}")
        if self.patience < 1 or self.max_epochs < 1 or self.batch_size < 1:
            raise ParameterError("patience, max_epochs, and batch_size must be >= 1")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_kappa: float


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: ModelParams
    seed: int
    epoch: int
    val_kappa: float
    extras: dict[str, str] = field(default_factory=dict)

    def require_kind(self, expected: str) -> None:
        if self.model_config.model_kind != expected:
            raise KindMismatchError(
                f"checkpoint was trained as {self.model_config.model_kind!r}, "
                f"not {expected!r}"
            )


class Adam:
    """Per-array Adam with bias correction."""

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for name in params:
            g = grads[name]
            if name not in self._m:
                self._m[name], self._v[name] = np.zeros_like(g), np.zeros_like(g)
            m, v = self._m[name], self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            params[name].data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


def _clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale ``grads`` in place to a global norm of at most ``max_norm``;
    returns the norm before clipping, which may be NaN or inf."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def _record_gradients(
    model_config: ModelConfig,
    params: ModelParams,
    record: Record,
    weights,
    rng_node: SplitRng,
    epoch: int,
    rec_idx: int,
) -> tuple[float, dict[str, np.ndarray]]:
    tape = Tape()
    rng = rng_node.child("dropout", epoch, rec_idx).generator()
    where = f"epoch {epoch}, record {record.subject_id!r}"
    try:
        loss = record_loss(model_config, params, record, weights, training=True, rng=rng, tape=tape)
    except NumericError as e:  # non-finite CRF potentials
        raise NumericError(f"{e} at {where}") from e
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"non-finite training loss at {where}")
    tape.backward(loss)
    return value, {name: tape.grad(t) for name, t in params.items()}


def train(
    train_records: list[Record],
    validation_records: list[Record],
    config: TrainConfig,
) -> tuple[Checkpoint, list[EpochStats]]:
    """Optimize the full network; returns the best-kappa checkpoint and
    the per-epoch (train loss, validation kappa) history.

    One gradient dict is alive at a time: a batch's accumulator is
    allocated once its first record's gradients are back, each record's
    gradients are dropped once added, and the accumulator once the step
    is taken, so no record's forward and backward runs beside the
    previous record's gradients. A non-finite gradient norm raises
    ``NumericError`` naming the epoch and the batch before Adam runs."""
    if not train_records or not validation_records:
        raise ParameterError("training and validation splits must be non-empty")
    rates = {(r.sample_rate_hz, r.epoch_seconds) for r in train_records + validation_records}
    if len(rates) != 1:
        raise ParameterError(f"records disagree on rate/epoch geometry: {sorted(rates)}")
    (rate, epoch_seconds), = rates

    model_config = ModelConfig(
        model_kind=config.model_kind,
        cnn=config.cnn if config.cnn is not None else desk_cnn_config(),
        hidden_dim=config.hidden_dim,
        sample_rate_hz=rate,
        epoch_seconds=epoch_seconds,
        candidate_tanh=config.candidate_tanh,
    )
    root = SplitRng(config.seed)
    params = init_params(model_config, root)
    weights = class_prior([r.labels for r in train_records]) if config.cost_sensitive else None

    adam = Adam(config.learning_rate)
    prox_threshold = config.l1_lambda * config.learning_rate

    history: list[EpochStats] = []
    best_params = params.clone()
    best_kappa = float("-inf")
    best_epoch = 0
    stall = 0
    for epoch in range(1, config.max_epochs + 1):
        order = root.child("shuffle", epoch).generator().permutation(len(train_records))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [int(i) for i in order[start : start + config.batch_size]]
            grads = None
            for i in batch:
                value, g = _record_gradients(
                    model_config, params, train_records[i], weights, root, epoch, i
                )
                losses.append(value)
                if grads is None:  # zeros + g: the sum's bits, -0.0 included
                    grads = {name: np.zeros(t.shape) for name, t in params.items()}
                for name in grads:
                    grads[name] += g[name]
                del g
            inv = 1.0 / len(batch)
            for name in grads:
                grads[name] *= inv
            norm = _clip_global_norm(grads, CLIP_NORM)
            if not np.isfinite(norm):
                ids = [train_records[i].subject_id for i in batch]
                raise NumericError(f"non-finite gradient norm {norm} at epoch {epoch}, "
                                   f"records {ids}")
            adam.step(params, grads)
            if prox_threshold > 0:
                l1_prox(params, prox_threshold)
            del grads
        val_kappa = evaluate(model_config, params, validation_records).kappa
        history.append(EpochStats(epoch, float(np.mean(losses)), val_kappa))
        if val_kappa > best_kappa:
            best_kappa = val_kappa
            best_params = params.clone()
            best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break

    extras = {
        "cost_sensitive": "1" if config.cost_sensitive else "0",
        "l1_lambda": repr(config.l1_lambda),
        "learning_rate": repr(config.learning_rate),
    }
    checkpoint = Checkpoint(model_config, best_params, config.seed, best_epoch, best_kappa, extras)
    return checkpoint, history


def write_history(history: list[EpochStats], path: str | Path) -> None:
    lines = ["epoch,train_loss,val_kappa"]
    lines += [f"{h.epoch},{float(h.train_loss)!r},{float(h.val_kappa)!r}" for h in history]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def _cnn_to_text(cnn: CnnConfig) -> dict[str, str]:
    layers = ";".join(
        f"{l.kernel_width}:{l.stride}:{l.out_channels}:{l.pool_window}:{l.dropout_rate!r}"
        for l in cnn.layers
    )
    residuals = ";".join(f"{s}-{t}" for s, t in cnn.residual_pairs)
    return {
        "cnn_layers": layers,
        "cnn_residuals": residuals,
        "cnn_input_channels": str(cnn.input_channels),
    }


def _cnn_from_text(meta: dict[str, str]) -> CnnConfig:
    layers = []
    for part in meta["cnn_layers"].split(";"):
        w, s, c, p, d = part.split(":")
        layers.append(ConvLayerSpec(int(w), int(s), int(c), int(p), float(d)))
    residuals = tuple(
        (int(a), int(b))
        for a, b in (pair.split("-") for pair in meta["cnn_residuals"].split(";") if pair)
    )
    return CnnConfig(tuple(layers), residuals, int(meta["cnn_input_channels"]))


_META_ORDER = (
    "format_version",
    "model_kind",
    "hidden_dim",
    "sample_rate_hz",
    "epoch_seconds",
    "candidate_tanh",
    "num_labels",
    "cnn_layers",
    "cnn_residuals",
    "cnn_input_channels",
    "seed",
    "epoch",
    "val_kappa",
)


def save_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    cfg = checkpoint.model_config
    meta = {
        "format_version": str(CHECKPOINT_VERSION),
        "model_kind": cfg.model_kind,
        "hidden_dim": str(cfg.hidden_dim),
        "sample_rate_hz": str(cfg.sample_rate_hz),
        "epoch_seconds": str(cfg.epoch_seconds),
        "candidate_tanh": "1" if cfg.candidate_tanh else "0",
        "num_labels": str(cfg.num_labels),
        **_cnn_to_text(cfg.cnn),
        "seed": str(checkpoint.seed),
        "epoch": str(checkpoint.epoch),
        "val_kappa": repr(float(checkpoint.val_kappa)),
    }
    meta_lines = [f"{k}={meta[k]}" for k in _META_ORDER]
    meta_lines += [f"x.{k}={v}" for k, v in sorted(checkpoint.extras.items())]
    meta_bytes = ("\n".join(meta_lines) + "\n").encode("utf-8")

    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<II", CHECKPOINT_VERSION, len(checkpoint.params))
    for name in sorted(checkpoint.params):
        arr = checkpoint.params[name].data
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    blob += struct.pack("<I", len(meta_bytes))
    blob += meta_bytes
    Path(path).write_bytes(bytes(blob))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointFormatError(f"truncated checkpoint while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointFormatError(f"{what} is not UTF-8") from e


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Parse and validate a checkpoint file; never returns a partial model."""
    r = _Reader(Path(path).read_bytes())
    if r.take(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("bad magic: not a checkpoint file")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported version {version}")
    n_arrays = r.u32("array count")
    params = ModelParams()
    for i in range(n_arrays):
        name_len = r.u32(f"array {i} name length")
        name = r.text(name_len, f"array {i} name")
        rank = r.u32(f"{name}: rank")
        if rank > 8:
            raise CheckpointFormatError(f"{name}: implausible rank {rank}")
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank, f"{name}: dims"))
        # a product of Python ints cannot overflow, so take() checks the
        # true byte count against the bytes left before anything is allocated
        payload = r.take(8 * math.prod(dims), f"{name}: payload")
        try:
            params[name] = Tensor(np.frombuffer(payload, dtype="<f8").reshape(dims).copy())
        except ValueError as e:  # an empty payload with an oversized dim
            raise CheckpointFormatError(f"{name}: dims {dims}: {e}") from e
    meta_len = r.u32("metadata length")
    meta_text = r.text(meta_len, "metadata")
    if r.pos != len(r.data):
        raise CheckpointFormatError("trailing bytes after metadata")

    meta = dict(line.split("=", 1) for line in meta_text.splitlines() if "=" in line)
    for key in _META_ORDER:
        if key not in meta:
            raise CheckpointFormatError(f"metadata missing {key!r}")

    try:
        model_config = ModelConfig(
            model_kind=meta["model_kind"],
            cnn=_cnn_from_text(meta),
            hidden_dim=int(meta["hidden_dim"]),
            sample_rate_hz=int(meta["sample_rate_hz"]),
            epoch_seconds=int(meta["epoch_seconds"]),
            candidate_tanh=meta["candidate_tanh"] == "1",
            num_labels=int(meta["num_labels"]),
        )
        seed, epoch, val_kappa = int(meta["seed"]), int(meta["epoch"]), float(meta["val_kappa"])
    except (ValueError, NcrfError) as e:
        raise CheckpointFormatError(f"bad metadata: {e}") from e
    # shapes come from the config alone: crafted metadata cannot make this allocate
    expected = param_shapes(model_config)
    missing = sorted(expected.keys() - params.keys())
    surplus = sorted(params.keys() - expected.keys())
    if missing or surplus:
        detail = (f"missing {missing}" if missing else "") + (
            f" unexpected {surplus}" if surplus else ""
        )
        raise CheckpointFormatError(f"array table does not match model kind: {detail.strip()}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise CheckpointFormatError(
                f"{name}: stored shape {params[name].shape}, expected {shape}"
            )
    extras = {k[2:]: v for k, v in meta.items() if k.startswith("x.")}
    return Checkpoint(
        model_config=model_config,
        params=params,
        seed=seed,
        epoch=epoch,
        val_kappa=val_kappa,
        extras=extras,
    )
