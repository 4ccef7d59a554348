"""Residual 1-D convolutional feature extractor.

Each layer is conv -> ReLU -> dropout -> optional max-pool. Residual
connections add a saved earlier activation to a later layer's output;
when shapes differ the source is aligned in time by strided column
selection and in channels by a learned projection applied as U^T X
(initialized to the truncated identity). The product of all strides and
pool windows must equal the samples-per-epoch, so a record of n samples
always comes out as exactly m = n / (rate * epoch_seconds) feature
vectors.

Untaped inference on a long record runs the stack on whole-epoch chunks,
each widened by a halo of whole epochs that covers the receptive field
of its own features, so memory stays bounded by _CHUNK_BYTES rather than
growing with the night. Chunked features equal the whole-record pass up
to the round-off of the matrix product's column tiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ModelParams,
    Tape,
    Tensor,
    add,
    conv1d,
    dropout,
    matmul,
    maxpool1d,
    relu,
    take_cols,
    transpose,
)
from .errors import ConfigurationError, DimensionError, ParameterError

# Widest float64 activation one untaped inference pass may hold before the
# record is split into whole-epoch chunks (about 68 epochs of the paper
# profile; a desk night never reaches it).
_CHUNK_BYTES = 64 << 20


@dataclass(frozen=True)
class ConvLayerSpec:
    kernel_width: int
    stride: int
    out_channels: int
    pool_window: int = 1
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.kernel_width < 1 or self.stride < 1 or self.out_channels < 1:
            raise ParameterError(f"invalid layer geometry: {self}")
        if self.pool_window < 1:
            raise ParameterError(f"pool window must be >= 1: {self}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1): {self}")

    @property
    def downsample(self) -> int:
        return self.stride * self.pool_window


@dataclass(frozen=True)
class CnnConfig:
    layers: tuple[ConvLayerSpec, ...]
    residual_pairs: tuple[tuple[int, int], ...] = ()
    input_channels: int = 1

    def __post_init__(self):
        if not self.layers:
            raise ConfigurationError("CNN needs at least one layer")
        for src, tgt in self.residual_pairs:
            if not (0 <= src < tgt < len(self.layers)):
                raise ConfigurationError(f"residual pair ({src}, {tgt}) out of order or range")

    @property
    def downsample_factor(self) -> int:
        factor = 1
        for layer in self.layers:
            factor *= layer.downsample
        return factor

    def channels_of(self, idx: int) -> int:
        return self.layers[idx].out_channels if idx >= 0 else self.input_channels

    def time_ratio(self, src: int, tgt: int) -> int:
        """Length of layer src's output divided by layer tgt's."""
        ratio = 1
        for layer in self.layers[src + 1 : tgt + 1]:
            ratio *= layer.downsample
        return ratio

    def needs_projection(self, src: int, tgt: int) -> bool:
        """Whether the shortcut from layer src to tgt has a learned projection."""
        return self.channels_of(src) != self.channels_of(tgt) or self.time_ratio(src, tgt) != 1

    def validate_rate(self, samples_per_epoch: int) -> None:
        if self.downsample_factor != samples_per_epoch:
            raise ConfigurationError(
                f"CNN downsampling {self.downsample_factor} does not equal "
                f"{samples_per_epoch} samples per epoch"
            )


def cnn_init(config: CnnConfig, rng: np.random.Generator) -> ModelParams:
    """Zero-mean uniform kernels at 1/sqrt(fan_in) scale, zero biases,
    truncated-identity residual projections."""
    params = ModelParams()
    c_in = config.input_channels
    for i, layer in enumerate(config.layers):
        fan_in = c_in * layer.kernel_width
        bound = np.sqrt(3.0 / fan_in)
        params[f"cnn.layer{i}.kernels"] = Tensor(
            rng.uniform(-bound, bound, size=(layer.out_channels, c_in, layer.kernel_width))
        )
        params[f"cnn.layer{i}.bias"] = Tensor(np.zeros(layer.out_channels))
        c_in = layer.out_channels
    for j, (src, tgt) in enumerate(config.residual_pairs):
        if config.needs_projection(src, tgt):
            eye = np.eye(config.channels_of(src), config.channels_of(tgt))
            params[f"cnn.res{j}.proj"] = Tensor(eye)
    return params


def cnn_forward(
    signal: Tensor,
    config: CnnConfig,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Map a [C_in, n] signal to [C_last, m] features.

    Taped and training-mode calls run the whole record at once; untaped
    inference splits it into chunks when its widest activation would
    exceed _CHUNK_BYTES.
    """
    if signal.ndim != 2 or signal.shape[0] != config.input_channels:
        raise DimensionError(
            f"signal shape {signal.shape} does not match {config.input_channels} input channels"
        )
    d = config.downsample_factor
    if signal.shape[1] % d != 0:
        raise ConfigurationError(
            f"signal length {signal.shape[1]} is not a multiple of the "
            f"downsampling factor {d}"
        )
    m = signal.shape[1] // d
    size = max(1, _CHUNK_BYTES // _epoch_bytes(config))
    if tape is not None or training or m <= size:
        return _layers(signal, config, params, training, rng, tape)
    left, right = _halo(config)
    out = np.empty((config.layers[-1].out_channels, m))
    for a in range(0, m, size):
        b = min(m, a + size)
        lo, hi = max(0, a - left), min(m, b + right)
        chunk = _layers(Tensor(signal.data[:, lo * d : hi * d]), config, params)
        out[:, a:b] = chunk.data[:, a - lo : b - lo]
    return Tensor(out)


def _epoch_bytes(config: CnnConfig) -> int:
    """Bytes per epoch of the widest activation: the input or a conv output."""
    samples = config.downsample_factor
    widest = config.input_channels * samples
    for layer in config.layers:
        samples //= layer.stride
        widest = max(widest, layer.out_channels * samples)
        samples //= layer.pool_window
    return 8 * widest


def _halo(config: CnnConfig) -> tuple[int, int]:
    """Whole epochs before and after an epoch that its feature can depend on.

    Every layer length is a multiple of its stride and pool window, so the
    padding is the same for any record and an epoch's span is the first
    epoch's, shifted; the span must not be clamped at the record edge.
    """
    d = config.downsample_factor
    lo, hi = _span(config, d, 0)
    return -(lo // d), hi // d


def _layers(signal: Tensor, config: CnnConfig, params: ModelParams, training: bool = False,
            rng: np.random.Generator | None = None, tape: Tape | None = None) -> Tensor:
    """The layer stack over a whole, already validated signal."""
    sources = {src for src, _ in config.residual_pairs}
    targets = {tgt: (src, j) for j, (src, tgt) in enumerate(config.residual_pairs)}
    saved: dict[int, Tensor] = {}
    x = signal
    for i, layer in enumerate(config.layers):
        x = conv1d(
            x,
            params[f"cnn.layer{i}.kernels"],
            params[f"cnn.layer{i}.bias"],
            stride=layer.stride,
            padding="same",
            tape=tape,
        )
        x = relu(x, tape)
        if layer.dropout_rate > 0.0:
            x = dropout(x, layer.dropout_rate, training, rng, tape)
        if layer.pool_window > 1:
            x = maxpool1d(x, layer.pool_window, tape)
        if i in targets:
            src, j = targets[i]
            shortcut = saved[src]
            ratio = config.time_ratio(src, i)
            if ratio != 1:
                shortcut = take_cols(shortcut, np.arange(0, shortcut.shape[1], ratio), tape)
            proj = params.get(f"cnn.res{j}.proj")
            if proj is not None:
                shortcut = matmul(transpose(proj, tape), shortcut, tape)
            x = add(x, shortcut, tape)
        if i in sources:
            saved[i] = x
    return x


def input_span(config: CnnConfig, n: int, feature_index: int) -> tuple[int, int]:
    """Inclusive input-sample interval that can influence one output feature.

    Accounts for padding, pooling, and residual shortcuts; bounds are
    clamped to [0, n-1].
    """
    lo, hi = _span(config, n, feature_index)
    return max(0, lo), min(n - 1, hi)


def _span(config: CnnConfig, n: int, feature_index: int) -> tuple[int, int]:
    """input_span before clamping: padded positions count as samples."""
    lengths = [n]
    pads = []
    for layer in config.layers:
        t_in = lengths[-1]
        t_conv = -(-t_in // layer.stride)
        total = max(0, (t_conv - 1) * layer.stride + layer.kernel_width - t_in)
        pads.append(total // 2)
        lengths.append(t_conv // layer.pool_window)
    targets = {tgt: src for src, tgt in config.residual_pairs}

    # pending[i] = interval of layer i's *output* indices still to trace back
    pending: dict[int, tuple[int, int]] = {len(config.layers) - 1: (feature_index, feature_index)}
    lo_in, hi_in = n, -1
    for i in range(len(config.layers) - 1, -1, -1):
        if i not in pending:
            continue
        a, b = pending.pop(i)
        if i in targets:
            src = targets[i]
            ratio = config.time_ratio(src, i)
            j = pending.get(src)
            sa, sb = a * ratio, b * ratio
            pending[src] = (min(sa, j[0]), max(sb, j[1])) if j else (sa, sb)
        layer = config.layers[i]
        a = a * layer.pool_window
        b = b * layer.pool_window + layer.pool_window - 1
        a = a * layer.stride - pads[i]
        b = b * layer.stride - pads[i] + layer.kernel_width - 1
        if i == 0:
            lo_in, hi_in = min(lo_in, a), max(hi_in, b)
        else:
            j = pending.get(i - 1)
            pending[i - 1] = (min(a, j[0]), max(b, j[1])) if j else (a, b)
    return lo_in, hi_in


def desk_cnn_config(channels: int = 32, dropout_rate: float = 0.1) -> CnnConfig:
    """Small stack for the 4 Hz / 4 s profile (downsampling 16)."""
    return CnnConfig(
        layers=(
            ConvLayerSpec(6, 2, channels, 1, dropout_rate),
            ConvLayerSpec(4, 2, channels, 2, dropout_rate),
            ConvLayerSpec(4, 2, channels, 1, dropout_rate),
        ),
        residual_pairs=((0, 2),),
    )


def paper_cnn_config(channels: int = 256, dropout_rate: float = 0.1) -> CnnConfig:
    """Five-layer stack for the 32 Hz / 30 s profile (downsampling 960)."""
    return CnnConfig(
        layers=(
            ConvLayerSpec(10, 2, channels, 1, dropout_rate),
            ConvLayerSpec(10, 2, channels, 5, dropout_rate),
            ConvLayerSpec(8, 2, channels, 2, dropout_rate),
            ConvLayerSpec(8, 2, channels, 2, dropout_rate),
            ConvLayerSpec(6, 3, channels, 1, dropout_rate),
        ),
        residual_pairs=((1, 3),),
    )
