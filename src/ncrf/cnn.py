"""Residual 1-D convolutional feature extractor.

Each layer is conv -> ReLU -> dropout -> optional max-pool, recorded as
one tape node with a hand-written backward: the node keeps one bool mask
of the units that ReLU and dropout kept and the pool argmax, rebuilds its
input windows only in the backward, and lets go of its input once the
kernel gradient is done. The backward masks the adjoint the tape hands it
in place (a pooled layer first scatters it into a new array) and drops the
argmax and the mask as soon as it has used them. A residual connection
adds a saved earlier activation to a later layer's output, as one more
node; when shapes differ the source is aligned in time by strided column
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

from .autodiff import ModelParams, Tape, Tensor
from .errors import ConfigurationError, DimensionError, ParameterError

# Widest float64 activation one untaped inference pass may hold before the
# record is split into whole-epoch chunks (about 68 epochs of the paper
# profile; a desk night never reaches it).
_CHUNK_BYTES = 64 << 20
_CONV_CHUNK = 1 << 22  # max scratch elements per im2col block


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
        targets = [tgt for _, tgt in self.residual_pairs]
        if len(set(targets)) != len(targets):
            raise ConfigurationError(f"residual pairs {self.residual_pairs} share a target layer")

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
        x = _conv_layer(x, params[f"cnn.layer{i}.kernels"], params[f"cnn.layer{i}.bias"],
                        layer, training, rng, tape)
        if i in targets:
            src, j = targets[i]
            x = _shortcut(x, saved[src], params.get(f"cnn.res{j}.proj"),
                          config.time_ratio(src, i), tape)
        if i in sources:
            saved[i] = x
    return x


def _shortcut(x: Tensor, saved: Tensor, proj: Tensor | None, ratio: int,
              tape: Tape | None = None) -> Tensor:
    """One residual connection as one node: ``x + proj.T @ saved[:, ::ratio]``,
    or ``x + saved[:, ::ratio]`` with no projection. The strided columns
    and proj.T are contiguous copies, so the product keeps its bits."""
    ds = saved.data
    idx = np.arange(0, ds.shape[1], ratio) if ratio != 1 else None
    cols = ds if idx is None else ds[:, idx]
    proj_t = proj.data.T.copy() if proj is not None else None
    out = Tensor(x.data + (cols if proj_t is None else proj_t @ cols))
    if tape is None:
        return out

    def bw(g):
        g_saved = g if proj_t is None else proj_t.T @ g
        if idx is not None:
            g_cols, g_saved = g_saved, np.zeros(ds.shape)
            g_saved[:, idx] = g_cols
        return (g, g_saved) if proj_t is None else (g, g_saved, (g @ cols.T).T)

    tape.record(out, (x, saved) if proj is None else (x, saved, proj), bw)
    return out


def _same_geometry(t_in: int, width: int, stride: int) -> tuple[int, int, int]:
    """(t_out, pad_left, pad_right) of a 'same' conv: t_out = ceil(t_in / stride)."""
    t_out = -(-t_in // stride)
    total = max(0, (t_out - 1) * stride + width - t_in)
    return t_out, total // 2, total - total // 2


def _im2col(x: np.ndarray, width: int, stride: int, pad_left: int, t_out: int):
    """Yield (t0, cols): the [C_in*W, b] windows, from output column t0 on,
    of the input zero-padded by pad_left columns on the left (and as needed
    on the right), in blocks of at most _CONV_CHUNK elements; row c*W + w
    holds tap w of channel c. The generator binds no block, and callers
    delete each block before asking for the next, so one is alive."""
    c_in = x.shape[0]
    chunk = max(1, _CONV_CHUNK // (c_in * width))
    for t0 in range(0, t_out, chunk):
        yield t0, _cols(x, width, stride, t0 * stride - pad_left, min(chunk, t_out - t0))


def _cols(x: np.ndarray, width: int, stride: int, lo: int, b: int) -> np.ndarray:
    """The im2col block whose column j reads input columns lo + j*stride + w:
    one strided copy per tap w, with zeros only where that falls outside x."""
    c_in, t_in = x.shape
    cols = np.empty((c_in, width, b))
    for w in range(width):
        start = lo + w
        j0 = min(b, max(0, -(start // stride)))  # the first column inside x
        j1 = min(b, max(j0, -((start - t_in) // stride)))  # one past the last
        cols[:, w, :j0] = 0.0
        cols[:, w, j1:] = 0.0
        cols[:, w, j0:j1] = x[:, start + j0 * stride : start + j1 * stride : stride]
    return cols.reshape(c_in * width, b)


def _conv_layer(x: Tensor, kernels: Tensor, bias: Tensor, layer: ConvLayerSpec,
                training: bool = False, rng: np.random.Generator | None = None,
                tape: Tape | None = None) -> Tensor:
    """One layer as one node: 'same' strided conv of a [C_in, T] input with
    [C_out, C_in, W] kernels, ReLU, inverted dropout (training only) and
    non-overlapping max-pool, whose ties route the gradient to the first
    index. Dropout draws its uniforms in row blocks of at most _CONV_CHUNK
    elements, the same stream as one whole-array draw. A taped call keeps
    one bool mask, ``y > 0`` after dropout, which is the ReLU mask and the
    keep mask together; untaped calls allocate no mask or argmax. The ReLU
    and dropout run in place, and when one im2col block covers the output
    the product is the output.

    The backward owns the adjoint the tape hands it (see ``Tape``): an
    unpooled layer masks it in place, a pooled one scatters it through the
    argmax into a new array. It drops the argmax once scattered, the mask
    once applied and its input once the kernel gradient is done, so none
    of them is alive when the input adjoint is allocated."""
    dx, dk = x.data, kernels.data
    c_in, t_in = dx.shape
    c_out, _, width = dk.shape
    stride, window, rate = layer.stride, layer.pool_window, layer.dropout_rate
    t_conv, pad_l, pad_r = _same_geometry(t_in, width, stride)
    kmat = dk.reshape(c_out, c_in * width)
    y = None
    for t0, cols in _im2col(dx, width, stride, pad_l, t_conv):
        b = cols.shape[1]
        if b == t_conv:  # one block: the product is the output, with no copy
            y = kmat @ cols
        else:
            if y is None:
                y = np.empty((c_out, t_conv))
            y[:, t0 : t0 + b] = kmat @ cols
        del cols
    y += bias.data[:, None]
    np.maximum(y, 0.0, out=y)
    dropped, scale = training and rate > 0.0, 1.0 / (1.0 - rate)
    if dropped:
        if rng is None:
            raise ParameterError("training-mode dropout needs a seeded generator")
        # uniforms in row blocks: the same stream as one rng.random(y.shape)
        rows = max(1, _CONV_CHUNK // t_conv)
        for r0 in range(0, c_out, rows):
            blk = y[r0 : r0 + rows]
            blk *= rng.random(blk.shape) >= rate  # then scale: the bits of y * (keep / (1 - rate))
            blk *= scale
    # ReLU and dropout keep exactly the units that are still positive
    mask = y > 0.0 if tape is not None else None
    t_out = t_conv // window
    if window > 1 and tape is None:  # a running maximum over strided columns
        pooled = y[:, : t_out * window : window].copy()
        for k in range(1, window):
            np.maximum(pooled, y[:, k : t_out * window : window], out=pooled)
        y = pooled
    elif window > 1:
        blocks = y[:, : t_out * window].reshape(c_out, t_out, window)
        arg = blocks.argmax(axis=2)  # first maximal index on ties
        y = np.take_along_axis(blocks, arg[:, :, None], axis=2)[:, :, 0]
    out = Tensor(y)
    if tape is None:
        return out

    def bw(g):
        nonlocal dx, arg, mask
        if window > 1:
            gy = np.zeros((c_out, t_conv))
            np.put_along_axis(gy, arg + np.arange(0, t_out * window, window), g, axis=1)
            arg = None
        else:
            gy = g  # the tape hands over an adjoint no one else holds: mask it in place
        del g
        gy *= mask
        mask = None
        if dropped:
            gy *= scale
        gk = np.zeros((c_out, c_in * width))
        for t0, cols in _im2col(dx, width, stride, pad_l, t_conv):
            gk += gy[:, t0 : t0 + cols.shape[1]] @ cols.T
            del cols
        dx = None  # last use: a produced input, which the tape keeps by id only, is freed
        # rows of kmat.T @ gy in blocks of whole input channels, at most a
        # quarter of _CONV_CHUNK elements each (row blocks keep the product's
        # bits), scattered tap by tap into the padded input
        gxp = np.zeros((c_in, pad_l + t_in + pad_r))
        last = (t_conv - 1) * stride
        step = max(1, _CONV_CHUNK // 4 // (width * t_conv))
        for c0 in range(0, c_in, step):
            gcols = (kmat.T[c0 * width : (c0 + step) * width] @ gy).reshape(-1, width, t_conv)
            for w in range(width):
                gxp[c0 : c0 + step, w : w + last + 1 : stride] += gcols[:, w, :]
            del gcols
        return gxp[:, pad_l : pad_l + t_in], gk.reshape(dk.shape), gy.sum(axis=1)

    tape.record(out, (x, kernels, bias), bw)
    return out


def input_span(config: CnnConfig, n: int, feature_index: int) -> tuple[int, int]:
    """Inclusive input-sample interval that can influence one output feature.

    Accounts for padding, pooling, and residual shortcuts; bounds are
    clamped to [0, n-1].
    """
    lo, hi = _span(config, n, feature_index)
    return max(0, lo), min(n - 1, hi)


def _span(config: CnnConfig, n: int, feature_index: int) -> tuple[int, int]:
    """input_span before clamping: padded positions count as samples.

    Only the main path is walked. A layer maps output columns [a, b] onto
    input columns that contain [a·pool·stride, b·pool·stride], because
    ``pad_l <= kernel_width - 1``; so the main path from column t of a
    shortcut's target already covers column ``t * ratio`` of its source,
    the one column the shortcut reads.
    """
    t, pads = n, []
    for layer in config.layers:
        t_conv, pad_l, _ = _same_geometry(t, layer.kernel_width, layer.stride)
        pads.append(pad_l)
        t = t_conv // layer.pool_window
    lo = hi = feature_index
    for layer, pad_l in zip(reversed(config.layers), reversed(pads)):
        pool, stride = layer.pool_window, layer.stride
        lo = lo * pool * stride - pad_l
        hi = (hi * pool + pool - 1) * stride - pad_l + layer.kernel_width - 1
    return lo, hi


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
