"""Tape operations and data generators that the package no longer runs,
kept for the tests.

The model records each of its layers as one fused node: every CNN
layer, the residual shortcut, the GRU with its input projections, the
node scores and the CRF losses. So these generic operations have no
caller under ``src/``. Tests compose them into references that the
fused nodes must match byte for byte: the conv -> ReLU -> dropout ->
max-pool layer and the take/transpose/matmul/add shortcut in
``test_cnn.py``, the step-by-step GRU in ``test_gru.py``, the
affine/transpose node scores and the gather/sum NLL in ``test_crf.py``
and the gather/sum saliency pick in ``test_saliency.py``. Criterion 2
checks each operation's own gradient against finite differences. Each
computes with numpy and, when a Tape is passed, records one node.

``sample_chain_per_step`` and ``synth_generate_per_epoch`` are the
synthetic corpus generator as it was written first, one chain step and
one epoch at a time; ``test_data.py`` holds ``data.synth_generate`` to
their bytes. ``reference_viterbi`` is the max-plus decoder as it was
first written, with list back-pointers and a second ``max`` per step;
``test_crf.py`` holds ``crf.viterbi`` to its paths and score bytes.
``reference_signal_text`` is the signal-file writer as it was first
written, one ``repr`` per sample; ``test_data.py`` holds
``data.write_corpus`` to its text.
"""

from __future__ import annotations

import numpy as np

from ncrf.autodiff import Tape, Tensor
from ncrf.cnn import _CONV_CHUNK
from ncrf.crf import CrfPotentials, _chain
from ncrf.data import _PHASE, Record, SleepStage, SynthConfig
from ncrf.errors import DimensionError, ParameterError
from ncrf.rng import SplitRng


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(a.data + b.data)
    if tape is not None:
        sa, sb = a.data.shape, b.data.shape
        tape.record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(a.data * b.data)
    if tape is not None:
        da, db = a.data, b.data
        tape.record(
            out,
            (a, b),
            lambda g: (_unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)),
        )
    return out


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    da, db = a.data, b.data
    if da.ndim == 0 or db.ndim == 0 or da.ndim > 2 or db.ndim > 2:
        raise DimensionError(f"matmul supports 1-D/2-D operands, got {da.shape} @ {db.shape}")
    if da.shape[-1] != db.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {da.shape} @ {db.shape}")
    out = Tensor(da @ db)
    if tape is not None:
        if da.ndim == 2 and db.ndim == 2:
            bw = lambda g: (g @ db.T, da.T @ g)
        elif da.ndim == 2 and db.ndim == 1:
            bw = lambda g: (np.outer(g, db), da.T @ g)
        elif da.ndim == 1 and db.ndim == 2:
            bw = lambda g: (db @ g, np.outer(da, g))
        else:  # vector dot product
            bw = lambda g: (g * db, g * da)
        tape.record(out, (a, b), bw)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """``w @ x + b`` for a vector x, or column-wise for a matrix x."""
    dx, dw, db_ = x.data, w.data, b.data
    if dw.ndim != 2 or db_.shape != (dw.shape[0],):
        raise DimensionError(f"affine weights {dw.shape} / bias {db_.shape} inconsistent")
    if dx.ndim == 1:
        if dx.shape[0] != dw.shape[1]:
            raise DimensionError(f"affine input {dx.shape} does not match weights {dw.shape}")
        out = Tensor(dw @ dx + db_)
        if tape is not None:
            tape.record(out, (x, w, b), lambda g: (dw.T @ g, np.outer(g, dx), g))
        return out
    if dx.ndim == 2:
        if dx.shape[0] != dw.shape[1]:
            raise DimensionError(f"affine input {dx.shape} does not match weights {dw.shape}")
        out = Tensor(dw @ dx + db_[:, None])
        if tape is not None:
            tape.record(out, (x, w, b), lambda g: (dw.T @ g, g @ dx.T, g.sum(axis=1)))
        return out
    raise DimensionError(f"affine input must be 1-D or 2-D, got {dx.shape}")


def reduce_sum(x: Tensor, axis: int | None = None, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.sum(x.data, axis=axis))
    if tape is not None:
        shape = x.data.shape

        def bw(g):
            if axis is None:
                return (np.full(shape, g),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        tape.record(out, (x,), bw)
    return out


def transpose(x: Tensor, tape: Tape | None = None) -> Tensor:
    if x.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got {x.shape}")
    out = Tensor(x.data.T.copy())
    if tape is not None:
        tape.record(out, (x,), lambda g: (g.T,))
    return out


def take_cols(x: Tensor, indices, tape: Tape | None = None) -> Tensor:
    """Select columns of a matrix by (unique) index array."""
    if x.ndim != 2:
        raise DimensionError(f"take_cols expects a matrix, got {x.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[1]):
        raise ParameterError("take_cols index out of range")
    out = Tensor(x.data[:, idx])
    if tape is not None:
        shape = x.data.shape

        def bw(g):
            z = np.zeros(shape)
            z[:, idx] = g
            return (z,)

        tape.record(out, (x,), bw)
    return out


def gather_pairs(x: Tensor, rows, cols, tape: Tape | None = None) -> Tensor:
    """``x[rows[i], cols[i]]`` for each i; backward scatter-adds."""
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    if x.ndim != 2:
        raise DimensionError(f"gather_pairs expects a matrix, got {x.shape}")
    if r.shape != c.shape or r.ndim != 1:
        raise ParameterError("gather_pairs index vectors must be 1-D and equal length")
    n0, n1 = x.shape
    if r.size and (r.min() < 0 or r.max() >= n0 or c.min() < 0 or c.max() >= n1):
        raise ParameterError("gather_pairs index out of range")
    out = Tensor(x.data[r, c])
    if tape is not None:
        shape = x.data.shape

        def bw(g):
            z = np.zeros(shape)
            np.add.at(z, (r, c), g)
            return (z,)

        tape.record(out, (x,), bw)
    return out


def sub(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(a.data - b.data)
    if tape is not None:
        sa, sb = a.data.shape, b.data.shape
        tape.record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def neg(a: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(-a.data)
    if tape is not None:
        tape.record(out, (a,), lambda g: (-g,))
    return out


def scale(a: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    out = Tensor(a.data * c)
    if tape is not None:
        tape.record(out, (a,), lambda g: (g * c,))
    return out


def sigmoid(x: Tensor, tape: Tape | None = None) -> Tensor:
    """``1/2 + tanh(x/2)/2``, the form the GRU computes its gates in."""
    s = np.tanh(np.asarray(x.data) * 0.5) * 0.5 + 0.5
    out = Tensor(s)
    if tape is not None:
        tape.record(out, (x,), lambda g: (g * s * (1.0 - s),))
    return out


def tanh(x: Tensor, tape: Tape | None = None) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    if tape is not None:
        tape.record(out, (x,), lambda g: (g * (1.0 - y * y),))
    return out


def exp(x: Tensor, tape: Tape | None = None) -> Tensor:
    y = np.exp(x.data)
    out = Tensor(y)
    if tape is not None:
        tape.record(out, (x,), lambda g: (g * y,))
    return out


def logsumexp(x: Tensor, axis: int | None = None, tape: Tape | None = None) -> Tensor:
    """Numerically stable log-sum-exp along ``axis`` (None = all)."""
    d = x.data
    m = np.max(d, axis=axis, keepdims=True)
    y = np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(d - m), axis=axis)) if axis is not None \
        else np.squeeze(m) + np.log(np.sum(np.exp(d - m)))
    out = Tensor(y)
    if tape is not None:

        def bw(g):
            ye = np.expand_dims(y, axis) if axis is not None else y
            ge = np.expand_dims(g, axis) if axis is not None else g
            return (ge * np.exp(d - ye),)

        tape.record(out, (x,), bw)
    return out


def reshape(x: Tensor, shape: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    orig = x.data.shape
    out = Tensor(x.data.reshape(shape))
    if tape is not None:
        tape.record(out, (x,), lambda g: (g.reshape(orig),))
    return out


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    if tape is not None:
        mask = x.data > 0.0
        tape.record(out, (x,), lambda g: (g * mask,))
    return out


def _conv_geometry(t_in: int, width: int, stride: int, padding: str) -> tuple[int, int, int]:
    """Return (t_out, pad_left, pad_right) for one conv layer."""
    if padding == "same":
        t_out = -(-t_in // stride)
        total = max(0, (t_out - 1) * stride + width - t_in)
        left = total // 2
        return t_out, left, total - left
    if padding == "valid":
        if width > t_in:
            raise DimensionError(f"kernel width {width} exceeds input length {t_in}")
        return (t_in - width) // stride + 1, 0, 0
    raise ParameterError(f"padding must be 'same' or 'valid', got {padding!r}")


def conv1d(
    x: Tensor,
    kernels: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: str = "same",
    tape: Tape | None = None,
) -> Tensor:
    """Strided cross-correlation of a [C_in, T] signal with [C_out, C_in, W] kernels.

    ``same`` padding pads with zeros so the output length is ceil(T/stride);
    ``valid`` uses no padding. The activation is a separate op.
    """
    dx, dk, db = x.data, kernels.data, bias.data
    if dx.ndim != 2 or dk.ndim != 3:
        raise DimensionError(f"conv1d expects [C,T] input and [O,C,W] kernels, got {dx.shape}, {dk.shape}")
    c_in, t_in = dx.shape
    c_out, kc, width = dk.shape
    if kc != c_in:
        raise DimensionError(f"kernel channels {kc} do not match input channels {c_in}")
    if db.shape != (c_out,):
        raise DimensionError(f"bias shape {db.shape} does not match {c_out} output channels")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    t_out, pad_l, pad_r = _conv_geometry(t_in, width, stride, padding)
    if t_out < 1:
        raise DimensionError("convolution produces an empty output")

    xp = np.pad(dx, ((0, 0), (pad_l, pad_r))) if (pad_l or pad_r) else dx
    windows = np.lib.stride_tricks.sliding_window_view(xp, width, axis=1)[:, ::stride, :]
    # windows: [C_in, T_out, W] view; each chunk is copied to contiguous [C_in*W, b]
    # columns, the layout of the fused layer's blocks
    chunk = max(1, _CONV_CHUNK // max(1, c_in * width))
    y = np.empty((c_out, t_out))
    kmat = dk.reshape(c_out, c_in * width)
    for t0 in range(0, t_out, chunk):
        blk = windows[:, t0 : t0 + chunk, :]  # [C_in, b, W]
        b = blk.shape[1]
        cols = np.ascontiguousarray(blk.transpose(0, 2, 1)).reshape(c_in * width, b)
        y[:, t0 : t0 + chunk] = kmat @ cols
    y += db[:, None]
    out = Tensor(y)

    if tape is not None:

        def bw(g):
            gk = np.zeros((c_out, c_in * width))
            for t0 in range(0, t_out, chunk):
                blk = windows[:, t0 : t0 + chunk, :]
                b = blk.shape[1]
                cols = np.ascontiguousarray(blk.transpose(0, 2, 1)).reshape(c_in * width, b)
                gk += g[:, t0 : t0 + chunk] @ cols.T
            gxp = np.zeros_like(xp)
            gcols = kmat.T @ g  # [C_in*W, T_out]
            gcols = gcols.reshape(c_in, width, t_out)
            last = (t_out - 1) * stride
            for w in range(width):
                gxp[:, w : w + last + 1 : stride] += gcols[:, w, :]
            gx = gxp[:, pad_l : pad_l + t_in] if (pad_l or pad_r) else gxp
            return (gx, gk.reshape(c_out, c_in, width), g.sum(axis=1))

        tape.record(out, (x, kernels, bias), bw)
    return out


def maxpool1d(x: Tensor, window: int, tape: Tape | None = None) -> Tensor:
    """Non-overlapping window maxima; ties route gradient to the first index."""
    if window < 1:
        raise ParameterError(f"pool window must be >= 1, got {window}")
    dx = x.data
    if dx.ndim != 2:
        raise DimensionError(f"maxpool1d expects [C,T], got {dx.shape}")
    c, t = dx.shape
    t_out = t // window
    if t_out < 1:
        raise DimensionError(f"input length {t} shorter than pool window {window}")
    if window == 1:
        trimmed = Tensor(dx.copy())
        if tape is not None:
            tape.record(trimmed, (x,), lambda g: (g,))
        return trimmed
    blocks = dx[:, : t_out * window].reshape(c, t_out, window)
    arg = blocks.argmax(axis=2)  # first maximal index on ties
    out = Tensor(np.take_along_axis(blocks, arg[:, :, None], axis=2)[:, :, 0])
    if tape is not None:

        def bw(g):
            gb = np.zeros((c, t_out, window))
            np.put_along_axis(gb, arg[:, :, None], g[:, :, None], axis=2)
            gx = np.zeros_like(dx)
            gx[:, : t_out * window] = gb.reshape(c, t_out * window)
            return (gx,)

        tape.record(out, (x,), bw)
    return out


def dropout(
    x: Tensor,
    rate: float,
    training: bool,
    rng: np.random.Generator | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """Inverted dropout: train-time masking and rescaling, identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ParameterError("training-mode dropout needs a seeded generator")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) >= rate) / keep
    out = Tensor(x.data * mask)
    if tape is not None:
        tape.record(out, (x,), lambda g: (g * mask,))
    return out


def sample_chain_per_step(tm: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    """Markov chain from Wake; zero-probability moves can never be drawn."""
    labels = np.empty(length, dtype=np.intp)
    labels[0] = int(SleepStage.WAKE)
    draws = rng.random(length - 1) if length > 1 else ()
    for t in range(1, length):
        nonzero = np.flatnonzero(tm[labels[t - 1]])
        cdf = np.cumsum(tm[labels[t - 1], nonzero])
        pick = np.searchsorted(cdf, draws[t - 1] * cdf[-1], side="right")
        labels[t] = nonzero[min(pick, nonzero.size - 1)]
    return labels


def synth_generate_per_epoch(config: SynthConfig) -> list[Record]:
    """Deterministic synthetic corpus for the given config and seed."""
    root = SplitRng(config.seed)
    spe = config.sample_rate * config.epoch_seconds
    times = np.arange(spe) / config.sample_rate
    records = []
    for i in range(config.num_subjects):
        rng = root.child("synth", i).generator()
        labels = sample_chain_per_step(config.transition_matrix, config.epochs_per_subject, rng)
        signal = np.empty(config.epochs_per_subject * spe)
        for t, lab in enumerate(labels):
            amp = config.stage_amp[lab] * abs(1.0 + config.stage_amp_var[lab] * rng.standard_normal())
            wave = amp * np.sin(2.0 * np.pi * config.stage_freq[lab] * times + _PHASE)
            noise = config.stage_noise[lab] * rng.standard_normal(spe)
            signal[t * spe : (t + 1) * spe] = wave + noise
        records.append(
            Record(
                subject_id=f"synth{i:04d}",
                signal=signal,
                labels=labels,
                sample_rate_hz=config.sample_rate,
                epoch_seconds=config.epoch_seconds,
            )
        )
    return records


def reference_signal_text(signal: np.ndarray) -> str:
    """A signal file's text: each sample's repr on its own line."""
    return "".join(repr(v) + "\n" for v in signal.tolist())


def reference_viterbi(potentials: CrfPotentials) -> tuple[list[int], float]:
    """Highest-scoring label sequence and its score, ties to the lowest
    label read from the last position backwards."""
    a0, psi, slots = _chain(potentials)
    v = a0
    back: list[np.ndarray] = []
    for step in psi:
        cand = v[:, None] + step
        back.append(cand.argmax(axis=0))
        v = cand.max(axis=0)
    states = [int(np.argmax(v))]
    score = float(v[states[0]])
    for best in reversed(back):
        states.append(int(best[states[-1]]))
    return [s // slots for s in reversed(states)], score
