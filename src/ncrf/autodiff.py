"""Dense float64 tensors and a reverse-mode differentiation tape.

Every differentiable primitive the model needs lives here, except the
GRU recurrence, which ``gru.gru_forward`` records as one node. An
operation computes its value with numpy and, when a Tape is passed,
appends a node holding the output, the input tensors, and a closure
mapping the output adjoint to input adjoints. Because nodes are
appended in execution order, walking the list backwards visits each
node exactly once and is a valid reverse topological order.

Passing ``tape=None`` runs the same forward math without recording,
which is how inference-only paths avoid graph overhead.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionError,
    NumericError,
    ParameterError,
)

Array = np.ndarray


class Tensor:
    """A dense, row-major array of 64-bit floats.

    Tensors are immutable by convention once handed to an operation;
    nothing in this module writes to ``data`` after construction.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of primitive operations for one computation.

    A tape is single-owner: record on it from one thread, call
    ``backward`` once the scalar loss is known, then query ``grad``.
    Gradients of tensors that never reached the loss are zero.
    """

    __slots__ = ("_nodes", "_grads")

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._grads: dict[int, Array] | None = None

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._nodes.append((out, inputs, backward))

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate adjoints of ``loss`` w.r.t. every recorded tensor."""
        if loss.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.data).all():
            raise NumericError("backward called on a non-finite loss")
        grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, bw in reversed(self._nodes):
            g = grads.get(id(out))
            if g is None:
                continue
            for t, gi in zip(inputs, bw(g)):
                if gi is None:
                    continue
                prev = grads.get(id(t))
                grads[id(t)] = gi if prev is None else prev + gi
        self._grads = grads

    def grad(self, t: Tensor) -> Array:
        """Adjoint of the loss w.r.t. ``t`` (zeros if ``t`` is off-path)."""
        if self._grads is None:
            raise ParameterError("grad() requires a completed backward() pass")
        g = self._grads.get(id(t))
        return np.zeros(t.shape) if g is None else g


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
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


def sub(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(a.data - b.data)
    if tape is not None:
        sa, sb = a.data.shape, b.data.shape
        tape.record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
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


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    if tape is not None:
        mask = x.data > 0.0
        tape.record(out, (x,), lambda g: (g * mask,))
    return out


def _sigmoid(v: Array) -> Array:
    """``1/(1+exp(-v))`` for v >= 0 and ``exp(v)/(1+exp(v))`` below, so
    exp never overflows; ``min(v, -v)`` keeps a NaN's sign."""
    e = np.exp(np.minimum(v, -v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def sigmoid(x: Tensor, tape: Tape | None = None) -> Tensor:
    s = _sigmoid(np.asarray(x.data))
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


def log(x: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.log(x.data))
    if tape is not None:
        dx = x.data
        tape.record(out, (x,), lambda g: (g / dx,))
    return out


def exp(x: Tensor, tape: Tape | None = None) -> Tensor:
    y = np.exp(x.data)
    out = Tensor(y)
    if tape is not None:
        tape.record(out, (x,), lambda g: (g * y,))
    return out


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


def transpose(x: Tensor, tape: Tape | None = None) -> Tensor:
    if x.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got {x.shape}")
    out = Tensor(x.data.T.copy())
    if tape is not None:
        tape.record(out, (x,), lambda g: (g.T,))
    return out


def reshape(x: Tensor, shape: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    orig = x.data.shape
    out = Tensor(x.data.reshape(shape))
    if tape is not None:
        tape.record(out, (x,), lambda g: (g.reshape(orig),))
    return out


def row(x: Tensor, i: int, tape: Tape | None = None) -> Tensor:
    if x.ndim != 2:
        raise DimensionError(f"row() expects a matrix, got {x.shape}")
    out = Tensor(x.data[i].copy())
    if tape is not None:
        shape = x.data.shape

        def bw(g):
            z = np.zeros(shape)
            z[i] = g
            return (z,)

        tape.record(out, (x,), bw)
    return out


def col(x: Tensor, j: int, tape: Tape | None = None) -> Tensor:
    if x.ndim != 2:
        raise DimensionError(f"col() expects a matrix, got {x.shape}")
    out = Tensor(x.data[:, j].copy())
    if tape is not None:
        shape = x.data.shape

        def bw(g):
            z = np.zeros(shape)
            z[:, j] = g
            return (z,)

        tape.record(out, (x,), bw)
    return out


def stack_cols(xs: Sequence[Tensor], tape: Tape | None = None) -> Tensor:
    """Stack 1-D tensors as the columns of a new matrix."""
    if not xs:
        raise DimensionError("stack_cols needs at least one column")
    out = Tensor(np.stack([t.data for t in xs], axis=1))
    if tape is not None:
        n = len(xs)
        tape.record(out, tuple(xs), lambda g: tuple(g[:, j] for j in range(n)))
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


# ---------------------------------------------------------------------------
# signal-processing primitives
# ---------------------------------------------------------------------------

_CONV_CHUNK = 1 << 22  # max scratch elements per im2col block


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
    # windows: [C_in, T_out, W] view; chunk the contiguous copy tensordot makes
    chunk = max(1, _CONV_CHUNK // max(1, c_in * width))
    y = np.empty((c_out, t_out))
    kmat = dk.reshape(c_out, c_in * width)
    for t0 in range(0, t_out, chunk):
        blk = windows[:, t0 : t0 + chunk, :]  # [C_in, b, W]
        b = blk.shape[1]
        cols = blk.transpose(1, 0, 2).reshape(b, c_in * width)
        y[:, t0 : t0 + chunk] = kmat @ cols.T
    y += db[:, None]
    out = Tensor(y)

    if tape is not None:

        def bw(g):
            gk = np.zeros((c_out, c_in * width))
            for t0 in range(0, t_out, chunk):
                blk = windows[:, t0 : t0 + chunk, :]
                b = blk.shape[1]
                cols = blk.transpose(1, 0, 2).reshape(b, c_in * width)
                gk += g[:, t0 : t0 + chunk] @ cols
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


# ---------------------------------------------------------------------------
# parameter containers and the finite-difference checker
# ---------------------------------------------------------------------------


class ModelParams(dict):
    """Named learnable arrays, e.g. ``"gru.W_z" -> Tensor``.

    Plain dict with insertion order; helpers below are the only additions.
    """

    def clone(self) -> "ModelParams":
        return ModelParams({k: Tensor(v.data.copy()) for k, v in self.items()})

    def total_size(self) -> int:
        return sum(v.size for v in self.values())

    def subset(self, prefix: str) -> "ModelParams":
        return ModelParams({k: v for k, v in self.items() if k.startswith(prefix)})


def grad_check(
    loss_fn: Callable[[ModelParams, Tape | None], Tensor],
    params: ModelParams,
    eps: float = 1e-5,
    samples: int = 50,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare tape gradients with central finite differences.

    ``loss_fn(params, tape)`` must be deterministic (dropout off) and
    return a scalar Tensor; it is re-evaluated with ``tape=None`` for
    the difference quotients. Returns the max relative error
    ``|g_tape - g_fd| / max(1e-8, |g_tape| + |g_fd|)`` over ``samples``
    randomly chosen parameter coordinates.

    Coordinates where both gradients sit below 1e-7 count as exact:
    for an analytically zero partial the difference quotient is pure
    cancellation noise (~|loss| * 1e-11 at this step size), which the
    relative formula would otherwise report as a large error.
    """
    zero_tol = 1e-7
    if rng is None:
        rng = np.random.default_rng(0)
    tape = Tape()
    loss = loss_fn(params, tape)
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: loss is not finite")
    tape.backward(loss)
    tape_grads = {name: tape.grad(t) for name, t in params.items()}

    names = list(params)
    sizes = np.array([params[n].size for n in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    count = min(samples, total)
    picks = rng.choice(total, size=count, replace=False)

    worst = 0.0
    for flat in np.sort(picks):
        slot = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[slot]
        idx = int(flat - offsets[slot])
        arr = params[name].data
        orig = arr.flat[idx]
        arr.flat[idx] = orig + eps
        f_plus = loss_fn(params, None).item()
        arr.flat[idx] = orig - eps
        f_minus = loss_fn(params, None).item()
        arr.flat[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError("grad_check: perturbed loss is not finite")
        g_fd = (f_plus - f_minus) / (2.0 * eps)
        g_tape = float(tape_grads[name].flat[idx])
        if abs(g_tape) < zero_tol and abs(g_fd) < zero_tol:
            continue
        rel = abs(g_tape - g_fd) / max(1e-8, abs(g_tape) + abs(g_fd))
        worst = max(worst, rel)
    return worst
