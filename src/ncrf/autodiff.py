"""Dense float64 tensors and a reverse-mode differentiation tape.

Every differentiable primitive the model runs lives here, except the
fused layers that record themselves as one node each: the CNN's
conv -> ReLU -> dropout -> max-pool layer (``cnn._conv_layer``), the GRU
recurrence (``gru.gru_forward``) and the CRF's log Z, NLL and
cost-sensitive loss (``crf.log_partition``, ``crf.crf_nll``,
``crf.cost_sensitive_loss``). An operation computes its value with
numpy and, when a Tape is passed, appends a node holding the output,
the input tensors, and a closure mapping the output adjoint to input
adjoints. Because nodes are appended in execution order, walking the
list backwards visits each node exactly once and is a valid reverse
topological order.

Passing ``tape=None`` runs the same forward math without recording,
which is how inference-only paths avoid graph overhead.
"""

from __future__ import annotations

from typing import Callable

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


def _sigmoid(v: Array) -> Array:
    """``1/(1+exp(-v))`` for v >= 0 and ``exp(v)/(1+exp(v))`` below, so
    exp never overflows; ``min(v, -v)`` keeps a NaN's sign."""
    e = np.exp(np.minimum(v, -v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


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


# ---------------------------------------------------------------------------
# parameter containers and the finite-difference checker
# ---------------------------------------------------------------------------


class ModelParams(dict):
    """Named learnable arrays, e.g. ``"gru.W_z" -> Tensor``.

    Plain dict with insertion order; ``clone`` is the only addition.
    """

    def clone(self) -> "ModelParams":
        return ModelParams({k: Tensor(v.data.copy()) for k, v in self.items()})


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
