"""Dense float64 tensors and a reverse-mode differentiation tape.

The tape knows no operations. Each layer records itself as one node:
the CNN's conv -> ReLU -> dropout -> max-pool layer and its residual
shortcut (``cnn._conv_layer``, ``cnn._shortcut``), the GRU
(``gru.gru_forward``), the node scores (``crf.node_scores``) and the
CRF's log Z, NLL and cost-sensitive loss (``crf.log_partition``,
``crf.crf_nll``, ``crf.cost_sensitive_loss``). A layer computes its
value with numpy and, when a Tape is passed, appends a node holding the
output's key, its inputs' keys, and a closure mapping the output adjoint
to input adjoints. Because nodes are appended in execution order, walking
the list backwards visits each node exactly once and is a valid reverse
topological order.

Ownership: every Tensor takes a key that never repeats, and the tape
holds keys only, never a tensor, so an activation lives only as long as
its caller or a closure holds it. A closure may release what it captured
at its last use, which frees that activation mid-walk. The adjoint the
walk hands a closure shares memory with no other stored adjoint, so the
closure owns it and may overwrite it in place.

Passing ``tape=None`` runs the same forward math without recording,
which is how inference-only paths avoid graph overhead.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    NumericError,
    ParameterError,
)

Array = np.ndarray

_keys = itertools.count()


class Tensor:
    """A dense, row-major array of 64-bit floats.

    Tensors are immutable by convention once handed to a layer; nothing
    in this package writes to ``data`` after construction. ``key`` names
    the tensor on a tape and is never given to another tensor.
    """

    __slots__ = ("data", "key", "__weakref__")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.key = next(_keys)

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
    """Ordered record of the layers one computation ran.

    A tape is single-owner: record on it from one thread, call
    ``backward`` once the scalar loss is known, then query ``grad`` for
    the tensors the computation started from. The tape holds keys only:
    each node is ``(output key, input keys, closure)``, and ``backward``
    drops each node, and each adjoint of a produced key, as soon as it has
    used them, so it runs once per tape. Gradients of tensors that never
    reached the loss are zero.

    Ownership rule for closures: a closure may overwrite the adjoint it is
    handed, and must keep no reference to an adjoint it returns. The tape
    keeps its side: no two stored adjoints share memory, so what it hands
    a closure is that closure's alone.
    """

    __slots__ = ("_nodes", "_grads", "_produced")

    def __init__(self):
        self._nodes: list[tuple | None] = []
        self._grads: dict[int, Array] | None = None
        self._produced: set[int] = set()

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._nodes.append((out.key, tuple(t.key for t in inputs), backward))
        self._produced.add(out.key)

    def __len__(self) -> int:
        """The number of nodes recorded, before and after ``backward``."""
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate adjoints of ``loss`` w.r.t. every tensor the tape did
        not produce."""
        if self._grads is not None:
            raise ParameterError("backward() already ran on this tape")
        if loss.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.data).all():
            raise NumericError("backward called on a non-finite loss")
        nodes = self._nodes
        self._grads = {loss.key: np.ones_like(loss.data)}
        for i in range(len(nodes) - 1, -1, -1):
            key, inputs, bw = nodes[i]
            nodes[i] = None
            if key in self._grads:
                self._accumulate(inputs, bw(self._grads.pop(key)))

    def _accumulate(self, inputs: tuple[int, ...], adjoints) -> None:
        """Add one closure's input adjoints into the store, by input key.

        A closure may return arrays that share memory for two inputs (a sum
        hands ``g`` to both terms); the later input then stores a copy, so
        each stored adjoint is owned by its entry alone. A closure may also
        return a numpy scalar, and two 0-d adjoints sum to one; the store
        keeps arrays. A method of its own so that no adjoint outlives it in
        a local of the walk while the next closure runs."""
        grads, stored = self._grads, []
        for key, gi in zip(inputs, adjoints):
            if gi is None:
                continue
            if key in grads:
                grads[key] = np.asarray(grads[key] + gi)
                continue
            gi = np.asarray(gi)
            if any(np.may_share_memory(gi, s) for s in stored):
                gi = gi.copy()
            grads[key] = gi
            stored.append(gi)

    def grad(self, t: Tensor) -> Array:
        """Adjoint of the loss w.r.t. ``t`` (zeros if ``t`` is off-path).

        A tensor the tape produced has no adjoint left to read.
        """
        if self._grads is None:
            raise ParameterError("grad() requires a completed backward() pass")
        if t.key in self._produced:
            raise ParameterError("grad() of a tensor the tape produced; backward() dropped it")
        g = self._grads.get(t.key)
        return np.zeros(t.shape) if g is None else g


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
