"""Tape primitives that the package no longer runs, kept for the tests.

The model records its GRU recurrence and its CRF losses as fused nodes,
so these elementwise operations have no caller under ``src/``. Tests
still compose them: criterion 2's primitive batteries, the step-by-step
GRU reference in ``test_gru.py`` and the composed NLL reference in
``test_crf.py``. Each follows the ``ncrf.autodiff`` convention: compute
with numpy and, when a Tape is passed, record one node.
"""

from __future__ import annotations

import numpy as np

from ncrf.autodiff import Tape, Tensor, _sigmoid, _unbroadcast


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
