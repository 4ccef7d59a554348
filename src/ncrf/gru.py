"""Unidirectional gated recurrent layer over the CNN feature columns.

The update and reset gates are standard sigmoids. The candidate state
is 2*sigmoid(x) - 1 by default, matching the model this implements as
printed; ``candidate_tanh=True`` swaps in the textbook tanh (the two
differ only by the inner argument scale). Either way the hidden state
is a convex combination of the previous state and a value in (-1, 1),
so with a zero initial state every coordinate stays inside (-1, 1).

On a tape the layer is one node, input projections included, whose
backward is hand-written backpropagation through time. Its states and
the losses built on them are the bytes of the same cell spelled out
step by step in generic tape operations. Its gradients are not: the
backward sums over time in GEMMs after its loop, so they agree with
that cell's within round-off (the tests bound them at 1e-13 of each
array's largest magnitude), and they are the same bytes from run to run.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ModelParams, Tape, Tensor
from .errors import DimensionError, EmptySequenceError


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """``1/(1+exp(-v))`` for v >= 0 and ``exp(v)/(1+exp(v))`` below, so
    exp never overflows; ``min(v, -v)`` keeps a NaN's sign. As 0 <= e <= 1,
    ``fmax(e, sign(v))`` is 1 for v >= 0 and e below; for a NaN it is e's
    NaN, the first of two, which the divide passes on."""
    e = np.exp(np.minimum(v, -v))
    return np.fmax(e, np.sign(v)) / (e + 1.0)


def gru_init(feature_dim: int, hidden_dim: int, rng: np.random.Generator) -> ModelParams:
    """Scaled-uniform projections, zero biases."""
    params = ModelParams()
    wb = np.sqrt(3.0 / feature_dim)
    ub = np.sqrt(3.0 / hidden_dim)
    for gate in ("z", "r", "h"):
        params[f"gru.W_{gate}"] = Tensor(rng.uniform(-wb, wb, size=(hidden_dim, feature_dim)))
        params[f"gru.U_{gate}"] = Tensor(rng.uniform(-ub, ub, size=(hidden_dim, hidden_dim)))
        params[f"gru.b_{gate}"] = Tensor(np.zeros(hidden_dim))
    return params


def gru_forward(
    features: Tensor,
    params: ModelParams,
    candidate_tanh: bool = False,
    tape: Tape | None = None,
) -> Tensor:
    """Run the recurrence over [feature_dim, m] columns from a zero
    state; returns [hidden, m]."""
    if features.ndim != 2:
        raise DimensionError(f"expected [feature_dim, m] input, got {features.shape}")
    m = features.shape[1]
    if m == 0:
        raise EmptySequenceError("GRU input has zero time steps")
    inputs = tuple(params[f"gru.{name}"] for name in
                   ("W_z", "b_z", "W_r", "b_r", "W_h", "b_h", "U_z", "U_r", "U_h"))
    f = features.data
    wz, bz, wr, br, wh, bh, uz, ur, uh = (t.data for t in inputs)

    # gate input projections for every step at once, one row per step;
    # the z and r rows are side by side so that one sigmoid serves both
    xz, xr, xh = wz @ f + bz[:, None], wr @ f + br[:, None], wh @ f + bh[:, None]
    xzr, xh = np.concatenate((xz, xr)).T.copy(), xh.T.copy()

    # hs[t + 1] is the state after step t, hs[0] the zero state. Each U
    # keeps its own matvec on a contiguous row: a stacked product, or a
    # strided h, changes which BLAS kernel runs and so its bits. ndarray.dot
    # makes the same BLAS call as `@` with less dispatch.
    n = uz.shape[0]
    hs = np.zeros((m + 1, n))
    steps = [] if tape is not None else None  # per-step values backward reads
    for t in range(m):
        h = hs[t]
        zr = _sigmoid(np.concatenate((uz.dot(h), ur.dot(h))) + xzr[t])
        u, r = zr[:n], zr[n:]
        mh = uh.dot(h)
        pre = xh[t] + r * mh
        if candidate_tanh:
            act = cand = np.tanh(pre)
        else:
            act = _sigmoid(pre)
            cand = act * 2.0 - 1.0
        keep = 1.0 - u
        if steps is not None:
            steps.append((zr, mh, act))
        np.add(u * h, keep * cand, out=hs[t + 1])
    out = Tensor(hs[1:].T.copy())

    if tape is not None:
        # the loop's values again, as whole arrays with the same bits
        zr, mh, act = (np.array(a) for a in zip(*steps))
        u, r = zr[:, :n], zr[:, n:]
        cand = act if candidate_tanh else act * 2.0 - 1.0
        # c = (1 - u) * d cand / d pre, so step t's g_pre is c[t] times
        # the adjoint of the state it makes
        c = (1.0 - u) * (1.0 - act * act if candidate_tanh else 2.0 * act * (1.0 - act))
        # row t turns that adjoint into the z, r and candidate gate adjoints
        f3 = np.stack(((hs[:m] - cand) * u * (1.0 - u), c * mh * r * (1.0 - r), c * r), axis=1)

        def bw(g):
            # dhs[t] becomes the adjoint of the state after step t; g3[t]
            # holds step t's gate adjoints, the rows of the U gradients
            dhs, g3 = g.T.copy(), np.empty((m, 3, n))
            g3f = g3.reshape(m, 3 * n)
            # stacked here rather than held on the tape from record time,
            # which raised the paper profile's peak RSS in some runs
            u3t, w3 = np.concatenate((uz, ur, uh)).T, np.concatenate((wz, wr, wh))
            for t in range(m - 1, -1, -1):
                np.multiply(f3[t], dhs[t], out=g3[t])
                if t:
                    dhs[t - 1] += u[t] * dhs[t] + u3t.dot(g3f[t])
            gU = g3f.T @ hs[:m]
            # the candidate rows become g_pre, so that g3 holds the adjoints
            # of the z, r and h input projections
            np.multiply(dhs, c, out=g3[:, 2])
            gW, gb = g3f.T @ f.T, g3f.sum(axis=0)
            return (w3.T @ g3f.T, gW[:n], gb[:n], gW[n : 2 * n], gb[n : 2 * n], gW[2 * n :],
                    gb[2 * n :], gU[:n], gU[n : 2 * n], gU[2 * n :])

        tape.record(out, (features,) + inputs, bw)
    return out
