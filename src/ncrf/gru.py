"""Unidirectional gated recurrent layer over the CNN feature columns.

The update and reset gates are standard sigmoids. The candidate state
is 2*sigmoid(x) - 1 by default, matching the model this implements as
printed; ``candidate_tanh=True`` swaps in the textbook tanh (the two
differ only by the inner argument scale). Either way the hidden state
is a convex combination of the previous state and a value in (-1, 1),
so with a zero initial state every coordinate stays inside (-1, 1).

On a tape the layer is one node, input projections included, whose
backward is hand-written backpropagation through time. That backward
repeats the arithmetic, and the order of accumulation, of the same cell
spelled out step by step in generic tape operations, so its gradients
equal theirs bit for bit.
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
        keep_dr = 1.0 - zr  # (1 - u, 1 - r)
        keep = keep_dr[:, :n]
        cand = act if candidate_tanh else act * 2.0 - 1.0
        d_act = 1.0 - act * act if candidate_tanh else 1.0 - act

        def bw(g):
            # Written as the tape would evaluate the composed cell of
            # tests/test_gru.py, primitive by primitive and in its order:
            # the sums below are not reassociated, and the column adjoints
            # gain the `+ 0.0` that scatter-adding zero matrices gives.
            # Row t of g3 holds step t's z, r and candidate gate adjoints
            # (g_az, g_ar, g_mh), the rows of the stacked U_z, U_r and U_h
            # gradients; row t of g_h holds its g_pre.
            g3, g_h = np.empty((m, 3 * n)), np.empty((m, n))
            x = np.empty(2 * n)  # one step's (g_u, g_pre * mh)
            g_rows = g.T.copy()
            dh = g_rows[m - 1]
            for t in range(m - 1, -1, -1):
                h_prev, g3_t, g_pre = hs[t], g3[t], g_h[t]
                g_azr = g3_t[: 2 * n]
                np.subtract(dh * h_prev, dh * cand[t], out=x[:n])
                if candidate_tanh:
                    np.multiply(dh * keep[t], d_act[t], out=g_pre)
                else:
                    np.multiply(dh * keep[t] * 2.0 * act[t], d_act[t], out=g_pre)
                np.multiply(g_pre, mh[t], out=x[n:])
                np.multiply(x, zr[t], out=g_azr)
                np.multiply(g_azr, keep_dr[t], out=g_azr)
                np.multiply(g_pre, r[t], out=g3_t[2 * n :])
                if t == m - 1:
                    gU = g3_t[:, None] * h_prev
                else:
                    gU += g3_t[:, None] * h_prev
                if t:
                    dh = (g_rows[t - 1] + dh * u[t] + uh.T.dot(g3_t[2 * n :])
                          + ur.T.dot(g3_t[n : 2 * n]) + uz.T.dot(g3_t[:n]))
            # [hidden, m] C-ordered adjoints, the layout the products below
            # had when they were filled column by column
            gz, gr, gh = (np.ascontiguousarray(a.T) for a in (g3[:, :n], g3[:, n : 2 * n], g_h))
            if m > 1:
                for a in (gz, gr, gh):
                    a += 0.0
            # the input projections' adjoints; the features' sums h, r, z in
            # the order the composed tape's reversed walk adds them
            g_f = wh.T @ gh + wr.T @ gr + wz.T @ gz
            return (g_f, gz @ f.T, gz.sum(axis=1), gr @ f.T, gr.sum(axis=1), gh @ f.T,
                    gh.sum(axis=1), gU[:n], gU[n : 2 * n], gU[2 * n :])

        tape.record(out, (features,) + inputs, bw)
    return out
