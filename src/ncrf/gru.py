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
    exp never overflows; ``min(v, -v)`` keeps a NaN's sign."""
    e = np.exp(np.minimum(v, -v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


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

    # gate input projections for every step at once
    xz, xr, xh = wz @ f + bz[:, None], wr @ f + br[:, None], wh @ f + bh[:, None]

    # h stays a contiguous vector, never a strided view: the BLAS matvec
    # path, and so its bits, depend on the layout
    h = np.zeros(uz.shape[0])
    states = []
    steps = [] if tape is not None else None  # per-step values backward reads
    for t in range(m):
        u = _sigmoid(xz[:, t] + uz @ h)
        r = _sigmoid(xr[:, t] + ur @ h)
        mh = uh @ h
        pre = xh[:, t] + r * mh
        if candidate_tanh:
            act = cand = np.tanh(pre)
        else:
            act = _sigmoid(pre)
            cand = act * 2.0 - 1.0
        keep = 1.0 - u
        if steps is not None:
            steps.append((h, u, r, mh, act, cand, keep))
        h = u * h + keep * cand
        states.append(h)
    out = Tensor(np.stack(states, axis=1))

    if tape is not None:

        def bw(g):
            # Written as the tape would evaluate the composed cell of
            # tests/test_gru.py, primitive by primitive and in its order:
            # the sums below are not reassociated, and the column adjoints
            # gain the `+ 0.0` that scatter-adding zero matrices gives.
            gz, gr, gh = np.zeros(xz.shape), np.zeros(xr.shape), np.zeros(xh.shape)
            n = uz.shape[0]
            g3 = np.empty(3 * n)  # the z, r and candidate gate adjoints of one step
            dh = g[:, m - 1]
            for t in range(m - 1, -1, -1):
                h_prev, u, r, mh, act, cand, keep = steps[t]
                g_keep = dh * cand
                g_cand = dh * keep
                g_u = dh * h_prev + (-g_keep)
                if candidate_tanh:
                    g_pre = g_cand * (1.0 - act * act)
                else:
                    g_pre = (g_cand * 2.0) * act * (1.0 - act)
                g_mh = g_pre * r
                g_ar = (g_pre * mh) * r * (1.0 - r)
                g_az = g_u * u * (1.0 - u)
                g3[:n], g3[n : 2 * n], g3[2 * n :] = g_az, g_ar, g_mh
                if t == m - 1:  # the stacked U_z, U_r and U_h gradients
                    gU = g3[:, None] * h_prev
                else:
                    gU += g3[:, None] * h_prev
                gz[:, t], gr[:, t], gh[:, t] = g_az, g_ar, g_pre
                if t:
                    dh = g[:, t - 1] + dh * u + uh.T @ g_mh + ur.T @ g_ar + uz.T @ g_az
            if m > 1:
                gz, gr, gh = gz + 0.0, gr + 0.0, gh + 0.0
            # the input projections' adjoints; the features' sums h, r, z in
            # the order the composed tape's reversed walk adds them
            g_f = wh.T @ gh + wr.T @ gr + wz.T @ gz
            return (g_f, gz @ f.T, gz.sum(axis=1), gr @ f.T, gr.sum(axis=1), gh @ f.T,
                    gh.sum(axis=1), gU[:n], gU[n : 2 * n], gU[2 * n :])

        tape.record(out, (features,) + inputs, bw)
    return out
