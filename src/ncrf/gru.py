"""Unidirectional gated recurrent layer over the CNN feature columns.

The update and reset gates are standard sigmoids. The candidate state
is 2*sigmoid(x) - 1 by default, matching the model this implements as
printed; ``candidate_tanh=True`` swaps in the textbook tanh (the two
differ only by the inner argument scale). Either way the hidden state
is a convex combination of the previous state and a value in (-1, 1),
so with a zero initial state every coordinate stays inside (-1, 1).

On a tape the layer is four nodes: the three input projections
(``affine``) and one node for the whole recurrence, whose backward is
hand-written backpropagation through time. That backward repeats the
arithmetic, and the order of accumulation, of the same cell spelled
out step by step in tape primitives, so its gradients equal theirs bit
for bit.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ModelParams, Tape, Tensor, _sigmoid, affine
from .errors import DimensionError, EmptySequenceError


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
    U_z, U_r, U_h = params["gru.U_z"], params["gru.U_r"], params["gru.U_h"]

    # gate input projections for every step at once
    in_z = affine(features, params["gru.W_z"], params["gru.b_z"], tape)
    in_r = affine(features, params["gru.W_r"], params["gru.b_r"], tape)
    in_h = affine(features, params["gru.W_h"], params["gru.b_h"], tape)
    xz, xr, xh = in_z.data, in_r.data, in_h.data
    uz, ur, uh = U_z.data, U_r.data, U_h.data

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
            # Written as the tape would evaluate the per-step primitives
            # (col, matmul, add, sigmoid, mul, neg, ...), in its order:
            # the sums below are not reassociated, and the column adjoints
            # gain the `+ 0.0` that scatter-adding zero matrices gives.
            gz, gr, gh = np.zeros(xz.shape), np.zeros(xr.shape), np.zeros(xh.shape)
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
                outer = (np.outer(g_az, h_prev), np.outer(g_ar, h_prev), np.outer(g_mh, h_prev))
                if t == m - 1:
                    gUz, gUr, gUh = outer
                else:
                    gUz += outer[0]
                    gUr += outer[1]
                    gUh += outer[2]
                gz[:, t], gr[:, t], gh[:, t] = g_az, g_ar, g_pre
                if t:
                    dh = g[:, t - 1] + dh * u + uh.T @ g_mh + ur.T @ g_ar + uz.T @ g_az
            if m > 1:
                gz, gr, gh = gz + 0.0, gr + 0.0, gh + 0.0
            return gz, gr, gh, gUz, gUr, gUh

        tape.record(out, (in_z, in_r, in_h, U_z, U_r, U_h), bw)
    return out
