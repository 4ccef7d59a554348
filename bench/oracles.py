"""Reference computations the benchmark checks the program against.

Everything here is written from the model's definition, not from the
package: plain max-plus decoding, enumeration over all label sequences,
direct convolution over an epoch's receptive field, a step-by-step GRU
and central finite differences. Only numpy is imported, so a fault in
the package cannot leak into its own oracle.
"""

from __future__ import annotations

import itertools

import numpy as np


# ---------------------------------------------------------------------------
# chain CRF: max-plus decoding and enumeration
# ---------------------------------------------------------------------------


def sequence_score(scores, t1, edge_bias, t2, path) -> float:
    """Log-score of one label path: node scores, first-order edges plus
    their shared bias, and second-order edges (y_{t-2}, y_t) when t2 is given."""
    total = sum(scores[t, y] for t, y in enumerate(path))
    for t in range(1, len(path)):
        total += t1[path[t - 1], path[t]] + edge_bias
    if t2 is not None:
        for t in range(2, len(path)):
            total += t2[path[t - 2], path[t]]
    return float(total)


def max_plus_decode(scores, t1, edge_bias, t2=None) -> list[int]:
    """Best label path under max-plus, by dynamic programming over
    states (y_t) for order 1 or (y_{t-1}, y_t) for order 2.

    Ties go to the lowest label, read from the final position backwards:
    the last label is the lowest best one, then each earlier label is
    the lowest predecessor that attains the best score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    m, k = scores.shape
    if m == 1 or t2 is None:
        best = scores[0].copy()
        choice = []
        for t in range(1, m):
            options = [[best[i] + t1[i, j] + edge_bias for i in range(k)] for j in range(k)]
            choice.append([_lowest_argmax(o) for o in options])
            best = np.array([max(o) for o in options]) + scores[t]
        path = [_lowest_argmax(best)]
        for back in reversed(choice):
            path.append(back[path[-1]])
        return path[::-1]
    # pair[i, j]: best score of a prefix ending with labels (i, j)
    pair = np.array([[scores[0, i] + scores[1, j] + t1[i, j] + edge_bias for j in range(k)]
                     for i in range(k)])
    choice = []
    for t in range(2, m):
        new = np.empty((k, k))
        back = np.empty((k, k), dtype=int)
        for j in range(k):
            for l in range(k):
                options = [pair[i, j] + t2[i, l] for i in range(k)]
                back[j, l] = _lowest_argmax(options)
                new[j, l] = max(options) + t1[j, l] + edge_bias + scores[t, l]
        choice.append(back)
        pair = new
    last = _lowest_argmax(pair.max(axis=0))
    before = _lowest_argmax(pair[:, last])
    path = [last, before]
    for back in reversed(choice):
        path.append(int(back[path[-1], path[-2]]))
    return path[::-1]


def _lowest_argmax(values) -> int:
    values = list(values)
    top = max(values)
    return values.index(top)


def enumerate_log_partition_and_marginals(scores, t1, edge_bias, t2=None):
    """log Z and node marginals [m, K] by summing over every label path."""
    scores = np.asarray(scores, dtype=np.float64)
    m, k = scores.shape
    paths = list(itertools.product(range(k), repeat=m))
    values = np.array([sequence_score(scores, t1, edge_bias, t2, p) for p in paths])
    peak = values.max()
    weights = np.exp(values - peak)
    log_z = peak + np.log(weights.sum())
    weights /= weights.sum()
    marg = np.zeros((m, k))
    for p, w in zip(paths, weights):
        for t, y in enumerate(p):
            marg[t, y] += w
    return float(log_z), marg


# ---------------------------------------------------------------------------
# network forward pieces
# ---------------------------------------------------------------------------


def _same_padding_left(t_in: int, width: int, stride: int) -> tuple[int, int]:
    """Output length ceil(t_in / stride) and the zero padding on the left:
    half of the total padding, rounded down."""
    t_out = -(-t_in // stride)
    total = max(0, (t_out - 1) * stride + width - t_in)
    return t_out, total // 2


def direct_conv(x, x_start: int, t_in: int, kernels, bias, stride: int, out_lo: int, out_hi: int):
    """Same-padded strided cross-correlation at output positions out_lo..out_hi.

    ``x`` holds input columns x_start.. of a [C_in, t_in] signal; positions
    outside [0, t_in) are the zero padding. Each output is the bias plus a
    sum over kernel taps, one tap at a time.
    """
    c_out, c_in, width = kernels.shape
    _, pad = _same_padding_left(t_in, width, stride)
    outs = np.arange(out_lo, out_hi + 1)
    y = np.repeat(np.asarray(bias, dtype=np.float64)[:, None], outs.size, axis=1)
    for w in range(width):
        pos = outs * stride - pad + w
        inside = (pos >= 0) & (pos < t_in)
        if not inside.any():
            continue
        cols = np.zeros((c_in, outs.size))
        cols[:, inside] = x[:, pos[inside] - x_start]
        y += kernels[:, :, w] @ cols
    return y


def cnn_features(signal, layers, residual_pairs, params, first_epoch: int, last_epoch: int):
    """Features of epochs first..last, computed over their receptive field only.

    ``layers`` is a sequence of (kernel_width, stride, pool_window) and
    ``residual_pairs`` of (source, target) layer indices; parameter names
    follow the checkpoint's table. Each layer is conv -> ReLU -> max-pool
    over non-overlapping windows, then the residual add, whose shortcut
    takes every ratio-th column of the source and is projected by U^T
    when a projection is stored.
    """
    n = signal.size
    lengths = [n]
    for width, stride, pool in layers:
        lengths.append(-(-lengths[-1] // stride) // pool)
    ratio = {}
    for src, tgt in residual_pairs:
        r = 1
        for _, stride, pool in layers[src + 1 : tgt + 1]:
            r *= stride * pool
        ratio[(src, tgt)] = r

    # needed[i]: the range of layer i's output columns to compute
    needed = {len(layers) - 1: (first_epoch, last_epoch)}
    for i in range(len(layers) - 1, -1, -1):
        lo, hi = needed[i]
        for src, tgt in residual_pairs:
            if tgt == i:
                _widen(needed, src, lo * ratio[(src, tgt)], hi * ratio[(src, tgt)])
        width, stride, pool = layers[i]
        _, pad = _same_padding_left(lengths[i], width, stride)
        in_lo = max(0, lo * pool * stride - pad)
        in_hi = min(lengths[i] - 1, (hi * pool + pool - 1) * stride - pad + width - 1)
        if i > 0:
            _widen(needed, i - 1, in_lo, in_hi)

    x, x_start = np.asarray(signal, dtype=np.float64).reshape(1, -1), 0
    saved = {}
    for i, (width, stride, pool) in enumerate(layers):
        lo, hi = needed[i]
        conv = direct_conv(x, x_start, lengths[i], params[f"cnn.layer{i}.kernels"],
                           params[f"cnn.layer{i}.bias"], stride, lo * pool, hi * pool + pool - 1)
        act = np.maximum(conv, 0.0)
        out = act.reshape(act.shape[0], hi - lo + 1, pool).max(axis=2)
        for j, (src, tgt) in enumerate(residual_pairs):
            if tgt == i:
                s, s_start = saved[src]
                cols = np.arange(lo, hi + 1) * ratio[(src, tgt)] - s_start
                shortcut = s[:, cols]
                proj = params.get(f"cnn.res{j}.proj")
                out = out + (proj.T @ shortcut if proj is not None else shortcut)
        if any(src == i for src, _ in residual_pairs):
            saved[i] = (out, lo)
        x, x_start = out, lo
    return x


def _widen(needed, i, lo, hi):
    if i in needed:
        lo, hi = min(lo, needed[i][0]), max(hi, needed[i][1])
    needed[i] = (lo, hi)


def _logistic(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def gru_states(features, params, candidate_tanh: bool = False):
    """Hidden states [hidden, m] of the gated recurrence from a zero state:
    z and r gates, candidate 2*sigmoid(pre) - 1 (or tanh), and
    h_t = z * h_{t-1} + (1 - z) * candidate."""
    wz, wr, wh = params["gru.W_z"], params["gru.W_r"], params["gru.W_h"]
    uz, ur, uh = params["gru.U_z"], params["gru.U_r"], params["gru.U_h"]
    bz, br, bh = params["gru.b_z"], params["gru.b_r"], params["gru.b_h"]
    h = np.zeros(uz.shape[0])
    out = np.empty((uz.shape[0], features.shape[1]))
    for t in range(features.shape[1]):
        x = features[:, t]
        z = _logistic(wz @ x + bz + uz @ h)
        r = _logistic(wr @ x + br + ur @ h)
        pre = wh @ x + bh + r * (uh @ h)
        cand = np.tanh(pre) if candidate_tanh else 2.0 * _logistic(pre) - 1.0
        h = z * h + (1.0 - z) * cand
        out[:, t] = h
    return out


def node_scores(hidden, params):
    """S[t, k] = w_n[k] . h_t + b_n[k]."""
    return (params["crf.w_n"] @ hidden + params["crf.b_n"][:, None]).T


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def central_difference(loss_at, array: np.ndarray, index: int, eps: float) -> float:
    """(f(x + eps e_i) - f(x - eps e_i)) / 2 eps, restoring the coordinate."""
    orig = array.flat[index]
    try:
        array.flat[index] = orig + eps
        plus = loss_at()
        array.flat[index] = orig - eps
        minus = loss_at()
    finally:
        array.flat[index] = orig
    return (plus - minus) / (2.0 * eps)


def gradient_agrees(tape_grad: float, loss_at, array, index,
                    steps=(1e-5, 1e-4, 1e-6)) -> tuple[bool, float]:
    """Whether the tape gradient matches a central difference at any of
    ``steps``: |g - fd| <= 1e-6 + 1e-4 * max(|g|, |fd|).

    The first step balances truncation against rounding: the
    cost-sensitive loss loses about 1e-11 to rounding, which a step of
    1e-7 turns into a 1e-4 error. Another step is tried only when one
    disagrees, since a ReLU or max-pool kink within a step of the point
    spoils that difference quotient alone. Returns (agrees, the last
    difference quotient).
    """
    fd = float("nan")
    for eps in steps:
        fd = central_difference(loss_at, array, index, eps)
        if abs(tape_grad - fd) <= 1e-6 + 1e-4 * max(abs(tape_grad), abs(fd)):
            return True, fd
    return False, fd
