"""Output layer: chain CRF potentials and exact inference.

Node scores come from a linear projection of the recurrent hidden
states; transitions are a learned [K, K] score matrix (plus an optional
second-order matrix over labels two steps apart). Every order runs on
one engine. The softmax baseline is order 0, the chain with no edges:
its transitions are held at zero, so positions are independent, log Z
is a sum of per-position log-sum-exps, marginals are row softmaxes and
Viterbi is a per-position argmax. A second-order chain is a
first-order chain over label pairs. So one log-space forward-backward
gives the partition function and marginals and one max-plus Viterbi
decodes. On a tape, the node scores, log Z, the NLL and the
cost-sensitive loss are one node each with hand-written backward
passes. Potentials must be finite; -inf is not a way to forbid a move.

The ``brute_force_*`` functions enumerate all K^m sequences and exist
purely as independent oracles for the dynamic programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import ModelParams, Tape, Tensor
from .errors import (
    DimensionError,
    EmptySequenceError,
    GuardError,
    NumericError,
    ParameterError,
)

BRUTE_FORCE_LIMIT = 1_000_000


@dataclass
class CrfPotentials:
    """Per-position node scores plus shared transition scores (log domain)."""

    scores: Tensor  # [m, K]
    transitions: Tensor  # [K, K], entry [i, j] scores the move i -> j
    edge_bias: Tensor  # scalar added to every first-order edge
    second_order: Tensor | None = None  # [K, K] over (y_{t-2}, y_t) pairs

    def __post_init__(self):
        if self.scores.ndim != 2:
            raise DimensionError(f"node scores must be [m, K], got {self.scores.shape}")
        m, k = self.scores.shape
        if m < 1:
            raise EmptySequenceError("potentials need at least one position")
        if self.transitions.shape != (k, k):
            raise DimensionError(
                f"transition matrix {self.transitions.shape} does not match {k} labels"
            )
        if self.edge_bias.size != 1:
            raise DimensionError("edge bias must be a scalar")
        if self.second_order is not None and self.second_order.shape != (k, k):
            raise DimensionError(
                f"second-order matrix {self.second_order.shape} does not match {k} labels"
            )
        for name in ("scores", "transitions", "edge_bias", "second_order"):
            t = getattr(self, name)
            if t is not None and not np.isfinite(t.data).all():
                raise NumericError(f"CRF {name} must be finite (found NaN or inf)")

    @property
    def length(self) -> int:
        return self.scores.shape[0]

    @property
    def num_labels(self) -> int:
        return self.scores.shape[1]

    @property
    def order(self) -> int:
        return 2 if self.second_order is not None else 1


def crf_init(hidden_dim: int, num_labels: int = 4, order: int = 1,
             rng: np.random.Generator | None = None) -> ModelParams:
    """Fresh output-layer parameters: scaled-uniform node projection, zero
    transitions. Order 0, the softmax baseline, has only the projection,
    named ``head.W_o`` and ``head.b``."""
    if order not in (0, 1, 2):
        raise ParameterError(f"CRF order must be 0, 1 or 2, got {order}")
    if rng is None:
        rng = np.random.default_rng(0)
    bound = np.sqrt(3.0 / hidden_dim)
    w = Tensor(rng.uniform(-bound, bound, size=(num_labels, hidden_dim)))
    b = Tensor(np.zeros(num_labels))
    if order == 0:
        return ModelParams({"head.W_o": w, "head.b": b})
    params = ModelParams({"crf.w_n": w, "crf.b_n": b})
    params["crf.T1"] = Tensor(np.zeros((num_labels, num_labels)))
    params["crf.b_e"] = Tensor(np.zeros(()))
    if order == 2:
        params["crf.T2"] = Tensor(np.zeros((num_labels, num_labels)))
    return params


def node_scores(hidden: Tensor, params: ModelParams, tape: Tape | None = None) -> Tensor:
    """S[t, k] = w[k] . h_t + b[k] for hidden states laid out [dim, m], where
    (w, b) is (crf.w_n, crf.b_n), or (head.W_o, head.b) for order 0."""
    wn, bn = ("head.W_o", "head.b") if "head.W_o" in params else ("crf.w_n", "crf.b_n")
    w, b, h = params[wn].data, params[bn].data, hidden.data
    out = Tensor((w @ h + b[:, None]).T.copy())
    if tape is not None:
        tape.record(out, (hidden, params[wn], params[bn]),
                    lambda g: (w.T @ g.T, g.T @ h.T, g.T.sum(axis=1)))
    return out


def potentials_from_hidden(hidden: Tensor, params: ModelParams,
                           tape: Tape | None = None) -> CrfPotentials:
    """Potentials of any order; an order-0 parameter set gets constant
    zero transitions and edge bias."""
    scores = node_scores(hidden, params, tape)
    k = scores.shape[1]
    return CrfPotentials(
        scores=scores,
        transitions=params.get("crf.T1", Tensor(np.zeros((k, k)))),
        edge_bias=params.get("crf.b_e", Tensor(np.zeros(()))),
        second_order=params.get("crf.T2"),
    )


def _check_labels(y, m: int, k: int) -> np.ndarray:
    labels = np.asarray(y, dtype=np.intp)
    if labels.shape != (m,):
        raise ParameterError(f"label sequence has length {labels.size}, expected {m}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ParameterError(f"labels must lie in [0, {k})")
    return labels


def sequence_score(potentials: CrfPotentials, y) -> float:
    """Unnormalized log-score of one label sequence: node terms, then
    edges plus the edge bias, then second-order skips."""
    m, k = potentials.length, potentials.num_labels
    labels = _check_labels(y, m, k)
    total = np.sum(potentials.scores.data[np.arange(m), labels])
    if m >= 2:
        edges = np.sum(potentials.transitions.data[labels[:-1], labels[1:]])
        total = total + (edges + potentials.edge_bias.data * float(m - 1))
    if potentials.order == 2 and m >= 3:
        total = total + np.sum(potentials.second_order.data[labels[:-2], labels[2:]])
    return total


# ---------------------------------------------------------------------------
# exact inference: one log-space chain engine for both orders
# ---------------------------------------------------------------------------


def _chain(p: CrfPotentials) -> tuple[np.ndarray, np.ndarray, int]:
    """Lift the potentials to a first-order chain over the m positions.

    Returns initial scores ``a0 [N]``, step scores ``psi [m-1, N, N]``
    (entry [t, a, b] scores the move from state a at position t to
    state b at t+1) and the number of slots per label, N = K * slots.
    In a first-order chain a state is a label (one slot). In a
    second-order chain the state at position t is the pair
    (y_t, y_{t-1}) with index ``y_t * K + y_{t-1}``; position 0 has no
    y_{-1} and uses slot 0 only, and moves between inconsistent pairs
    score -inf. With the current label first, numpy's lowest-index
    argmax prefers the lowest labels read from the last position
    backwards, which is the enumeration oracle's tie rule.
    """
    s = p.scores.data
    m, k = s.shape
    slots = k if p.order == 2 else 1
    a0 = np.full((k, slots), -np.inf)
    a0[:, 0] = s[0]
    # step[t, j, i, l]: move from (y_t, y_{t-1}) = (j, i) to y_{t+1} = l
    step = (p.transitions.data + p.edge_bias.data)[None, :, None, :] + s[1:, None, None, :]
    if slots == 1:
        return a0.reshape(k), step.reshape(m - 1, k, k), 1
    skip = np.zeros((m - 1, 1, k, k))  # the y_{t-1} -> y_{t+1} edge, absent at t = 0
    skip[1:, 0] = p.second_order.data
    psi = np.full((m - 1, k, k, k, k), -np.inf)
    same = np.arange(k)
    psi[:, same, :, :, same] = (step + skip).transpose(1, 0, 2, 3)
    return a0.reshape(k * k), psi.reshape(m - 1, k * k, k * k), k


def _chain_adjoint(p: CrfPotentials, g_a0: np.ndarray, g_psi: np.ndarray) -> tuple:
    """Map gradients of (a0, psi) back to the potentials' tensors."""
    m, k = p.length, p.num_labels
    slots = g_a0.size // k
    g_step = g_psi.reshape(m - 1, k, slots, k, slots)
    if slots == 1:
        g_step = g_step[..., 0]
    else:
        same = np.arange(k)
        g_step = g_step[:, same, :, :, same].transpose(1, 0, 2, 3)
    g_s = np.empty((m, k))
    g_s[0] = g_a0.reshape(k, slots)[:, 0]
    g_s[1:] = g_step.sum(axis=(1, 2))
    grads = (g_s, g_step.sum(axis=(0, 2)),
             np.full(p.edge_bias.shape, g_step.sum()))
    if p.order == 2:
        grads += (g_step[1:].sum(axis=(0, 1)),)
    return grads


def _inputs(p: CrfPotentials) -> tuple[Tensor, ...]:
    tensors = (p.scores, p.transitions, p.edge_bias)
    return tensors if p.order == 1 else tensors + (p.second_order,)


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    peak = x.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(x - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def _forward_backward(p: CrfPotentials):
    """Log forward messages alpha and backward messages beta over the
    lifted chain: (psi, alpha, beta, log Z, log state marginals [m, K, slots])."""
    a0, psi, slots = _chain(p)
    alpha = np.empty((p.length, a0.size))
    alpha[0] = a0
    for t, step in enumerate(psi):
        alpha[t + 1] = _lse(alpha[t][:, None] + step, axis=0)
    beta = np.zeros((p.length, a0.size))
    for t in range(len(psi) - 1, -1, -1):
        beta[t] = _lse(psi[t] + beta[t + 1], axis=1)
    log_z = _lse(alpha[-1], axis=0)
    log_states = (alpha + beta - log_z).reshape(p.length, p.num_labels, slots)
    return psi, alpha, beta, log_z, log_states


def _expected_counts(p: CrfPotentials, fb: tuple, g) -> tuple:
    """Adjoint of log Z scaled by g: the expected count of every state
    and move, mapped back to the potentials' tensors."""
    psi, alpha, beta, log_z, log_states = fb
    g_psi = g * np.exp(alpha[:-1, :, None] + psi + beta[1:, None, :] - log_z)
    return _chain_adjoint(p, g * np.exp(log_states[0]).reshape(-1), g_psi)


def log_partition(potentials: CrfPotentials, tape: Tape | None = None) -> Tensor:
    """log Z: log-sum over all K^m sequences of exp(sequence_score).

    On a tape this is one node; its gradient is the expected count of
    every state and move.
    """
    fb = _forward_backward(potentials)
    out = Tensor(fb[3])
    if tape is not None:
        tape.record(out, _inputs(potentials), lambda g: _expected_counts(potentials, fb, g))
    return out


def marginals(potentials: CrfPotentials) -> Tensor:
    """Per-position label probabilities M[t, k] from forward-backward."""
    log_states = _forward_backward(potentials)[-1]
    return Tensor(np.exp(_lse(log_states, axis=2)))


def _scatter(shape: tuple[int, int], rows, cols, g) -> np.ndarray:
    """Zeros of ``shape`` with g added once per (row, col) pair, in order."""
    z = np.zeros(shape)
    np.add.at(z, (rows, cols), np.full(len(rows), g))
    return z


def crf_nll(potentials: CrfPotentials, y, tape: Tape | None = None) -> Tensor:
    """Negative log-likelihood log Z - score(y); non-negative.

    On a tape this is one node; its gradient is the expected counts
    minus the observed counts of y. Each tensor's observed part is
    summed first, as a tape of separate score nodes would sum it.
    """
    m, k = potentials.length, potentials.num_labels
    labels = _check_labels(y, m, k)
    fb = _forward_backward(potentials)
    out = Tensor(fb[3] - sequence_score(potentials, labels))
    if tape is not None:

        def bw(g):
            grads = list(_expected_counts(potentials, fb, g))
            neg = -g
            grads[0] = _scatter((m, k), np.arange(m), labels, neg) + grads[0]
            if m >= 2:
                grads[1] = _scatter((k, k), labels[:-1], labels[1:], neg) + grads[1]
                grads[2] = neg * float(m - 1) + grads[2]
            if potentials.order == 2 and m >= 3:
                grads[3] = _scatter((k, k), labels[:-2], labels[2:], neg) + grads[3]
            return tuple(grads)

        tape.record(out, _inputs(potentials), bw)
    return out


def cost_sensitive_loss(potentials: CrfPotentials, y, class_weights,
                        tape: Tape | None = None) -> Tensor:
    """Inverse-frequency weighted marginal loss, -sum_t a_{y_t} log M[t, y_t].

    On a tape this is one node, whose backward is the adjoint of the
    forward and backward recursions.
    """
    m, k = potentials.length, potentials.num_labels
    labels = _check_labels(y, m, k)
    weights = np.asarray(class_weights, dtype=np.float64)
    if weights.shape != (k,) or np.any(weights <= 0):
        raise ParameterError(f"class weights must be {k} positive values")
    psi, alpha, beta, log_z, log_states = _forward_backward(potentials)
    log_m = _lse(log_states, axis=2)
    w = weights[labels]
    out = Tensor(-(w * log_m[np.arange(m), labels]).sum())
    if tape is not None:

        def bw(g):
            g_m = np.zeros((m, k))
            g_m[np.arange(m), labels] = -g * w
            # log M[t, l] = lse over slots of alpha + beta - log Z
            g_state = (g_m[:, :, None] * np.exp(log_states - log_m[:, :, None])).reshape(m, -1)
            g_alpha, g_beta = g_state.copy(), g_state
            g_alpha[-1] += g * w.sum() * np.exp(alpha[-1] - log_z)
            # beta[t] = lse_b(psi[t, :, b] + beta[t+1, b]); rows of `back` sum to one
            back = np.exp(psi + beta[1:, None, :] - beta[:-1, :, None])
            for t in range(m - 1):
                g_beta[t + 1] += g_beta[t] @ back[t]
            # alpha[t+1] = lse_a(alpha[t, a] + psi[t, a, :]); columns of `fwd` sum to one
            fwd = np.exp(alpha[:-1, :, None] + psi - alpha[1:, None, :])
            for t in range(m - 2, -1, -1):
                g_alpha[t] += fwd[t] @ g_alpha[t + 1]
            g_psi = g_beta[:-1, :, None] * back + fwd * g_alpha[1:, None, :]
            return _chain_adjoint(potentials, g_alpha[0], g_psi)

        tape.record(out, _inputs(potentials), bw)
    return out


def viterbi(potentials: CrfPotentials) -> tuple[list[int], float]:
    """Highest-scoring label sequence and its score.

    Ties resolve to the lowest label index, applied from the final
    position backwards, so the result is deterministic and matches the
    brute-force oracle's rule.
    """
    a0, psi, slots = _chain(potentials)
    v = a0
    back = np.empty((len(psi), a0.size), dtype=np.intp)
    cols = np.arange(a0.size)
    for t, step in enumerate(psi):
        cand = v[:, None] + step
        v = cand[cand.argmax(axis=0, out=back[t]), cols]
    state = int(np.argmax(v))
    score = float(v[state])
    states = [state]
    for best in back[::-1].tolist():
        state = best[state]
        states.append(state)
    return [s // slots for s in reversed(states)], score


def l1_prox(params: ModelParams, threshold: float) -> ModelParams:
    """Soft-threshold every CRF parameter coordinate in place.

    Only entries whose name starts with ``crf.`` are touched, so the
    feature extractor's weights are never shrunk. Returns ``params``.
    """
    if threshold < 0:
        raise ParameterError(f"prox threshold must be >= 0, got {threshold}")
    if threshold == 0:
        return params
    for name, t in params.items():
        if name.startswith("crf."):
            d = t.data
            np.copyto(d, np.sign(d) * np.maximum(np.abs(d) - threshold, 0.0))
    return params


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _all_label_sequences(k: int, m: int) -> np.ndarray:
    grids = np.indices((k,) * m).reshape(m, -1).T
    grids.setflags(write=False)
    return grids


def _enumerate_scores(potentials: CrfPotentials) -> tuple[np.ndarray, np.ndarray]:
    m, k = potentials.length, potentials.num_labels
    if k**m > BRUTE_FORCE_LIMIT:
        raise GuardError(f"{k}^{m} sequences exceed the brute-force bound")
    seqs = _all_label_sequences(k, m)
    s = potentials.scores.data
    scores = s[np.arange(m), seqs].sum(axis=1)
    if m >= 2:
        scores = scores + potentials.transitions.data[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
        scores = scores + float(potentials.edge_bias.data) * (m - 1)
    if potentials.order == 2 and m >= 3:
        scores = scores + potentials.second_order.data[seqs[:, :-2], seqs[:, 2:]].sum(axis=1)
    return seqs, scores


def brute_force_log_partition(potentials: CrfPotentials) -> float:
    _, scores = _enumerate_scores(potentials)
    peak = scores.max()
    return float(peak + np.log(np.exp(scores - peak).sum()))


def brute_force_marginals(potentials: CrfPotentials) -> np.ndarray:
    seqs, scores = _enumerate_scores(potentials)
    m, k = potentials.length, potentials.num_labels
    peak = scores.max()
    w = np.exp(scores - peak)
    w /= w.sum()
    out = np.empty((m, k))
    for t in range(m):
        out[t] = np.bincount(seqs[:, t], weights=w, minlength=k)
    return out


def brute_force_best(potentials: CrfPotentials) -> tuple[list[int], float]:
    """Exhaustive argmax with the Viterbi tie rule (lowest labels, read
    from the final position backwards)."""
    seqs, scores = _enumerate_scores(potentials)
    top = scores.max()
    ties = np.flatnonzero(scores == top)
    winner = min(ties, key=lambda i: tuple(seqs[i, ::-1]))
    return [int(v) for v in seqs[winner]], float(top)
