"""The softmax output layer, which is the chain CRF with no edges.

With zero transitions and edge bias every position is independent, so
the chain engine must reproduce per-epoch softmax classification. Each
test checks it against plain numpy formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrf.autodiff import Tape, Tensor
from ncrf.crf import (
    CrfPotentials,
    cost_sensitive_loss,
    crf_init,
    crf_nll,
    log_partition,
    marginals,
    potentials_from_hidden,
    viterbi,
)
from ncrf.errors import ParameterError

K = 4


def edgeless(scores):
    return CrfPotentials(Tensor(scores), Tensor(np.zeros((K, K))), Tensor(np.zeros(())))


def softmax(scores):
    peak = scores.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(scores - peak).sum(axis=1))
    return np.exp(scores - lse[:, None]), lse


def test_zero_parameters_give_uniform_rows():
    params = crf_init(3, order=0, rng=np.random.default_rng(0))
    assert set(params) == {"head.W_o", "head.b"}
    params["head.W_o"].data[:] = 0.0
    pot = potentials_from_hidden(Tensor(np.random.default_rng(0).normal(size=(3, 5))), params)
    assert not pot.transitions.data.any() and not pot.edge_bias.data.any()
    np.testing.assert_allclose(marginals(pot).data, np.full((5, K), 0.25), atol=1e-15)


def test_known_logits_normalize_by_hand():
    pot = edgeless(np.log([[1.0, 2.0, 3.0, 4.0]]))
    np.testing.assert_allclose(marginals(pot).data, [[0.1, 0.2, 0.3, 0.4]], atol=1e-15)


def test_shift_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(6, K))
    a = marginals(edgeless(scores)).data
    b = marginals(edgeless(scores + 13.7)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_rows_sum_to_one():
    rng = np.random.default_rng(2)
    probs = marginals(edgeless(rng.normal(scale=30, size=(20, K)))).data
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(20), atol=1e-12)


def test_nll_zero_for_certain_predictions():
    # exp(-800) underflows to 0, so every row's log-sum-exp is its maximum
    y = [0, 2, 1]
    scores = np.full((3, K), -800.0)
    scores[np.arange(3), y] = 0.0
    assert crf_nll(edgeless(scores), y).item() == 0.0
    assert cost_sensitive_loss(edgeless(scores), y, np.ones(K)).item() == 0.0


def test_nll_two_halves_is_two_ln_two():
    scores = np.full((2, K), [0.0, 0.0, -800.0, -800.0])
    assert crf_nll(edgeless(scores), [0, 1]).item() == pytest.approx(2 * np.log(2), abs=1e-15)


def test_unit_weights_reduce_to_plain_nll():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(5, K))
    y = rng.integers(0, K, size=5)
    assert cost_sensitive_loss(edgeless(scores), y, np.ones(K)).item() == pytest.approx(
        crf_nll(edgeless(scores), y).item(), rel=1e-12
    )


def test_weighted_loss_is_linear_in_weights():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(6, K))
    y = rng.integers(0, K, size=6)
    w1 = np.array([0.5, 1.0, 2.0, 1.5])
    w2 = np.array([1.0, 0.25, 0.5, 3.0])
    lhs = cost_sensitive_loss(edgeless(scores), y, w1 + w2).item()
    rhs = (cost_sensitive_loss(edgeless(scores), y, w1).item()
           + cost_sensitive_loss(edgeless(scores), y, w2).item())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gradient_wrt_logits_is_probs_minus_onehot():
    rng = np.random.default_rng(5)
    m = 7
    scores = rng.normal(size=(m, K))
    y = rng.integers(0, K, size=m)
    w = np.array([0.5, 1.0, 2.0, 1.5])
    probs, _ = softmax(scores)
    onehot = np.eye(K)[y]
    for weights, gain in ((None, np.ones(K)), (w, w)):
        pot, tape = edgeless(scores), Tape()
        tape.backward(crf_nll(pot, y, tape) if weights is None
                      else cost_sensitive_loss(pot, y, weights, tape))
        np.testing.assert_allclose(tape.grad(pot.scores), gain[y, None] * (probs - onehot),
                                   rtol=0, atol=1e-12)


def test_logits_shape_and_argmax_tie_rule():
    params = crf_init(3, order=0, rng=np.random.default_rng(6))
    hidden = np.random.default_rng(7).normal(size=(3, 4))
    scores = potentials_from_hidden(Tensor(hidden), params).scores.data
    assert scores.shape == (4, 4)
    expected = (params["head.W_o"].data @ hidden + params["head.b"].data[:, None]).T
    np.testing.assert_allclose(scores, expected, atol=1e-15)
    assert viterbi(edgeless(np.zeros((2, K))))[0] == [0, 0]


def test_nll_rejects_bad_labels_and_weights():
    pot = edgeless(np.zeros((2, K)))
    for loss in (lambda y: crf_nll(pot, y), lambda y: cost_sensitive_loss(pot, y, np.ones(K))):
        with pytest.raises(ParameterError):
            loss([0])
        with pytest.raises(ParameterError):
            loss([0, 4])
    with pytest.raises(ParameterError):
        cost_sensitive_loss(pot, [0, 1], [1.0, -1.0, 1.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1.0, 1e4), m=st.integers(1, 300))
def test_edgeless_chain_is_independent_softmax(seed, scale, m):
    # The forward and backward messages grow to A = sum_t |lse_t|, so each
    # value (a log-domain value, a probability or a gradient entry) is
    # compared within 1e-12 of A, and a weighted sum within that times its
    # weights.
    rng = np.random.default_rng(seed)
    s = rng.normal(scale=scale, size=(m, K))
    y = rng.integers(0, K, size=m)
    w = rng.uniform(0.25, 4.0, size=K)
    probs, lse = softmax(s)
    onehot = np.eye(K)[y]
    tol = 1e-12 * max(1.0, np.abs(lse).sum())
    nll = lse - s[np.arange(m), y]

    assert abs(log_partition(edgeless(s)).item() - lse.sum()) <= tol
    np.testing.assert_allclose(marginals(edgeless(s)).data, probs, rtol=tol, atol=1e-300)
    assert abs(crf_nll(edgeless(s), y).item() - nll.sum()) <= tol
    assert abs(cost_sensitive_loss(edgeless(s), y, w).item() - (w[y] * nll).sum()) <= (
        tol * w[y].sum()
    )
    pot, tape = edgeless(s), Tape()
    tape.backward(crf_nll(pot, y, tape))
    assert np.abs(tape.grad(pot.scores) - (probs - onehot)).max() <= tol
    # the marginal loss's adjoint carries sums of weights over the whole record
    pot, tape = edgeless(s), Tape()
    tape.backward(cost_sensitive_loss(pot, y, w, tape))
    expected = w[y, None] * (probs - onehot)
    assert np.abs(tape.grad(pot.scores) - expected).max() <= tol * w[y].sum()
    assert viterbi(edgeless(s))[0] == list(np.argmax(s, axis=1))
