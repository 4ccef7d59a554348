import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrf.autodiff import ModelParams, Tape, Tensor, grad_check
from ncrf.crf import (
    CrfPotentials,
    _enumerate_scores,
    brute_force_best,
    brute_force_log_partition,
    brute_force_marginals,
    cost_sensitive_loss,
    crf_init,
    crf_nll,
    l1_prox,
    log_partition,
    marginals,
    node_scores,
    potentials_from_hidden,
    sequence_score,
    viterbi,
)
from ncrf.errors import GuardError, NumericError, ParameterError
from primitives import (
    add,
    affine,
    gather_pairs,
    mul,
    reduce_sum,
    reference_viterbi,
    scale,
    sub,
    transpose,
)

K = 4


def make_potentials(rng, m, order=1, sigma=np.sqrt(2)):
    """Random potentials; order 0 is the softmax chain, with zero edges."""
    scores = Tensor(rng.normal(scale=sigma, size=(m, K)))
    if order == 0:
        return CrfPotentials(scores, Tensor(np.zeros((K, K))), Tensor(np.zeros(())))
    return CrfPotentials(
        scores=scores,
        transitions=Tensor(rng.normal(scale=sigma, size=(K, K))),
        edge_bias=Tensor(rng.normal(scale=sigma)),
        second_order=Tensor(rng.normal(scale=sigma, size=(K, K))) if order == 2 else None,
    )


def zero_potentials(m, order=1):
    return CrfPotentials(
        scores=Tensor(np.zeros((m, K))),
        transitions=Tensor(np.zeros((K, K))),
        edge_bias=Tensor(np.zeros(())),
        second_order=Tensor(np.zeros((K, K))) if order == 2 else None,
    )


# ---------------------------------------------------------------------------
# node scores and sequence scores
# ---------------------------------------------------------------------------


def test_node_scores_zero_params():
    params = ModelParams({
        "crf.w_n": Tensor(np.zeros((K, 3))),
        "crf.b_n": Tensor(np.zeros(K)),
    })
    s = node_scores(Tensor(np.ones((3, 5))), params)
    assert s.shape == (5, K)
    assert not s.data.any()


def test_node_scores_dot_products():
    params = ModelParams({
        "crf.w_n": Tensor([[1.0], [-1.0], [0.0], [0.5]]),
        "crf.b_n": Tensor(np.zeros(K)),
    })
    s = node_scores(Tensor([[2.0]]), params)
    np.testing.assert_array_equal(s.data, [[2.0, -2.0, 0.0, 1.0]])


def test_node_scores_linear_in_hidden():
    rng = np.random.default_rng(0)
    params = ModelParams({
        "crf.w_n": Tensor(rng.normal(size=(K, 6))),
        "crf.b_n": Tensor(np.zeros(K)),
    })
    h = rng.normal(size=(6, 3))
    s1 = node_scores(Tensor(h), params).data
    s2 = node_scores(Tensor(2 * h), params).data
    np.testing.assert_allclose(s2, 2 * s1, atol=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_node_scores_equal_composed_affine_transpose_bytes(order):
    # the fused node against affine then transpose: the scores and the
    # hidden, weight and bias adjoints, under an upstream with signed zeros
    rng = np.random.default_rng(30 + order)
    params = crf_init(6, K, order, rng)
    w, b = (params[n] for n in (("head.W_o", "head.b") if order == 0 else ("crf.w_n", "crf.b_n")))
    b.data[:] = rng.normal(size=K)
    for m in (1, 2, 9):
        hidden = Tensor(rng.normal(size=(6, m)))
        upstream = rng.normal(size=(m, K))
        upstream[::2, 1] = -0.0
        runs = []
        for scores_fn in (node_scores, lambda h, p, tape: transpose(affine(h, w, b, tape), tape)):
            tape = Tape()
            s = scores_fn(hidden, params, tape)
            tape.backward(reduce_sum(mul(s, Tensor(upstream), tape), tape=tape))
            runs.append([s.data.tobytes()] + [tape.grad(t).tobytes() for t in (hidden, w, b)])
        assert runs[0] == runs[1], m


def test_sequence_score_all_zero_potentials():
    pot = zero_potentials(4)
    for y in ([0, 1, 2, 3], [3, 3, 3, 3]):
        assert sequence_score(pot, y).item() == 0.0


def test_sequence_score_three_terms():
    pot = zero_potentials(2)
    pot.scores.data[0, 0] = 1.0
    pot.scores.data[1, 1] = 2.0
    pot.transitions.data[0, 1] = 3.0
    assert sequence_score(pot, [0, 1]).item() == pytest.approx(6.0)


def test_sequence_score_single_position_has_no_edges():
    rng = np.random.default_rng(1)
    pot = make_potentials(rng, 1)
    assert sequence_score(pot, [2]).item() == pytest.approx(pot.scores.data[0, 2])


def test_sequence_score_rejects_bad_labels():
    pot = zero_potentials(3)
    with pytest.raises(ParameterError):
        sequence_score(pot, [0, 1, 7])
    with pytest.raises(ParameterError):
        sequence_score(pot, [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["scores", "transitions", "edge_bias", "second_order"])
def test_potentials_reject_nonfinite_values(field, bad):
    pot = zero_potentials(3, order=2)
    values = {name: getattr(pot, name).data.copy() for name in
              ("scores", "transitions", "edge_bias", "second_order")}
    values[field].reshape(-1)[-1] = bad
    with pytest.raises(NumericError, match=field):
        CrfPotentials(*(Tensor(v) for v in values.values()))


# ---------------------------------------------------------------------------
# partition function and marginals
# ---------------------------------------------------------------------------


def test_log_partition_uniform_counts_sequences():
    assert log_partition(zero_potentials(3)).item() == pytest.approx(3 * np.log(4), abs=1e-12)


def test_log_partition_single_position_direct_sum():
    pot = zero_potentials(1)
    pot.scores.data[0] = [1.0, 2.0, 3.0, 4.0]
    direct = np.log(np.exp(1) + np.exp(2) + np.exp(3) + np.exp(4))
    assert log_partition(pot).item() == pytest.approx(direct, abs=1e-12)
    assert direct == pytest.approx(4.440189698561196, abs=1e-9)


def test_uniform_marginals_for_zero_potentials():
    m = marginals(zero_potentials(5)).data
    np.testing.assert_allclose(m, np.full((5, K), 0.25), atol=1e-12)


def test_single_position_marginals_are_softmax():
    pot = zero_potentials(1)
    pot.scores.data[0] = [0.5, -1.0, 2.0, 0.0]
    expected = np.exp(pot.scores.data[0])
    expected /= expected.sum()
    np.testing.assert_allclose(marginals(pot).data[0], expected, atol=1e-12)


@pytest.mark.parametrize("order,m_lo,m_hi", [(1, 1, 8), (2, 2, 6)])
def test_inference_matches_brute_force(order, m_lo, m_hi):
    rng = np.random.default_rng(100 + order)
    for _ in range(150):
        m = int(rng.integers(m_lo, m_hi + 1))
        pot = make_potentials(rng, m, order)
        assert log_partition(pot).item() == pytest.approx(
            brute_force_log_partition(pot), abs=1e-9
        )
        np.testing.assert_allclose(
            marginals(pot).data, brute_force_marginals(pot), atol=1e-9
        )
        path, score = viterbi(pot)
        bf_path, bf_score = brute_force_best(pot)
        assert path == bf_path
        assert score == pytest.approx(bf_score, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e2, 1e3, 1e4]),
       order=st.sampled_from([1, 2]), m=st.integers(1, 6))
def test_inference_matches_brute_force_at_extreme_scores(seed, scale, order, m):
    # relative bounds, floored at 1 for values near zero; the path itself
    # is not compared, since sums taken in another order may break a
    # near-tie differently
    pot = make_potentials(np.random.default_rng(seed), m, order, sigma=scale)
    z = brute_force_log_partition(pot)
    assert abs(log_partition(pot).item() - z) <= 1e-12 * max(1.0, abs(z))
    np.testing.assert_allclose(marginals(pot).data, brute_force_marginals(pot), rtol=0, atol=1e-9)
    path, _ = viterbi(pot)
    seqs, scores = _enumerate_scores(pot)
    best = scores.max()
    path_score = scores[np.flatnonzero((seqs == path).all(axis=1))[0]]
    assert abs(path_score - best) <= 1e-12 * max(1.0, abs(best))


def test_marginal_rows_sum_to_one():
    rng = np.random.default_rng(9)
    for order in (1, 2):
        pot = make_potentials(rng, 7, order)
        np.testing.assert_allclose(marginals(pot).data.sum(axis=1), np.ones(7), atol=1e-9)


def test_order2_pair_marginals_consistent_with_node_marginals():
    # brute-force pair marginals summed over one side must reproduce
    # the node marginals that the DP reports
    rng = np.random.default_rng(12)
    pot = make_potentials(rng, 5, order=2)
    seqs, scores = _enumerate_scores(pot)
    w = np.exp(scores - scores.max())
    w /= w.sum()
    node = marginals(pot).data
    for t in range(1, 5):
        pair = np.zeros((K, K))
        np.add.at(pair, (seqs[:, t - 1], seqs[:, t]), w)
        np.testing.assert_allclose(pair.sum(axis=0), node[t], atol=1e-9)
        np.testing.assert_allclose(pair.sum(axis=1), node[t - 1], atol=1e-9)


def test_total_probability_mass_is_one():
    rng = np.random.default_rng(21)
    for order in (1, 2):
        pot = make_potentials(rng, 6, order)
        _, scores = _enumerate_scores(pot)
        z = log_partition(pot).item()
        probs = np.exp(scores - z)
        assert ((probs > 0) & (probs <= 1)).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_shift_invariance_of_node_scores():
    rng = np.random.default_rng(33)
    pot = make_potentials(rng, 6)
    z0 = log_partition(pot).item()
    m0 = marginals(pot).data
    p0, _ = viterbi(pot)
    shifted = CrfPotentials(
        scores=Tensor(pot.scores.data.copy()),
        transitions=pot.transitions,
        edge_bias=pot.edge_bias,
    )
    shifted.scores.data[2] += 1.75
    assert log_partition(shifted).item() == pytest.approx(z0 + 1.75, abs=1e-9)
    np.testing.assert_allclose(marginals(shifted).data, m0, atol=1e-9)
    assert viterbi(shifted)[0] == p0


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_nll_zero_potentials_is_m_log_k():
    pot = zero_potentials(3)
    for y in ([0, 0, 0], [1, 3, 2]):
        assert crf_nll(pot, y).item() == pytest.approx(3 * np.log(4), abs=1e-12)


def test_nll_vanishes_in_large_margin_limit():
    pot = zero_potentials(5)
    y = [0, 1, 1, 2, 3]
    pot.scores.data[np.arange(5), y] = 50.0
    assert crf_nll(pot, y).item() < 1e-6


def test_nll_nonnegative_and_matches_brute_force():
    rng = np.random.default_rng(4)
    for order in (1, 2):
        for _ in range(30):
            m = int(rng.integers(2, 7))
            pot = make_potentials(rng, m, order)
            y = rng.integers(0, K, size=m)
            nll = crf_nll(pot, y, None).item()
            assert nll >= 0
            seqs, scores = _enumerate_scores(pot)
            z = brute_force_log_partition(pot)
            idx = int(np.flatnonzero((seqs == y).all(axis=1))[0])
            assert nll == pytest.approx(z - scores[idx], abs=1e-9)


def test_cost_sensitive_reduces_to_nll_for_single_node():
    rng = np.random.default_rng(8)
    pot = make_potentials(rng, 1)
    y = [2]
    assert cost_sensitive_loss(pot, y, np.ones(K)).item() == pytest.approx(
        crf_nll(pot, y).item(), abs=1e-12
    )


def test_cost_sensitive_zero_when_marginals_are_certain():
    pot = zero_potentials(4)
    y = [3, 0, 1, 2]
    pot.scores.data[np.arange(4), y] = 60.0
    assert cost_sensitive_loss(pot, y, np.ones(K)).item() == pytest.approx(0.0, abs=1e-9)


def test_cost_sensitive_matches_brute_force_marginals():
    rng = np.random.default_rng(15)
    alpha = np.array([0.5, 1.0, 2.0, 2.0])
    for _ in range(20):
        m = 5
        pot = make_potentials(rng, m)
        y = rng.integers(0, K, size=m)
        expected = -sum(
            alpha[y[t]] * np.log(brute_force_marginals(pot)[t, y[t]]) for t in range(m)
        )
        assert cost_sensitive_loss(pot, y, alpha).item() == pytest.approx(expected, abs=1e-8)


def test_cost_sensitive_rejects_bad_weights():
    pot = zero_potentials(2)
    with pytest.raises(ParameterError):
        cost_sensitive_loss(pot, [0, 1], [1.0, 1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_viterbi_all_zero_prefers_lowest_labels():
    path, score = viterbi(zero_potentials(4))
    assert path == [0, 0, 0, 0]
    assert score == 0.0
    path2, _ = viterbi(zero_potentials(3, order=2))
    assert path2 == [0, 0, 0]


@pytest.mark.parametrize("order", [1, 2])
def test_viterbi_exact_ties_follow_the_oracle(order):
    # integer sums are exact in any order, so these ties are real; reading
    # them from the first position instead of the last picks another path
    # in 218 (order 1) and 207 (order 2) of these draws
    rng = np.random.default_rng(11)
    for _ in range(1500):
        m = int(rng.integers(1, 7))
        pot = CrfPotentials(
            scores=Tensor(rng.integers(-1, 2, size=(m, K))),
            transitions=Tensor(rng.integers(-1, 2, size=(K, K))),
            edge_bias=Tensor(rng.integers(-1, 2)),
            second_order=Tensor(rng.integers(-1, 2, size=(K, K))) if order == 2 else None,
        )
        assert viterbi(pot) == brute_force_best(pot)


def test_viterbi_decouples_without_transitions():
    rng = np.random.default_rng(2)
    pot = zero_potentials(6)
    pot.scores.data[:] = rng.normal(size=(6, K))
    path, _ = viterbi(pot)
    assert path == list(np.argmax(pot.scores.data, axis=1))
    # integer scores make exact ties, which go to the lowest label as in np.argmax
    for _ in range(200):
        pot = zero_potentials(int(rng.integers(1, 301)))
        pot.scores.data[:] = rng.integers(-1, 2, size=pot.scores.shape)
        assert viterbi(pot)[0] == list(np.argmax(pot.scores.data, axis=1))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([0, 1, 2]), m=st.integers(1, 300))
def test_viterbi_equals_the_list_based_reference(seed, order, m):
    # scores in {-1, 0, 1} make exact ties at every length, so the
    # back-pointers and the tie rule are compared, not only the best score
    rng = np.random.default_rng(seed)
    scores = Tensor(rng.integers(-1, 2, size=(m, K)).astype(float))
    if order == 0:  # edgeless, as potentials_from_hidden builds the softmax chain
        pot = CrfPotentials(scores, Tensor(np.zeros((K, K))), Tensor(np.zeros(())))
    else:
        pot = CrfPotentials(
            scores=scores,
            transitions=Tensor(rng.integers(-1, 2, size=(K, K)).astype(float)),
            edge_bias=Tensor(np.float64(rng.integers(-1, 2))),
            second_order=(Tensor(rng.integers(-1, 2, size=(K, K)).astype(float))
                          if order == 2 else None),
        )
    path, score = viterbi(pot)
    ref_path, ref_score = reference_viterbi(pot)
    assert path == ref_path
    assert np.float64(score).tobytes() == np.float64(ref_score).tobytes()


def test_viterbi_score_dominates_random_sequences():
    rng = np.random.default_rng(14)
    pot = make_potentials(rng, 7)
    _, best = viterbi(pot)
    for _ in range(50):
        y = rng.integers(0, K, size=7)
        assert best >= sequence_score(pot, y).item() - 1e-12


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _potential_params(rng, m, order):
    params = ModelParams({
        "S": Tensor(rng.normal(size=(m, K))),
        "T1": Tensor(rng.normal(size=(K, K))),
        "be": Tensor(rng.normal(size=())),
    })
    if order == 2:
        params["T2"] = Tensor(rng.normal(size=(K, K)))
    return params


@pytest.mark.parametrize("order", [1, 2])
def test_nll_gradient_matches_finite_differences(order):
    rng = np.random.default_rng(40 + order)
    m = 6
    params = _potential_params(rng, m, order)
    y = rng.integers(0, K, size=m)

    def loss(p, tape):
        pot = CrfPotentials(p["S"], p["T1"], p["be"], p.get("T2"))
        return crf_nll(pot, y, tape)

    assert grad_check(loss, params, samples=40, rng=rng) < 1e-4


@pytest.mark.parametrize("order", [1, 2])
def test_cost_sensitive_gradient_matches_finite_differences(order):
    rng = np.random.default_rng(50 + order)
    m = 5
    params = _potential_params(rng, m, order)
    y = rng.integers(0, K, size=m)

    def loss(p, tape):
        pot = CrfPotentials(p["S"], p["T1"], p["be"], p.get("T2"))
        return cost_sensitive_loss(pot, y, [0.5, 1.0, 2.0, 2.0], tape)

    assert grad_check(loss, params, samples=40, rng=rng) < 1e-4


def test_closed_form_node_gradient():
    rng = np.random.default_rng(60)
    m = 7
    params = _potential_params(rng, m, 1)
    y = rng.integers(0, K, size=m)
    tape = Tape()
    pot = CrfPotentials(params["S"], params["T1"], params["be"])
    tape.backward(crf_nll(pot, y, tape))
    onehot = np.zeros((m, K))
    onehot[np.arange(m), y] = 1.0
    expected = marginals(pot).data - onehot
    assert np.abs(tape.grad(params["S"]) - expected).max() < 1e-10


def test_transition_gradient_of_log_partition_is_expected_counts():
    # d log Z / d T1[i, j] = expected number of i -> j moves under the model,
    # d log Z / d T2[i, k] = expected number of (y_{t-2}, y_t) = (i, k) pairs,
    # and every sequence has m - 1 first-order edges, so d log Z / d b_e = m - 1
    rng = np.random.default_rng(12)
    for order in (1, 2):
        for m in range(1, 7):
            for _ in range(20):
                pot = make_potentials(rng, m, order)
                tape = Tape()
                tape.backward(log_partition(pot, tape))
                seqs, scores = _enumerate_scores(pot)
                w = np.exp(scores - scores.max())
                w /= w.sum()
                for gap, table in ((1, pot.transitions), (2, pot.second_order)):
                    if table is None:
                        continue
                    counts = np.zeros((K, K))
                    for t in range(m - gap):
                        np.add.at(counts, (seqs[:, t], seqs[:, t + gap]), w)
                    assert np.abs(tape.grad(table) - counts).max() < 1e-9
                assert abs(tape.grad(pot.edge_bias) - (m - 1)) < 1e-9


def test_log_partition_and_cost_sensitive_loss_are_one_tape_node_each():
    rng = np.random.default_rng(13)
    for order in (0, 1, 2):
        pot = make_potentials(rng, 9, order)
        tape = Tape()
        log_partition(pot, tape)
        cost_sensitive_loss(pot, rng.integers(0, K, size=9), np.ones(K), tape)
        crf_nll(pot, rng.integers(0, K, size=9), tape)
        assert len(tape) == 3


def composed_nll(pot, y, tape=None):
    """log Z minus the score of y, the score built from one tape node per
    gather, sum, scale and add: the reference the fused NLL must match."""
    m = pot.length
    labels = np.asarray(y)
    log_z = log_partition(pot, tape)
    total = reduce_sum(gather_pairs(pot.scores, np.arange(m), labels, tape), tape=tape)
    if m >= 2:
        edges = reduce_sum(gather_pairs(pot.transitions, labels[:-1], labels[1:], tape), tape=tape)
        total = add(total, add(edges, scale(pot.edge_bias, float(m - 1), tape), tape), tape)
    if pot.order == 2 and m >= 3:
        skips = reduce_sum(gather_pairs(pot.second_order, labels[:-2], labels[2:], tape), tape=tape)
        total = add(total, skips, tape)
    return sub(log_z, total, tape)


@pytest.mark.parametrize("upstream", [1.0, -1.0, -0.0, 0.0])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_fused_nll_equals_composed_bytes(order, upstream):
    # the loss and every potential's gradient, by bytes, under an upstream
    # adjoint of 1, -1 and both zeros; random lengths repeat labels along the path
    rng = np.random.default_rng(80 + order)
    for m in [1, 2, 3] + [int(v) for v in rng.integers(4, 40, size=10)]:
        for sigma in (1.0, 1e3):
            pot = make_potentials(rng, m, order, sigma)
            y = rng.integers(0, K, size=m)
            runs = []
            for nll_fn in (crf_nll, composed_nll):
                tape = Tape()
                nll = nll_fn(pot, y, tape)
                tape.backward(mul(nll, Tensor(upstream), tape))
                runs.append([nll.data.tobytes()] + [
                    tape.grad(t).tobytes() for t in
                    (pot.scores, pot.transitions, pot.edge_bias, pot.second_order)
                    if t is not None
                ])
            assert runs[0] == runs[1], f"m={m} sigma={sigma}"


# ---------------------------------------------------------------------------
# L1 prox and initialization
# ---------------------------------------------------------------------------


def test_l1_prox_examples():
    params = ModelParams({
        "crf.T1": Tensor([[0.003, -1.0], [0.0, 0.25]]),
        "gru.W_z": Tensor([[5.0]]),
    })
    l1_prox(params, 0.0)
    np.testing.assert_array_equal(params["crf.T1"].data, [[0.003, -1.0], [0.0, 0.25]])
    l1_prox(params, 0.005)
    assert params["crf.T1"].data[0, 0] == 0.0
    l1_prox(params, 0.245)
    assert params["crf.T1"].data[0, 1] == pytest.approx(-0.75)
    np.testing.assert_array_equal(params["gru.W_z"].data, [[5.0]])  # untouched


def test_l1_prox_rejects_negative_threshold():
    with pytest.raises(ParameterError):
        l1_prox(ModelParams(), -0.1)


def test_crf_init_shapes_and_zero_transitions():
    params = crf_init(16, order=2, rng=np.random.default_rng(0))
    assert params["crf.w_n"].shape == (K, 16)
    assert not params["crf.T1"].data.any()
    assert not params["crf.T2"].data.any()
    assert params["crf.b_e"].shape == ()


def test_potentials_from_hidden_wires_parameter_tensors():
    params = crf_init(3, rng=np.random.default_rng(1))
    pot = potentials_from_hidden(Tensor(np.ones((3, 4))), params)
    assert pot.transitions is params["crf.T1"]
    assert pot.order == 1


# ---------------------------------------------------------------------------
# oracle guards
# ---------------------------------------------------------------------------


def test_brute_force_guard_rejects_large_m():
    with pytest.raises(GuardError):
        brute_force_log_partition(zero_potentials(10))


def test_zero_potential_oracles():
    pot = zero_potentials(2)
    assert brute_force_log_partition(pot) == pytest.approx(2 * np.log(4), abs=1e-12)
    np.testing.assert_allclose(brute_force_marginals(pot), 0.25, atol=1e-12)
