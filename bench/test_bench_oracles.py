"""Tests of the benchmark's own oracles (numpy only; no package import).

Run with ``python3 -m pytest bench/test_bench_oracles.py``.
"""

import itertools

import numpy as np
import pytest

import oracles


def _best_by_enumeration(scores, t1, edge_bias, t2):
    """Exhaustive argmax; ties go to the lowest labels read from the end."""
    m, k = scores.shape
    best_key, best = None, None
    for path in itertools.product(range(k), repeat=m):
        key = (oracles.sequence_score(scores, t1, edge_bias, t2, path), tuple(-y for y in path[::-1]))
        if best_key is None or key > best_key:
            best_key, best = key, list(path)
    return best


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_max_plus_equals_enumeration_on_random_potentials(order, m):
    rng = np.random.default_rng(100 * order + m)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        scores, t1 = rng.normal(size=(m, k)), rng.normal(size=(k, k))
        t2 = rng.normal(size=(k, k)) if order == 2 else None
        be = float(rng.normal())
        assert oracles.max_plus_decode(scores, t1, be, t2) == _best_by_enumeration(scores, t1, be, t2)


@pytest.mark.parametrize("order", [1, 2])
def test_max_plus_tie_rule_on_integer_potentials(order):
    # small integers make many paths tie exactly
    rng = np.random.default_rng(7 + order)
    for _ in range(40):
        m, k = int(rng.integers(1, 6)), 3
        scores = rng.integers(0, 2, size=(m, k)).astype(float)
        t1 = rng.integers(0, 2, size=(k, k)).astype(float)
        t2 = rng.integers(0, 2, size=(k, k)).astype(float) if order == 2 else None
        assert oracles.max_plus_decode(scores, t1, 0.0, t2) == _best_by_enumeration(scores, t1, 0.0, t2)


def test_all_zero_potentials_decode_to_the_lowest_label():
    assert oracles.max_plus_decode(np.zeros((4, 4)), np.zeros((4, 4)), 0.0) == [0, 0, 0, 0]


def test_enumeration_of_an_independent_chain():
    # with zero transitions, log Z and marginals factor over positions
    scores = np.log(np.array([[1.0, 3.0], [2.0, 2.0], [4.0, 1.0]]))
    log_z, marg = oracles.enumerate_log_partition_and_marginals(scores, np.zeros((2, 2)), 0.0)
    assert log_z == pytest.approx(np.log(4.0 * 4.0 * 5.0), abs=1e-12)
    np.testing.assert_allclose(marg, [[0.25, 0.75], [0.5, 0.5], [0.8, 0.2]], atol=1e-12)


def test_direct_conv_hand_worked_case():
    # x = [1, 2, 3, 4, 5], kernel [1, 0, -1], bias 0.5, stride 2, same padding:
    # 3 outputs, total padding (3-1)*2 + 3 - 5 = 2, one zero on each side.
    # y0 = 0*1 + 1*0 + 2*(-1) + 0.5 = -1.5
    # y1 = 2*1 + 3*0 + 4*(-1) + 0.5 = -1.5
    # y2 = 4*1 + 5*0 + 0*(-1) + 0.5 = 4.5
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    kernels = np.array([[[1.0, 0.0, -1.0]]])
    y = oracles.direct_conv(x, 0, 5, kernels, np.array([0.5]), 2, 0, 2)
    np.testing.assert_array_equal(y, [[-1.5, -1.5, 4.5]])
    # a window of the input gives the same outputs at the positions it covers
    np.testing.assert_array_equal(oracles.direct_conv(x[:, 1:], 1, 5, kernels, np.array([0.5]), 2, 1, 2),
                                  [[-1.5, 4.5]])


def test_direct_conv_two_channels_even_width():
    # width 2, stride 1 on length 3: total padding 1, all of it on the right
    x = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    kernels = np.array([[[1.0, 1.0], [0.0, 1.0]]])  # [out=1, in=2, width=2]
    y = oracles.direct_conv(x, 0, 3, kernels, np.array([0.0]), 1, 0, 2)
    np.testing.assert_array_equal(y, [[1 + 2 + 20, 2 + 3 + 30, 3 + 0 + 0]])


def test_cnn_features_of_a_window_equal_the_whole_record():
    rng = np.random.default_rng(3)
    layers = [(3, 2, 1), (2, 1, 2), (3, 2, 1)]  # downsampling 8 samples per epoch
    residuals = [(0, 2)]
    params = {
        "cnn.layer0.kernels": rng.normal(size=(4, 1, 3)), "cnn.layer0.bias": rng.normal(size=4),
        "cnn.layer1.kernels": rng.normal(size=(4, 4, 2)), "cnn.layer1.bias": rng.normal(size=4),
        "cnn.layer2.kernels": rng.normal(size=(4, 4, 3)), "cnn.layer2.bias": rng.normal(size=4),
        "cnn.res0.proj": rng.normal(size=(4, 4)),
    }
    signal = rng.normal(size=8 * 6)
    whole = oracles.cnn_features(signal, layers, residuals, params, 0, 5)
    assert whole.shape == (4, 6)
    for e in range(6):
        np.testing.assert_allclose(oracles.cnn_features(signal, layers, residuals, params, e, e),
                                   whole[:, e : e + 1], atol=1e-12)


def test_gru_states_stay_in_the_open_unit_interval():
    rng = np.random.default_rng(5)
    params = {f"gru.{w}_{g}": rng.normal(size=(3, 2) if w == "W" else (3, 3))
              for w in ("W", "U") for g in "zrh"}
    params.update({f"gru.b_{g}": rng.normal(size=3) for g in "zrh"})
    h = oracles.gru_states(rng.normal(size=(2, 50)) * 10, params)
    assert h.shape == (3, 50) and np.all(np.abs(h) < 1)


def test_central_difference_of_a_cubic():
    a = np.array([2.0])
    assert oracles.central_difference(lambda: float(a[0] ** 3), a, 0, 1e-5) == pytest.approx(12.0, rel=1e-9)
    assert a[0] == 2.0
