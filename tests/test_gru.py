import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncrf.model
from ncrf.autodiff import (
    ModelParams,
    Tape,
    Tensor,
    _sigmoid,
    add,
    affine,
    col,
    grad_check,
    logsumexp,
    matmul,
    mul,
    neg,
    reshape,
    scale,
    sigmoid,
    stack_cols,
    tanh,
)
from ncrf.data import Record
from ncrf.errors import EmptySequenceError
from ncrf.gru import gru_forward, gru_init
from ncrf.model import desk_config, init_params, record_loss

# ---------------------------------------------------------------------------
# reference: the same cell spelled out step by step in tape primitives
# ---------------------------------------------------------------------------


def _add_const(a, c, tape=None):
    out = Tensor(a.data + c)
    if tape is not None:
        tape.record(out, (a,), lambda g: (g,))
    return out


def composed_gru(features, params, candidate_tanh=False, tape=None):
    """About 20 tape nodes per step; the fused layer must match it bit for bit."""
    m = features.shape[1]
    h = Tensor(np.zeros(params["gru.U_z"].shape[0]))
    in_z = affine(features, params["gru.W_z"], params["gru.b_z"], tape)
    in_r = affine(features, params["gru.W_r"], params["gru.b_r"], tape)
    in_h = affine(features, params["gru.W_h"], params["gru.b_h"], tape)
    states = []
    for t in range(m):
        u = sigmoid(add(col(in_z, t, tape), matmul(params["gru.U_z"], h, tape), tape), tape)
        r = sigmoid(add(col(in_r, t, tape), matmul(params["gru.U_r"], h, tape), tape), tape)
        pre = add(col(in_h, t, tape), mul(r, matmul(params["gru.U_h"], h, tape), tape), tape)
        if candidate_tanh:
            cand = tanh(pre, tape)
        else:
            cand = _add_const(scale(sigmoid(pre, tape), 2.0, tape), -1.0, tape)
        keep = _add_const(neg(u, tape), 1.0, tape)
        h = add(mul(u, h, tape), mul(keep, cand, tape), tape)
        states.append(h)
    return stack_cols(states, tape)


def _masked_sigmoid(v):
    """The two-branch form with boolean-mask indexing."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def zero_params(feature_dim, hidden_dim):
    params = ModelParams()
    for gate in ("z", "r", "h"):
        params[f"gru.W_{gate}"] = Tensor(np.zeros((hidden_dim, feature_dim)))
        params[f"gru.U_{gate}"] = Tensor(np.zeros((hidden_dim, hidden_dim)))
        params[f"gru.b_{gate}"] = Tensor(np.zeros(hidden_dim))
    return params


def test_zero_system_fixed_point():
    # candidate is 2*sigmoid(0)-1 = 0, update gate 0.5, so h stays 0
    params = zero_params(3, 4)
    out = gru_forward(Tensor(np.random.default_rng(0).normal(size=(3, 6))), params)
    np.testing.assert_array_equal(out.data, np.zeros((4, 6)))


def test_single_step_hand_computed():
    # update gate sees 0 -> 0.5; candidate pre-activation is exactly 1
    params = zero_params(1, 1)
    params["gru.b_h"].data[:] = 1.0
    out = gru_forward(Tensor([[0.0]]), params)
    sig1 = 1.0 / (1.0 + np.exp(-1.0))
    expected = 0.5 * (2.0 * sig1 - 1.0)
    assert out.data[0, 0] == pytest.approx(expected, abs=1e-15)
    assert out.data[0, 0] == pytest.approx(0.2310585786300049, abs=1e-12)


def test_candidate_tanh_flag_matches_scaled_sigmoid_identity():
    # tanh(x) == 2*sigmoid(2x) - 1, so doubling the candidate inputs of the
    # default cell reproduces the tanh cell exactly
    rng = np.random.default_rng(3)
    feature_dim, hidden_dim, m = 3, 4, 5
    params = gru_init(feature_dim, hidden_dim, rng)
    z = Tensor(rng.normal(size=(feature_dim, m)))
    as_tanh = gru_forward(z, params, candidate_tanh=True).data

    doubled = ModelParams({k: Tensor(v.data.copy()) for k, v in params.items()})
    for name in ("gru.W_h", "gru.b_h"):
        doubled[name].data *= 2.0
    # U_h feeds the candidate through the reset product; scale it too
    doubled["gru.U_h"].data *= 2.0
    as_sigmoid = gru_forward(z, doubled, candidate_tanh=False).data
    np.testing.assert_allclose(as_tanh, as_sigmoid, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_hidden_state_strictly_inside_unit_box(seed):
    # strict as long as the gates stay away from exact float saturation
    rng = np.random.default_rng(seed)
    feature_dim, hidden_dim, m = 2, 3, 8
    params = gru_init(feature_dim, hidden_dim, rng)
    for p in params.values():
        p.data *= 3.0  # exaggerate weights; bound must still hold
    z = Tensor(rng.normal(scale=2.0, size=(feature_dim, m)))
    out = gru_forward(z, params).data
    assert np.abs(out).max() < 1.0


def test_unidirectional_causality():
    rng = np.random.default_rng(7)
    params = gru_init(3, 4, rng)
    z = rng.normal(size=(3, 6))
    base = gru_forward(Tensor(z), params).data
    poked = z.copy()
    poked[:, 4] += 10.0  # future of t = 3
    out = gru_forward(Tensor(poked), params).data
    np.testing.assert_array_equal(out[:, :4], base[:, :4])
    assert np.abs(out[:, 4:] - base[:, 4:]).max() > 0


def test_empty_sequence_rejected():
    params = gru_init(2, 2, np.random.default_rng(0))
    with pytest.raises(EmptySequenceError):
        gru_forward(Tensor(np.zeros((2, 0))), params)


@pytest.mark.parametrize("candidate_tanh", [False, True])
def test_gradients_through_five_steps(candidate_tanh):
    rng = np.random.default_rng(13)
    params = gru_init(3, 4, rng)
    params["Z"] = Tensor(rng.normal(size=(3, 5)))

    def loss(p, tape):
        h = gru_forward(p["Z"], p, candidate_tanh=candidate_tanh, tape=tape)
        return logsumexp(reshape(h, (-1,), tape), tape=tape)

    assert grad_check(loss, params, samples=50, rng=rng) < 1e-4


# ---------------------------------------------------------------------------
# the fused layer against the composed reference, byte for byte
# ---------------------------------------------------------------------------


def test_sigmoid_matches_masked_two_branch_form_bit_for_bit():
    special = np.array([
        0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
        np.nan, -np.nan, np.inf, -np.inf, 36.9, -36.9, 709.9, -709.9, 745.2, -745.2,
    ])
    rng = np.random.default_rng(17)
    grid = np.concatenate([
        special,
        rng.normal(scale=10.0, size=5000),
        rng.uniform(-40.0, 40.0, size=5000),
        np.linspace(-800.0, 800.0, 4001),
    ])
    assert _sigmoid(grid).tobytes() == _masked_sigmoid(grid).tobytes()
    for v in special:  # one element at a time too: numpy's short-array loops
        one = np.array([v])
        assert _sigmoid(one).tobytes() == _masked_sigmoid(one).tobytes(), v


@pytest.mark.parametrize("candidate_tanh", [False, True])
@pytest.mark.parametrize("m", [1, 2, 7])
def test_fused_forward_equals_composed_bytes(candidate_tanh, m):
    rng = np.random.default_rng(40 + m)
    params = gru_init(5, 6, rng)
    for p in params.values():
        p.data += rng.normal(scale=0.3, size=p.shape)  # nonzero biases
    z = Tensor(rng.normal(scale=2.0, size=(5, m)))
    reference = composed_gru(z, params, candidate_tanh).data
    fused = gru_forward(z, params, candidate_tanh=candidate_tanh)
    taped = gru_forward(z, params, candidate_tanh=candidate_tanh, tape=Tape())
    assert fused.data.tobytes() == reference.tobytes()
    assert taped.data.tobytes() == reference.tobytes()
    assert fused.data.flags.c_contiguous


def test_fused_layer_is_four_tape_nodes():
    rng = np.random.default_rng(2)
    params = gru_init(3, 4, rng)
    tape = Tape()
    gru_forward(Tensor(rng.normal(size=(3, 30))), params, tape=tape)
    assert len(tape) == 4


def _loss_and_grads(config, params, record, weights):
    tape = Tape()
    loss = record_loss(config, params, record, weights, training=True,
                       rng=np.random.default_rng(5), tape=tape)
    tape.backward(loss)
    return loss.data.tobytes(), {name: tape.grad(t).tobytes() for name, t in params.items()}


@pytest.mark.parametrize("kind", ["softmax", "crf", "crf2"])
@pytest.mark.parametrize("candidate_tanh", [False, True])
@pytest.mark.parametrize("cost_sensitive", [False, True])
def test_record_loss_and_gradients_equal_composed_bytes(kind, candidate_tanh, cost_sensitive,
                                                        monkeypatch):
    config = desk_config(kind, hidden_dim=12, channels=8, candidate_tanh=candidate_tanh)
    params = init_params(config, 23)
    weights = np.array([0.5, 1.0, 2.0, 3.0]) if cost_sensitive else None
    rng = np.random.default_rng(29)
    spe = config.sample_rate_hz * config.epoch_seconds
    for m in (1, 2, 9):
        record = Record(f"r{m}", rng.normal(size=m * spe), rng.integers(0, 4, size=m),
                        sample_rate_hz=config.sample_rate_hz, epoch_seconds=config.epoch_seconds)
        loss, grads = _loss_and_grads(config, params, record, weights)
        # record_loss reaches the GRU through model.hidden_states
        with monkeypatch.context() as patch:
            patch.setattr(ncrf.model, "gru_forward", composed_gru)
            ref_loss, ref_grads = _loss_and_grads(config, params, record, weights)
        assert loss == ref_loss, m
        mismatched = [name for name in params if grads[name] != ref_grads[name]]
        assert not mismatched, (m, mismatched)


@pytest.mark.parametrize("candidate_tanh", [False, True])
@pytest.mark.parametrize("upstream", ["negative_zero", "mixed"])
@pytest.mark.parametrize("m", [1, 2, 6])
def test_signed_zero_adjoints_equal_composed_bytes(candidate_tanh, upstream, m):
    # An upstream adjoint of -0.0 shows whether the fused backward keeps the
    # sign of zero that the composed tape's sums and scatter-adds give.
    rng = np.random.default_rng(8)
    params = gru_init(3, 16, rng)
    params["Z"] = Tensor(rng.normal(size=(3, m)))
    weights = np.full((16, m), -0.0)
    if upstream == "mixed":
        weights[:, 1::3] = rng.normal(size=weights[:, 1::3].shape)
        weights[:, 2::3] = 0.0
    weights = Tensor(weights)

    def grads(gru):
        tape = Tape()
        h = gru(params["Z"], params, candidate_tanh=candidate_tanh, tape=tape)
        loss = logsumexp(reshape(mul(h, weights, tape), (-1,), tape), tape=tape)
        tape.backward(loss)
        out = {name: tape.grad(t).tobytes() for name, t in params.items()}
        # the three input projections are the tape's first nodes in both
        out.update({f"in_{i}": tape.grad(tape._nodes[i][0]).tobytes() for i in range(3)})
        return out

    fused, reference = grads(gru_forward), grads(composed_gru)
    assert [n for n in reference if fused[n] != reference[n]] == []
