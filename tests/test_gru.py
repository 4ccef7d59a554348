import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncrf.model
from ncrf.autodiff import ModelParams, Tape, Tensor, grad_check
from ncrf.data import Record
from ncrf.errors import EmptySequenceError, NumericError
from ncrf.gru import gru_forward, gru_init
from ncrf.model import decode_record, desk_config, init_params, record_loss
from primitives import add, affine, logsumexp, matmul, mul, neg, reshape, scale, tanh

# ---------------------------------------------------------------------------
# reference: the same cell spelled out step by step in tape primitives, with
# local copies of the column primitives the package no longer needs
# ---------------------------------------------------------------------------


def _col(x, j, tape=None):
    out = Tensor(x.data[:, j].copy())
    if tape is not None:
        shape = x.data.shape

        def bw(g):
            z = np.zeros(shape)
            z[:, j] = g
            return (z,)

        tape.record(out, (x,), bw)
    return out


def _stack_cols(xs, tape=None):
    out = Tensor(np.stack([t.data for t in xs], axis=1))
    if tape is not None:
        tape.record(out, tuple(xs), lambda g: tuple(g[:, j] for j in range(len(xs))))
    return out


def _add_const(a, c, tape=None):
    out = Tensor(a.data + c)
    if tape is not None:
        tape.record(out, (a,), lambda g: (g,))
    return out


def composed_gru(features, params, candidate_tanh=False, tape=None):
    """About 22 tape nodes per step, spelling out the fused layer's
    operations: every gate is a tanh of its pre-activation scaled by s,
    through sigmoid(v) = 1/2 + tanh(v/2)/2 and 2*sigmoid(v) - 1 = tanh(v/2).
    The fused layer's states and losses must match it bit for bit, its
    gradients within GRAD_BOUND."""
    m = features.shape[1]
    s = 1.0 if candidate_tanh else 0.5
    h = Tensor(np.zeros(params["gru.U_z"].shape[0]))
    in_z = scale(affine(features, params["gru.W_z"], params["gru.b_z"], tape), 0.5, tape)
    in_r = scale(affine(features, params["gru.W_r"], params["gru.b_r"], tape), 0.5, tape)
    in_h = scale(affine(features, params["gru.W_h"], params["gru.b_h"], tape), s, tape)
    u_z, u_r = scale(params["gru.U_z"], 0.5, tape), scale(params["gru.U_r"], 0.5, tape)
    u_h = scale(params["gru.U_h"], s, tape)
    states = []
    for t in range(m):
        u = _add_const(scale(tanh(add(matmul(u_z, h, tape), _col(in_z, t, tape), tape), tape),
                             0.5, tape), 0.5, tape)
        r = _add_const(scale(tanh(add(matmul(u_r, h, tape), _col(in_r, t, tape), tape), tape),
                             0.5, tape), 0.5, tape)
        cand = tanh(add(_col(in_h, t, tape), mul(r, matmul(u_h, h, tape), tape), tape), tape)
        keep = _add_const(neg(u, tape), 1.0, tape)
        h = add(mul(u, h, tape), mul(keep, cand, tape), tape)
        states.append(h)
    return _stack_cols(states, tape)


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


def _exp_sigmoid(v):
    """The exp form: ``1/(1+exp(-v))`` for v >= 0 and ``exp(v)/(1+exp(v))`` below."""
    e = np.exp(np.minimum(v, -v))
    return np.fmax(e, np.sign(v)) / (e + 1.0)


def exp_form_gru(f, params, candidate_tanh):
    """The textbook recurrence, one column at a time, with exp-form gates."""
    p = {name[4:]: t.data for name, t in params.items()}
    xz, xr, xh = (p[f"W_{g}"] @ f + p[f"b_{g}"][:, None] for g in "zrh")
    h, states = np.zeros(p["U_z"].shape[0]), []
    for t in range(f.shape[1]):
        u = _exp_sigmoid(xz[:, t] + p["U_z"] @ h)
        r = _exp_sigmoid(xr[:, t] + p["U_r"] @ h)
        pre = xh[:, t] + r * (p["U_h"] @ h)
        cand = np.tanh(pre) if candidate_tanh else 2.0 * _exp_sigmoid(pre) - 1.0
        h = u * h + (1.0 - u) * cand
        states.append(h)
    return np.stack(states, axis=1)


@pytest.mark.parametrize("candidate_tanh", [False, True])
@pytest.mark.parametrize("hidden", [6, 13, 64, 125])
def test_tanh_form_gates_move_states_by_round_off_only(hidden, candidate_tanh):
    # the fused layer's gates are tanh(v/2)/2 + 1/2 and its default
    # candidate tanh(v/2), exact identities of the exp forms. Weights at
    # gru_init's scale keep the recurrence contractive; U scaled up makes it
    # amplify any round-off, the exp form's own included.
    rng = np.random.default_rng(hidden)
    params = gru_init(32, hidden, rng)
    for gate in "zrh":
        params[f"gru.b_{gate}"].data += rng.normal(scale=0.3, size=hidden)
    for m in (1, 9, 240):
        f = rng.normal(scale=2.0, size=(32, m))
        got = gru_forward(Tensor(f), params, candidate_tanh=candidate_tanh).data
        assert np.abs(got - exp_form_gru(f, params, candidate_tanh)).max() <= 1e-15, m


def test_a_nan_feature_still_fails_the_decode(monkeypatch):
    # tanh passes a NaN on, so it reaches the CRF's finite check
    config = desk_config("crf", hidden_dim=8, channels=4)
    spe = config.sample_rate_hz * config.epoch_seconds
    rng = np.random.default_rng(3)
    record = Record("r", rng.normal(size=12 * spe), rng.integers(0, 4, size=12),
                    sample_rate_hz=config.sample_rate_hz, epoch_seconds=config.epoch_seconds)
    cnn_forward = ncrf.model.cnn_forward

    def poked(*args, **kwargs):
        out = cnn_forward(*args, **kwargs)
        out.data[1, 5] = np.nan
        return out

    monkeypatch.setattr(ncrf.model, "cnn_forward", poked)
    with pytest.raises(NumericError):
        decode_record(config, init_params(config, 1), record)


# ---------------------------------------------------------------------------
# the fused layer against the composed reference
# ---------------------------------------------------------------------------


# The forward and loss tests compare bytes, and also run at hidden width
# 13, where the BLAS matvec's kernel grouping shows: a stacked [2H, H] or
# [3H, H] product of the U matrices changes bits at 13 (and 125) but not
# at 6, 12 or 16. The backward sums over time in GEMMs, not step by step
# as the composed tape does, so gradients are compared within a bound.

GRAD_BOUND = 1e-13  # relative to each array's largest reference magnitude


def assert_grads_near(grads, reference, context):
    """Each gradient within GRAD_BOUND of the reference's largest
    magnitude; one that is all zero in the reference must be all zero."""
    far = [name for name, ref in reference.items() if grads[name].shape != ref.shape
           or not np.abs(grads[name] - ref).max() <= GRAD_BOUND * np.abs(ref).max()]
    assert not far, (context, far)


@pytest.mark.parametrize("candidate_tanh", [False, True])
@pytest.mark.parametrize("m", [1, 2, 7])
def test_fused_forward_equals_composed_bytes(candidate_tanh, m):
    for hidden in (6, 13):
        rng = np.random.default_rng(40 + m)
        params = gru_init(5, hidden, rng)
        for p in params.values():
            p.data += rng.normal(scale=0.3, size=p.shape)  # nonzero biases
        z = Tensor(rng.normal(scale=2.0, size=(5, m)))
        reference = composed_gru(z, params, candidate_tanh).data
        fused = gru_forward(z, params, candidate_tanh=candidate_tanh)
        taped = gru_forward(z, params, candidate_tanh=candidate_tanh, tape=Tape())
        assert fused.data.tobytes() == reference.tobytes(), hidden
        assert taped.data.tobytes() == reference.tobytes(), hidden
        assert fused.data.flags.c_contiguous


def test_fused_layer_is_one_tape_node():
    rng = np.random.default_rng(2)
    params = gru_init(3, 4, rng)
    tape = Tape()
    gru_forward(Tensor(rng.normal(size=(3, 30))), params, tape=tape)
    assert len(tape) == 1


def _loss_and_grads(config, params, record, weights):
    tape = Tape()
    loss = record_loss(config, params, record, weights, training=True,
                       rng=np.random.default_rng(5), tape=tape)
    tape.backward(loss)
    return loss.data.tobytes(), {name: tape.grad(t) for name, t in params.items()}


@pytest.mark.parametrize("kind", ["softmax", "crf", "crf2"])
@pytest.mark.parametrize("candidate_tanh", [False, True])
@pytest.mark.parametrize("cost_sensitive", [False, True])
def test_record_loss_and_gradients_equal_composed_bytes(kind, candidate_tanh, cost_sensitive,
                                                        monkeypatch):
    weights = np.array([0.5, 1.0, 2.0, 3.0]) if cost_sensitive else None
    for hidden, lengths in ((12, (1, 2, 9)), (13, (1, 2, 9)), (64, (120,)), (125, (120,))):
        config = desk_config(kind, hidden_dim=hidden, channels=8, candidate_tanh=candidate_tanh)
        params = init_params(config, 23)
        rng = np.random.default_rng(29)
        spe = config.sample_rate_hz * config.epoch_seconds
        for m in lengths:
            record = Record(f"r{m}", rng.normal(size=m * spe), rng.integers(0, 4, size=m),
                            sample_rate_hz=config.sample_rate_hz,
                            epoch_seconds=config.epoch_seconds)
            loss, grads = _loss_and_grads(config, params, record, weights)
            # record_loss reaches the GRU through model.hidden_states
            with monkeypatch.context() as patch:
                patch.setattr(ncrf.model, "gru_forward", composed_gru)
                ref_loss, ref_grads = _loss_and_grads(config, params, record, weights)
            assert loss == ref_loss, (hidden, m)
            assert_grads_near(grads, ref_grads, (hidden, m))


@pytest.mark.parametrize("candidate_tanh", [False, True])
@pytest.mark.parametrize("upstream", ["negative_zero", "mixed"])
@pytest.mark.parametrize("m", [1, 2, 6])
def test_signed_zero_adjoints_equal_composed_bytes(candidate_tanh, upstream, m):
    # An upstream adjoint of -0.0 gives zero gradients that must stay zero.
    # Values are compared, so -0.0 equals 0.0: a GEMM's sum does not keep
    # the sign of zero that the composed tape's sums and scatter-adds give.
    for hidden in (16, 13):
        rng = np.random.default_rng(8)
        params = gru_init(3, hidden, rng)
        params["Z"] = Tensor(rng.normal(size=(3, m)))
        weights = np.full((hidden, m), -0.0)
        if upstream == "mixed":
            weights[:, 1::3] = rng.normal(size=weights[:, 1::3].shape)
            weights[:, 2::3] = 0.0
        weights = Tensor(weights)

        def grads(gru):
            tape = Tape()
            h = gru(params["Z"], params, candidate_tanh=candidate_tanh, tape=tape)
            loss = logsumexp(reshape(mul(h, weights, tape), (-1,), tape), tape=tape)
            tape.backward(loss)
            return {name: tape.grad(t) for name, t in params.items()}

        assert_grads_near(grads(gru_forward), grads(composed_gru), hidden)
