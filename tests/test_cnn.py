import numpy as np
import pytest

from ncrf.autodiff import Tape, Tensor, grad_check, reduce_sum, take_cols
from ncrf.cnn import (
    CnnConfig,
    ConvLayerSpec,
    cnn_forward,
    cnn_init,
    desk_cnn_config,
    input_span,
    paper_cnn_config,
)
from ncrf.errors import ConfigurationError, ParameterError
from ncrf.rng import SplitRng


def tiny_config(**kwargs):
    defaults = dict(
        layers=(ConvLayerSpec(3, 2, 4), ConvLayerSpec(3, 2, 4)),
        residual_pairs=((0, 1),),
    )
    defaults.update(kwargs)
    return CnnConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration contracts
# ---------------------------------------------------------------------------


def test_downsample_factor_products():
    assert desk_cnn_config().downsample_factor == 16
    assert paper_cnn_config().downsample_factor == 960


def test_validate_rate_rejects_mismatch():
    with pytest.raises(ConfigurationError):
        desk_cnn_config().validate_rate(32 * 30)
    desk_cnn_config().validate_rate(16)  # no raise


def test_residual_pair_ordering_enforced():
    with pytest.raises(ConfigurationError):
        CnnConfig(layers=(ConvLayerSpec(3, 1, 2),), residual_pairs=((0, 0),))
    with pytest.raises(ConfigurationError):
        CnnConfig(layers=(ConvLayerSpec(3, 1, 2),), residual_pairs=((0, 5),))


def test_layer_spec_validation():
    with pytest.raises(ParameterError):
        ConvLayerSpec(0, 1, 1)
    with pytest.raises(ParameterError):
        ConvLayerSpec(3, 1, 4, dropout_rate=1.0)


def test_forward_rejects_bad_length():
    config = tiny_config()
    params = cnn_init(config, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        cnn_forward(Tensor(np.zeros((1, 13))), config, params)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_deterministic_for_fixed_generator():
    config = desk_cnn_config(channels=8)
    a = cnn_init(config, SplitRng(3).child("x").generator())
    b = cnn_init(config, SplitRng(3).child("x").generator())
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)


def test_init_kernel_scale_tracks_fan_in():
    # fan_in = 100 -> bound 0.1 * sqrt(3)
    config = CnnConfig(layers=(ConvLayerSpec(10, 10, 7),), input_channels=10)
    params = cnn_init(config, np.random.default_rng(0))
    k = params["cnn.layer0.kernels"].data
    assert np.abs(k).max() <= 0.1 * np.sqrt(3)
    assert np.abs(k).max() > 0.05 * np.sqrt(3)  # not degenerate
    assert not params["cnn.layer0.bias"].data.any()


def test_init_projection_is_truncated_identity():
    config = CnnConfig(
        layers=(ConvLayerSpec(3, 2, 6), ConvLayerSpec(3, 2, 4)),
        residual_pairs=((0, 1),),
    )
    params = cnn_init(config, np.random.default_rng(0))
    np.testing.assert_array_equal(params["cnn.res0.proj"].data, np.eye(6, 4))


def test_initialized_forward_rms_is_sane():
    config = desk_cnn_config(channels=16, dropout_rate=0.0)
    params = cnn_init(config, np.random.default_rng(1))
    n = 16 * 12
    signal = np.random.default_rng(2).normal(size=(1, n))
    signal /= np.linalg.norm(signal)
    out = cnn_forward(Tensor(signal), config, params).data
    rms = np.sqrt(np.mean(out**2))
    assert np.isfinite(out).all()
    assert 0.01 <= rms / np.sqrt(np.mean(signal**2)) <= 100


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


def test_output_length_is_epoch_count():
    config = desk_cnn_config(channels=4, dropout_rate=0.0)
    params = cnn_init(config, np.random.default_rng(0))
    for m in (1, 3, 120):
        out = cnn_forward(Tensor(np.random.default_rng(m).normal(size=(1, 16 * m))), config, params)
        assert out.shape == (4, m)


def test_residual_identity_when_main_path_is_dead():
    # second layer preserves shape; zero kernels make F(X) = 0, so the
    # output must equal the saved first-layer activation
    config = CnnConfig(
        layers=(ConvLayerSpec(3, 2, 4, 2, 0.0), ConvLayerSpec(3, 1, 4, 1, 0.0)),
        residual_pairs=((0, 1),),
    )
    params = cnn_init(config, np.random.default_rng(0))
    params["cnn.layer1.kernels"].data[:] = 0.0
    assert "cnn.res0.proj" not in params  # shapes match: pure identity shortcut
    x = Tensor(np.random.default_rng(1).normal(size=(1, 16)))
    out = cnn_forward(x, config, params)
    first = cnn_forward(x, CnnConfig(layers=config.layers[:1]), params)
    np.testing.assert_allclose(out.data, first.data, atol=1e-12)


def test_residual_connection_changes_outputs():
    with_res = tiny_config()
    without = CnnConfig(layers=with_res.layers)
    params = cnn_init(with_res, np.random.default_rng(5))
    x = Tensor(np.random.default_rng(6).normal(size=(1, 32)))
    a = cnn_forward(x, with_res, params).data
    b = cnn_forward(x, without, params).data
    assert np.abs(a - b).max() > 0


def test_time_mismatched_residual_subsamples_columns():
    config = tiny_config()  # ratio between layer0 and layer1 outputs is 2
    params = cnn_init(config, np.random.default_rng(7))
    params["cnn.layer1.kernels"].data[:] = 0.0
    x = Tensor(np.random.default_rng(8).normal(size=(1, 32)))
    out = cnn_forward(x, config, params)
    first = cnn_forward(x, CnnConfig(layers=config.layers[:1]), params)
    np.testing.assert_allclose(out.data, first.data[:, ::2], atol=1e-12)


def test_gradients_through_tiny_stack():
    config = CnnConfig(
        layers=(ConvLayerSpec(3, 2, 4, 2, 0.0), ConvLayerSpec(3, 2, 4, 1, 0.0)),
        residual_pairs=((0, 1),),
    )
    rng = np.random.default_rng(9)
    params = cnn_init(config, rng)
    params["x"] = Tensor(rng.normal(size=(1, 24)))  # m = 3 at 8 samples/epoch

    def loss(p, tape):
        out = cnn_forward(p["x"], config, p, tape=tape)
        return reduce_sum(out, tape=tape)

    assert grad_check(loss, params, samples=60, rng=rng) < 1e-4


def test_dropout_path_deterministic_given_generator():
    config = desk_cnn_config(channels=4, dropout_rate=0.3)
    params = cnn_init(config, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(1, 64)))
    a = cnn_forward(x, config, params, training=True, rng=SplitRng(5).child("d").generator())
    b = cnn_forward(x, config, params, training=True, rng=SplitRng(5).child("d").generator())
    np.testing.assert_array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# receptive field
# ---------------------------------------------------------------------------


def test_input_span_covers_gradient_support():
    config = tiny_config()
    params = cnn_init(config, np.random.default_rng(11))
    n = 64
    x = Tensor(np.random.default_rng(12).normal(size=(1, n)))
    for feat in (0, 3, 7):
        tape = Tape()
        out = cnn_forward(x, config, params, tape=tape)
        tape.backward(reduce_sum(take_cols(out, [feat], tape), tape=tape))
        support = np.flatnonzero(tape.grad(x)[0])
        lo, hi = input_span(config, n, feat)
        assert support.size
        assert lo <= support.min() and support.max() <= hi


def test_input_span_accounts_for_residual_paths():
    config = tiny_config()
    no_res = CnnConfig(layers=config.layers)
    n = 64
    lo_r, hi_r = input_span(config, n, 5)
    lo_p, hi_p = input_span(no_res, n, 5)
    assert lo_r <= lo_p and hi_r >= hi_p
