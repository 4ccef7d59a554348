import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrf import cnn
from ncrf.autodiff import Tape, Tensor, grad_check
from ncrf.cnn import (
    CnnConfig,
    ConvLayerSpec,
    cnn_forward,
    cnn_init,
    desk_cnn_config,
    input_span,
    paper_cnn_config,
)
from ncrf.data import Record
from ncrf.errors import ConfigurationError, DimensionError, ParameterError
from ncrf.model import ModelConfig, decode_record, desk_config, init_params, paper_config, record_loss
from ncrf.rng import SplitRng
import primitives
from closure_peaks import ClosurePeakTape
from primitives import (
    add,
    conv1d,
    dropout,
    matmul,
    maxpool1d,
    mul,
    reduce_sum,
    relu,
    take_cols,
    transpose,
)


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


def test_residual_pairs_may_not_share_a_target():
    # one shortcut per target layer: a second would get a projection that
    # the stack never adds
    layers = (ConvLayerSpec(3, 1, 4),) * 3
    with pytest.raises(ConfigurationError):
        CnnConfig(layers=layers, residual_pairs=((0, 2), (1, 2)))
    CnnConfig(layers=layers, residual_pairs=((0, 1), (1, 2)))
    CnnConfig(layers=layers, residual_pairs=((0, 1), (0, 2)))


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


@pytest.mark.parametrize("shape", [(2, 16), (16,), (1, 1, 16)])
def test_forward_rejects_a_signal_that_is_not_one_channel(shape):
    # every record is one airflow channel, so the stack reads exactly [1, n]
    config = tiny_config()
    params = cnn_init(config, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        cnn_forward(Tensor(np.zeros(shape)), config, params)


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
    # one input channel, so fan_in = kernel width 100 -> bound 0.1 * sqrt(3)
    config = CnnConfig(layers=(ConvLayerSpec(100, 10, 7),))
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
# the fused layer against the composed primitives
# ---------------------------------------------------------------------------


def composed_layer(x, kernels, bias, layer, training=False, rng=None, tape=None):
    """Up to four tape nodes per layer; the fused layer must match it bit for bit."""
    y = relu(conv1d(x, kernels, bias, layer.stride, "same", tape), tape)
    if layer.dropout_rate > 0.0:
        y = dropout(y, layer.dropout_rate, training, rng, tape)
    if layer.pool_window > 1:
        y = maxpool1d(y, layer.pool_window, tape)
    return y


def _layer_run(layer_fn, x, kernels, bias, layer, training, taped, weights):
    """The output, the generator's next draw and, when taped, the input,
    kernel and bias adjoints of sum(output * weights)."""
    rng = np.random.default_rng(77)
    tape = Tape() if taped else None
    out = layer_fn(x, kernels, bias, layer, training, rng, tape)
    result = [out.data, np.array(rng.random())]
    if taped:
        tape.backward(reduce_sum(mul(out, Tensor(weights), tape), tape=tape))
        result += [tape.grad(t) for t in (x, kernels, bias)]
    return result


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 9), stride=st.integers(1, 3), window=st.integers(1, 3),
       c_in=st.integers(1, 3), c_out=st.integers(1, 3), rate=st.sampled_from([0.0, 0.3]),
       training=st.booleans(), taped=st.booleans(), extra=st.integers(0, 12),
       seed=st.integers(0, 2**16))
def test_fused_layer_equals_composed_bytes(width, stride, window, c_in, c_out, rate, training,
                                          taped, extra, seed):
    rng = np.random.default_rng(seed)
    layer = ConvLayerSpec(width, stride, c_out, window, rate)
    t_in = stride * window + extra  # at least one pooled column; a tail may be cut
    x = Tensor(rng.normal(size=(c_in, t_in)))
    kernels = Tensor(rng.normal(size=(c_out, c_in, width)))
    bias = Tensor(rng.normal(size=c_out))
    weights = rng.normal(size=(c_out, -(-t_in // stride) // window))
    args = (x, kernels, bias, layer, training, taped, weights)
    fused = [a.tobytes() for a in _layer_run(cnn._conv_layer, *args)]
    assert fused == [a.tobytes() for a in _layer_run(composed_layer, *args)]


@settings(max_examples=300, deadline=None)
@given(c_in=st.integers(1, 3), t_in=st.integers(1, 40), width=st.integers(1, 9),
       stride=st.integers(1, 3), chunk=st.integers(1, 80), seed=st.integers(0, 2**16))
def test_im2col_blocks_equal_windows_of_the_padded_input(c_in, t_in, width, stride, chunk,
                                                        seed):
    # small blocks: a block may reach into the padding on either side, or both
    x = np.random.default_rng(seed).normal(size=(c_in, t_in))
    t_out, pad_l, pad_r = cnn._same_geometry(t_in, width, stride)
    xp = np.pad(x, ((0, 0), (pad_l, pad_r)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, width, axis=1)[:, ::stride, :]
    expected = windows[:, :t_out].transpose(0, 2, 1).reshape(c_in * width, t_out)
    span = max(1, chunk // (c_in * width))
    with mock.patch.object(cnn, "_CONV_CHUNK", chunk):
        blocks = list(cnn._im2col(x, width, stride, pad_l, t_out))
    assert [t0 for t0, _ in blocks] == list(range(0, t_out, span))
    assert all(cols.shape[1] <= span and cols.flags.c_contiguous for _, cols in blocks)
    assert np.concatenate([cols for _, cols in blocks], axis=1).tobytes() == expected.tobytes()


def test_fused_layer_matches_composed_at_paper_geometry():
    # paper layer 1 over five epochs: 256 channels in and out, and an im2col
    # that runs in two blocks
    rng = np.random.default_rng(31)
    layer = paper_cnn_config().layers[1]
    x = Tensor(np.maximum(rng.normal(size=(256, 5 * 960)), 0.0))
    kernels = Tensor(rng.uniform(-0.03, 0.03, size=(256, 256, layer.kernel_width)))
    bias = Tensor(rng.normal(scale=0.01, size=256))
    weights = rng.normal(size=(256, 5 * 960 // layer.downsample))
    args = (x, kernels, bias, layer, True, True, weights)
    assert 5 * 960 // 2 > cnn._CONV_CHUNK // (256 * layer.kernel_width)
    fused = _layer_run(cnn._conv_layer, *args)
    reference = _layer_run(composed_layer, *args)
    assert fused[1] == reference[1]  # the same dropout draws
    for got, want in zip(fused, reference):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_the_tape_keeps_bool_masks_and_no_scratch():
    # what one taped layer leaves allocated: its output, one bool mask of the
    # units that ReLU and dropout kept and the pool argmax, and no padded or
    # float copies
    rng = np.random.default_rng(12)
    layer = ConvLayerSpec(5, 1, 16, 2, 0.3)
    x = Tensor(rng.normal(size=(4, 20_000)))
    kernels, bias = Tensor(rng.normal(size=(16, 4, 5))), Tensor(rng.normal(size=16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        out = cnn._conv_layer(x, kernels, bias, layer, True, np.random.default_rng(1), tape)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    conv_size = 16 * 20_000
    assert held <= out.data.nbytes + conv_size + 8 * out.size + (64 << 10), held


def test_dropout_row_blocks_draw_the_whole_array_stream(monkeypatch):
    # 7 rows of 13 conv columns in blocks of 2 rows: three full blocks and a
    # ragged last one, against one rng.random((7, 13)) on a twin generator
    rate = 0.3
    layer = ConvLayerSpec(3, 1, 7, 2, rate)
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 13)))
    kernels, bias = Tensor(rng.normal(size=(7, 2, 3))), Tensor(rng.normal(size=7))
    monkeypatch.setattr(cnn, "_CONV_CHUNK", 2 * 13 + 5)
    gen, twin = np.random.default_rng(21), np.random.default_rng(21)
    tape = Tape()
    out = cnn._conv_layer(x, kernels, bias, layer, True, gen, tape)
    y = cnn._conv_layer(x, kernels, bias, ConvLayerSpec(3, 1, 7)).data  # conv and ReLU
    y *= twin.random(y.shape) >= rate
    y *= 1.0 / (1.0 - rate)
    assert gen.bit_generator.state == twin.bit_generator.state
    assert out.data.tobytes() == y[:, :12].reshape(7, 6, 2).max(axis=2).tobytes()


def _watch_zeros(monkeypatch, shape, seen) -> None:
    """Call seen() whenever np.zeros allocates an array of this shape."""
    zeros = np.zeros

    def watched(s, *args, **kwargs):
        if s == shape:
            seen()
        return zeros(s, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", watched)


def test_a_layer_input_dies_at_its_last_use_in_backward(monkeypatch):
    # layer 0's output is layer 1's input: layer 1's closure lets it go once
    # its kernel gradient is done, before it allocates its input adjoint, and
    # the tape holds it only by id, so it is dead before layer 0's closure runs
    rng = np.random.default_rng(4)
    layers = (ConvLayerSpec(3, 2, 4), ConvLayerSpec(3, 2, 5, 2))
    weights = [(Tensor(rng.normal(size=(4, 1, 3))), Tensor(rng.normal(size=4))),
               (Tensor(rng.normal(size=(5, 4, 3))), Tensor(rng.normal(size=5)))]
    t0_out = cnn._same_geometry(64, 3, 2)[0]
    _, pad_l, pad_r = cnn._same_geometry(t0_out, 3, 2)
    gxp_shape = (4, pad_l + t0_out + pad_r)
    alive = {}

    def at_closure(i):
        if i == 0:
            alive["at layer 0's closure"] = ref() is not None

    tape = ClosurePeakTape(at_closure)
    signal = Tensor(rng.normal(size=(1, 64)))
    h = cnn._conv_layer(signal, *weights[0], layers[0], tape=tape)
    ref = weakref.ref(h.data)
    out = cnn._conv_layer(h, *weights[1], layers[1], tape=tape)
    loss = reduce_sum(mul(out, Tensor(rng.normal(size=out.shape)), tape), tape=tape)
    del h, out
    _watch_zeros(monkeypatch, gxp_shape,
                 lambda: alive.update({"at layer 1's input adjoint": ref() is not None}))
    tape.backward(loss)
    monkeypatch.undo()
    assert alive == {"at layer 1's input adjoint": False, "at layer 0's closure": False}
    assert tape.grad(weights[0][0]).any() and tape.grad(signal).any()


def test_a_pooled_layer_drops_its_argmax_and_mask_before_its_input_adjoint(monkeypatch):
    rng = np.random.default_rng(5)
    layer = ConvLayerSpec(3, 2, 5, 2, 0.3)
    x = Tensor(rng.normal(size=(4, 64)))
    kernels, bias = Tensor(rng.normal(size=(5, 4, 3))), Tensor(rng.normal(size=5))
    tape = ClosurePeakTape()
    out = cnn._conv_layer(x, kernels, bias, layer, True, np.random.default_rng(1), tape)
    loss = reduce_sum(mul(out, Tensor(rng.normal(size=out.shape)), tape), tape=tape)
    refs = {name: weakref.ref(a) for name, a in tape.captured(0).items() if name in ("arg", "mask")}
    assert sorted(refs) == ["arg", "mask"]
    _, pad_l, pad_r = cnn._same_geometry(64, 3, 2)
    alive = {}
    _watch_zeros(monkeypatch, (4, pad_l + 64 + pad_r),
                 lambda: alive.update({name: r() is not None for name, r in refs.items()}))
    tape.backward(loss)
    monkeypatch.undo()
    assert alive == {"arg": False, "mask": False}
    assert tape.grad(x).any()


def test_an_unpooled_layer_masks_its_adjoint_in_place():
    # paper layer 0 is unpooled: its closure masks the adjoint it is handed
    # instead of building a second array of its output's size, so beyond
    # what it starts with it holds about a quarter of its output here (the
    # tap rows of one input channel), where a masked copy holds 1.1 outputs
    config = paper_config("crf", hidden_dim=8, channels=32)
    record = _random_record(config, 8, seed=2)
    tracemalloc.start()
    try:
        tape = ClosurePeakTape()
        loss = record_loss(config, init_params(config, 1), record, training=True,
                           rng=np.random.default_rng(3), tape=tape)
        tape.backward(loss)
    finally:
        tracemalloc.stop()
    start, peak = tape.peaks[0]
    layer0_out = 8 * 32 * record.signal.size // 2
    assert peak - start <= layer0_out // 2, (peak - start, layer0_out)


@pytest.mark.parametrize("window, stride", [(1, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("forward_blocks", ["one", "several"])
def test_row_blocked_input_adjoint_equals_composed_bytes(monkeypatch, window, stride,
                                                         forward_blocks):
    # 9 input channels: the input adjoint runs in row blocks of 2 channels
    # (2, 2, 2, 2 and a ragged 1), and the forward in one im2col block whose
    # product is the output, or in several blocks copied into it
    c_in, width, t_in = 9, 3, 60
    t_conv = cnn._same_geometry(t_in, width, stride)[0]
    chunk = (9 if forward_blocks == "one" else 8) * width * t_conv + 5
    assert chunk // 4 // (width * t_conv) == 2
    assert (chunk // (c_in * width) >= t_conv) == (forward_blocks == "one")
    for module in (cnn, primitives):
        monkeypatch.setattr(module, "_CONV_CHUNK", chunk)
    rng = np.random.default_rng(window + 10 * stride)
    layer = ConvLayerSpec(width, stride, 4, window, 0.3)
    x = Tensor(rng.normal(size=(c_in, t_in)))
    kernels = Tensor(rng.normal(size=(4, c_in, width)))
    bias = Tensor(rng.normal(size=4))
    weights = rng.normal(size=(4, t_conv // window))
    for training in (False, True):
        args = (x, kernels, bias, layer, training, True, weights)
        fused = [a.tobytes() for a in _layer_run(cnn._conv_layer, *args)]
        assert fused == [a.tobytes() for a in _layer_run(composed_layer, *args)]


def _taped_step_peak(config, params, record) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        loss = record_loss(config, params, record, training=True,
                           rng=np.random.default_rng(3), tape=tape)
        tape.backward(loss)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_taped_step_peak_is_at_most_half_the_composed_layers(monkeypatch):
    # At 256 channels the im2col blocks are far narrower than the activations;
    # a smaller block keeps that proportion at 8 channels, for both stacks.
    for module in (cnn, primitives):
        monkeypatch.setattr(module, "_CONV_CHUNK", 1 << 16)
    config = paper_config("crf", hidden_dim=8, channels=8)
    params = init_params(config, 1)
    record = _random_record(config, 32, seed=2)
    fused = _taped_step_peak(config, params, record)
    monkeypatch.setattr(cnn, "_conv_layer", composed_layer)
    composed = _taped_step_peak(config, params, record)
    assert 2 * fused <= composed, (fused, composed)


def test_taped_paper_step_peak_is_under_three_layer_0_outputs(monkeypatch):
    # Backward holds layer 0's output only until layer 1's kernel gradient is
    # done and lets each output adjoint go once its gy is built. The step then
    # peaks at 2.7 times layer 0's output bytes; holding that output through
    # layer 1's input adjoint reads 3.5 times, holding the adjoint through gy
    # 3.7 times, and a tape that keeps produced tensors 4.8 times.
    monkeypatch.setattr(cnn, "_CONV_CHUNK", 1 << 16)
    config = paper_config("crf", hidden_dim=8, channels=8)
    record = _random_record(config, 32, seed=2)
    peak = _taped_step_peak(config, init_params(config, 1), record)
    layer0_out = 8 * 8 * record.signal.size // 2
    assert peak <= 3 * layer0_out, (peak, layer0_out)


def test_desk_crf_record_tape_is_seven_nodes():
    # one node per CNN layer, one for the shortcut, one for the GRU, one for
    # the node scores and one for the CRF loss
    config = desk_config("crf")
    params = init_params(config, 4)
    tape = Tape()
    record_loss(config, params, _random_record(config, 120, seed=5), training=True,
                rng=np.random.default_rng(6), tape=tape)
    assert len(tape) == 7


# ---------------------------------------------------------------------------
# the fused shortcut against the composed primitives
# ---------------------------------------------------------------------------


def composed_shortcut(x, saved, proj, ratio, tape=None):
    """take_cols -> transpose -> matmul -> add: the nodes the fused
    shortcut replaces, which it must match bit for bit."""
    if ratio != 1:
        saved = take_cols(saved, np.arange(0, saved.shape[1], ratio), tape)
    if proj is not None:
        saved = matmul(transpose(proj, tape), saved, tape)
    return add(x, saved, tape)


@st.composite
def shortcut_configs(draw):
    """A CnnConfig with one residual pair whose shortcut has a projection
    and a time ratio above 1, a projection at ratio 1 (a channel change),
    or no projection."""
    case = draw(st.sampled_from(["strided", "channels", "identity"]))
    n = draw(st.integers(2, 4))
    src = draw(st.integers(0, n - 2))
    tgt = draw(st.integers(src + 1, n - 1))
    c_src = draw(st.integers(1, 4))
    layers = []
    for i in range(n):
        inside = src < i <= tgt  # the layers the shortcut skips
        stride = draw(st.integers(1, 2)) if case == "strided" or not inside else 1
        window = draw(st.integers(1, 2)) if case == "strided" or not inside else 1
        if case == "strided" and i == tgt:
            stride = 2
        channels = c_src if i == src else draw(st.integers(1, 4))
        if i == tgt and case == "identity":
            channels = c_src
        elif i == tgt and case == "channels":
            channels = c_src + draw(st.integers(1, 3))
        layers.append(ConvLayerSpec(draw(st.integers(1, 5)), stride, channels, window))
    return case, CnnConfig(layers=tuple(layers), residual_pairs=((src, tgt),))


def _shortcut_run(fn, x, saved, proj, ratio, weights):
    """The output and the x, saved and proj adjoints of sum(output * weights)."""
    tape = Tape()
    out = fn(x, saved, proj, ratio, tape)
    tape.backward(reduce_sum(mul(out, Tensor(weights), tape), tape=tape))
    return [out.data] + [tape.grad(t) for t in (x, saved, proj) if t is not None]


@settings(max_examples=200, deadline=None)
@given(drawn=shortcut_configs(), t_out=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_fused_shortcut_equals_composed_bytes(drawn, t_out, seed):
    case, config = drawn
    (src, tgt), = config.residual_pairs
    ratio = config.time_ratio(src, tgt)
    assert config.needs_projection(src, tgt) == (case != "identity")
    assert (ratio > 1) == (case == "strided")
    rng = np.random.default_rng(seed)
    proj = cnn_init(config, rng).get("cnn.res0.proj")
    if proj is not None:  # off the truncated identity, so the product is not trivial
        proj = Tensor(proj.data + rng.normal(size=proj.shape))
    x = Tensor(rng.normal(size=(config.layers[tgt].out_channels, t_out)))
    saved = Tensor(rng.normal(size=(config.layers[src].out_channels, t_out * ratio)))
    weights = rng.normal(size=x.shape)
    weights[:, ::2] = -0.0  # a signed-zero upstream adjoint in every other column
    untaped = cnn._shortcut(x, saved, proj, ratio)
    fused = _shortcut_run(cnn._shortcut, x, saved, proj, ratio, weights)
    composed = _shortcut_run(composed_shortcut, x, saved, proj, ratio, weights)
    assert untaped.data.tobytes() == composed[0].tobytes()
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in composed]


# ---------------------------------------------------------------------------
# receptive field
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(config=st.deferred(lambda: cnn_configs()), m=st.integers(1, 4), feat=st.integers(0, 3),
       seed=st.integers(0, 2**16))
def test_input_span_covers_gradient_support(config, m, feat, seed):
    # random residual pairs: the span walks the main path only, so a shortcut
    # reaching outside it would show up here
    rng = np.random.default_rng(seed)
    params = cnn_init(config, rng)
    for t in params.values():
        np.abs(t.data, out=t.data)  # a positive network keeps every ReLU open
    n, feat = m * config.downsample_factor, feat % m
    x = Tensor(rng.uniform(0.5, 1.0, size=(1, n)))
    tape = Tape()
    out = cnn_forward(x, config, params, tape=tape)
    tape.backward(reduce_sum(take_cols(out, [feat], tape), tape=tape))
    support = np.flatnonzero(np.any(tape.grad(x) != 0, axis=0))
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


# ---------------------------------------------------------------------------
# chunked inference
# ---------------------------------------------------------------------------

# A stack whose receptive field reaches three epochs either side.
WIDE_CNN = CnnConfig(
    layers=(ConvLayerSpec(15, 1, 4), ConvLayerSpec(9, 2, 4, 2)),
    residual_pairs=((0, 1),),
)
CHUNK_MODELS = {
    "desk": desk_config("crf", hidden_dim=8, channels=8),
    "paper": paper_config("crf", hidden_dim=8, channels=16),
    "wide": ModelConfig("crf", WIDE_CNN, hidden_dim=8, sample_rate_hz=4, epoch_seconds=1),
}


def _chunk_epochs(monkeypatch, config: CnnConfig, epochs: int) -> None:
    """Patch the byte budget so untaped inference runs chunks of `epochs` epochs."""
    monkeypatch.setattr(cnn, "_CHUNK_BYTES", epochs * cnn._epoch_bytes(config))


def _count_layer_passes(monkeypatch) -> list:
    calls = []
    layers = cnn._layers

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return layers(*args, **kwargs)

    monkeypatch.setattr(cnn, "_layers", counted)
    return calls


def _random_record(config: ModelConfig, m: int, seed: int) -> Record:
    rng = np.random.default_rng(seed)
    d = config.cnn.downsample_factor
    return Record("s", rng.normal(size=m * d), rng.integers(0, 4, size=m),
                  config.sample_rate_hz, config.epoch_seconds)


@pytest.mark.parametrize(
    "name, chunk, m",
    [(name, 3, m) for name in CHUNK_MODELS for m in (2, 3, 4, 7)] + [("wide", 1, 2)],
)
def test_chunked_inference_equals_the_whole_record(monkeypatch, name, chunk, m):
    config = CHUNK_MODELS[name]
    params = init_params(config, 3)
    record = _random_record(config, m, seed=m)
    signal = Tensor(record.signal.reshape(1, -1))
    whole = cnn_forward(signal, config.cnn, params).data
    labels = decode_record(config, params, record)
    if (name, chunk, m) == ("wide", 1, 2):
        assert m < min(cnn._halo(config.cnn))  # every chunk's halo is cut by the record
    _chunk_epochs(monkeypatch, config.cnn, chunk)
    calls = _count_layer_passes(monkeypatch)
    chunked = cnn_forward(signal, config.cnn, params).data
    assert len(calls) == -(-m // chunk)
    if m <= chunk:
        assert chunked.tobytes() == whole.tobytes()
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(decode_record(config, params, record), labels)


def test_budget_chunks_paper_nights_but_not_desk_nights(monkeypatch):
    assert cnn._CHUNK_BYTES // cnn._epoch_bytes(paper_cnn_config()) == 68
    config = desk_cnn_config()
    params = cnn_init(config, np.random.default_rng(4))
    night = Tensor(np.random.default_rng(5).normal(size=(1, 240 * 16)))
    calls = _count_layer_passes(monkeypatch)
    out = cnn_forward(night, config, params).data
    assert calls == [night.shape]
    assert out.tobytes() == cnn._layers(night, config, params).data.tobytes()


@st.composite
def cnn_configs(draw):
    n_layers = draw(st.integers(1, 3))
    layers = tuple(
        ConvLayerSpec(
            kernel_width=draw(st.integers(1, 9)),
            stride=draw(st.integers(1, 3)),
            out_channels=draw(st.integers(1, 3)),
            pool_window=draw(st.integers(1, 3)),
        )
        for _ in range(n_layers)
    )
    targets = draw(st.sets(st.integers(1, n_layers - 1), max_size=2)) if n_layers > 1 else set()
    pairs = tuple((draw(st.integers(0, tgt - 1)), tgt) for tgt in sorted(targets))
    return CnnConfig(layers, pairs)


@settings(max_examples=150, deadline=None)
@given(config=cnn_configs(), m=st.integers(1, 12), budget=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_halo_covers_the_receptive_field(config, m, budget, seed):
    rng = np.random.default_rng(seed)
    params = cnn_init(config, rng)
    signal = Tensor(rng.normal(size=(1, m * config.downsample_factor)))
    whole = cnn._layers(signal, config, params).data
    saved = cnn._CHUNK_BYTES  # hypothesis examples cannot share pytest's monkeypatch
    cnn._CHUNK_BYTES = int(budget * m * cnn._epoch_bytes(config))
    try:
        chunked = cnn_forward(signal, config, params).data
    finally:
        cnn._CHUNK_BYTES = saved
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)


@pytest.mark.parametrize("training, taped", [(True, True), (False, True), (True, False)])
def test_taped_and_training_calls_never_chunk(monkeypatch, training, taped):
    config = desk_config("crf", hidden_dim=8, channels=4)
    params = init_params(config, 6)
    record = _random_record(config, 30, seed=7)

    def run():
        tape = Tape() if taped else None
        rng = SplitRng(8).child("dropout").generator()
        loss = record_loss(config, params, record, training=training, rng=rng, tape=tape)
        grads = []
        if taped:
            tape.backward(loss)
            grads = [tape.grad(params[k]).tobytes() for k in params]
        return loss.data.tobytes(), grads

    expected = run()
    monkeypatch.setattr(cnn, "_CHUNK_BYTES", 1)
    calls = _count_layer_passes(monkeypatch)
    assert run() == expected
    assert len(calls) == 1


def _forward_peak(config: CnnConfig, params, m: int) -> int:
    signal = Tensor(np.random.default_rng(m).normal(size=(1, m * config.downsample_factor)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cnn_forward(signal, config, params)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_untaped_peak_memory_is_flat_in_record_length(monkeypatch):
    config = paper_cnn_config(channels=8)
    params = cnn_init(config, np.random.default_rng(9))
    whole = _forward_peak(config, params, 512)
    _chunk_epochs(monkeypatch, config, 8)
    short, long = _forward_peak(config, params, 64), _forward_peak(config, params, 512)
    assert long <= 1.5 * short, (short, long)
    assert 4 * long <= whole, (long, whole)
