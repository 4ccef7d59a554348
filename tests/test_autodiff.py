import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncrf.autodiff
from ncrf.autodiff import ModelParams, Tape, Tensor, grad_check
from ncrf.errors import DimensionError, NumericError, ParameterError
from primitives import (
    _conv_geometry,
    add,
    affine,
    conv1d,
    dropout,
    exp,
    gather_pairs,
    logsumexp,
    matmul,
    maxpool1d,
    mul,
    reduce_sum,
    relu,
    reshape,
    scale,
    sigmoid,
    take_cols,
    transpose,
)


def test_every_public_autodiff_name_is_imported_by_the_package():
    # the tape holds only what the model runs: a primitive that no other
    # module under src/ncrf imports belongs with the tests, not here
    package = Path(ncrf.autodiff.__file__).parent
    tree = ast.parse((package / "autodiff.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"}
    imported = set()
    for path in package.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
                imported.update(alias.name for alias in node.names)
    assert sorted(defined - imported) == []


def test_tensor_is_float64_row_major():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv1d_reference(x, k, b, stride, pad_l, pad_r):
    """Hand-unrolled convolution used as the independent oracle."""
    c_in, t_in = x.shape
    c_out, _, width = k.shape
    xp = np.pad(x, ((0, 0), (pad_l, pad_r)))
    t_out = (xp.shape[1] - width) // stride + 1
    y = np.zeros((c_out, t_out))
    for o in range(c_out):
        for t in range(t_out):
            acc = b[o]
            for c in range(c_in):
                for i in range(width):
                    acc += k[o, c, i] * xp[c, t * stride + i]
            y[o, t] = acc
    return y


def test_conv_identity_kernel():
    x = Tensor([[1.0, 2, 3, 4, 5]])
    out = conv1d(x, Tensor(np.ones((1, 1, 1))), Tensor(np.zeros(1)), 1, "valid")
    np.testing.assert_array_equal(out.data, [[1, 2, 3, 4, 5]])


def test_conv_hand_unrolled_example():
    # oracle: positions 0 and 2 of [1,0,2,0] under a two-tap sum kernel
    x = np.array([[1.0, 0, 2, 0]])
    k = np.array([[[1.0, 1.0]]])
    expected = conv1d_reference(x, k, np.zeros(1), 2, 0, 0)
    np.testing.assert_array_equal(expected, [[1.0, 2.0]])
    out = conv1d(Tensor(x), Tensor(k), Tensor(np.zeros(1)), 2, "valid")
    np.testing.assert_array_equal(out.data, expected)


def test_conv_same_padding_output_length_paper_scale():
    # ceil(864000 / 2) feature values per map
    t_out, _, _ = _conv_geometry(864000, 10, 2, "same")
    assert t_out == 432000


@pytest.mark.parametrize("stride,padding", [(1, "valid"), (2, "valid"), (1, "same"), (3, "same")])
def test_conv_matches_reference_on_random_inputs(stride, padding):
    rng = np.random.default_rng(42)
    for _ in range(5):
        c_in, c_out, width, t_in = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 5), 13
        x = rng.normal(size=(c_in, t_in))
        k = rng.normal(size=(c_out, c_in, width))
        b = rng.normal(size=c_out)
        _, pad_l, pad_r = _conv_geometry(t_in, int(width), stride, padding)
        expected = conv1d_reference(x, k, b, stride, pad_l, pad_r)
        got = conv1d(Tensor(x), Tensor(k), Tensor(b), stride, padding)
        np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_conv_channel_mismatch_raises():
    with pytest.raises(DimensionError):
        conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros(1)))


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    params = ModelParams({
        "x": Tensor(rng.normal(size=(2, 11))),
        "k": Tensor(rng.normal(size=(3, 2, 4))),
        "b": Tensor(rng.normal(size=3)),
    })

    def loss(p, tape):
        y = conv1d(p["x"], p["k"], p["b"], 2, "same", tape)
        return logsumexp(reshape(y, (-1,), tape), tape=tape)

    assert grad_check(loss, params, samples=40, rng=rng) < 1e-4


# ---------------------------------------------------------------------------
# relu / maxpool / dropout
# ---------------------------------------------------------------------------


def test_relu_values_and_subgradient():
    x = Tensor([-1.0, 0.0, 2.0])
    tape = Tape()
    out = relu(x, tape)
    np.testing.assert_array_equal(out.data, [0, 0, 2])
    tape.backward(reduce_sum(out, tape=tape))
    np.testing.assert_array_equal(tape.grad(x), [0, 0, 1])


def test_relu_all_negative():
    assert not relu(Tensor([-3.0, -0.5])).data.any()


def test_maxpool_examples():
    np.testing.assert_array_equal(maxpool1d(Tensor([[1.0, 3, 2, 8]]), 2).data, [[3, 8]])
    x = Tensor([[4.0, 1, 7]])
    np.testing.assert_array_equal(maxpool1d(x, 1).data, x.data)


def test_maxpool_tie_routes_gradient_to_first_index():
    x = Tensor([[5.0, 5.0]])
    tape = Tape()
    out = maxpool1d(x, 2, tape)
    np.testing.assert_array_equal(out.data, [[5.0]])
    tape.backward(reduce_sum(out, tape=tape))
    np.testing.assert_array_equal(tape.grad(x), [[1.0, 0.0]])


def test_maxpool_window_longer_than_input_raises():
    with pytest.raises(DimensionError):
        maxpool1d(Tensor([[1.0, 2]]), 3)


def test_dropout_rate_zero_is_identity_both_modes():
    x = Tensor([1.0, -2.0])
    rng = np.random.default_rng(0)
    assert dropout(x, 0.0, True, rng) is x
    assert dropout(x, 0.0, False) is x


def test_dropout_inference_identity_at_half_rate():
    x = Tensor([1.0, -2.0, 3.0])
    assert dropout(x, 0.5, False) is x


def test_dropout_mask_reproducible_for_fixed_seed():
    x = Tensor(np.ones(1000))
    a = dropout(x, 0.4, True, np.random.default_rng(7)).data
    b = dropout(x, 0.4, True, np.random.default_rng(7)).data
    np.testing.assert_array_equal(a, b)
    # survivors are scaled by 1/(1-rate)
    assert set(np.unique(a)) <= {0.0, 1.0 / 0.6}


def test_dropout_rate_one_rejected():
    with pytest.raises(ParameterError):
        dropout(Tensor([1.0]), 1.0, True, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# affine / sigmoid / logsumexp
# ---------------------------------------------------------------------------


def test_affine_identity():
    x = Tensor([3.0, -1.0])
    out = affine(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, x.data)


def test_affine_hand_example():
    out = affine(Tensor([1.0, 2.0]), Tensor([[1.0, 1], [0, 1]]), Tensor([0.0, 1.0]))
    np.testing.assert_array_equal(out.data, [3.0, 3.0])


def test_affine_weight_gradient_is_outer_product():
    x = Tensor([1.0, 2.0, 3.0])
    w = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros(2))
    tape = Tape()
    tape.backward(reduce_sum(affine(x, w, b, tape), tape=tape))
    np.testing.assert_array_equal(tape.grad(w), np.outer(np.ones(2), x.data))


def test_affine_dimension_mismatch():
    with pytest.raises(DimensionError):
        affine(Tensor([1.0]), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


def test_sigmoid_at_zero_and_saturation():
    assert sigmoid(Tensor(0.0)).item() == 0.5
    assert sigmoid(Tensor(-800.0)).item() == 0.0
    assert sigmoid(Tensor(800.0)).item() == 1.0


def test_logsumexp_ln2():
    assert logsumexp(Tensor([0.0, 0.0])).item() == pytest.approx(np.log(2), abs=1e-15)


def test_logsumexp_no_overflow():
    assert logsumexp(Tensor([1000.0, 1000.0])).item() == pytest.approx(1000 + np.log(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
def test_logsumexp_bounds(values):
    out = logsumexp(Tensor(values)).item()
    assert out >= max(values)
    assert out <= max(values) + np.log(len(values)) + 1e-12


def test_logsumexp_axis_gradient():
    rng = np.random.default_rng(3)
    params = ModelParams({"x": Tensor(rng.normal(size=(4, 5)))})

    def loss(p, tape):
        return reduce_sum(logsumexp(p["x"], axis=1, tape=tape), tape=tape)

    assert grad_check(loss, params, samples=20, rng=rng) < 1e-6


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_backward_requires_scalar():
    tape = Tape()
    x = Tensor([1.0, 2.0])
    y = add(x, x, tape)
    with pytest.raises(DimensionError):
        tape.backward(y)


def test_backward_rejects_nonfinite_loss():
    tape = Tape()
    x = Tensor(np.inf)
    y = add(x, x, tape)
    with pytest.raises(NumericError):
        tape.backward(y)


def test_repeated_use_accumulates_adjoints():
    x = Tensor(3.0)
    tape = Tape()
    y = add(mul(x, x, tape), x, tape)  # x^2 + x -> dy/dx = 2x + 1
    tape.backward(y)
    assert tape.grad(x) == pytest.approx(7.0)


def test_off_path_tensor_has_zero_grad():
    tape = Tape()
    x, z = Tensor([1.0]), Tensor([2.0])
    tape.backward(reduce_sum(scale(x, 2.0, tape), tape=tape))
    np.testing.assert_array_equal(tape.grad(z), [0.0])


def test_backward_drops_each_adjoint_once_its_node_has_run():
    # x -> a -> b -> loss, one node each: when a's closure runs, the adjoint
    # of b, which b's closure read, must already be dead
    tape = Tape()
    refs, alive = [], []

    def node(inp, fn):
        out = Tensor(fn(inp.data))

        def bw(g):
            alive.append([r() is not None for r in refs])
            gi = np.full(inp.shape, 2.0) * g
            refs.append(weakref.ref(gi))
            return (gi,)

        tape.record(out, (inp,), bw)
        return out

    x = Tensor(np.ones(3))
    b = node(node(x, lambda v: 2.0 * v), lambda v: 2.0 * v)
    tape.backward(node(b, np.sum))
    # the loss's closure, then b's (its g is b's adjoint), then a's
    assert alive == [[], [True], [False, True]]
    np.testing.assert_array_equal(tape.grad(x), [8.0, 8.0, 8.0])
    assert refs[2]() is tape.grad(x)


def test_second_backward_raises_and_len_keeps_counting_nodes():
    x = Tensor([1.0, 2.0])
    tape = Tape()
    loss = reduce_sum(mul(x, x, tape), tape=tape)
    tape.backward(loss)
    assert len(tape) == 2
    with pytest.raises(ParameterError):
        tape.backward(loss)
    np.testing.assert_array_equal(tape.grad(x), [2.0, 4.0])


def test_backward_on_a_tape_with_no_nodes_reads_the_leaf_loss():
    loss = Tensor(3.0)
    tape = Tape()
    tape.backward(loss)
    assert len(tape) == 0
    np.testing.assert_array_equal(tape.grad(loss), 1.0)
    np.testing.assert_array_equal(tape.grad(Tensor([1.0, 2.0])), [0.0, 0.0])


def test_an_intermediate_consumed_by_two_nodes_sums_both_adjoints():
    x = Tensor([1.0, -2.0])
    tape = Tape()
    a = scale(x, 3.0, tape)  # produced, then read by mul and by add
    loss = reduce_sum(add(mul(a, a, tape), a, tape), tape=tape)
    tape.backward(loss)
    np.testing.assert_array_equal(tape.grad(x), 3.0 * (2.0 * a.data + 1.0))
    assert len(tape) == 4


def test_the_tape_holds_no_tensor():
    def run(drop_before_backward):
        x, w = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        tape = Tape()
        y = mul(x, w, tape)
        loss = reduce_sum(mul(y, x, tape), tape=tape)
        leaf, produced = weakref.ref(w), weakref.ref(y)
        del w, y
        if drop_before_backward:
            gc.collect()
            assert leaf() is None and produced() is None
        tape.backward(loss)
        gc.collect()
        assert leaf() is None and produced() is None
        # a leaf the caller keeps still reads its gradient
        np.testing.assert_array_equal(tape.grad(x), [6.0, 16.0])
        assert len(tape) == 3

    run(drop_before_backward=True)
    run(drop_before_backward=False)


def test_grad_of_a_produced_tensor_raises_without_keeping_it_alive():
    x = Tensor([1.0, 2.0])
    tape = Tape()
    y = mul(x, x, tape)
    loss = reduce_sum(y, tape=tape)
    tape.backward(loss)
    for t in (y, loss):
        with pytest.raises(ParameterError):
            tape.grad(t)
    ref = weakref.ref(y)
    del y, t
    gc.collect()
    assert ref() is None


def _node(tape, inputs, value, bw):
    out = Tensor(value)
    tape.record(out, inputs, bw)
    return out


def _scaled_by(k, in_place):
    """A closure scaling its adjoint by k, overwriting it when in_place."""

    def bw(g):
        if in_place:
            g *= k
            return (g,)
        return (g * k,)

    return bw


_WEIGHTS = np.array([1.0, -2.0, 0.5])


def _weighted_sum(tape, s):
    return _node(tape, (s,), np.sum(_WEIGHTS * s.data), lambda g: (g * _WEIGHTS,))


def test_one_array_handed_to_two_produced_inputs_is_owned_by_each():
    # s = p + q hands one array to both; q's closure, then p's, scales the
    # adjoint it was handed in place. Each must own its copy, or p's leaf
    # gradient picks up q's factor.
    def run(in_place):
        x, w = Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0])
        tape = Tape()
        p = _node(tape, (x,), 2.0 * x.data, _scaled_by(2.0, in_place))
        q = _node(tape, (w,), 3.0 * w.data, _scaled_by(3.0, in_place))
        s = _node(tape, (p, q), p.data + q.data, lambda g: (g, g))
        tape.backward(_weighted_sum(tape, s))
        return tape.grad(x).tobytes(), tape.grad(w).tobytes()

    assert run(in_place=True) == run(in_place=False)
    np.testing.assert_array_equal(np.frombuffer(run(True)[0]), 2.0 * _WEIGHTS)


@pytest.mark.parametrize("leaf_first", [True, False])
def test_a_leaf_and_a_produced_input_handed_one_array_store_it_apart(leaf_first):
    # s = p + x, p = 2x: the leaf x and the produced p get one array from s's
    # closure; p's closure then scales its adjoint in place and adds it to x's
    def run(in_place):
        x = Tensor([1.0, 2.0, 3.0])
        tape = Tape()
        p = _node(tape, (x,), 2.0 * x.data, _scaled_by(2.0, in_place))
        s = _node(tape, (x, p) if leaf_first else (p, x), x.data + p.data, lambda g: (g, g))
        tape.backward(_weighted_sum(tape, s))
        return tape.grad(x).tobytes()

    assert run(in_place=True) == run(in_place=False)
    np.testing.assert_array_equal(np.frombuffer(run(True)), 3.0 * _WEIGHTS)


def test_broadcast_add_gradients_reduce_correctly():
    a = Tensor(np.ones((3, 4)))
    b = Tensor(np.ones((3, 1)))
    c = Tensor(np.ones(()))
    tape = Tape()
    tape.backward(reduce_sum(add(add(a, b, tape), c, tape), tape=tape))
    assert tape.grad(a).shape == (3, 4)
    np.testing.assert_array_equal(tape.grad(b), np.full((3, 1), 4.0))
    assert tape.grad(c) == pytest.approx(12.0)


def test_gather_pairs_out_of_range():
    with pytest.raises(ParameterError):
        gather_pairs(Tensor(np.zeros((2, 2))), [0], [5])


def test_take_cols_roundtrip_gradient():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    tape = Tape()
    y = take_cols(x, [0, 2], tape)
    np.testing.assert_array_equal(y.data, x.data[:, [0, 2]])
    tape.backward(reduce_sum(y, tape=tape))
    expected = np.zeros((3, 4))
    expected[:, [0, 2]] = 1.0
    np.testing.assert_array_equal(tape.grad(x), expected)


def test_forward_is_deterministic():
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    x = Tensor(np.linspace(-1, 1, 24).reshape(2, 12))
    k = Tensor(np.linspace(-0.5, 0.5, 12).reshape(2, 2, 3))
    b = Tensor(np.zeros(2))

    def pipeline(rng):
        y = conv1d(x, k, b, 2, "same")
        y = relu(y)
        y = dropout(y, 0.3, True, rng)
        return maxpool1d(y, 2).data

    np.testing.assert_array_equal(pipeline(rng1), pipeline(rng2))


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------


def test_grad_check_quadratic_is_nearly_exact():
    rng = np.random.default_rng(5)
    params = ModelParams({"theta": Tensor(rng.normal(size=9))})

    def loss(p, tape):
        return scale(reduce_sum(mul(p["theta"], p["theta"], tape), tape=tape), 0.5, tape)

    assert grad_check(loss, params, eps=1e-5, samples=9, rng=rng) < 1e-8


def test_grad_check_flags_nonfinite_loss():
    params = ModelParams({"theta": Tensor([1.0])})

    def loss(p, tape):
        return reduce_sum(mul(p["theta"], Tensor([np.nan]), tape), tape=tape)

    with pytest.raises(NumericError):
        grad_check(loss, params, samples=1)


def test_primitive_composition_grad_check():
    rng = np.random.default_rng(17)
    params = ModelParams({
        "x": Tensor(rng.normal(size=(3, 10))),
        "k": Tensor(rng.normal(size=(2, 3, 3))),
        "b": Tensor(rng.normal(size=2)),
        "w": Tensor(rng.normal(size=(4, 2))),
        "c": Tensor(rng.normal(size=4)),
    })

    def loss(p, tape):
        y = conv1d(p["x"], p["k"], p["b"], 2, "same", tape)
        y = maxpool1d(relu(y, tape), 1, tape)
        z = affine(y, p["w"], p["c"], tape)
        z = sigmoid(z, tape)
        s = logsumexp(mul(z, z, tape), axis=0, tape=tape)
        return reduce_sum(exp(scale(s, 0.1, tape), tape), tape=tape)

    assert grad_check(loss, params, samples=40, rng=rng) < 1e-4


def test_matmul_transpose_shapes_and_grads():
    rng = np.random.default_rng(23)
    params = ModelParams({
        "a": Tensor(rng.normal(size=(3, 4))),
        "b": Tensor(rng.normal(size=(4, 2))),
        "v": Tensor(rng.normal(size=4)),
    })

    def loss(p, tape):
        m = matmul(p["a"], p["b"], tape)
        v = matmul(transpose(m, tape), matmul(p["a"], p["v"], tape), tape)
        return reduce_sum(v, tape=tape)

    assert grad_check(loss, params, samples=26, rng=rng) < 1e-6
