import zlib

import numpy as np
import pytest

from gridexplore.nn import (
    BatchNorm,
    CnnEncoder,
    Conv2d,
    Dense,
    GraphError,
    GruCell,
    LayerNorm,
    Mlp,
    Tensor,
    concat,
    no_grad,
)
from gridexplore.nn import Adam
from gridexplore.nn.tensor import (_colsum, conv2d, fold_stats, gru_cell,
                                   gru_sequence, normalize)

from gradcheck import max_grad_error, rand_tensor, to_float64

TOL = 1e-4


def test_dense_identity_weights():
    rng = np.random.default_rng(0)
    layer = Dense(3, 3, rng)
    layer.w.data = np.eye(3)
    layer.b.data = np.zeros(3)
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert np.allclose(layer(Tensor(x)).data, x)


def test_conv_all_ones_2x2():
    rng = np.random.default_rng(0)
    conv = Conv2d(1, 1, 2, rng)
    conv.w.data = np.ones((4, 1))
    conv.b.data = np.zeros(1)
    out = conv(Tensor(np.ones((1, 2, 2, 1))))
    assert out.shape == (1, 1, 1, 1)
    assert out.data.item() == pytest.approx(4.0)


def test_conv_padding_shape():
    rng = np.random.default_rng(0)
    conv = Conv2d(3, 8, 2, rng, pad=1)
    out = conv(Tensor(np.zeros((2, 3, 3, 3))))
    assert out.shape == (2, 4, 4, 8)


@pytest.mark.parametrize("trial", range(10))
def test_dense_gradients(trial):
    rng = np.random.default_rng(100 + trial)
    layer = to_float64(Dense(4, 3, rng))
    x = rand_tensor(rng, 5, 4)
    fn = lambda: (layer(x) ** 2).sum()
    assert max_grad_error(fn, [x, layer.w, layer.b]) < TOL


@pytest.mark.parametrize("trial", range(10))
def test_conv_gradients(trial):
    rng = np.random.default_rng(200 + trial)
    layer = to_float64(Conv2d(2, 3, 2, rng, pad=trial % 2))
    x = rand_tensor(rng, 2, 4, 4, 2)
    fn = lambda: (layer(x) ** 2).sum()
    assert max_grad_error(fn, [x, layer.w, layer.b]) < TOL


def _add_at_slice(x, idx):
    """`x[idx]` with the np.add.at backward the engine used before."""
    def backward(out):
        g = np.zeros_like(x.data)
        np.add.at(g, idx, out.grad)
        x._accum(g)

    return x._make(x.data[idx], (x,), backward)


def _conv_by_slices(conv, x):
    """The Conv2d composition before the conv2d primitive: k*k window
    slices, a concat, one matmul and the bias, each its own graph node."""
    if conv.pad:
        x = x.pad2d(conv.pad)
    n, h, w, _ = x.shape
    k = conv.kernel
    oh, ow = h - k + 1, w - k + 1
    cols = concat(
        [_add_at_slice(x, (slice(None), slice(i, i + oh), slice(j, j + ow),
                           slice(None)))
         for i in range(k) for j in range(k)],
        axis=-1,
    )
    out = cols.reshape(n * oh * ow, k * k * conv.in_ch) @ conv.w + conv.b
    return out.reshape(n, oh, ow, conv.out_ch)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("uses", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [0, 1])
def test_conv_primitive_is_bit_equal_to_slice_composition(pad, dtype, uses):
    # float32 weights on float32 activations, as in training, and on
    # float64 ones, as in the gradchecks' float64 layers. With more than
    # one use the
    # weight and bias gradients sum several terms, as in `embed_pair`, so
    # the order in which they accumulate is pinned too; the relus put
    # signed zeros into the gradients.
    rng = np.random.default_rng(11 + pad)
    conv = Conv2d(3, 3, 2, rng, pad=pad)
    data = [rng.standard_normal((2, 5, 5, 3)).astype(dtype)
            for _ in range(uses)]
    weights = [rng.standard_normal((2, 4 + 2 * pad, 4 + 2 * pad, 3))
               .astype(dtype) for _ in range(uses)]

    def grads(apply):
        conv.zero_grad()
        xs = [Tensor(d) for d in data]
        outs = [apply(conv, x).relu() for x in xs]
        # each use's term enters the loss after the previous ones, as the
        # two encoder passes of `embed_pair` do
        loss = (outs[0] * weights[0]).sum()
        for out, r in zip(outs[1:], weights[1:]):
            loss = loss * 0.5 + (out * r).sum()
        loss.backward()
        return ([o.data for o in outs], [x.grad for x in xs],
                conv.w.grad, conv.b.grad)

    new = grads(Conv2d.__call__)
    ref = grads(_conv_by_slices)
    for a, b in zip(new[0] + new[1] + [new[2], new[3]],
                    ref[0] + ref[1] + [ref[2], ref[3]]):
        assert _bits(a) == _bits(b)


def test_conv_primitive_float64_gradient_into_float32_input():
    # a float64 loss over float32 activations: the input gradient comes
    # back in the input's dtype, rounded as the per-slice adds rounded it
    rng = np.random.default_rng(5)
    conv = Conv2d(2, 4, 2, rng)
    data = rng.standard_normal((3, 4, 4, 2)).astype(np.float32)
    r = rng.standard_normal((3, 3, 3, 4))

    def grads(apply):
        conv.zero_grad()
        x = Tensor(data)
        (apply(conv, x) * r).sum().backward()
        return x.grad, conv.w.grad, conv.b.grad

    for a, b in zip(grads(Conv2d.__call__), grads(_conv_by_slices)):
        assert _bits(a) == _bits(b)


@pytest.mark.parametrize("trial", range(10))
def test_gru_gradients(trial):
    rng = np.random.default_rng(300 + trial)
    cell = to_float64(GruCell(3, 4, rng))
    x = rand_tensor(rng, 2, 3)
    h = rand_tensor(rng, 2, 4)
    fn = lambda: (cell(x, h) ** 2).sum()
    assert max_grad_error(fn, [x, h] + cell.parameters()) < TOL


def test_gru_zero_params_halves_hidden():
    rng = np.random.default_rng(0)
    cell = GruCell(3, 4, rng)
    for p in cell.parameters():
        p.data = np.zeros_like(p.data)
    h = np.random.default_rng(1).standard_normal((2, 4))
    out = cell(Tensor(np.zeros((2, 3))), Tensor(h))
    # z = sigmoid(0) = 0.5, n = tanh(0) = 0 -> h' = 0.5 h
    assert np.allclose(out.data, 0.5 * h)


def test_gru_zero_hidden_fixed_point():
    rng = np.random.default_rng(0)
    cell = GruCell(3, 4, rng)
    for p in cell.parameters():
        p.data = np.zeros_like(p.data)
    out = cell(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    assert np.allclose(out.data, 0.0)


def test_gru_shape_mismatch():
    rng = np.random.default_rng(0)
    cell = GruCell(3, 4, rng)
    with pytest.raises(GraphError):
        cell(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 4))))


def test_gru_unroll_equals_sequential_steps():
    rng = np.random.default_rng(7)
    cell = GruCell(3, 4, rng)
    xs = rng.standard_normal((6, 2, 3)).astype(np.float32)
    with no_grad():
        h = Tensor(np.zeros((2, 4), dtype=np.float32))
        for t in range(6):
            h = cell(Tensor(xs[t]), h)
        h_seq = h.data.copy()
        h2 = Tensor(np.zeros((2, 4), dtype=np.float32))
        for t in range(6):
            h2 = cell(Tensor(xs[t]), h2)
    assert np.array_equal(h_seq, h2.data)


@pytest.mark.parametrize("trial", range(10))
def test_batch_norm_gradients(trial):
    rng = np.random.default_rng(400 + trial)
    bn = to_float64(BatchNorm(3))
    x = rand_tensor(rng, 6, 3)
    fn = lambda: ((bn(x) * np.arange(1.0, 4.0)) ** 2).sum()
    assert max_grad_error(fn, [x, bn.gamma, bn.beta]) < TOL


@pytest.mark.parametrize("trial", range(10))
def test_layer_norm_gradients(trial):
    rng = np.random.default_rng(500 + trial)
    ln = to_float64(LayerNorm(4))
    x = rand_tensor(rng, 3, 4)
    fn = lambda: ((ln(x) + 0.3) ** 2).sum()
    assert max_grad_error(fn, [x, ln.gamma, ln.beta]) < TOL


def test_batch_norm_standardizes_batch():
    rng = np.random.default_rng(0)
    bn = BatchNorm(3)
    x = Tensor(rng.standard_normal((64, 3)))
    y = bn(x).data
    assert np.allclose(y.mean(axis=0), 0.0, atol=1e-5)
    assert np.allclose(y.var(axis=0), 1.0, atol=1e-5)


def test_batch_norm_rejects_single_sample_in_training():
    bn = BatchNorm(3)
    with pytest.raises(GraphError):
        bn(Tensor(np.zeros((1, 3))))


def test_batch_norm_eval_uses_running_stats():
    rng = np.random.default_rng(0)
    bn = BatchNorm(2)
    x = rng.standard_normal((32, 2)) * 2.0 + 1.0
    for _ in range(50):
        bn(Tensor(x))
    bn.eval()
    sample = np.array([[0.5, -0.5]])
    got = bn(Tensor(sample)).data
    expected = (sample - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    assert np.allclose(got, expected, atol=1e-6)


def test_layer_norm_constant_input_gives_shift():
    ln = LayerNorm(4)
    ln.beta.data = np.full(4, 0.7, dtype=np.float32)
    y = ln(Tensor(np.full((2, 4), 3.0)))
    assert np.allclose(y.data, 0.7, atol=1e-3)


@pytest.mark.parametrize("trial", range(10))
def test_mlp_gradients(trial):
    rng = np.random.default_rng(600 + trial)
    mlp = to_float64(Mlp([3, 5, 2], rng, norm="layer"))
    x = rand_tensor(rng, 4, 3)
    fn = lambda: (mlp(x) ** 2).sum()
    assert max_grad_error(fn, [x] + mlp.parameters()) < TOL


@pytest.mark.parametrize("view", [3, 7])
def test_cnn_encoder_shapes(view):
    rng = np.random.default_rng(0)
    enc = CnnEncoder(view, 16, rng, norm="batch", channels=(4, 8, 8))
    out = enc(Tensor(np.random.default_rng(1).random((5, view, view, 3)).astype(np.float32)))
    assert out.shape == (5, 16)


def test_cnn_encoder_gradients():
    rng = np.random.default_rng(9)
    enc = to_float64(
        CnnEncoder(3, 4, rng, norm="layer", channels=(2, 2, 2))
    )
    x = rand_tensor(rng, 3, 3, 3, 3)
    fn = lambda: (enc(x) ** 2).sum()
    assert max_grad_error(fn, [x] + enc.parameters()) < TOL


def test_module_state_roundtrip():
    rng = np.random.default_rng(0)
    mlp = Mlp([3, 4, 2], rng, norm="batch")
    mlp(Tensor(rng.standard_normal((8, 3)).astype(np.float32)))
    state = {k: v.copy() for k, v in mlp.state_arrays().items()}
    rng2 = np.random.default_rng(99)
    other = Mlp([3, 4, 2], rng2, norm="batch")
    other.load_state(state)
    for (_, a), (_, b) in zip(mlp.named_parameters(), other.named_parameters()):
        assert np.allclose(a.data, b.data)
    assert np.allclose(mlp.norm0.running_mean, other.norm0.running_mean)


# ---------------------------------------------------------------------------
# Fused norm and GRU ops against the composite formulas they replaced,
# kept here as the reference, in float64


def _old_batch_norm(bn, x):
    axes = tuple(range(x.data.ndim - 1))
    if bn.training:
        mu = x.mean(axis=axes, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        m = bn.momentum
        bn.running_mean = m * bn.running_mean + (1 - m) * mu.data.reshape(-1)
        bn.running_var = m * bn.running_var + (1 - m) * var.data.reshape(-1)
        y = centered / (var + bn.eps).sqrt()
    else:
        y = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    return y * bn.gamma + bn.beta


def _old_layer_norm(ln, x):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return (centered / (var + ln.eps).sqrt()) * ln.gamma + ln.beta


def _float64_norm(cls, rng, n):
    norm = to_float64(cls(n))
    norm.gamma.data = rng.uniform(0.5, 1.5, n)
    norm.beta.data = rng.standard_normal(n)
    if cls is BatchNorm:
        norm.running_mean = rng.standard_normal(n)
        norm.running_var = rng.uniform(0.5, 2.0, n)
    return norm


def _apply(fn, norm, data, r):
    """Output, x/gamma/beta grads and running stats after one call."""
    norm.zero_grad()
    x = Tensor(data.copy())
    y = fn(norm, x)
    (y * r).sum().backward()
    stats = [getattr(norm, k, None) for k in ("running_mean", "running_var")]
    return [y.data, x.grad, norm.gamma.grad, norm.beta.grad] + [
        s for s in stats if s is not None]


@pytest.mark.parametrize("case", ["batch-train-2d", "batch-train-4d",
                                  "batch-eval-2d", "batch-eval-4d",
                                  "layer-2d", "layer-4d"])
def test_fused_norm_matches_composite_formula(case):
    kind, *mode, dims = case.split("-")
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    shape = (6, 5) if dims == "2d" else (3, 4, 4, 5)
    data = rng.standard_normal(shape) * 3.0 + 1.0
    r = rng.standard_normal(shape)
    cls, old = ((BatchNorm, _old_batch_norm) if kind == "batch"
                else (LayerNorm, _old_layer_norm))
    fused, ref = (_float64_norm(cls, np.random.default_rng(1), 5)
                  for _ in range(2))
    if mode == ["eval"]:
        fused.eval(), ref.eval()
    got = _apply(type(fused).__call__, fused, data, r)
    want = _apply(old, ref, data, r)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("cls", [BatchNorm, LayerNorm])
def test_fused_norm_on_a_constant_feature_is_finite(cls):
    rng = np.random.default_rng(3)
    norm = cls(3)
    data = rng.standard_normal((8, 3)).astype(np.float32)
    data[:, 1] = 2.5  # a constant channel (BatchNorm's batch axis)
    if cls is LayerNorm:
        data[0] = 2.5  # a constant row (LayerNorm's feature axis)
    x = Tensor(data)
    y = norm(x)
    (y * rng.standard_normal((8, 3)).astype(np.float32)).sum().backward()
    for a in (y.data, x.grad, norm.gamma.grad, norm.beta.grad):
        assert a.dtype == np.float32 and np.isfinite(a).all()


def _old_gru(cell, x, h):
    hs = cell.hidden_size
    wz, wr, wn = (cell.w[:, i * hs:(i + 1) * hs] for i in range(3))
    uz, ur = cell.u[:, :hs], cell.u[:, hs:]
    bz, br, bn = (cell.b[i * hs:(i + 1) * hs] for i in range(3))
    z = (x @ wz + h @ uz + bz).sigmoid()
    r = (x @ wr + h @ ur + br).sigmoid()
    n = (x @ wn + (r * h) @ cell.un + bn).tanh()
    return (1.0 - z) * n + z * h


def test_fused_gru_matches_composite_formula():
    rng = np.random.default_rng(11)
    cell = to_float64(GruCell(3, 4, rng))
    xd, hd = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
    r = rng.standard_normal((5, 4))
    results = []
    for fn in (GruCell.__call__, _old_gru):
        cell.zero_grad()
        x, h = Tensor(xd), Tensor(hd)
        out = fn(cell, x, h)
        (out * r).sum().backward()
        results.append([out.data, x.grad, h.grad]
                       + [p.grad for p in cell.parameters()])
    for a, b in zip(*results):
        assert np.max(np.abs(a - b)) < 1e-10


def test_gru_draws_its_initial_weights_gate_by_gate():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    cell = GruCell(3, 4, rng)
    bound = 1.0 / np.sqrt(4)
    gates = [[ref.uniform(-bound, bound, s).astype(np.float32)
              for s in ((3, 4), (4, 4), 4)] for _ in range(3)]
    (wz, uz, bz), (wr, ur, br), (wn, un, bn) = gates
    assert np.array_equal(cell.w.data, np.concatenate([wz, wr, wn], axis=1))
    assert np.array_equal(cell.u.data, np.concatenate([uz, ur], axis=1))
    assert np.array_equal(cell.un.data, un)
    assert np.array_equal(cell.b.data, np.concatenate([bz, br, bn]))


# ---------------------------------------------------------------------------
# Column sums, the conv2d backward layout and eval-mode batch norm


def test_column_sum_matches_a_float64_reference():
    rng = np.random.default_rng(7)
    x = (rng.standard_normal((1024, 5, 5, 8)) * 3.0 + 1.0).astype(np.float32)
    x64 = x.astype(np.float64)
    got = _colsum(x)
    assert got.dtype == np.float32 and got.shape == (8,)
    # within a few float32 roundings of the summed magnitudes
    tol = 16 * np.finfo(np.float32).eps * np.abs(x64).sum(axis=(0, 1, 2))
    assert np.all(np.abs(got - x64.sum(axis=(0, 1, 2))) <= tol)
    # keep=0 sums everything; keep=2 keeps the last two axes
    assert np.isclose(_colsum(x, 0), x64.sum(), rtol=1e-5)
    assert _colsum(x, 2).shape == (5, 8)
    np.testing.assert_allclose(_colsum(x, 2), x64.sum(axis=(0, 1)),
                               rtol=1e-5, atol=1e-3)


def _scatter_by_slices(dcols, x_shape, k):
    """The input gradient as the conv2d backward summed it before: k*k
    strided adds straight from the (n, oh, ow, k*k, c) column gradient."""
    _, h, w, _ = x_shape
    oh, ow = h - k + 1, w - k + 1
    dx = np.zeros(x_shape, dcols.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, i : i + oh, j : j + ow, :] += dcols[:, :, :, i * k + j]
    return dx


# the encoder's three 2x2 convs at view 7 and at view 3 (its first conv
# zero-padded by one), and a 3x3 kernel
@pytest.mark.parametrize("shape,k,out_ch,pad", [
    ((16, 7, 7, 3), 2, 8, 0), ((16, 6, 6, 8), 2, 16, 0),
    ((16, 5, 5, 16), 2, 16, 0), ((16, 3, 3, 3), 2, 8, 1),
    ((16, 4, 4, 8), 2, 16, 0), ((16, 3, 3, 16), 2, 16, 0),
    ((4, 7, 7, 3), 3, 5, 0)])
def test_conv_backward_equals_the_slice_scatter_byte_for_byte(shape, k,
                                                              out_ch, pad):
    rng = np.random.default_rng(sum(shape) + k + pad)
    data = rng.standard_normal(shape).astype(np.float32)
    data = np.pad(data, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    x = Tensor(data)
    w = Tensor(rng.standard_normal((k * k * shape[-1], out_ch))
               .astype(np.float32))
    b = Tensor(np.zeros(out_ch, np.float32))
    out = conv2d(x, w, b, k)
    g = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(g)
    dcols = (g.reshape(-1, out_ch) @ w.data.T).reshape(
        out.shape[:3] + (k * k, shape[-1]))
    assert _bits(x.grad) == _bits(_scatter_by_slices(dcols, data.shape, k))


@pytest.mark.parametrize("trial", range(5))
def test_eval_batch_norm_gradients(trial):
    # running stats as constants, folded into one scale and shift
    rng = np.random.default_rng(400 + trial)
    bn = _float64_norm(BatchNorm, rng, 3)
    bn.eval()
    x = rand_tensor(rng, 4, 2, 2, 3)
    r = rng.standard_normal((4, 2, 2, 3))

    def fn():
        return ((bn(x) * r) ** 2).mean()

    assert max_grad_error(fn, [x, bn.gamma, bn.beta]) < TOL


# ---------------------------------------------------------------------------
# relu, normalize and the conv2d forward against the formulas they had
# before their operands were spread over whole sample rows, kept here as
# the reference: byte for byte


def _old_relu(a):
    return np.where(a > 0, a, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 7, 31, 257, 1001])
def test_relu_is_bit_equal_to_the_masked_select(n, dtype):
    rng = np.random.default_rng(n)
    base = rng.standard_normal((3, n + 4, 5, 3)).astype(dtype)
    base[..., 0] = -0.0
    base[:, ::4, :, 1] = 0.0
    views = [base.reshape(-1)[:n], base[:, 1::2, ::2, 1:]]  # odd, strided
    for data in views:
        x = Tensor(data)
        out = x.relu()
        want = _old_relu(data)
        assert _bits(out.data) == _bits(want)
        assert not np.signbit(out.data[data <= 0]).any()  # +0.0, never -0.0
        g = rng.standard_normal(data.shape).astype(dtype)
        out.backward(g)
        assert _bits(x.grad) == _bits((data > 0) * g)


def _old_normalize(x, gamma, beta, axes, eps, g, stats=None):
    """Output, mean, var and the x, gamma and beta gradients of
    `normalize`, by its formulas with per-feature broadcasting."""
    if stats is not None:
        mean, var = stats
        inv = 1.0 / np.sqrt(var + eps)
        scale = gamma * inv
        out = x * scale + (beta - mean * scale)
        return (out, mean, var, g * scale, _colsum(g * ((x - mean) * inv)),
                _colsum(g))
    n = x.size // x.shape[-1]

    def mean_of(a):
        if tuple(axes) == tuple(range(x.ndim - 1)):
            return _colsum(a) / n
        return a.mean(axis=axes, keepdims=True)

    mean = mean_of(x)
    centered = x - mean
    var = mean_of(centered * centered)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma + beta
    d = g * gamma
    d = d - mean_of(d) - xhat * mean_of(d * xhat)
    return out, mean, var, d * inv, _colsum(g * xhat), _colsum(g)


# the encoder's norms at desk widths (8/16/16, embed 16): view 7, view 3
# with the padded first conv, and the 2-D inputs of `fc_norm` and `Mlp`
_NORM_SHAPES = [(64, 7, 7, 3), (64, 6, 6, 8), (64, 5, 5, 16), (64, 4, 4, 16),
                (64, 3, 3, 3), (64, 4, 4, 8), (64, 3, 3, 16), (64, 2, 2, 16),
                (64, 16), (64, 32)]


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval", "layer"])
@pytest.mark.parametrize("shape", _NORM_SHAPES)
def test_normalize_is_bit_equal_to_the_broadcast_formulas(shape, mode,
                                                          grad_dtype):
    # a float64 output gradient into float32 activations, as a float64
    # loss gives, must come back as wide as the broadcast formulas made it
    rng = np.random.default_rng(sum(shape) + len(mode))
    c = shape[-1]
    data = (rng.standard_normal(shape) * 3.0 + 1.0).astype(np.float32)
    gd, bd = (rng.standard_normal(c).astype(np.float32) for _ in range(2))
    g = rng.standard_normal(shape).astype(grad_dtype)
    axes = (-1,) if mode == "layer" else tuple(range(len(shape) - 1))
    stats = None
    if mode == "eval":
        stats = (rng.standard_normal(c).astype(np.float32),
                 rng.uniform(0.5, 2.0, c).astype(np.float32))
    eps = BatchNorm.eps
    x, gamma, beta = Tensor(data), Tensor(gd), Tensor(bd)
    fold = stats and fold_stats(gd, bd, *stats, eps, shape)
    out, mean, var = normalize(x, gamma, beta, axes, eps, fold)
    out.backward(g)
    got = (out.data, mean, var, x.grad, gamma.grad, beta.grad)
    want = _old_normalize(data, gd, bd, axes, eps, g, stats)
    for a, b in zip(got, want):
        assert _bits(a) == _bits(b)


def _old_conv2d_out(x, w, b, k):
    n, h, wd, c = x.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(
        -1, k * k * c)
    return (cols @ w + b).reshape(n, h - k + 1, wd - k + 1, -1), cols


@pytest.mark.parametrize("view", ["strided", "transposed", "offset",
                                  "channels"])
def test_conv_window_view_is_bit_equal_on_a_non_contiguous_input(view):
    rng = np.random.default_rng(len(view))
    base = rng.standard_normal((9, 11, 11, 6)).astype(np.float32)
    data = {"strided": base[:, 1::2, ::2, :3],
            "transposed": base[..., :3].transpose(0, 2, 1, 3),
            "offset": base[1:],  # contiguous, not at its buffer's start
            "channels": base[..., 2:5]}[view]
    c = data.shape[-1]
    w = rng.standard_normal((4 * c, 8)).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    x, wt = Tensor(data), Tensor(w)
    out = conv2d(x, wt, Tensor(b), 2)
    want, cols = _old_conv2d_out(data, w, b, 2)
    assert _bits(out.data) == _bits(want)
    g = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(g)
    assert _bits(wt.grad) == _bits(cols.T @ g.reshape(-1, 8))


# ---------------------------------------------------------------------------
# a norm's `relu=True` against the norm followed by `.relu()`, byte for
# byte; its input is a fresh op output, which the fused op centers in place


def _norm_pair(mode, c, rng):
    """Two equal norm modules of `mode` with random gamma, beta and, in
    eval mode, random running stats."""
    mods = [LayerNorm(c) if mode == "layer" else BatchNorm(c)
            for _ in range(2)]
    gamma, beta, mean = (rng.standard_normal(c).astype(np.float32)
                         for _ in range(3))
    var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    for m in mods:
        m.gamma.data, m.beta.data = gamma.copy(), beta.copy()
        if mode == "eval":
            m.running_mean, m.running_var = mean.copy(), var.copy()
            m.eval()
    return mods


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval", "layer"])
@pytest.mark.parametrize("shape", _NORM_SHAPES)
def test_norm_relu_is_bit_equal_to_norm_then_relu(shape, mode, grad_dtype):
    rng = np.random.default_rng(sum(shape) + 3 * len(mode))
    data = (rng.standard_normal(shape) * 3.0 + 1.0).astype(np.float32)
    g = rng.standard_normal(shape).astype(grad_dtype)
    fused, plain = _norm_pair(mode, shape[-1], rng)
    got, want = [], []
    for norm, relu, results in ((fused, True, got), (plain, False, want)):
        x = Tensor(data.copy())
        fresh = x * 1.0  # a non-leaf op output, as a conv or Dense gives
        out = norm(fresh, relu=True) if relu else norm(fresh).relu()
        out.backward(g)
        results += [out.data, x.grad, norm.gamma.grad, norm.beta.grad]
        if isinstance(norm, BatchNorm):
            results += [norm.running_mean, norm.running_var]
    for a, b in zip(got, want, strict=True):
        assert _bits(a) == _bits(b)


def test_norm_relu_centers_a_fresh_op_output_in_place():
    rng = np.random.default_rng(0)
    fresh = Tensor(rng.standard_normal((64, 5, 5, 8)).astype(np.float32)
                   + 4.0) * 1.0
    data = fresh.data
    BatchNorm(8)(fresh, relu=True)
    assert fresh.data is data  # now the op's xhat
    assert np.abs(_colsum(data) / (64 * 25)).max() < 1e-5


@pytest.mark.parametrize("norm", [BatchNorm(8), LayerNorm(8)])
def test_norm_reads_a_leaf_and_a_held_tensor_only(norm):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((64, 5, 5, 8)).astype(np.float32) + 4.0
    leaf = Tensor(data.copy())
    norm(leaf, relu=True).sum().backward()
    assert _bits(leaf.data) == _bits(data)
    # a non-leaf the caller holds, passed without relu
    held = Tensor(data.copy()) * 1.0
    norm(held).sum().backward()
    assert _bits(held.data) == _bits(data)



# ---------------------------------------------------------------------------
# gru_sequence against the per-step loop it replaced in the PPO update,
# kept here as the reference: byte for byte


def _gru_loop(x, h0, done_prev, w, u, un, b):
    """A slice of x, a mask leaf times the state after a done, one
    `gru_cell` per step, and the steps' states concatenated time-major."""
    h = Tensor(h0)
    outs = []
    for t in range(x.shape[1]):
        if t > 0:
            mask = (~done_prev[:, t - 1, None]).astype(np.float32)
            h = h * Tensor(mask)
        h = gru_cell(x[:, t, :], h, w, u, un, b)
        outs.append(h)
    return concat(outs, axis=0)


def _gru_sequence(x, h0, done_prev, w, u, un, b):
    keep = (~done_prev[:, :-1]).astype(np.float32)
    return gru_sequence(x, h0, keep, w, u, un, b)


_DONES = {"none": [], "first": [0], "middle": [7], "last": [15],
          "every": list(range(16))}


@pytest.mark.parametrize("preset", [False, True])
@pytest.mark.parametrize("dones", list(_DONES))
@pytest.mark.parametrize("L", [1, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gru_sequence_is_bit_equal_to_the_step_loop(dtype, L, dones, preset):
    B, E, H = 5, 6, 4
    rng = np.random.default_rng(L + len(dones))
    cell = GruCell(E, H, rng)
    params = [p.data.astype(dtype) for p in cell.parameters()]
    data = rng.standard_normal((B * L, E)).astype(dtype)
    h0 = rng.standard_normal((B, H)).astype(dtype)
    done_prev = np.zeros((B, L), bool)
    done_prev[:, [t for t in _DONES[dones] if t < L]] = True
    done_prev[1] = False  # one row that never resets
    g = rng.standard_normal((L * B, H)).astype(dtype)
    pre = [rng.standard_normal(p.shape).astype(dtype) for p in params]
    results = []
    for op in (_gru_loop, _gru_sequence):
        leaf = Tensor(data.copy())
        x = leaf.reshape(B, L, E)  # a non-leaf, as the encoder's output
        w, u, un, b = (Tensor(p.copy()) for p in params)
        if preset:  # gradients already accumulated before this backward
            w.grad, u.grad, un.grad, b.grad = (a.copy() for a in pre)
        out = op(x, h0.copy(), done_prev, w, u, un, b)
        out.backward(g)
        results.append([out.data, leaf.grad, w.grad, u.grad, un.grad,
                        b.grad])
    for a, b in zip(*results, strict=True):
        assert _bits(a) == _bits(b)


def test_gru_sequence_gradients():
    rng = np.random.default_rng(17)
    cell = to_float64(GruCell(3, 4, rng))
    x = rand_tensor(rng, 2, 5, 3)
    h0 = rng.standard_normal((2, 4))
    keep = np.array([[1, 0, 1, 1], [1, 1, 1, 0]], np.float32)
    r = rng.standard_normal((10, 4))

    def fn():
        out = gru_sequence(x, h0, keep, cell.w, cell.u, cell.un, cell.b)
        return (out * r).sum()

    assert max_grad_error(fn, [x] + cell.parameters()) < TOL


# ---------------------------------------------------------------------------
# The eval-mode batch norm fold: byte-equal to the formula folded on
# every call, and folded again whenever an input of it changes


def _eval_reference(bn, data, g, relu):
    """Output and x, gamma, beta gradients of eval-mode `bn` by the
    broadcast formulas, folding the running stats afresh."""
    stats = (bn.running_mean.astype(data.dtype),
             bn.running_var.astype(data.dtype))
    axes = tuple(range(data.ndim - 1))
    out = _old_normalize(data, bn.gamma.data, bn.beta.data, axes, bn.eps,
                         g, stats)[0]
    if relu:
        g = (out > 0) * g
        out = _old_relu(out)
    return [out] + list(_old_normalize(data, bn.gamma.data, bn.beta.data,
                                       axes, bn.eps, g, stats)[3:])


def _eval_call(bn, data, g, relu):
    bn.zero_grad()
    x = Tensor(data.copy())
    out = bn(x, relu=relu)
    out.backward(g)
    return [out.data, x.grad, bn.gamma.grad, bn.beta.grad]


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("sample", [(7, 7, 3), (3, 3, 16), (16,)])
@pytest.mark.parametrize("batch", [1, 16, 512])
def test_eval_batch_norm_fold_is_bit_equal_to_folding_each_call(batch, sample,
                                                                relu):
    rng = np.random.default_rng(batch + len(sample))
    c = sample[-1]
    bn = BatchNorm(c)
    bn.gamma.data = rng.uniform(0.5, 1.5, c).astype(np.float32)
    bn.beta.data = rng.standard_normal(c).astype(np.float32)
    bn.running_mean = rng.standard_normal(c).astype(np.float32)
    bn.running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    bn.eval()
    for _ in range(2):  # the first call folds, the second reuses the fold
        data = (rng.standard_normal((batch,) + sample) * 2.0
                + 0.5).astype(np.float32)
        g = rng.standard_normal(data.shape).astype(np.float32)
        got = _eval_call(bn, data, g, relu)
        want = _eval_reference(bn, data, g, relu)
        for a, b in zip(got, want, strict=True):
            assert _bits(a) == _bits(b)


def test_eval_batch_norm_folds_again_when_an_input_changes():
    rng = np.random.default_rng(23)
    bn = BatchNorm(8)
    opt = Adam(bn.parameters(), lr=0.1)
    batch = rng.standard_normal((32, 3, 3, 8)).astype(np.float32)
    bn(Tensor(batch))  # training: running stats move off their init
    bn.eval()
    data = rng.standard_normal((16, 3, 3, 8)).astype(np.float32)
    g = rng.standard_normal(data.shape).astype(np.float32)

    def check():
        """The fold after a call, with the call's values checked."""
        got = _eval_call(bn, data, g, relu=True)
        want = _eval_reference(bn, data, g, relu=True)
        for a, b in zip(got, want, strict=True):
            assert _bits(a) == _bits(b)
        return bn._fold[1]

    def adam_step():
        bn.gamma.grad = bn.beta.grad = np.ones(8, np.float32)
        opt.step()

    def train_forward():
        bn.train()
        bn(Tensor(batch * 2.0))
        bn.eval()

    def load_state():
        other = BatchNorm(8)
        other.running_var = np.full(8, 3.0, np.float32)
        bn.load_state(other.state_arrays())

    def write_gamma():
        bn.gamma.data[3] += 1.0

    def write_running_var():
        bn.running_var[5] *= 2.0

    fold = check()
    assert check() is fold  # nothing changed: reused
    with no_grad():
        bn(Tensor(data[:1]))  # another batch size, the same sample shape
    assert bn._fold[1] is fold
    for change in (adam_step, train_forward, load_state, write_gamma,
                   write_running_var):
        change()
        new = check()
        assert new is not fold, change.__name__
        assert check() is new, change.__name__
        fold = new
    bn(Tensor(data.astype(np.float64)))  # another dtype
    assert bn._fold[1] is not fold
