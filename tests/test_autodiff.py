import hashlib
import weakref
import zlib

import numpy as np
import pytest

from gridexplore.nn import GraphError, Tensor, concat, no_grad
from gridexplore.nn.tensor import conv2d, gru_cell, normalize

from gradcheck import max_grad_error, rand_tensor

TOL = 1e-4


def test_quadratic_derivative():
    x = Tensor(np.array(3.0))
    y = x * x
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_identity_graph():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    y = x.reshape(2, 3)
    assert np.array_equal(y.data, x.data)


def test_shared_parameter_accumulates_branch_grads():
    # two uses of w: grad must be the sum of both branch grads
    w = Tensor(np.array([2.0]))
    out = w * 3.0 + w * w
    out.backward()
    assert w.grad[0] == pytest.approx(3.0 + 2 * 2.0)


def test_backward_before_forward_is_an_error():
    x = Tensor(np.array(1.0))
    with pytest.raises(GraphError):
        x.backward()


def test_no_grad_blocks_graph():
    x = Tensor(np.array(2.0))
    with no_grad():
        y = x * x
    assert y._prev == ()
    with pytest.raises(GraphError):
        y.backward()


def test_matmul_shape_mismatch():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 2)))
    with pytest.raises(GraphError):
        a @ b


@pytest.mark.parametrize("trial", range(10))
@pytest.mark.parametrize(
    "op",
    [
        "add", "mul", "sub", "div", "matmul", "pow", "relu", "tanh",
        "sigmoid", "exp", "sqrt", "minimum", "clip", "sum0",
        "mean", "reshape", "getitem", "concat", "log_softmax",
        "bce", "take_rows", "pad2d",
    ],
)
def test_primitive_gradients_match_finite_differences(op, trial):
    # str hashes are salted per process, so hash() would draw new inputs
    # on every run; crc32 keeps each (op, trial) draw fixed
    rng = np.random.default_rng(zlib.crc32(f"{op}/{trial}".encode()))
    a = rand_tensor(rng, 3, 4)
    b = rand_tensor(rng, 3, 4)
    m = rand_tensor(rng, 4, 5)
    pos = Tensor(np.abs(rng.standard_normal((3, 4))) + 0.5)
    img = rand_tensor(rng, 2, 3, 3, 2)
    fns = {
        "add": (lambda: ((a + b) * (a + b)).sum(), [a, b]),
        "mul": (lambda: (a * b).sum(), [a, b]),
        "sub": (lambda: ((a - b) * a).sum(), [a, b]),
        "div": (lambda: (a / pos).sum(), [a, pos]),
        "matmul": (lambda: ((a @ m) * (a @ m)).sum(), [a, m]),
        "pow": (lambda: (pos**1.7).sum(), [pos]),
        "relu": (lambda: (a.relu() * b).sum(), [a, b]),
        "tanh": (lambda: a.tanh().sum(), [a]),
        "sigmoid": (lambda: a.sigmoid().sum(), [a]),
        "exp": (lambda: a.exp().sum(), [a]),
        "sqrt": (lambda: pos.sqrt().sum(), [pos]),
        "minimum": (lambda: a.minimum(b).sum(), [a, b]),
        "clip": (lambda: (a.clip(-0.5, 0.5) * b).sum(), [a, b]),
        "sum0": (lambda: ((a.sum(axis=0) ** 2).sum()), [a]),
        "mean": (lambda: (a.mean(axis=1) * 3.0).sum(), [a]),
        "reshape": (lambda: (a.reshape(4, 3) @ Tensor(np.eye(3))).sum(), [a]),
        "getitem": (lambda: (a[:, 1:3] * b[:, 0:2]).sum(), [a, b]),
        "concat": (lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b]),
        "log_softmax": (lambda: (a.log_softmax() * b.data).sum(), [a]),
        "bce": (
            lambda: a.bce_with_logits((np.arange(12).reshape(3, 4) % 2).astype(float)),
            [a],
        ),
        "take_rows": (
            lambda: (a.take_rows(np.array([0, 3, 1])) ** 2).sum(),
            [a],
        ),
        "pad2d": (lambda: (img.pad2d(1) ** 2).sum(), [img]),
    }
    fn, tensors = fns[op]
    assert max_grad_error(fn, tensors) < TOL


def test_broadcast_bias_gradient():
    rng = np.random.default_rng(0)
    x = rand_tensor(rng, 5, 3)
    bias = rand_tensor(rng, 3)
    assert max_grad_error(lambda: ((x + bias) ** 2).sum(), [x, bias]) < TOL


def test_bce_balanced_half_probability():
    # constant logit 0 -> p=0.5 -> loss is ln 2 for any labels
    z = Tensor(np.zeros(10))
    labels = (np.arange(10) % 2).astype(float)
    assert float(z.bce_with_logits(labels).data) == pytest.approx(np.log(2))


def test_eval_forward_is_pure():
    rng = np.random.default_rng(1)
    x = rand_tensor(rng, 4, 4)
    with no_grad():
        first = (x @ x).tanh().data.copy()
        second = (x @ x).tanh().data.copy()
    assert np.array_equal(first, second)


def _add_at_grad(data, idx, grad):
    """The np.add.at scatter that indexing backward used for every index."""
    g = np.zeros_like(data)
    np.add.at(g, idx, grad)
    return g


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("idx", [
    (slice(None), slice(1, 3)),
    (1,),
    (slice(None, None, 2), 2),
    np.int64(2),
    (slice(None), slice(None), slice(0, 1)),
], ids=["slices", "int", "step-and-int", "numpy-int", "trailing-slice"])
def test_getitem_backward_on_plain_index_is_bit_equal_to_add_at(idx):
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3, 5)).astype(np.float32))
    y = x[idx]
    grad = rng.standard_normal(y.shape).astype(np.float32)
    grad.flat[0] = -0.0  # np.add.at into zeros turns -0.0 into +0.0
    y.backward(grad)
    assert _bits(x.grad) == _bits(_add_at_grad(x.data, idx, grad))


def test_getitem_backward_with_repeated_fancy_index_accumulates():
    x = Tensor(np.arange(6.0).reshape(3, 2))
    x[[0, 0, 1]].backward(np.array([[1.0, 2.0], [10.0, 20.0], [5.0, 5.0]]))
    assert np.array_equal(x.grad, [[11.0, 22.0], [5.0, 5.0], [0.0, 0.0]])


def test_take_rows_backward_is_bit_equal_to_add_at():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((5, 4)))
    picks = np.array([3, 0, 3, 1, 2])
    y = x.take_rows(picks)
    grad = rng.standard_normal(5)
    grad[1] = -0.0
    y.backward(grad)
    expected = _add_at_grad(x.data, (np.arange(5), picks), grad)
    assert _bits(x.grad) == _bits(expected)


def _graph():
    """A float32 graph through conv2d, relu, batch norm, a dense layer, a
    GRU step and the policy-loss ops, one input reused twice: its leaves,
    its conv2d and relu nodes, and its loss."""
    rng = np.random.default_rng(21)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32))

    x, cw, cb, gamma, beta = leaf(6, 5, 5, 3), leaf(12, 4), leaf(4), leaf(4), leaf(4)
    dw, gw, gu, gun, gb, h = (leaf(64, 8), leaf(8, 24), leaf(8, 16),
                              leaf(8, 8), leaf(24), leaf(6, 8))
    conv = conv2d(x, cw, cb, 2)
    relu = conv.relu()
    norm, _, _ = normalize(relu, gamma, beta, (0, 1, 2), 1e-5)
    hidden = (norm.reshape(6, 64) @ dw).tanh()
    h_next = gru_cell(hidden, h, gw, gu, gun, gb)
    picked = h_next.log_softmax().take_rows(np.arange(6) % 8)
    loss = picked.mean() * -1.0 + (h_next * h_next).sum() * 0.01
    return [x, cw, cb, gamma, beta, dw, gw, gu, gun, gb, h], conv, relu, loss


def _non_leaves(root):
    seen, stack, found = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            found.append(node)
        stack.extend(node._prev)
    return found


def _closure(node):
    """The arrays and tensors a node's backward closure holds, by name."""
    fn = node._backward
    return dict(zip(fn.__code__.co_freevars,
                    (cell.cell_contents for cell in fn.__closure__)))


# sha256 of the leaf gradients of _graph(), as the engine gave them while it
# kept every non-leaf gradient and built conv2d's full column gradient
_GRAPH_GRADS_DIGEST = (
    "4b4fbcf86175d8ac5322c1ae441b2897dbb9fe6afb1d90c4326bcd35d1b34017")


def test_backward_frees_every_non_leaf_and_keeps_leaf_grads():
    leaves, conv, relu, loss = _graph()
    inner = _non_leaves(loss)
    assert len(inner) > 10 and conv in inner and loss in inner
    loss.backward()
    for node in inner:
        assert (node.grad, node._backward, node._prev) == (None, None, ())
    h = hashlib.sha256()
    for t in leaves:
        assert t.grad.dtype == np.float32 and t.grad.shape == t.shape
        h.update(t.grad.tobytes())
    assert h.hexdigest() == _GRAPH_GRADS_DIGEST


def test_backward_frees_arrays_only_a_closure_held():
    _, conv, relu, loss = _graph()
    held = [weakref.ref(_closure(conv)["cols"]),
            weakref.ref(_closure(relu)["mask"])]
    assert all(ref() is not None for ref in held)
    loss.backward()
    assert all(ref() is None for ref in held)


def test_second_backward_says_the_graph_was_freed():
    _, _, _, loss = _graph()
    loss.backward()
    with pytest.raises(GraphError, match="earlier backward freed"):
        loss.backward()
