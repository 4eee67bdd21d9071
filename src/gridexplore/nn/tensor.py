# Reverse-mode automatic differentiation over dense numpy arrays.
# Dynamic graph: every op records a backward closure; Tensor.backward()
# replays them in reverse topological order, accumulating into .grad.
# Only leaves keep their .grad: backward frees each non-leaf node (its
# gradient, closure and parents) as soon as it has been replayed.
from __future__ import annotations

import math

import numpy as np


class GraphError(Exception):
    """Shape mismatch or illegal use of the computation graph."""


def _colsum(a: np.ndarray, keep: int = 1) -> np.ndarray:
    """Sum of `a` over all but its last `keep` axes, as one BLAS product
    `ones @ a.reshape(-1, m)`: blocked float32 accumulation, many times
    faster than numpy's reduction over the leading axes of a narrow
    array, but not bit-equal to it."""
    tail = a.shape[a.ndim - keep:]
    flat = a.reshape(-1, math.prod(tail))
    return (np.ones(flat.shape[0], a.dtype) @ flat).reshape(tail)


def _per_sample(v: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Per-feature vector `v` repeated over one sample of an array of
    `shape` (its trailing axes). Broadcast against that array, numpy
    loops over each sample's whole row, not over runs of one feature
    vector; the values and their order are the same."""
    tail = shape[1:] or shape
    return v.reshape(1, -1).repeat(math.prod(tail) // v.size, 0).reshape(tail)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    if grad.ndim > len(shape):
        grad = _colsum(grad, len(shape))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class no_grad:
    """Context manager: ops inside build no graph (pure eval forward)."""

    def __enter__(self):
        self._prev = Tensor._grad_enabled
        Tensor._grad_enabled = False

    def __exit__(self, *args):
        Tensor._grad_enabled = self._prev


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function with one exponential, stable for either sign."""
    z = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


class Tensor:
    _grad_enabled = True

    __slots__ = ("data", "grad", "_backward", "_prev")

    def __init__(self, data, _prev=()):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data)
        self.grad = None
        self._backward = None
        self._prev = _prev if Tensor._grad_enabled else ()

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor({self.data!r})"

    def _accum(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def _wrap(self, other) -> "Tensor":
        """`other` as a Tensor; a Python scalar takes this tensor's dtype,
        as NumPy 2 gives it in plain array arithmetic."""
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, np.result_type(self.data, other)))
        return Tensor(np.asarray(other))

    def _make(self, data, prev, backward):
        out = Tensor(data, prev)
        if Tensor._grad_enabled:
            out._backward = backward
        return out

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(out):
            self._accum(_unbroadcast(out.grad, self.data.shape))
            other._accum(_unbroadcast(out.grad, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(out):
            self._accum(_unbroadcast(out.grad * other.data, self.data.shape))
            other._accum(_unbroadcast(out.grad * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        def backward(out):
            self._accum(-out.grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __truediv__(self, other):
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(out):
            self._accum(_unbroadcast(out.grad / other.data, self.data.shape))
            other._accum(
                _unbroadcast(-out.grad * self.data / (other.data**2), other.data.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __pow__(self, power):
        assert np.isscalar(power)
        out_data = self.data**power

        def backward(out):
            self._accum(power * self.data ** (power - 1) * out.grad)

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other):
        other = self._wrap(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise GraphError("matmul expects 2-D operands")
        if self.data.shape[1] != other.data.shape[0]:
            raise GraphError(
                f"matmul shape mismatch: {self.data.shape} @ {other.data.shape}"
            )
        out_data = self.data @ other.data

        def backward(out):
            self._accum(out.grad @ other.data.T)
            other._accum(self.data.T @ out.grad)

        return self._make(out_data, (self, other), backward)

    # -- nonlinearities -------------------------------------------------
    def relu(self):
        mask = self.data > 0
        # +0.0 wherever x <= 0, for x = -0.0 too (pinned in test_layers.py)
        out_data = np.maximum(self.data, 0)

        def backward(out):
            self._accum(mask * out.grad)

        return self._make(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(out):
            self._accum((1 - out_data**2) * out.grad)

        return self._make(out_data, (self,), backward)

    def sigmoid(self):
        out_data = _sigmoid(self.data)

        def backward(out):
            self._accum(out_data * (1 - out_data) * out.grad)

        return self._make(out_data, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(out):
            self._accum(out_data * out.grad)

        return self._make(out_data, (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(out):
            self._accum(out.grad / (2 * out_data))

        return self._make(out_data, (self,), backward)

    def clip(self, lo, hi):
        """Clamp; gradient is zero outside [lo, hi] (PPO-style clipping)."""
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(out):
            self._accum(mask * out.grad)

        return self._make(np.clip(self.data, lo, hi), (self,), backward)

    def minimum(self, other):
        other = self._wrap(other)
        take_self = self.data <= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(out):
            self._accum(_unbroadcast(np.where(take_self, out.grad, 0), self.data.shape))
            other._accum(
                _unbroadcast(np.where(take_self, 0, out.grad), other.data.shape)
            )

        return self._make(out_data, (self, other), backward)

    # -- reductions -----------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else math.prod(
            self.data.shape[a] for a in np.atleast_1d(axis))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape ops ------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape

        def backward(out):
            self._accum(out.grad.reshape(orig))

        return self._make(self.data.reshape(shape), (self,), backward)

    def __getitem__(self, idx):
        out_data = self.data[idx]
        # ints and slices select each element at most once, so an in-place
        # add into zeros equals np.add.at bit for bit (signed zeros too);
        # fancy indices may repeat and must accumulate
        basic = all(isinstance(i, (slice, int, np.integer))
                    and not isinstance(i, bool)
                    for i in (idx if isinstance(idx, tuple) else (idx,)))

        def backward(out):
            g = np.zeros_like(self.data)
            if basic:
                g[idx] += out.grad
            else:
                np.add.at(g, idx, out.grad)
            self._accum(g)

        return self._make(out_data, (self,), backward)

    def pad2d(self, pad: int):
        """Zero-pad the two spatial axes of an NHWC tensor."""
        width = ((0, 0), (pad, pad), (pad, pad), (0, 0))
        out_data = np.pad(self.data, width)

        def backward(out):
            self._accum(out.grad[:, pad:-pad or None, pad:-pad or None, :])

        return self._make(out_data, (self,), backward)

    def take_rows(self, indices: np.ndarray):
        """Select one column per row: out[i] = self[i, indices[i]]."""
        rows = np.arange(self.data.shape[0])
        out_data = self.data[rows, indices]

        def backward(out):
            g = np.zeros_like(self.data)
            g[rows, indices] += out.grad  # one index per row: no repeats
            self._accum(g)

        return self._make(out_data, (self,), backward)

    # -- composite numerics ---------------------------------------------
    def log_softmax(self):
        """Row-wise log softmax over the last axis, numerically stable."""
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out_data = shifted - lse

        def backward(out):
            p = np.exp(out_data)
            self._accum(out.grad - p * out.grad.sum(axis=-1, keepdims=True))

        return self._make(out_data, (self,), backward)

    def bce_with_logits(self, targets: np.ndarray):
        """Mean binary cross-entropy on raw logits; stable softplus form."""
        z = self.data
        loss = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
        out_data = np.asarray(loss.mean())

        def backward(out):
            sig = 1.0 / (1.0 + np.exp(-z))
            self._accum((sig - targets) / z.size * out.grad)

        return self._make(out_data, (self,), backward)

    # -- graph traversal ------------------------------------------------
    def backward(self, grad=None):
        if not Tensor._grad_enabled:
            raise GraphError("backward called inside no_grad")
        if self._prev == () and self._backward is None:
            raise GraphError("backward on a tensor with no recorded graph: a "
                             "leaf, or one whose graph an earlier backward "
                             "freed")
        self.grad = (
            np.ones_like(self.data) if grad is None else np.asarray(grad)
        )
        # iterative topo sort: recursion would overflow on long BPTT chains
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        # root first; each non-leaf is freed once its closure has run, so
        # the graph and its saved arrays shrink as the pass goes
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node)
                node.grad = node._backward = None
                node._prev = ()


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(out):
        for t, g in zip(tensors, np.split(out.grad, splits, axis=axis)):
            t._accum(g)

    return tensors[0]._make(out_data, tuple(tensors), backward)


def conv2d(x: Tensor, w: Tensor, b: Tensor, k: int) -> Tensor:
    """NHWC stride-1 k x k convolution as one op: im2col, one matmul, bias.

    Columns are ordered (i, j, channel), matching `w`'s rows. The backward
    computes the input gradient one window offset at a time, in row-major
    order: the output gradient times that offset's c rows of `w`, added
    into its window slice. Each product equals the matching columns of the
    full column gradient bit for bit, and neither that gradient nor a copy
    of it is held.
    """
    n, h, wd, c = x.data.shape
    oh, ow = h - k + 1, wd - k + 1
    # window (p, q) at offset (i, j) reads x[:, p + i, q + j, :]
    xc = np.ascontiguousarray(x.data)
    s0, s1, s2, s3 = xc.strides
    windows = np.ndarray((n, oh, ow, k, k, c), xc.dtype, xc,
                         strides=(s0, s1, s2, s1, s2, s3))
    cols = np.ascontiguousarray(windows).reshape(n * oh * ow, k * k * c)
    out_data = (cols @ w.data).reshape(n, oh, ow, -1)
    out_data += _per_sample(b.data, out_data.shape)

    def backward(out):
        g2d = out.grad.reshape(n * oh * ow, -1)
        b._accum(_colsum(g2d))
        w._accum(cols.T @ g2d)
        w_rows = w.data.reshape(k * k, c, -1)
        dx = np.zeros_like(x.data)
        for i in range(k):
            for j in range(k):
                term = (g2d @ w_rows[i * k + j].T).astype(x.data.dtype,
                                                          copy=False)
                dx[:, i : i + oh, j : j + ow, :] += term.reshape(n, oh, ow, c)
        x._accum(dx)

    # parents in (x, w, b) order: the topological sort then visits them as
    # it visited the slice, matmul and bias nodes this op replaces
    return x._make(out_data, (x, w, b), backward)


def fold_stats(gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
               var: np.ndarray, eps: float, shape) -> tuple:
    """The constants of `normalize` with fixed (mean, var) over inputs of
    `shape`: mean and var, then mean, 1/sqrt(var + eps), the scale
    gamma/sqrt(var + eps) and the shift beta - mean * scale, each spread
    over one sample (`_per_sample`). Only the sample shape matters, so
    one fold serves every batch size."""
    inv = 1.0 / np.sqrt(var + eps)
    scale = gamma * inv
    return (mean, var) + tuple(_per_sample(v, shape)
                               for v in (mean, inv, scale, beta - mean * scale))


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes, eps: float,
              stats=None, relu=False):
    """gamma * (x - mean) / sqrt(var + eps) + beta as one op; gamma and
    beta scale and shift the last axis. With `relu` the op returns
    relu of that, rectified in place, and its backward masks the output
    gradient before the normalize backward.

    `stats` is the `fold_stats` fold of constant (mean, var) (eval-mode
    batch norm): one scale and shift per feature. Without it mean and
    var are the biased moments of x over `axes`, and the gradient flows
    through them too. Returns the output and the (mean, var) it used.

    Without `stats` and with `relu`, a non-leaf x is taken to be the
    fresh output of the conv2d or Dense op just before this one, which
    nothing else reads: it is centered and scaled in place and kept as
    the backward's xhat. A leaf, such as a caller's observations, and
    any x without `relu` are only read.

    Per-feature operands are spread over whole sample rows
    (`_per_sample`). The in-place updates keep the evaluation order of
    the plain expressions; they assume gamma and beta share a dtype and
    the output gradient is at least as wide as x, as in every module.
    """
    shape = x.data.shape

    def spread(v):
        return _per_sample(v, shape)

    def output(out_data, backward):
        """The op's Tensor; with `relu` the output is rectified in place
        and `backward` gets the output gradient masked by it."""
        mask = None
        if relu:
            if Tensor._grad_enabled:
                mask = out_data > 0
            # +0.0 wherever the output is <= 0, as `Tensor.relu` gives
            np.maximum(out_data, 0, out=out_data)
        return x._make(out_data, (x, gamma, beta), lambda out: backward(
            out.grad if mask is None else mask * out.grad))

    if stats is not None:
        mean, var, mean_s, inv_s, scale_s, shift_s = stats
        out_data = x.data * scale_s
        out_data += shift_s

        def backward(g):
            xhat = x.data - mean_s
            xhat *= inv_s
            gamma._accum(_colsum(g * xhat))
            beta._accum(_colsum(g))
            x._accum(g * scale_s)

        return output(out_data, backward), mean, var
    n = x.data.size // shape[-1]
    if tuple(axes) == tuple(range(x.data.ndim - 1)):
        # batch norm: per-feature moments, each a BLAS column sum
        def mean_of(a):
            return _colsum(a) / n

        stat = spread
    else:
        def mean_of(a):
            return a.mean(axis=axes, keepdims=True)

        def stat(v):  # keepdims moments broadcast as they are
            return v

    mean = mean_of(x.data)
    if relu and x._backward is not None:
        xhat = x.data  # the fresh op output, centered in place
        xhat -= stat(mean)
    else:
        xhat = x.data - stat(mean)  # centered here, scaled in place below
    var = mean_of(xhat * xhat)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= stat(inv)
    out_data = xhat * spread(gamma.data)
    out_data += spread(beta.data)

    def backward(g):
        gamma._accum(_colsum(g * xhat))
        beta._accum(_colsum(g))
        d = g * spread(gamma.data)
        m, mx = mean_of(d), mean_of(d * xhat)
        d -= stat(m)
        d -= xhat * stat(mx)
        d *= stat(inv)
        x._accum(d)

    return output(out_data, backward), mean, var


def _gru_step(x, h, w, u, un, b):
    """One GRU step on arrays: h' and the values its gradient reads."""
    hs = h.shape[1]
    gx = x @ w + b
    gh = h @ u
    z = _sigmoid(gx[:, :hs] + gh[:, :hs])
    r = _sigmoid(gx[:, hs : 2 * hs] + gh[:, hs:])
    rh = r * h
    n = np.tanh(gx[:, 2 * hs :] + rh @ un)
    return (1 - z) * n + z * h, (x, h, z, r, n, rh)


def _gru_step_grads(g, saved, w, u, un, with_h=True):
    """Gradients (x, h, w, u, un, b) of one `_gru_step` from the output
    gradient `g`; h's is None without `with_h`."""
    x, h, z, r, n, rh = saved
    dn = g * (1 - z) * (1 - n * n)
    drh = dn @ un.T
    dgh = np.concatenate([g * (h - n) * z * (1 - z),
                          drh * h * r * (1 - r)], axis=1)
    dgx = np.concatenate([dgh, dn], axis=1)
    dh = g * z + drh * r + dgh @ u.T if with_h else None
    return (dgx @ w.T, dh, x.T @ dgx, h.T @ dgh, rh.T @ dn, _colsum(dgx))


def gru_cell(x: Tensor, h: Tensor, w: Tensor, u: Tensor, un: Tensor,
             b: Tensor) -> Tensor:
    """One GRU step as one op, from the fused weights of `GruCell`:
    w = [Wz|Wr|Wn], u = [Uz|Ur], un = Un and b = [bz|br|bn].

    z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br),
    n = tanh(x Wn + (r * h) Un + bn), h' = (1 - z) * n + z * h.
    """
    out_data, saved = _gru_step(x.data, h.data, w.data, u.data, un.data,
                                b.data)

    def backward(out):
        grads = _gru_step_grads(out.grad, saved, w.data, u.data, un.data)
        for t, g in zip((x, h, w, u, un, b), grads):
            t._accum(g)

    return x._make(out_data, (x, h, w, u, un, b), backward)


def gru_sequence(x: Tensor, h0: np.ndarray, keep: np.ndarray, w: Tensor,
                 u: Tensor, un: Tensor, b: Tensor) -> Tensor:
    """L GRU steps over x of shape (B, L, E) as one op, from the initial
    state h0 (B, H); returns the L states stacked time-major, (L*B, H).

    The state entering step t >= 1 is h * keep[:, t - 1, None] (a 0 in
    `keep` starts a fresh episode). h0 and keep are constants. Each step
    is `gru_cell`'s arithmetic on the same arrays; the backward replays
    the steps from the last, accumulating the weight gradients one step
    at a time, so the values and their summation order are those of the
    unrolled graph of slices, masks, `gru_cell` steps and a concat.
    """
    B, L = x.data.shape[:2]
    weights = (w.data, u.data, un.data, b.data)
    steps, outs = [], []
    h = h0
    for t in range(L):
        if t:
            h = outs[-1] * keep[:, t - 1, None]
        h_next, saved = _gru_step(x.data[:, t, :], h, *weights)
        steps.append(saved)
        outs.append(h_next)
    out_data = np.concatenate(outs, axis=0)

    def backward(out):
        dx = np.zeros_like(x.data)
        dh = None
        for t in range(L - 1, -1, -1):
            g = out.grad[t * B : (t + 1) * B]
            if dh is not None:
                g = g + dh * keep[:, t, None]
            dxt, dh, dw, du, dun, db = _gru_step_grads(
                g, steps[t], w.data, u.data, un.data, with_h=t > 0)
            dx[:, t, :] += dxt
            for p, d in zip((w, u, un, b), (dw, du, dun, db)):
                p._accum(d)
        x._accum(dx)

    return x._make(out_data, (x, w, u, un, b), backward)
