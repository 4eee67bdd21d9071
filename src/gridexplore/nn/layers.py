# Dense / conv / GRU / normalization layers on top of the Tensor engine.
from __future__ import annotations

import numpy as np

from .serialize import restored
from .tensor import (GraphError, Tensor, conv2d, fold_stats, gru_cell,
                     normalize)

EPS_NORM = 1e-8  # sigma floor shared by both normalization modes


def orthogonal(rng: np.random.Generator, shape, gain=1.0):
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return np.ascontiguousarray(gain * q[: shape[0], : shape[1]],
                                dtype=np.float32)


class Module:
    """Minimal parameter container with torch-like attribute registration."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def _tree(self, prefix=""):
        """(prefix, module) of this module and of every submodule, parents
        first and children in registration order."""
        yield prefix, self
        for name, m in self._modules.items():
            yield from m._tree(prefix + name + ".")

    def named_parameters(self, prefix=""):
        for pre, m in self._tree(prefix):
            for name, p in m._params.items():
                yield pre + name, p

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def train(self, mode=True):
        for _, m in self._tree():
            object.__setattr__(m, "training", mode)

    def eval(self):
        self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def named_buffers(self, prefix=""):
        for pre, m in self._tree(prefix):
            for k, v in m._buffers().items():
                yield pre + k, v

    def state_arrays(self, prefix=""):
        """Name -> array map of everything a checkpoint must capture, each
        name prefixed with `prefix`."""
        out = {name: p.data for name, p in self.named_parameters(prefix)}
        out.update(self.named_buffers(prefix))
        return out

    def load_state(self, arrays: dict, prefix=""):
        for name, p in self.named_parameters(prefix):
            p.data = restored(arrays[name], p.data)
        for pre, m in self._tree(prefix):
            for k, v in m._buffers().items():
                object.__setattr__(m, k, restored(arrays[pre + k], v))

    def _buffers(self):
        return {}


class Dense(Module):
    def __init__(self, in_features, out_features, rng, gain=np.sqrt(2)):
        super().__init__()
        self.w = Tensor(orthogonal(rng, (in_features, out_features), gain))
        self.b = Tensor(np.zeros(out_features, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b


class Conv2d(Module):
    """NHWC stride-1 convolution: optional zero padding, then `conv2d`."""

    def __init__(self, in_ch, out_ch, kernel, rng, pad=0):
        super().__init__()
        self.kernel = kernel
        self.pad = pad
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.w = Tensor(orthogonal(rng, (kernel * kernel * in_ch, out_ch),
                                   np.sqrt(2)))
        self.b = Tensor(np.zeros(out_ch, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_ch:
            raise GraphError(f"conv expects {self.in_ch} channels, got {x.shape}")
        if self.pad:
            x = x.pad2d(self.pad)
        return conv2d(x, self.w, self.b, self.kernel)


class _Norm(Module):
    """Learned per-feature scale `gamma` and shift `beta`. Called with
    `relu=True`, a norm returns relu of its output as one op (see
    `normalize`)."""

    eps = EPS_NORM

    def __init__(self, num_features):
        super().__init__()
        self.gamma = Tensor(np.ones(num_features, dtype=np.float32))
        self.beta = Tensor(np.zeros(num_features, dtype=np.float32))


class BatchNorm(_Norm):
    """Per-feature standardization over all leading axes, with running stats."""

    momentum = 0.9  # running-stat decay

    def __init__(self, num_features):
        super().__init__(num_features)
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._fold = None  # (key, fold) of the last eval-mode call

    def _buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def _eval_stats(self, x: Tensor):
        """The `fold_stats` fold of the running stats for x, kept until a
        call finds gamma, beta, the running stats, x's dtype or x's
        sample shape changed in any byte; an optimizer step, a training
        forward, a checkpoint load or an in-place write each make it
        fold again."""
        arrays = (self.gamma.data, self.beta.data, self.running_mean,
                  self.running_var)
        key = (x.dtype, x.shape[1:] or x.shape) + tuple(
            (a.dtype, a.tobytes()) for a in arrays)
        if self._fold is None or self._fold[0] != key:
            mean, var = (s.astype(x.dtype, copy=False) for s in arrays[2:])
            self._fold = key, fold_stats(self.gamma.data, self.beta.data,
                                         mean, var, self.eps, x.shape)
        return self._fold[1]

    def __call__(self, x: Tensor, relu=False) -> Tensor:
        axes = tuple(range(x.data.ndim - 1))
        if not self.training:
            return normalize(x, self.gamma, self.beta, axes, self.eps,
                             self._eval_stats(x), relu)[0]
        if x.size // x.shape[-1] < 2:
            raise GraphError("batch norm needs at least 2 samples in training")
        y, mean, var = normalize(x, self.gamma, self.beta, axes, self.eps,
                                 relu=relu)
        m = self.momentum
        self.running_mean = m * self.running_mean + (1 - m) * mean.reshape(-1)
        self.running_var = m * self.running_var + (1 - m) * var.reshape(-1)
        return y


class LayerNorm(_Norm):
    def __call__(self, x: Tensor, relu=False) -> Tensor:
        return normalize(x, self.gamma, self.beta, (-1,), self.eps,
                         relu=relu)[0]


class Identity(Module):
    """The `none` normalization: no parameters, returns its input (or
    its relu)."""

    def __call__(self, x: Tensor, relu=False) -> Tensor:
        return x.relu() if relu else x


def make_norm(mode: str, num_features):
    if mode == "batch":
        return BatchNorm(num_features)
    if mode == "layer":
        return LayerNorm(num_features)
    if mode == "none":
        return Identity()
    raise ValueError(f"unknown normalization mode {mode!r}")


class GruCell(Module):
    """Gated recurrent unit.

    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    n = tanh(Wn x + Un (r*h) + bn)
    h' = (1 - z) * n + z * h

    The gates' weights are stored fused: w = [Wz|Wr|Wn], u = [Uz|Ur],
    un = Un and b = [bz|br|bn], so a step is the one op `gru_cell`.
    """

    def __init__(self, input_size, hidden_size, rng):
        super().__init__()
        self.hidden_size = hidden_size
        bound = 1.0 / np.sqrt(hidden_size)

        def u(shape):
            return rng.uniform(-bound, bound, shape).astype(np.float32)

        # drawn gate by gate (W, U, b of z, then r, then n)
        (wz, uz, bz), (wr, ur, br), (wn, un, bn) = (
            (u((input_size, hidden_size)), u((hidden_size, hidden_size)),
             u(hidden_size)) for _ in range(3))
        self.w = Tensor(np.concatenate([wz, wr, wn], axis=1))
        self.u = Tensor(np.concatenate([uz, ur], axis=1))
        self.un = Tensor(un)
        self.b = Tensor(np.concatenate([bz, br, bn]))

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        if x.shape[-1] != self.w.shape[0] or h.shape[-1] != self.hidden_size:
            raise GraphError(
                f"gru shape mismatch: x {x.shape}, h {h.shape}, "
                f"expected in={self.w.shape[0]} hidden={self.hidden_size}"
            )
        return gru_cell(x, h, self.w, self.u, self.un, self.b)


class Mlp(Module):
    """Stack of dense layers; norm + relu after each hidden layer."""

    def __init__(self, sizes, rng, norm="none", out_gain=1.0):
        super().__init__()
        self.n_layers = len(sizes) - 1
        for i in range(self.n_layers):
            last = i == self.n_layers - 1
            setattr(self, f"fc{i}", Dense(sizes[i], sizes[i + 1], rng,
                                          gain=out_gain if last else np.sqrt(2)))
            if not last:
                setattr(self, f"norm{i}", make_norm(norm, sizes[i + 1]))

    def __call__(self, x: Tensor) -> Tensor:
        for i in range(self.n_layers):
            x = getattr(self, f"fc{i}")(x)
            if i < self.n_layers - 1:
                x = getattr(self, f"norm{i}")(x, relu=True)
        return x


class CnnEncoder(Module):
    """Input norm, three 2x2 stride-1 convs and a dense projection to the
    embedding, over 3-channel (object, color, state) observations.

    View-3 inputs get 1 cell of zero padding on the first conv so the
    spatial extent survives three kernel shrinks.
    """

    def __init__(self, view_size, embed_dim, rng, norm, channels):
        super().__init__()
        pad = 1 if view_size == 3 else 0
        self.in_norm = make_norm(norm, 3)
        c1, c2, c3 = channels
        self.conv0 = Conv2d(3, c1, 2, rng, pad=pad)
        self.conv1 = Conv2d(c1, c2, 2, rng)
        self.conv2 = Conv2d(c2, c3, 2, rng)
        side = (view_size + 2 * pad) - 3
        self.flat_dim = side * side * c3
        self.fc = Dense(self.flat_dim, embed_dim, rng)
        for i, ch in enumerate(channels):
            setattr(self, f"norm{i}", make_norm(norm, ch))
        self.fc_norm = make_norm(norm, embed_dim)

    def __call__(self, x: Tensor) -> Tensor:
        x = self.in_norm(x)
        for i in range(3):
            x = getattr(self, f"norm{i}")(getattr(self, f"conv{i}")(x),
                                          relu=True)
        x = x.reshape(x.shape[0], self.flat_dim)
        return self.fc_norm(self.fc(x), relu=True)


class EmbeddingModel(Module):
    """CNN encoder feeding a GRU trajectory embedding, plus the heads a
    subclass builds in `_heads`.

    The encoder is built first, then the GRU, then the heads, so every
    subclass draws its initial weights from `rng` in that order.
    """

    def __init__(self, view_size, n_actions, rng, embed_dim, hidden,
                 channels, norm):
        super().__init__()
        self.n_actions = n_actions
        self.embed_dim = embed_dim
        self.encoder = CnnEncoder(view_size, embed_dim, rng,
                                  norm=norm, channels=channels)
        self.gru = GruCell(embed_dim, embed_dim, rng)
        self._heads(hidden, rng, norm)

    def _heads(self, hidden, rng, norm):
        raise NotImplementedError

    def embed(self, obs: Tensor, h_prev: Tensor):
        """(e_obs, e_traj): e_traj doubles as the next GRU hidden state."""
        e_obs = self.encoder(obs)
        return e_obs, self.gru(e_obs, h_prev)

    def embed_pair(self, obs_t: Tensor, obs_x: Tensor, h_prev: Tensor):
        """Trajectory embeddings after o_t, and after o_x following o_t."""
        _, traj_t = self.embed(obs_t, h_prev)
        _, traj_x = self.embed(obs_x, traj_t)
        return traj_t, traj_x
