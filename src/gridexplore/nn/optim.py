# Adam with bias correction, plus global gradient-norm clipping.
from __future__ import annotations

import math

import numpy as np

from .serialize import restored
from .tensor import Tensor


class Adam:
    beta1, beta2 = 0.9, 0.999  # moment decay rates

    def __init__(self, params: list[Tensor], lr, eps=1e-5):
        self.params = params
        self.lr = lr
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1 - b1**self.t
        bc2 = 1 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_arrays(self, prefix=""):
        out = {f"{prefix}t": np.array([float(self.t)])}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"{prefix}m{i}"] = m
            out[f"{prefix}v{i}"] = v
        return out

    def load_state(self, arrays, prefix=""):
        self.t = int(arrays[f"{prefix}t"][0])
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            self.m[i] = restored(arrays[f"{prefix}m{i}"], m)
            self.v[i] = restored(arrays[f"{prefix}v{i}"], v)


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = math.sqrt(total)  # a Python float keeps the gradients' dtype
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
