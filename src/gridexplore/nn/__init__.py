from .tensor import GraphError, Tensor, concat, no_grad
from .layers import (
    BatchNorm,
    CnnEncoder,
    Conv2d,
    Dense,
    EmbeddingModel,
    GruCell,
    LayerNorm,
    Mlp,
    Module,
    make_norm,
    orthogonal,
)
from .optim import Adam, clip_grad_norm
from .serialize import BlobError, pack_arrays, restored, unpack_arrays

__all__ = [
    "Adam",
    "BatchNorm",
    "BlobError",
    "CnnEncoder",
    "Conv2d",
    "Dense",
    "EmbeddingModel",
    "GraphError",
    "GruCell",
    "LayerNorm",
    "Mlp",
    "Module",
    "Tensor",
    "clip_grad_norm",
    "concat",
    "make_norm",
    "no_grad",
    "orthogonal",
    "pack_arrays",
    "restored",
    "unpack_arrays",
]
