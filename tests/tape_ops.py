"""Tape ops that only the tests run: the KGE tape oracle in ``test_kge.py`` scores
through them, ``relu`` and ``linear_records`` are the separate-record reference for
``autodiff.linear``, ``pool_records`` the share-matrix reference for
``autodiff.mean_rows``, and ``test_autodiff.py`` checks their gradients against central
differences. Each follows the op contract of ``stancenet.autodiff``: a numpy value,
and a backward closure recorded through ``_emit`` that keeps only what it reads.
"""

import numpy as np

from stancenet.autodiff import ShapeMismatch, Tensor, _emit, add, constant, matmul


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a rank-2 tensor."""
    if x.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeMismatch(f"slice_cols [{start}:{stop}] invalid for shape {x.shape}")
    shape = x.shape

    def backward(g):
        gx = np.zeros(shape)
        gx[:, start:stop] = g
        return (gx,)

    return _emit((x,), x.data[:, start:stop].copy(), backward)


def sum_rows(x: Tensor) -> Tensor:
    """Row sums of a rank-2 tensor, as a rank-1 tensor."""
    if x.ndim != 2:
        raise ShapeMismatch(f"sum_rows needs a rank-2 tensor, got shape {x.shape}")
    cols = x.shape[1]

    def backward(g):
        return (np.repeat(g[:, None], cols, axis=1),)

    return _emit((x,), x.data.sum(axis=1), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def backward(g):
        return (g * mask,)

    return _emit((x,), np.where(mask, x.data, 0.0), backward)


_relu = relu  # the flag of linear_records shadows the name


def linear_records(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """``autodiff.linear`` as the records it replaced: matmul, bias add and, with relu,
    ``relu``."""
    out = add(matmul(x, weight), bias)
    return _relu(out) if relu else out


def pool_records(x: Tensor, mask: Tensor) -> Tensor:
    """``autodiff.mean_rows`` on an [N, m] mask as ``model.predict`` pooled before it:
    ``model._pool``'s constant [N, W] share matrix, then a ``matmul`` record."""
    group = np.nonzero(mask.data)[0]
    share = (group == np.arange(mask.shape[0])[:, None]) / np.bincount(group)[:, None]
    return matmul(constant(share), x)


def sin(x: Tensor) -> Tensor:
    x_data = x.data
    return _emit((x,), np.sin(x_data), lambda g: (g * np.cos(x_data),))


def cos(x: Tensor) -> Tensor:
    x_data = x.data
    return _emit((x,), np.cos(x_data), lambda g: (g * -np.sin(x_data),))


def sqrt(x: Tensor) -> Tensor:
    value = np.sqrt(x.data)
    return _emit((x,), value, lambda g: (g * 0.5 / value,))


def absolute(x: Tensor) -> Tensor:
    """|x|, with subgradient 0 at exactly 0."""
    x_data = x.data
    return _emit((x,), np.abs(x_data), lambda g: (g * np.sign(x_data),))


def logsigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) computed without overflow for large |x|."""
    x_data = x.data
    value = np.where(x_data >= 0, -np.log1p(np.exp(-x_data)), x_data - np.log1p(np.exp(x_data)))
    return _emit((x,), value, lambda g: (g * _sigmoid_np(-x_data),))


def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
