"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything in this package that needs a gradient runs through the ops in
this module. An op computes its value with numpy, and, while a Tape is
active and some input participates in differentiation, appends a record
(inputs, output, backward closure) to that tape. ``Tape.backward`` then
walks the records in reverse and accumulates gradients into the ``grad``
field of every leaf tensor with ``requires_grad=True``.

Most backward closures return a dense gradient of their input's shape.
``gather_rows`` instead returns a row gradient (ids, rows), so a gather
from a large table costs the rows it touched, not the table. The tape
collects the row gradients of each tensor and densifies them once, into
that tensor's dense adjoint; ``grad`` is always a dense array.

Tapes nest: entering one pushes it on a module-level stack, and ops record
on the innermost. Tensors that never require gradients are plain immutable
value carriers.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class DegenerateInput(ValueError):
    """Raised for inputs an op cannot meaningfully process (e.g. an all-zero mask)."""


class Tensor:
    """A rank 0-3 array of float64 values, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 3:
            raise ShapeMismatch(f"tensors are rank <= 3, got shape {self.data.shape}")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Small amount of operator sugar; the named functions below are the API.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    """A tensor that never participates in differentiation."""
    return Tensor(data, requires_grad=False)


# --------------------------------------------------------------------------
# Tape
# --------------------------------------------------------------------------

_TAPES: list["Tape"] = []


def active_tape() -> Optional["Tape"]:
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Ordered record of executed differentiable ops.

    Records are appended in execution order, which is automatically a
    topological order of the data-flow graph: an op can only run after
    the ops that produced its inputs. ``backward`` therefore visits each
    record exactly once, in reverse.
    """

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self):
        return len(self._records)

    def record(self, inputs: tuple[Tensor, ...], output: Tensor, backward: Callable):
        self._records.append((inputs, output, backward))

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf on this tape.

        The per-call adjoints are kept in a local map, so calling backward
        twice without zeroing grads adds the same contribution twice. Row
        gradients from ``gather_rows`` are collected per tensor and
        densified once: for a non-leaf when its own record is reached, for
        a leaf when the leaves are written.
        """
        if loss.data.ndim != 0:
            raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.data.shape}")
        produced = {id(out) for _, out, _ in self._records}
        if id(loss) not in produced:
            raise ValueError("loss was not produced by ops recorded on this tape")

        adjoint: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        row_grads: dict[int, list[_RowGrad]] = {}
        holders: dict[int, Tensor] = {id(loss): loss}
        for inputs, out, back in reversed(self._records):
            key = id(out)
            if key in row_grads:
                adjoint[key] = _densify(adjoint.get(key), row_grads.pop(key), out.data.shape)
            out_adj = adjoint.get(key)
            if out_adj is None:
                continue
            for t, g in zip(inputs, back(out_adj)):
                if g is None or not t.requires_grad:
                    continue
                key = id(t)
                holders[key] = t
                if isinstance(g, _RowGrad):
                    row_grads.setdefault(key, []).append(g)
                elif key in adjoint:
                    adjoint[key] = adjoint[key] + g
                else:
                    adjoint[key] = np.array(g, dtype=np.float64)
        for key, t in holders.items():
            if key in produced:
                continue
            if key in row_grads:
                g = _densify(adjoint.get(key), row_grads[key], t.data.shape)
            else:
                g = adjoint[key].reshape(t.data.shape)
            t.grad = g if t.grad is None else t.grad + g


class _RowGrad(NamedTuple):
    """A table gradient, zero outside the gathered rows: ``rows[i]`` adds to row ``ids[i]``."""

    ids: np.ndarray
    rows: np.ndarray


def _densify(dense: Optional[np.ndarray], grads: list[_RowGrad], shape) -> np.ndarray:
    """Scatter-add row gradients into a dense adjoint (zeros if there is none), in place."""
    out = np.zeros(shape) if dense is None else dense.reshape(shape)
    np.add.at(out, np.concatenate([g.ids for g in grads]),
              np.concatenate([g.rows for g in grads]))
    return out


def _emit(inputs: Sequence[Tensor], value: np.ndarray, backward: Callable) -> Tensor:
    """Create the output tensor and record the op if a tape is listening."""
    needs_grad = any(t.requires_grad for t in inputs)
    out = Tensor(value, requires_grad=needs_grad)
    tape = active_tape()
    if tape is not None and needs_grad:
        tape.record(tuple(inputs), out, backward)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# --------------------------------------------------------------------------
# Ops
# --------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul got incompatible shapes {a.shape} x {b.shape}")
    value = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _emit((a, b), value, backward)


def _check_row_broadcast(op: str, a: Tensor, b: Tensor):
    """Allow equal shapes, or a rank-1 or one-row operand repeated over the rows of a rank-2 one.

    Every other pair raises ShapeMismatch.
    """
    if a.shape == b.shape:
        return
    for row, full in ((a, b), (b, a)):
        if (full.ndim == 2 and (row.ndim == 1 or (row.ndim == 2 and row.shape[0] == 1))
                and row.shape[-1] == full.shape[1]):
            return
    raise ShapeMismatch(f"{op} got incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Fold a gradient back onto an operand that was repeated over rows."""
    return g if g.shape == shape else g.sum(axis=0).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a rank-1 or one-row operand is repeated over the rows of the other."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_row_broadcast("add", a, b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit((a, b), a.data + b.data, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, with the row broadcasting of ``add``."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_row_broadcast("mul", a, b)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _emit((a, b), a.data * b.data, backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    x = _as_tensor(x)
    c = float(c)

    def backward(g):
        return (g * c,)

    return _emit((x,), x.data * c, backward)


def scale_rows(x: Tensor, w: Tensor) -> Tensor:
    """Scale row i of a rank-2 x by w[i]; differentiable in both arguments."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 2 or w.ndim != 1 or x.shape[0] != w.shape[0]:
        raise ShapeMismatch(f"scale_rows got shapes {x.shape} and {w.shape}")

    def backward(g):
        return g * w.data[:, None], (g * x.data).sum(axis=1)

    return _emit((x, w), x.data * w.data[:, None], backward)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0.0

    def backward(g):
        return (g * mask,)

    return _emit((x,), np.where(mask, x.data, 0.0), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a rank-2 tensor, stabilised by per-row max subtraction."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeMismatch(f"softmax_rows needs a rank-2 tensor, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        # d x_ij = y_ij * (g_ij - sum_k g_ik y_ik)
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _emit((x,), y, backward)


def mean_rows(x: Tensor, mask: Tensor) -> Tensor:
    """Average the rows of x selected by a 0/1 mask; masked-out rows contribute nothing.

    The mask is treated as data, never differentiated.
    """
    x, mask = _as_tensor(x), _as_tensor(mask)
    if x.ndim != 2 or mask.ndim != 1 or x.shape[0] != mask.shape[0]:
        raise ShapeMismatch(f"mean_rows got shapes {x.shape} and {mask.shape}")
    m = mask.data
    active = m.sum()
    if active == 0:
        raise DegenerateInput("mean_rows needs at least one active row in the mask")
    value = (x.data * m[:, None]).sum(axis=0) / active

    def backward(g):
        return np.outer(m / active, g), None

    return _emit((x, mask), value, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias for rank-2 x."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeMismatch(f"linear got incompatible shapes {x.shape} x {weight.shape}")
    if bias.ndim != 1 or bias.shape[0] != weight.shape[1]:
        raise ShapeMismatch(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
    return add(matmul(x, weight), bias)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a rank-2 table by integer index; its gradient is a ``_RowGrad``."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2 or ids.ndim != 1:
        raise ShapeMismatch(f"gather_rows got table shape {table.shape}, ids shape {ids.shape}")

    def backward(g):
        return (_RowGrad(ids, g),)

    return _emit((table,), table.data[ids], backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-2 tensors with equal row counts along columns."""
    parts = [_as_tensor(p) for p in parts]
    rows = {p.shape[0] for p in parts}
    if len(rows) != 1 or any(p.ndim != 2 for p in parts):
        raise ShapeMismatch(f"concat_cols got shapes {[p.shape for p in parts]}")
    widths = [p.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=1))

    return _emit(tuple(parts), np.concatenate([p.data for p in parts], axis=1), backward)


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack equal-length rank-1 tensors into the rows of a rank-2 tensor."""
    parts = [_as_tensor(p) for p in parts]
    if any(p.ndim != 1 for p in parts) or len({p.shape[0] for p in parts}) != 1:
        raise ShapeMismatch(f"stack_rows got shapes {[p.shape for p in parts]}")

    def backward(g):
        return tuple(g[i] for i in range(len(parts)))

    return _emit(tuple(parts), np.stack([p.data for p in parts]), backward)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeMismatch(f"transpose needs a rank-2 tensor, got shape {x.shape}")

    def backward(g):
        return (g.T,)

    return _emit((x,), x.data.T, backward)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)
    orig = x.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return _emit((x,), x.data.reshape(shape), backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a rank-2 tensor."""
    x = _as_tensor(x)
    if x.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeMismatch(f"slice_cols [{start}:{stop}] invalid for shape {x.shape}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _emit((x,), x.data[:, start:stop].copy(), backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    x = _as_tensor(x)

    def backward(g):
        return (np.full_like(x.data, float(g)),)

    return _emit((x,), np.asarray(x.data.sum()), backward)


def sum_rows(x: Tensor) -> Tensor:
    """Row sums of a rank-2 tensor, as a rank-1 tensor."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeMismatch(f"sum_rows needs a rank-2 tensor, got shape {x.shape}")
    cols = x.shape[1]

    def backward(g):
        return (np.repeat(g[:, None], cols, axis=1),)

    return _emit((x,), x.data.sum(axis=1), backward)


def pick(x: Tensor, index: int) -> Tensor:
    """Single entry of a rank-1 tensor, as a scalar."""
    x = _as_tensor(x)
    if x.ndim != 1:
        raise ShapeMismatch(f"pick needs a rank-1 tensor, got shape {x.shape}")
    index = int(index)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[index] = float(g)
        return (gx,)

    return _emit((x,), np.asarray(x.data[index]), backward)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient passes only where x is strictly above the floor."""
    x = _as_tensor(x)
    floor = float(floor)
    keep = x.data > floor

    def backward(g):
        return (g * keep,)

    return _emit((x,), np.maximum(x.data, floor), backward)


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def backward(g):
        return (g / x.data,)

    return _emit((x,), np.log(x.data), backward)


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    value = np.exp(x.data)

    def backward(g):
        return (g * value,)

    return _emit((x,), value, backward)


def sin(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def backward(g):
        return (g * np.cos(x.data),)

    return _emit((x,), np.sin(x.data), backward)


def cos(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def backward(g):
        return (g * -np.sin(x.data),)

    return _emit((x,), np.cos(x.data), backward)


def sqrt(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    value = np.sqrt(x.data)

    def backward(g):
        return (g * 0.5 / value,)

    return _emit((x,), value, backward)


def absolute(x: Tensor) -> Tensor:
    """|x|, with subgradient 0 at exactly 0."""
    x = _as_tensor(x)

    def backward(g):
        return (g * np.sign(x.data),)

    return _emit((x,), np.abs(x.data), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    value = _sigmoid_np(x.data)

    def backward(g):
        return (g * value * (1.0 - value),)

    return _emit((x,), value, backward)


def logsigmoid(x: Tensor) -> Tensor:
    """log(sigmoid(x)) computed without overflow for large |x|."""
    x = _as_tensor(x)
    value = np.where(x.data >= 0, -np.log1p(np.exp(-x.data)), x.data - np.log1p(np.exp(x.data)))

    def backward(g):
        return (g * _sigmoid_np(-x.data),)

    return _emit((x,), value, backward)


def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# --------------------------------------------------------------------------
# Gradient verification
# --------------------------------------------------------------------------

def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Compare the analytic gradient of scalar-valued f at x with central differences.

    Returns max_i |analytic_i - central_i| / (|central_i| + 1e-10). The
    numeric side perturbs x.data in place, one coordinate at a time, and
    evaluates f with no tape active, so it is independent of the recorded
    backward pass it checks.
    """
    if not x.requires_grad:
        raise ValueError("finite_diff_check needs requires_grad=True on x")
    saved_grad = x.grad
    x.grad = None
    with Tape() as tape:
        out = f(x)
        tape.backward(out)
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).reshape(-1).copy()
    x.grad = saved_grad

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(f(x).data)
        flat[i] = orig - h
        down = float(f(x).data)
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * h)

    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-10)))


def assert_finite(t: Tensor, label: str = "tensor"):
    if not np.all(np.isfinite(t.data)):
        raise FloatingPointError(f"{label} contains non-finite values")


def identity(n: int) -> Tensor:
    return Tensor(np.eye(n))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))
