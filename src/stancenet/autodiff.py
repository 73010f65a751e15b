"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything in this package that needs a gradient runs through the ops in
this module. An op computes its value with numpy, and, while a Tape is
active and some input participates in differentiation, appends a record
to that tape: its input keys, its output key, its output shape and a
backward closure. ``Tape.backward`` then walks the records in reverse and
accumulates gradients into the ``grad`` field of every leaf tensor with
``requires_grad=True``.

A record keeps only what its backward formula reads (PyTorch's
saved-tensors rule). A closure captures the arrays its gradient formula
reads, and only for the inputs that require a gradient; it keeps shapes as
tuples. So ``add`` or ``reshape`` keeps no array, ``matmul`` and ``mul``
keep the other operand, ``linear`` its input and weight and, with ``relu``,
its output for the mask, ``softmax_rows`` its output, ``mean_rows`` its
share matrix, and ``split_heads`` and ``merge_heads`` the (item, position)
indices of their mask's 1s. An intermediate that no formula reads is freed
as soon as the forward code drops it. A key is a serial number per Tensor,
which, unlike ``id()``, no later tensor reuses.

Most backward closures return a dense gradient of their input's shape.
``gather_rows`` instead returns a ``RowGrad`` (ids, rows), so a gather
from a large table costs the rows it touched, not the table. The tape
collects the row gradients of each tensor. A leaf that gets nothing else,
and has no ``grad`` yet, keeps them as its ``grad``: one ``RowGrad`` with
sorted distinct ids and summed rows, which ``training.adam_step`` reads as
it is. Any other tensor densifies them once, into its dense adjoint. So a
``grad`` is a dense array or a ``RowGrad``, and ``Tensor.dense_grad``
returns it as an array.

Ops take Tensors, never converting an array. Every masked op reads packed rows,
one per 1 of an [N, m] 0/1 mask, in mask order: ``split_heads`` and ``merge_heads``
move them into and out of the zero [N*heads, m, d/heads] head grid, each the
other's gradient, and ``mean_rows`` averages each item's rows.

Tapes nest: entering one pushes it on a module-level stack, and ops record
on the innermost. Tensors that never require gradients are plain immutable
value carriers.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class DegenerateInput(ValueError):
    """Raised for inputs an op cannot meaningfully process (e.g. an all-zero mask)."""


class Diverged(FloatingPointError):
    """Training met a non-finite gradient: its learning rate is too large for the data."""


_SERIAL = itertools.count()


class Tensor:
    """A rank 0-3 array of float64 values, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 3:
            raise ShapeMismatch(f"tensors are rank <= 3, got shape {self.data.shape}")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray | RowGrad] = None
        self._key = next(_SERIAL)  # the tensor's name on a tape

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = None

    def dense_grad(self) -> Optional[np.ndarray]:
        """``grad`` as an array: a ``RowGrad`` densified, None when there is no grad."""
        return self.grad.dense() if isinstance(self.grad, RowGrad) else self.grad

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


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

    A record is (input keys, output key, output shape, backward closure);
    an input that requires no gradient has key None, and the closure holds
    only what its formula reads. The only tensors the tape references are
    its leaves, the requires_grad inputs that no record of this tape
    produced, since backward writes their ``grad``.
    """

    def __init__(self):
        self._records: list[tuple[tuple[Optional[int], ...], int, tuple, Callable]] = []
        self._produced: set[int] = set()
        self._leaves: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self):
        return len(self._records)

    def record(self, inputs: Sequence[Tensor], output: Tensor, backward: Callable):
        keys = []
        for t in inputs:
            if not t.requires_grad:
                keys.append(None)
                continue
            if t._key not in self._produced:
                self._leaves[t._key] = t
            keys.append(t._key)
        self._produced.add(output._key)
        self._records.append((tuple(keys), output._key, output.data.shape, backward))

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf on this tape.

        The per-call adjoints are kept in a local map, so calling backward
        twice without zeroing grads adds the same contribution twice. A
        non-leaf's adjoint is dropped once its record has run. Row
        gradients from ``gather_rows`` are collected per tensor. A non-leaf
        densifies them when its own record is reached. A leaf with no dense
        adjoint and no ``grad`` yet gets them as its ``grad``, summed into
        one ``RowGrad`` of sorted distinct ids; any other leaf densifies
        them. Both sum each entry from 0.0 in the order backward met the
        gathers, so ``RowGrad.dense`` of the one is bitwise the other.

        An adjoint is stored as the op returned it, uncopied, so it may be
        an array the op also handed to another input (``add`` hands the
        same one to both). It is therefore never written in place:
        ``_densify`` copies it, and a leaf's ``grad`` gets a copy.
        """
        if loss.data.ndim != 0:
            raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss._key not in self._produced:
            raise ValueError("loss was not produced by ops recorded on this tape")

        adjoint: dict[int, np.ndarray] = {loss._key: np.ones((), dtype=np.float64)}
        row_grads: dict[int, list[RowGrad]] = {}
        for in_keys, key, shape, back in reversed(self._records):
            if key in row_grads:
                adjoint[key] = _densify(adjoint.get(key), row_grads.pop(key), shape)
            out_adj = adjoint.pop(key, None)  # every consumer of out came later on the tape
            if out_adj is None:
                continue
            for in_key, g in zip(in_keys, back(out_adj)):
                if in_key is None or g is None:
                    continue
                if isinstance(g, RowGrad):
                    row_grads.setdefault(in_key, []).append(g)
                elif in_key in adjoint:
                    adjoint[in_key] = adjoint[in_key] + g
                else:
                    adjoint[in_key] = g
        # every key left is a leaf's: a produced key was popped at its own record
        for key, t in self._leaves.items():
            rows, dense = row_grads.get(key), adjoint.get(key)
            if rows is not None and dense is None and t.grad is None:
                t.grad = _summed(rows, len(t.data))
                continue
            if rows is not None:
                g = _densify(dense, rows, t.data.shape)
            elif dense is not None:
                g = dense.reshape(t.data.shape)
                if t.grad is None:
                    g = g.copy()
            else:
                continue
            t.grad = g if t.grad is None else t.dense_grad() + g


class RowGrad(NamedTuple):
    """The gradient of an [n, width] table, zero outside some rows: ``rows[i]`` adds to
    row ``ids[i]``. A leaf's ``grad`` holds one with sorted distinct ids."""

    ids: np.ndarray
    rows: np.ndarray
    n: int

    def dense(self) -> np.ndarray:
        """The gradient as a new [n, width] array."""
        return _scatter(self.ids, self.rows, self.n)


def _scatter(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Scatter-add ``rows[i]`` into row ``ids[i]`` of a new [n, width] array.
    ``np.bincount`` sums each entry from 0.0 in input order, so this is bitwise
    ``np.add.at`` into zeros, in about half its time."""
    width = rows.shape[1]
    return np.bincount((ids[:, None] * width + np.arange(width)).ravel(), weights=rows.ravel(),
                       minlength=n * width).astype(np.float64, copy=False).reshape(n, width)


def _summed(grads: list[RowGrad], n: int) -> RowGrad:
    """The row gradients as one, with sorted distinct ids: each entry summed from 0.0 in
    list order, as ``_densify`` sums it, so never -0.0."""
    unique, inverse = np.unique(np.concatenate([g.ids for g in grads]), return_inverse=True)
    return RowGrad(unique, _scatter(inverse, np.concatenate([g.rows for g in grads]),
                                    unique.size), n)


def _densify(dense: Optional[np.ndarray], grads: list[RowGrad], shape) -> np.ndarray:
    """Scatter-add row gradients into a new array of the 2-D ``shape``, then add the
    dense adjoint if there is one."""
    out = _scatter(np.concatenate([g.ids for g in grads]),
                   np.concatenate([g.rows for g in grads]), shape[0])
    if dense is not None:
        out += dense.reshape(shape)
    return out


def _emit(inputs: Sequence[Tensor], value: np.ndarray, backward: Callable) -> Tensor:
    """Create the output tensor and record the op if a tape is listening."""
    needs_grad = False
    for t in inputs:  # cheaper than any() over a generator
        if t.requires_grad:
            needs_grad = True
            break
    out = Tensor(value, requires_grad=needs_grad)
    tape = active_tape()
    if tape is not None and needs_grad:
        tape.record(inputs, out, backward)
    return out


# --------------------------------------------------------------------------
# Ops
# --------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: rank-2 x rank-2, or rank-3 x rank-3 (batched, equal batch sizes)."""
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[-1] != b.shape[-2]
            or a.shape[:-2] != b.shape[:-2]):
        raise ShapeMismatch(f"matmul got incompatible shapes {a.shape} x {b.shape}")
    a_data = a.data if b.requires_grad else None  # each operand is read by the other's gradient
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (None if b_data is None else g @ b_data.swapaxes(-1, -2),
                None if a_data is None else a_data.swapaxes(-1, -2) @ g)

    return _emit((a, b), a.data @ b.data, backward)


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
    _check_row_broadcast("add", a, b)
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _emit((a, b), a.data + b.data, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, with the row broadcasting of ``add``."""
    _check_row_broadcast("mul", a, b)
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None  # each operand is read by the other's gradient
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _emit((a, b), a.data * b.data, backward)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)

    def backward(g):
        return (g * c,)

    return _emit((x,), x.data * c, backward)


def scale_rows(x: Tensor, w: Tensor) -> Tensor:
    """Scale each row (last-axis vector) of a rank-2 or rank-3 x by its entry of w,
    whose shape is x's without the last axis; differentiable in both arguments."""
    if x.ndim not in (2, 3) or w.shape != x.shape[:-1]:
        raise ShapeMismatch(f"scale_rows got shapes {x.shape} and {w.shape}")
    x_data = x.data if w.requires_grad else None  # each operand is read by the other's gradient
    w_data = w.data if x.requires_grad else None

    def backward(g):
        return (None if w_data is None else g * w_data[..., None],
                None if x_data is None else (g * x_data).sum(axis=-1))

    return _emit((x, w), x.data * w.data[..., None], backward)


def softmax_rows(x: Tensor, keys=None) -> Tensor:
    """Softmax over the last axis of a rank-2 or rank-3 tensor, stabilised by subtracting
    each row's max; a [B, m] 0/1 key mask of a rank-3 [B, mq, m] x gives its 0s weight 0."""
    if x.ndim not in (2, 3):
        raise ShapeMismatch(f"softmax_rows needs a rank-2 or rank-3 tensor, got shape {x.shape}")
    if keys is not None and (x.ndim != 3 or np.shape(keys) != (x.shape[0], x.shape[-1])):
        raise ShapeMismatch(f"softmax_rows got keys of shape {np.shape(keys)} for shape {x.shape}")
    if keys is not None and not np.all(np.any(keys, axis=-1)):
        raise DegenerateInput("softmax_rows needs a 1 in every row of its key mask")
    y = x.data.copy() if keys is None else np.where(np.asarray(keys)[:, None] != 0, x.data, -np.inf)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        # d x_ij = y_ij * (g_ij - sum_k g_ik y_ik)
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _emit((x,), y, backward)


def mean_rows(x: Tensor, mask: Tensor) -> Tensor:
    """The [W, d] packed rows of an [N, m] 0/1 mask, one per 1 in mask order -> each
    item's mean row, [N, d]; an [m] mask is one item and gives [d]. The value is share @ x
    for the constant [N, W] share, 1/count at an item's own rows; the mask is data."""
    grid = np.atleast_2d(mask.data)
    item = np.nonzero(grid)[0]
    if x.ndim != 2 or mask.ndim not in (1, 2) or x.shape[0] != item.size:
        raise ShapeMismatch(f"mean_rows got packed rows of shape {x.shape} for a mask of "
                            f"shape {mask.shape} with {item.size} 1s")
    count = np.bincount(item, minlength=len(grid))[:, None]
    if not count.all():
        raise DegenerateInput("mean_rows needs a 1 in every item of its mask")
    share = (item == np.arange(len(grid))[:, None]) / count

    def backward(g):
        return share.T @ g.reshape(len(share), -1), None

    return _emit((x, mask), (share @ x.data).reshape(mask.shape[:-1] + x.shape[1:]), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """Affine map x @ weight + bias for rank-2 x, with ``relu`` then max(., 0), as one
    record. The ReLU's gradient mask is read from the output (out > 0 there exactly where
    the pre-activation is), and a NaN pre-activation stays NaN with gradient 0."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeMismatch(f"linear got incompatible shapes {x.shape} x {weight.shape}")
    if bias.ndim != 1 or bias.shape[0] != weight.shape[1]:
        raise ShapeMismatch(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
    out = x.data @ weight.data
    out += bias.data
    if relu:
        np.maximum(out, 0.0, out=out)
    x_data = x.data if weight.requires_grad else None  # read by the other's gradient
    w_data = weight.data if x.requires_grad else None
    kept = out if relu else None

    def backward(g):
        if kept is not None:
            g = g * (kept > 0.0)
        return (None if w_data is None else g @ w_data.T,
                None if x_data is None else x_data.T @ g,
                g.sum(axis=0))

    return _emit((x, weight, bias), out, backward)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a rank-2 table by integer index; its gradient is a ``RowGrad``."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2 or ids.ndim != 1:
        raise ShapeMismatch(f"gather_rows got table shape {table.shape}, ids shape {ids.shape}")
    if ids.size and ids.min() < 0:  # the backward scatter counts rows from 0
        raise IndexError(f"gather_rows got the negative id {ids.min()}")

    n = len(table.data)

    def backward(g):
        return (RowGrad(ids, g, n),)

    return _emit((table,), table.data[ids], backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate rank-2 tensors along rows (axis 0) or columns (axis 1); their sizes
    along the other axis must agree."""
    if (axis not in (0, 1) or any(p.ndim != 2 for p in parts)
            or len({p.shape[1 - axis] for p in parts}) != 1):
        raise ShapeMismatch(f"concat on axis {axis} got shapes {[p.shape for p in parts]}")
    splits = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit(tuple(parts), np.concatenate([p.data for p in parts], axis=axis), backward)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes of a rank-2 or rank-3 tensor."""
    if x.ndim not in (2, 3):
        raise ShapeMismatch(f"transpose needs a rank-2 or rank-3 tensor, got shape {x.shape}")

    def backward(g):
        return (g.swapaxes(-1, -2),)

    return _emit((x,), x.data.swapaxes(-1, -2), backward)


def split_heads(x: Tensor, heads: int, mask) -> Tensor:
    """The [W, d] packed rows of an [N, m] 0/1 mask, one per 1 in mask order, -> the
    [N*heads, m, d/heads] head grid, zero at the mask's 0s: entry n*heads + h holds
    columns [h*d/heads, (h+1)*d/heads) of item n's rows. The adjoint of ``merge_heads``."""
    mask = np.asarray(mask)
    if x.ndim != 2 or mask.ndim != 2 or heads < 1 or x.shape[1] % heads:
        raise ShapeMismatch(f"split_heads cannot cut {x.shape} into {heads} heads "
                            f"for a mask of shape {mask.shape}")
    item, pos = np.nonzero(mask)
    if x.shape[0] != item.size:
        raise ShapeMismatch(f"split_heads got {x.shape[0]} packed rows for a mask with "
                            f"{item.size} 1s")
    grid = (mask.shape[0], heads, mask.shape[1], x.shape[1] // heads)

    def backward(g):
        return (_rows_of_heads(g, item, pos, grid),)

    return _emit((x,), _heads_of_rows(x.data, item, pos, grid), backward)


def merge_heads(x: Tensor, heads: int, mask) -> Tensor:
    """The [N*heads, m, k] head grid -> its [W, heads*k] packed rows at the 1s of the
    [N, m] 0/1 mask, in mask order; entries at the 0s are dropped. The adjoint of
    ``split_heads``."""
    mask = np.asarray(mask)
    if (x.ndim != 3 or heads < 1 or x.shape[0] % heads
            or mask.shape != (x.shape[0] // heads, x.shape[1])):
        raise ShapeMismatch(f"merge_heads cannot join shape {x.shape} as {heads} heads "
                            f"for a mask of shape {mask.shape}")
    item, pos = np.nonzero(mask)
    grid = (mask.shape[0], heads) + x.shape[1:]

    def backward(g):
        return (_heads_of_rows(g, item, pos, grid),)

    return _emit((x,), _rows_of_heads(x.data, item, pos, grid), backward)


def _heads_of_rows(rows: np.ndarray, item, pos, grid) -> np.ndarray:
    """Zeros of the [N, heads, m, k] shape ``grid`` with packed row i cut into heads at
    (item[i], :, pos[i]), as [N*heads, m, k]."""
    out = np.zeros(grid)
    out[item, :, pos] = rows.reshape(item.size, grid[1], grid[3])
    return out.reshape(-1, grid[2], grid[3])


def _rows_of_heads(a: np.ndarray, item, pos, grid) -> np.ndarray:
    """The inverse of ``_heads_of_rows`` on the mask's 1s: [N*heads, m, k] -> [W, heads*k]."""
    return a.reshape(grid)[item, :, pos].reshape(item.size, -1)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    orig = x.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return _emit((x,), x.data.reshape(shape), backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    shape = x.shape

    def backward(g):
        return (np.full(shape, float(g)),)

    return _emit((x,), np.asarray(x.data.sum()), backward)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient passes only where x is strictly above the floor."""
    floor = float(floor)
    keep = x.data > floor

    def backward(g):
        return (g * keep,)

    return _emit((x,), np.maximum(x.data, floor), backward)


def log(x: Tensor) -> Tensor:
    x_data = x.data

    def backward(g):
        return (g / x_data,)

    return _emit((x,), np.log(x.data), backward)


# --------------------------------------------------------------------------
# Gradient verification
# --------------------------------------------------------------------------

FD_STEP = 1e-5  # the central-difference step of finite_diff_check


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Compare the analytic gradient of scalar-valued f at x with central differences
    of step ``FD_STEP``.

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
    analytic = x.dense_grad()
    analytic = (analytic if analytic is not None else np.zeros_like(x.data)).reshape(-1).copy()
    x.grad = saved_grad

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up = float(f(x).data)
        flat[i] = orig - FD_STEP
        down = float(f(x).data)
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * FD_STEP)

    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-10)))
