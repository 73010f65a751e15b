"""A quick tour of the tensor core: values, the tape, gradients, and the
finite-difference checker that every layer in this package is verified with."""

import numpy as np

from stancenet import autodiff as ad
from stancenet.autodiff import Tape, Tensor

# Tensors are float64 numpy arrays with an optional gradient slot.
x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
w = Tensor([[0.5, -0.5], [1.0, 0.25]], requires_grad=True)
print("x =", x.data.tolist())

# Ops record onto the active tape; backward walks the records in reverse.
with Tape() as tape:
    y = ad.softmax_rows(ad.matmul(x, w))
    loss = ad.sum_all(ad.mul(y, y))
    tape.backward(loss)

print("loss =", float(loss.data))
print("dloss/dx =\n", x.grad)

# The same gradient, checked against central finite differences.
x.zero_grad()
w.zero_grad()

def f(t):
    return ad.sum_all(ad.mul(ad.softmax_rows(ad.matmul(t, w)), ad.softmax_rows(ad.matmul(t, w))))

err = ad.finite_diff_check(f, x)
print(f"max relative error vs central differences: {err:.2e}")

# Softmax stays exact even for huge logits thanks to max-shifting.
wild = ad.softmax_rows(Tensor([[1000.0, 0.0, -1000.0]]))
print("softmax([1000, 0, -1000]) =", wild.data.round(12).tolist())

# Masked averaging reads packed rows, one per 1 of an [items, positions] mask in mask
# order, and averages each item's rows; padding positions have no row at all.
rows = Tensor(np.array([[2.0, 4.0], [6.0, 8.0], [1.0, 3.0]]))
mask = Tensor([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
print("mean of each item's rows:", ad.mean_rows(rows, mask).data.tolist())
