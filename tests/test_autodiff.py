"""Tests for the tape-based autodiff core.

Reference values come from independent oracles written out in this file:
triple-loop matrix products, big-step formula evaluations, and central
finite differences. The oracles never call the code paths they check.
"""

import inspect
import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancenet import autodiff as ad
from stancenet.autodiff import (
    DegenerateInput,
    ShapeMismatch,
    Tape,
    Tensor,
)

import tape_ops as tops


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar triple-loop matrix product, the oracle for matmul/linear."""
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity_right(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_identity_left(self):
        out = ad.matmul(Tensor(np.eye(2)), Tensor([[5.0], [7.0]]))
        assert np.array_equal(out.data, [[5.0], [7.0]])

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4, 2))
        out = ad.matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - loop_matmul(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_huge_entry_does_not_overflow(self):
        out = ad.softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_formula(self):
        # big-step evaluation of e^(x_i - 3) / sum, written out by hand
        x = np.array([1.0, 2.0, 3.0])
        expected = np.array([math.exp(v - 3.0) for v in x])
        expected = expected / expected.sum()
        out = ad.softmax_rows(Tensor(x[None, :]))
        assert np.max(np.abs(out.data[0] - expected)) < 1e-12

    def test_rows_sum_to_one_even_for_large_magnitudes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-1e3, 1e3, (4, 6))
            out = ad.softmax_rows(Tensor(x))
            assert np.all(out.data >= 0)
            assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12


    def test_key_mask_zeroes_its_keys_and_renormalises_the_rest(self):
        x = np.array([[[1.0, 5.0, 2.0, 3.0], [0.0, -7.0, 0.0, 0.0]]])
        out = ad.softmax_rows(Tensor(x), [[1.0, 0.0, 1.0, 1.0]]).data
        assert np.all(out[:, :, 1] == 0.0)
        for row, values in zip(out[0], x[0]):
            expected = np.array([math.exp(v) for v in values[[0, 2, 3]]])
            assert np.max(np.abs(row[[0, 2, 3]] - expected / expected.sum())) < 1e-12

    def test_key_row_without_a_1_rejected(self):
        with pytest.raises(DegenerateInput, match="softmax_rows"):
            ad.softmax_rows(Tensor(np.zeros((2, 1, 3))), np.array([[1.0, 0.0, 0.0], [0.0] * 3]))

    @pytest.mark.parametrize("x_shape,keys_shape", [((2, 3), (2, 3)), ((2, 1, 3), (2, 1)),
                                                    ((2, 1, 3), (1, 3)), ((2, 1, 3), (2, 1, 3)),
                                                    ((2, 1, 3), (2, 4))])
    def test_key_mask_shape_rejected(self, x_shape, keys_shape):
        """Keys need a rank-3 x and exactly the shape (x.shape[0], x.shape[2])."""
        with pytest.raises(ShapeMismatch, match=r"softmax_rows got keys of shape"):
            ad.softmax_rows(Tensor(np.zeros(x_shape)), np.ones(keys_shape))


class TestMeanRows:
    """``mean_rows`` reads the packed rows of a mask: one row per 1, in mask order."""

    def test_all_active(self):
        out = ad.mean_rows(Tensor([[2.0, 4.0], [6.0, 8.0]]), Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_single_active_row(self):
        out = ad.mean_rows(Tensor([[2.0, 4.0]]), Tensor([0.0, 1.0, 0.0]))
        assert out.shape == (2,)
        assert np.array_equal(out.data, [2.0, 4.0])

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0, 0.0, 1.0],
                         [1.0, 1.0, 1.0, 1.0, 1.0]])
        x = rng.uniform(-1, 1, (int(mask.sum()), 3))
        expected = np.zeros((3, 3))
        r = 0
        for n in range(3):
            count = 0
            for j in range(5):
                if mask[n, j] == 1.0:
                    count += 1
                    for c in range(3):
                        expected[n, c] += x[r, c]
                    r += 1
            expected[n] /= count
        out = ad.mean_rows(Tensor(x), Tensor(mask))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    @pytest.mark.parametrize("rows,mask", [(3, [1.0, 0.0, 1.0]), (2, [[1.0, 1.0], [0.0, 1.0]]),
                                           (4, [[1.0, 1.0], [0.0, 1.0]])],
                             ids=["rank1", "too_few", "too_many"])
    def test_row_count_must_match_the_masks_ones(self, rows, mask):
        with pytest.raises(ShapeMismatch, match=r"mean_rows got packed rows of shape"):
            ad.mean_rows(Tensor(np.ones((rows, 2))), Tensor(mask))

    def test_all_zero_mask_rejected(self):
        with pytest.raises(DegenerateInput, match="mean_rows"):
            ad.mean_rows(Tensor(np.ones((0, 2))), Tensor([0.0, 0.0]))
        with pytest.raises(DegenerateInput, match="mean_rows"):  # an item with no 1
            ad.mean_rows(Tensor(np.ones((2, 2))), Tensor([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))


class TestLinear:
    def test_identity_weight(self):
        out = ad.linear(Tensor([[1.0, 1.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, [[1.0, 1.0]])

    def test_zero_weight_passes_bias(self):
        out = ad.linear(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 2))), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [[3.0, 4.0]])

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (3, 4))
        w = rng.uniform(-1, 1, (4, 2))
        b = rng.uniform(-1, 1, 2)
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.max(np.abs(out.data - (loop_matmul(x, w) + b))) < 1e-12


class TestBackward:
    def test_square_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
            tape.backward(loss)
        assert np.allclose(x.grad, [6.0])

    def test_softmax_sum_has_zero_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.softmax_rows(x))
            tape.backward(loss)
        assert np.max(np.abs(x.grad)) < 1e-12

    def test_composite_against_central_differences(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = rng.uniform(-1, 1, (4, 4))
        onehot = np.zeros((3, 4))
        onehot[[0, 1, 2], [0, 2, 1]] = 1.0  # row i's label

        def f(t):
            probs = ad.softmax_rows(ad.matmul(t, Tensor(w)))
            picked = tops.sum_rows(ad.mul(probs, ad.constant(onehot)))
            return ad.scale(ad.sum_all(ad.log(picked)), -1.0)

        assert ad.finite_diff_check(f, x) < 1e-6

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = ad.mul(x, x)
            with pytest.raises(ShapeMismatch):
                tape.backward(out)

    def test_repeat_with_reset_is_bit_identical(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.softmax_rows(ad.matmul(x, w)))
            tape.backward(loss)
            first = (x.grad.copy(), w.grad.copy())
            x.zero_grad()
            w.zero_grad()
            tape.backward(loss)
        assert np.array_equal(first[0], x.grad)
        assert np.array_equal(first[1], w.grad)

    def test_repeat_without_reset_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
            tape.backward(loss)
            tape.backward(loss)
        assert np.allclose(x.grad, [8.0])

    def test_loss_off_tape_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = ad.sum_all(x)  # no tape active while computing
        with Tape() as tape:
            with pytest.raises(ValueError):
                tape.backward(loss)

    def test_a_record_the_loss_does_not_read_gives_no_gradient(self):
        """Records whose output the loss does not read, before it on the tape and after,
        are skipped, and a leaf that only they read keeps ``grad`` None."""
        x, y = Tensor([3.0], requires_grad=True), Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            ad.mul(y, y)
            loss = ad.sum_all(ad.mul(x, x))
            ad.scale(loss, 2.0)
            tape.backward(loss)
        assert np.array_equal(x.grad, [6.0])
        assert y.grad is None


class TestFiniteDiffCheck:
    def test_quadratic_is_essentially_exact(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (3, 3))
        x = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)

        def f(t):
            return ad.sum_all(ad.mul(ad.matmul(t, Tensor(a)), t))

        assert ad.finite_diff_check(f, x) < 1e-8

    def test_constant_function(self):
        x = Tensor([1.0, -2.0], requires_grad=True)

        def f(t):
            return ad.sum_all(ad.scale(t, 0.0))

        assert ad.finite_diff_check(f, x) < 1e-12

    def test_a_tensor_without_requires_grad_rejected(self):
        with pytest.raises(ValueError, match="requires_grad=True"):
            ad.finite_diff_check(ad.sum_all, Tensor([1.0, 2.0]))


def _weighted(out, rng):
    """Reduce an op output to a scalar with fixed random weights."""
    w = Tensor(rng.uniform(-1, 1, out.shape))
    return ad.sum_all(ad.mul(out, w))


HEAD_MASKS = {
    # [N, m] 0/1 masks: ragged items, an item with a hole, and an item with a single 1
    "ragged": np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]]),
    "hole": np.array([[1.0, 0.0, 1.0, 1.0]]),
    "single": np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
}


# an item with a hole between its 1s, and a ragged one that starts with a 0
MEAN_ROWS_HOLE = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]])


OP_CASES = [
    ("matmul_lhs", lambda x, rng: ad.matmul(x, Tensor(rng.uniform(-1, 1, (4, 3)))), (3, 4)),
    ("matmul_rhs", lambda x, rng: ad.matmul(Tensor(rng.uniform(-1, 1, (3, 4))), x), (4, 2)),
    ("add_same", lambda x, rng: ad.add(x, Tensor(rng.uniform(-1, 1, (3, 4)))), (3, 4)),
    ("add_bias", lambda x, rng: ad.add(Tensor(rng.uniform(-1, 1, (3, 4))), x), (4,)),
    ("add_bias_lhs", lambda x, rng: ad.add(x, Tensor(rng.uniform(-1, 1, (3, 4)))), (4,)),
    ("add_row_lhs", lambda x, rng: ad.add(x, Tensor(rng.uniform(-1, 1, (3, 4)))), (1, 4)),
    ("add_row_rhs", lambda x, rng: ad.add(Tensor(rng.uniform(-1, 1, (3, 4))), x), (1, 4)),
    ("add_over_row", lambda x, rng: ad.add(x, Tensor(rng.uniform(-1, 1, (1, 4)))), (3, 4)),
    ("mul", lambda x, rng: ad.mul(x, Tensor(rng.uniform(-1, 1, (3, 4)))), (3, 4)),
    ("mul_vec_lhs", lambda x, rng: ad.mul(x, Tensor(rng.uniform(-1, 1, (3, 4)))), (4,)),
    ("mul_vec_rhs", lambda x, rng: ad.mul(Tensor(rng.uniform(-1, 1, (3, 4))), x), (4,)),
    ("mul_row_lhs", lambda x, rng: ad.mul(x, Tensor(rng.uniform(-1, 1, (3, 4)))), (1, 4)),
    ("mul_row_rhs", lambda x, rng: ad.mul(Tensor(rng.uniform(-1, 1, (3, 4))), x), (1, 4)),
    ("mul_over_row", lambda x, rng: ad.mul(Tensor(rng.uniform(-1, 1, (1, 4))), x), (3, 4)),
    ("scale", lambda x, rng: ad.scale(x, -1.7), (3, 4)),
    ("scale_rows_x", lambda x, rng: ad.scale_rows(x, Tensor(rng.uniform(-1, 1, 3))), (3, 4)),
    ("scale_rows_w", lambda x, rng: ad.scale_rows(Tensor(rng.uniform(-1, 1, (3, 4))), x), (3,)),
    ("relu", lambda x, rng: tops.relu(x), (3, 4)),
    ("linear_x", lambda x, rng: ad.linear(x, Tensor(rng.uniform(-1, 1, (4, 2))),
                                          Tensor(rng.uniform(-1, 1, 2))), (3, 4)),
    ("linear_w", lambda x, rng: ad.linear(Tensor(rng.uniform(-1, 1, (3, 4))), x,
                                          Tensor(rng.uniform(-1, 1, 2))), (4, 2)),
    ("linear_b", lambda x, rng: ad.linear(Tensor(rng.uniform(-1, 1, (3, 4))),
                                          Tensor(rng.uniform(-1, 1, (4, 2))), x), (2,)),
    # x @ w adds under 0.4 to a bias of +-0.5: pre-activations stay 0.1 from the kink
    ("linear_relu_x", lambda x, rng: ad.linear(x, Tensor(rng.uniform(-0.1, 0.1, (4, 2))),
                                               Tensor([0.5, -0.5]), relu=True), (3, 4)),
    ("linear_relu_w", lambda x, rng: ad.linear(Tensor(rng.uniform(-0.1, 0.1, (3, 4))), x,
                                               Tensor([0.5, -0.5]), relu=True), (4, 2)),
    ("linear_relu_b", lambda x, rng: ad.linear(Tensor(rng.uniform(-0.01, 0.01, (3, 4))),
                                               Tensor(rng.uniform(-1, 1, (4, 3))), x,
                                               relu=True), (3,)),
    ("softmax_rows", lambda x, rng: ad.softmax_rows(x), (3, 4)),
    ("mean_rows", lambda x, rng: ad.mean_rows(x, Tensor([1.0, 0.0, 1.0])), (2, 4)),
    ("mean_rows_hole", lambda x, rng: ad.mean_rows(x, Tensor(MEAN_ROWS_HOLE)), (5, 3)),
    ("gather_rows", lambda x, rng: ad.gather_rows(x, [0, 2, 2, 1]), (3, 4)),
    ("concat_cols", lambda x, rng: ad.concat([x, Tensor(rng.uniform(-1, 1, (3, 2)))], axis=1),
     (3, 4)),
    ("concat_rows", lambda x, rng: ad.concat([Tensor(rng.uniform(-1, 1, (2, 4))), x, x], axis=0),
     (3, 4)),
    ("transpose", lambda x, rng: ad.transpose(x), (3, 4)),
    ("reshape", lambda x, rng: ad.reshape(x, (4, 3)), (3, 4)),
    ("sum_all", lambda x, rng: ad.sum_all(x), (3, 4)),
    ("slice_cols", lambda x, rng: tops.slice_cols(x, 1, 3), (3, 4)),
    ("sum_rows", lambda x, rng: tops.sum_rows(x), (3, 4)),
    ("clamp_min", lambda x, rng: ad.clamp_min(x, -2.0), (3, 4)),
    ("matmul_batched_lhs", lambda x, rng: ad.matmul(x, Tensor(rng.uniform(-1, 1, (2, 4, 3)))),
     (2, 3, 4)),
    ("matmul_batched_rhs", lambda x, rng: ad.matmul(Tensor(rng.uniform(-1, 1, (2, 3, 4))), x),
     (2, 4, 2)),
    ("transpose_rank3", lambda x, rng: ad.transpose(x), (2, 3, 4)),
    ("softmax_rows_rank3", lambda x, rng: ad.softmax_rows(x), (2, 3, 4)),
    ("softmax_rows_keys", lambda x, rng: ad.softmax_rows(x, HEAD_MASKS["ragged"]), (2, 3, 4)),
    ("softmax_rows_keys_hole", lambda x, rng: ad.softmax_rows(x, HEAD_MASKS["hole"]),
     (1, 2, 4)),
    ("softmax_rows_keys_single", lambda x, rng: ad.softmax_rows(x, HEAD_MASKS["single"]),
     (2, 2, 3)),
    ("scale_rows_rank3_x", lambda x, rng: ad.scale_rows(x, Tensor(rng.uniform(-1, 1, (2, 3)))),
     (2, 3, 4)),
    ("scale_rows_rank3_w",
     lambda x, rng: ad.scale_rows(Tensor(rng.uniform(-1, 1, (2, 3, 4))), x), (2, 3)),
    ("split_heads", lambda x, rng: ad.split_heads(x, 2, HEAD_MASKS["ragged"]), (5, 4)),
    ("split_heads_hole", lambda x, rng: ad.split_heads(x, 2, HEAD_MASKS["hole"]), (3, 4)),
    ("split_heads_single", lambda x, rng: ad.split_heads(x, 2, HEAD_MASKS["single"]), (4, 4)),
    ("merge_heads", lambda x, rng: ad.merge_heads(x, 2, HEAD_MASKS["ragged"]), (4, 4, 2)),
    ("merge_heads_hole", lambda x, rng: ad.merge_heads(x, 2, HEAD_MASKS["hole"]), (2, 4, 2)),
    ("merge_heads_single", lambda x, rng: ad.merge_heads(x, 2, HEAD_MASKS["single"]),
     (4, 3, 2)),
    ("sin", lambda x, rng: tops.sin(x), (3, 4)),
    ("cos", lambda x, rng: tops.cos(x), (3, 4)),
    ("logsigmoid", lambda x, rng: tops.logsigmoid(x), (3, 4)),
]


@pytest.mark.parametrize("name,build,shape", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, build, shape):
    seed = zlib.crc32(name.encode())
    x = Tensor(np.random.default_rng(seed).uniform(-1, 1, shape), requires_grad=True)
    if name == "relu":
        # keep entries away from the kink so central differences are valid
        x.data += np.sign(x.data) * 0.05
    elif name == "linear_relu_b":
        # the same for the pre-activations: x @ w adds under 0.04 to this bias
        x.data += np.sign(x.data) * 0.09

    def f(t):
        # fresh same-seed generators per call keep f a fixed function of t
        return _weighted(build(t, np.random.default_rng(seed + 1)), np.random.default_rng(99))

    assert ad.finite_diff_check(f, x) < 1e-5


POSITIVE_DOMAIN_CASES = [
    ("log", lambda x, rng: ad.log(x), (3, 4)),
    ("sqrt", lambda x, rng: tops.sqrt(x), (3, 4)),
]


@pytest.mark.parametrize("name,build,shape", POSITIVE_DOMAIN_CASES, ids=["log", "sqrt"])
def test_positive_domain_op_gradients(name, build, shape):
    rng = np.random.default_rng(21)
    x = Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True)

    def f(t):
        return _weighted(build(t, rng), np.random.default_rng(99))

    assert ad.finite_diff_check(f, x) < 1e-5


def test_every_public_op_has_a_finite_difference_case():
    """Each public function of ``stancenet.autodiff`` but the three that are no op has a
    gradient case above, named after it: the op's name, or that name, '_' and a variant
    (a case counts for the longest op name it starts with, so scale_rows_x is not scale's)."""
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and name[0] != "_"}
    ops -= {"constant", "active_tape", "finite_diff_check"}
    covered = {max((op for op in ops if case == op or case.startswith(op + "_")),
                   key=len, default=None) for case, _, _ in OP_CASES + POSITIVE_DOMAIN_CASES}
    assert not ops - covered, f"ops without a finite-difference case: {sorted(ops - covered)}"


def test_heads_are_column_blocks_and_merge_inverts_split():
    """Two full items of 4 rows each, cut into 3 heads: entry n*3 + h is head h's columns of
    item n's rows, merging gives the rows back, and item 1 alone splits to its entries."""
    x = np.random.default_rng(4).uniform(-1, 1, (2 * 4, 6))
    mask = np.ones((2, 4))
    split = ad.split_heads(Tensor(x), 3, mask).data
    assert split.shape == (2 * 3, 4, 2)
    for n in range(2):
        for h, block in enumerate(np.split(x[n * 4:(n + 1) * 4], 3, axis=1)):
            assert np.array_equal(split[n * 3 + h], block)
    assert np.array_equal(ad.merge_heads(Tensor(split), 3, mask).data, x)
    assert np.array_equal(ad.split_heads(Tensor(x[4:]), 3, mask[1:]).data, split[3:])


def loop_split_heads(x: np.ndarray, heads: int, mask: np.ndarray) -> np.ndarray:
    """The head grid by scalar loops: the i-th 1 of the mask, at item n and position p
    in mask order, puts its row's head-h columns at entry n*heads + h, position p."""
    k = x.shape[1] // heads
    out = np.zeros((mask.shape[0] * heads, mask.shape[1], k))
    i = 0
    for n in range(mask.shape[0]):
        for p in range(mask.shape[1]):
            if mask[n, p]:
                for h in range(heads):
                    for j in range(k):
                        out[n * heads + h, p, j] = x[i, h * k + j]
                i += 1
    return out


@pytest.mark.parametrize("name", sorted(HEAD_MASKS))
def test_split_heads_lays_rows_out_at_the_ones_and_merge_reads_them_back(name):
    """The packed rows land at the mask's 1s and every other entry stays zero; merging
    gives the rows back bitwise."""
    mask = HEAD_MASKS[name]
    x = np.random.default_rng(6).uniform(-1, 1, (int(mask.sum()), 6))
    split = ad.split_heads(Tensor(x), 2, mask).data
    assert np.array_equal(split, loop_split_heads(x, 2, mask))
    assert np.count_nonzero(split) == x.size  # no entry of x is 0, nor one outside it
    assert np.array_equal(ad.merge_heads(Tensor(split), 2, mask).data, x)


def _split_and_merge_gradients(x: np.ndarray, y: np.ndarray, heads: int, mask: np.ndarray):
    """The gradients of <split_heads(x), y> in x and of <x, merge_heads(y)> in y."""
    a, b = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.mul(ad.split_heads(a, heads, mask), Tensor(y))))
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.mul(ad.merge_heads(b, heads, mask), Tensor(x))))
    return a.grad, b.grad


@pytest.mark.parametrize("name", sorted(HEAD_MASKS))
def test_split_and_merge_heads_are_adjoint(name):
    """<split(x), y> = <merge(y), x>: each op's gradient is the other op's value, bitwise."""
    mask = HEAD_MASKS[name]
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (int(mask.sum()), 4))
    y = rng.uniform(-1, 1, (mask.shape[0] * 2, mask.shape[1], 2))
    gx, gy = _split_and_merge_gradients(x, y, 2, mask)
    assert np.array_equal(gx, ad.merge_heads(Tensor(y), 2, mask).data)
    assert np.array_equal(gy, ad.split_heads(Tensor(x), 2, mask).data)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), heads=st.integers(1, 3), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_split_merge_heads_property(data, heads, k, seed):
    """On any mask with a 1 in every row: split matches the loop oracle, merge inverts
    it, and the two ops are each other's gradient, all bitwise."""
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m)
                              .filter(any), min_size=n, max_size=n))
    mask = np.array(rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (int(mask.sum()), heads * k))
    y = rng.uniform(-1, 1, (n * heads, m, k))
    split = ad.split_heads(Tensor(x), heads, mask).data
    assert np.array_equal(split, loop_split_heads(x, heads, mask))
    assert np.array_equal(ad.merge_heads(Tensor(split), heads, mask).data, x)
    gx, gy = _split_and_merge_gradients(x, y, heads, mask)
    assert np.array_equal(gx, ad.merge_heads(Tensor(y), heads, mask).data)
    assert np.array_equal(gy, split)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_masked_softmax_is_the_offset_softmax_bitwise(data, seed):
    """For |x| <= 1e3 on any key mask with a 1 in every row, the weights and the input
    gradient of softmax_rows(x, keys) equal, bitwise, those of the path it replaced: a
    -1e9 offset at the mask's 0s added to x, then the softmax without keys."""
    n, mq, m = (data.draw(st.integers(1, top)) for top in (4, 3, 5))
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m)
                              .filter(any), min_size=n, max_size=n))
    keys = np.array(rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1e3, 1e3, (n, mq, m))
    g = Tensor(rng.uniform(-1, 1, (n, mq, m)))
    offset = Tensor(np.broadcast_to(((keys - 1.0) * 1e9)[:, None, :], x.shape))

    def weights_and_gradient(softmax):
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            y = softmax(t)
            tape.backward(ad.sum_all(ad.mul(y, g)))
        return y.data, t.grad

    got = weights_and_gradient(lambda t: ad.softmax_rows(t, keys))
    want = weights_and_gradient(lambda t: ad.softmax_rows(ad.add(t, offset)))
    assert np.all(got[0][np.broadcast_to(keys[:, None, :] == 0, x.shape)] == 0.0)
    for value, reference in zip(got, want):
        assert np.array_equal(value, reference)


def _bits(a):
    return None if a is None else (a.shape, a.tobytes())


def _value_and_gradients(op, x, w, b, g, grads=(True, True, True)):
    """The output of op(x, w, b) and the gradients of x, w and b (None where not
    required) of the sum of the output weighted by g."""
    ts = [Tensor(a, requires_grad=r) for a, r in zip((x, w, b), grads)]
    with Tape() as tape:
        out = op(*ts)
        if out.requires_grad:
            tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
    return [out.data] + [t.grad for t in ts]


# multiples of 0.5 with both zeros, so products and sums are exact and often 0
LINEAR_ENTRIES = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), relu=st.booleans(), grads=st.tuples(*[st.booleans()] * 3))
def test_linear_is_the_separate_records_bitwise(data, relu, grads):
    """linear(x, w, b) is add(matmul(x, w), b), and with relu it is
    relu(add(matmul(x, w), b)), bit for bit in the output and in the gradient of every
    input, for any subset of the three inputs requiring one. Pre-activations hit exact
    0.0 and negatives; -0.0 entries of x, w and b give none of -0.0, since a BLAS sum
    starts at +0.0, and both forms map 0.0 to 0.0 with gradient 0."""
    r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
    x, w, b, g = (np.array(data.draw(st.lists(LINEAR_ENTRIES, min_size=math.prod(shape),
                                              max_size=math.prod(shape)))).reshape(shape)
                  for shape in ((r, k), (k, c), (c,), (r, c)))
    got, want = (_value_and_gradients(lambda *t: op(*t, relu=relu), x, w, b, g, grads)
                 for op in (ad.linear, tops.linear_records))
    assert [_bits(a) for a in got] == [_bits(a) for a in want]


def test_linear_relu_keeps_a_nan_pre_activation_with_zero_gradient():
    """The one value where linear(..., relu=True) and the separate records differ: a NaN
    pre-activation stays NaN (np.maximum passes it on, where the np.where ReLU gave 0),
    and in both its gradient is 0. No command reaches it: checkpoints and knowledge
    tables refuse non-finite values, and adam_step raises Diverged on a NaN gradient."""
    x = np.array([[1.0, -2.0], [0.5, 1.5]])
    w = np.array([[0.5, -1.0, 2.0], [1.0, 0.25, -0.5]])
    b = np.array([np.nan, 0.25, 3.0])
    g = np.array([[1.0, -2.0, 0.5], [3.0, 1.0, -1.0]])
    got = _value_and_gradients(lambda *t: ad.linear(*t, relu=True), x, w, b, g)
    want = _value_and_gradients(lambda *t: tops.linear_records(*t, relu=True), x, w, b, g)
    assert np.isnan(got[0][:, 0]).all() and np.array_equal(want[0][:, 0], [0.0, 0.0])
    assert np.array_equal(got[0][:, 1:], want[0][:, 1:])
    assert [_bits(a) for a in got[1:]] == [_bits(a) for a in want[1:]]
    assert got[2][:, 0].tolist() == [0.0, 0.0] and got[3][0] == 0.0


@pytest.mark.parametrize("shape,heads,m", [((6, 4), 3, 2), ((6, 4), 2, 4), ((2, 3, 4), 2, 3)])
def test_split_heads_rejects_rows_it_cannot_cut(shape, heads, m):
    """Rows of a width heads does not divide, more or fewer rows than the 1s of a full
    [2, m] mask, and rank-3 rows are rejected."""
    with pytest.raises(ShapeMismatch, match="split_heads"):
        ad.split_heads(Tensor(np.ones(shape)), heads, np.ones((2, m)))


@pytest.mark.parametrize("op,message", [
    (lambda: ad.split_heads(Tensor(np.ones((3, 4))), 2, HEAD_MASKS["ragged"]),
     r"split_heads got 3 packed rows for a mask with 5 1s"),
    (lambda: ad.split_heads(Tensor(np.ones((3, 5))), 2, HEAD_MASKS["hole"]),
     r"split_heads cannot cut \(3, 5\) into 2 heads"),
    (lambda: ad.split_heads(Tensor(np.ones((3, 4))), 2, HEAD_MASKS["hole"][0]),
     r"split_heads .* mask of shape \(4,\)"),
    (lambda: ad.merge_heads(Tensor(np.ones((4, 4, 2))), 2, HEAD_MASKS["hole"]),
     r"merge_heads cannot join shape \(4, 4, 2\) as 2 heads for a mask of shape \(1, 4\)"),
    (lambda: ad.merge_heads(Tensor(np.ones((3, 4, 2))), 2, HEAD_MASKS["hole"]),
     r"merge_heads cannot join shape \(3, 4, 2\)"),
    (lambda: ad.merge_heads(Tensor(np.ones((4, 8))), 2, HEAD_MASKS["hole"]),
     r"merge_heads cannot join shape \(4, 8\)"),
], ids=["split_row_count", "split_width", "split_rank1_mask", "merge_mask_shape",
        "merge_heads_do_not_divide", "merge_rank2"])
def test_head_layout_shape_errors(op, message):
    with pytest.raises(ShapeMismatch, match=message):
        op()


@pytest.mark.parametrize("op,message", [
    (lambda: Tensor(np.ones((1, 2, 3, 4))), r"rank <= 3, got shape \(1, 2, 3, 4\)"),
    (lambda: ad.scale_rows(Tensor(np.ones((2, 3))), Tensor(np.ones(3))),
     r"scale_rows got shapes \(2, 3\) and \(3,\)"),
    (lambda: ad.softmax_rows(Tensor(np.ones(3))), r"softmax_rows needs a rank-2 or rank-3"),
    (lambda: ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2))),
     r"linear got incompatible shapes \(2, 3\) x \(4, 2\)"),
    (lambda: ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3))),
     r"linear bias shape \(3,\) does not match weight \(3, 2\)"),
    (lambda: ad.gather_rows(Tensor(np.ones(4)), [0, 1]),
     r"gather_rows got table shape \(4,\), ids shape \(2,\)"),
    (lambda: ad.transpose(Tensor(np.ones(3))), r"transpose needs a rank-2 or rank-3"),
], ids=["tensor_rank4", "scale_rows", "softmax_rank1", "linear_weight", "linear_bias",
        "gather_rank1", "transpose_rank1"])
def test_op_shape_errors(op, message):
    with pytest.raises(ShapeMismatch, match=message):
        op()


@pytest.mark.parametrize("axis,shapes", [(0, [(2, 3), (2, 4)]), (1, [(2, 3), (3, 3)]),
                                         (2, [(2, 3), (2, 3)]), (0, [(2, 3), (3,)])])
def test_concat_shape_errors(axis, shapes):
    with pytest.raises(ShapeMismatch, match=rf"concat on axis {axis} got shapes"):
        ad.concat([Tensor(np.ones(shape)) for shape in shapes], axis=axis)


@pytest.mark.parametrize("a,b", [((2, 3, 4), (3, 4, 2)), ((2, 3, 4), (2, 3, 2)),
                                 ((3, 4), (2, 4, 2)), ((2, 3, 4), (3, 2)),
                                 ((2, 3, 4), (4, 2))])
def test_matmul_rank3_mismatch_rejected(a, b):
    with pytest.raises(ShapeMismatch, match=r"\(.*\) x \(.*\)"):
        ad.matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))


@pytest.mark.parametrize("op", [ad.add, ad.mul], ids=["add", "mul"])
@pytest.mark.parametrize("a,b", [((2, 3), (3, 2)), ((2, 3), (2,)), ((2, 3), (2, 1)),
                                 ((2, 3), (2, 2)), ((3,), (2,)), ((1, 3), (3, 1))])
def test_non_row_broadcastable_shapes_rejected(op, a, b):
    x, y = Tensor(np.ones(a)), Tensor(np.ones(b))
    for lhs, rhs in ((x, y), (y, x)):
        with pytest.raises(ShapeMismatch, match=r"\(.*\).*\(.*\)"):
            op(lhs, rhs)


@settings(max_examples=80, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 4)), data=st.data(),
       dense_too=st.booleans(), through_scale=st.booleans(), calls=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_gather_row_gradients_match_dense_scatter_oracle(shape, data, dense_too, through_scale,
                                                         calls, seed):
    """Row gradients of gathers, mixed or not with a dense use of the same tensor, on a leaf
    or a non-leaf, and accumulated over repeated backward calls, equal a dense scatter-add.
    A leaf that gets only row gradients, and no earlier grad, keeps them as one RowGrad
    over the distinct gathered ids."""
    gathers = data.draw(st.lists(st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=8),
                                 min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
    weights = [rng.uniform(-1, 1, (len(ids), shape[1])) for ids in gathers]
    dense_weight = rng.uniform(-1, 1, shape)
    with Tape() as tape:
        source = ad.scale(x, 2.0) if through_scale else x
        loss = Tensor(np.zeros(()))
        if dense_too:
            loss = ad.sum_all(ad.mul(source, Tensor(dense_weight)))
        for ids, w in zip(gathers, weights):
            loss = ad.add(loss, ad.sum_all(ad.mul(ad.gather_rows(source, ids), Tensor(w))))
        for _ in range(calls):
            tape.backward(loss)

    expected = np.zeros(shape)
    for ids, w in reversed(list(zip(gathers, weights))):  # backward meets the last gather first
        np.add.at(expected, ids, w)
    if dense_too:
        expected += dense_weight
    expected *= calls * (2.0 if through_scale else 1.0)
    rows_only = calls == 1 and not dense_too and not through_scale
    assert isinstance(x.grad, ad.RowGrad) == rows_only
    if rows_only:
        assert np.array_equal(x.grad.ids, np.unique(np.concatenate(gathers)))
    grad = x.dense_grad()
    assert isinstance(grad, np.ndarray) and grad.shape == shape
    if not dense_too:  # the same sums in the same order; the factors are exact
        assert np.array_equal(grad, expected)
    # the dense adjoint is added after the rows, so entries are O(1) sums summed in
    # another order, and an absolute floor covers cancellation
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-12)


def test_gather_rejects_a_negative_id():
    with pytest.raises(IndexError, match="^gather_rows got the negative id -1$"):
        ad.gather_rows(Tensor(np.zeros((3, 2)), requires_grad=True), [0, -1])


def test_gather_backward_memory_does_not_grow_with_gathers():
    """50 gathers from one leaf cost one dense table in backward, not one table per gather."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((20_000, 16)), requires_grad=True)
    gathers = [rng.integers(0, 20_000, 40) for _ in range(50)]
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = Tensor(np.zeros(()))
            for ids in gathers:
                loss = ad.add(loss, ad.sum_all(ad.gather_rows(x, ids)))
            tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    counts = np.bincount(np.concatenate(gathers), minlength=20_000).astype(np.float64)
    assert np.array_equal(x.dense_grad(), np.repeat(counts[:, None], 16, axis=1))
    assert peak < 2 * x.data.nbytes


def test_masked_entry_and_sum_gradients():
    x = Tensor([0.3, -0.4, 0.9], requires_grad=True)

    def f(t):
        return ad.add(ad.sum_all(ad.mul(t, ad.constant([0.0, 1.0, 0.0]))),
                      ad.sum_all(ad.mul(t, t)))

    assert ad.finite_diff_check(f, x) < 1e-6


def test_absolute_gradient_away_from_zero():
    x = Tensor([0.5, -0.7, 1.2], requires_grad=True)

    def f(t):
        return ad.sum_all(tops.absolute(t))

    assert ad.finite_diff_check(f, x) < 1e-6


def test_ops_without_tape_do_not_record():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = ad.mul(x, x)
    assert out.requires_grad
    with Tape() as tape:
        pass
    assert len(tape) == 0


def test_outputs_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(17)
    x = Tensor(rng.uniform(-1e3, 1e3, (3, 3)))
    for out in [ad.softmax_rows(x), tops.relu(x), tops.logsigmoid(x)]:
        assert np.isfinite(out.data).all()


def test_backward_frees_intermediate_adjoints():
    """A chain of 40 ops holds about one intermediate adjoint at a time in backward, not 40."""
    x = Tensor(np.random.default_rng(1).standard_normal((100, 100)), requires_grad=True)
    with Tape() as tape:
        y = x
        for _ in range(40):
            y = ad.scale(y, 1.01)
        loss = ad.sum_all(y)
        tracemalloc.start()
        try:
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert np.allclose(x.grad, 1.01 ** 40, rtol=1e-12)
    assert peak < 6 * x.data.nbytes


def test_add_of_two_leaves_gives_them_unshared_gradients():
    """add hands one adjoint to both inputs; each leaf's grad is still its own array."""
    x, y = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.add(x, y)))
    assert not np.shares_memory(x.grad, y.grad)
    x.grad *= 2.0
    assert np.array_equal(y.grad, np.ones((2, 3)))


def test_short_lived_intermediates_keep_distinct_keys():
    """500 rounds of freed intermediates and new leaves on one tape. A new leaf that took
    the key of a freed intermediate would be taken for that intermediate and get no grad."""
    x = Tensor(np.ones(3), requires_grad=True)
    leaves = []
    with Tape() as tape:
        y = Tensor(np.zeros(3))
        for _ in range(500):
            y = ad.add(y, ad.scale(x, 1.0))
            leaves.append(Tensor(np.ones(3), requires_grad=True))
            y = ad.mul(y, leaves[-1])
        tape.backward(ad.sum_all(y))
    assert np.array_equal(x.grad, np.full(3, 500.0))
    assert all(np.array_equal(leaf.grad, np.full(3, float(i + 1)))
               for i, leaf in enumerate(leaves))


def test_densifying_a_shared_adjoint_leaves_the_other_input_alone():
    """add hands one adjoint to both inputs; scattering row gradients into one copies it."""
    x, z = Tensor(np.zeros((4, 2)), requires_grad=True), Tensor(np.zeros((4, 2)), requires_grad=True)
    with Tape() as tape:
        s = ad.scale(x, 1.0)
        tape.backward(ad.add(ad.sum_all(ad.add(s, z)), ad.sum_all(ad.gather_rows(s, [1, 1]))))
    assert np.array_equal(z.grad, np.ones((4, 2)))
    assert np.array_equal(x.grad, np.ones((4, 2)) + 2.0 * (np.arange(4) == 1)[:, None])


def test_tape_keeps_no_array_that_backward_does_not_read():
    """A chain of adds and scales keeps no intermediate alive once the forward code drops it."""
    x = Tensor(np.random.default_rng(3).standard_normal((100, 100)), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            y = x
            for _ in range(20):
                y = ad.add(ad.scale(y, 0.5), x)
            loss = ad.sum_all(y)
            del y
            held, _ = tracemalloc.get_traced_memory()
            tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert len(tape) == 41
    assert np.allclose(x.grad, 2.0 - 0.5 ** 20, rtol=1e-12)
    assert held < x.data.nbytes
