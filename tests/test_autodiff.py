"""Tests for the tape-based autodiff core.

Reference values come from independent oracles written out in this file:
triple-loop matrix products, big-step formula evaluations, and central
finite differences. The oracles never call the code paths they check.
"""

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
        out = ad.matmul(a, ad.identity(2))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_identity_left(self):
        out = ad.matmul(ad.identity(2), Tensor([[5.0], [7.0]]))
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


class TestMeanRows:
    def test_all_active(self):
        out = ad.mean_rows(Tensor([[2.0, 4.0], [6.0, 8.0]]), Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_single_active_row(self):
        out = ad.mean_rows(Tensor([[2.0, 4.0], [9.0, 9.0]]), Tensor([1.0, 0.0]))
        assert np.array_equal(out.data, [2.0, 4.0])

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (5, 3))
        mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        expected = np.zeros(3)
        count = 0
        for i in range(5):
            if mask[i] == 1.0:
                count += 1
                for j in range(3):
                    expected[j] += x[i, j]
        expected /= count
        out = ad.mean_rows(Tensor(x), Tensor(mask))
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_all_zero_mask_rejected(self):
        with pytest.raises(DegenerateInput):
            ad.mean_rows(Tensor(np.ones((2, 2))), Tensor([0.0, 0.0]))


class TestLinear:
    def test_identity_weight(self):
        out = ad.linear(Tensor([[1.0, 1.0]]), ad.identity(2), ad.zeros(2))
        assert np.array_equal(out.data, [[1.0, 1.0]])

    def test_zero_weight_passes_bias(self):
        out = ad.linear(Tensor([[1.0, 2.0]]), ad.zeros((2, 2)), Tensor([3.0, 4.0]))
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
        labels = [0, 2, 1]

        def f(t):
            probs = ad.softmax_rows(ad.matmul(t, Tensor(w)))
            total = ad.sum_all(ad.zeros(()))
            for i, lab in enumerate(labels):
                row = ad.reshape(ad.slice_cols(probs, lab, lab + 1), (3,))
                total = ad.add(total, ad.scale(ad.log(ad.pick(row, i)), -1.0))
            return total

        assert ad.finite_diff_check(f, x, h=1e-5) < 1e-6

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


def _weighted(out, rng):
    """Reduce an op output to a scalar with fixed random weights."""
    w = Tensor(rng.uniform(-1, 1, out.shape))
    return ad.sum_all(ad.mul(out, w))


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
    ("relu", lambda x, rng: ad.relu(x), (3, 4)),
    ("softmax_rows", lambda x, rng: ad.softmax_rows(x), (3, 4)),
    ("mean_rows", lambda x, rng: ad.mean_rows(x, Tensor([1.0, 0.0, 1.0])), (3, 4)),
    ("gather_rows", lambda x, rng: ad.gather_rows(x, [0, 2, 2, 1]), (3, 4)),
    ("concat_cols", lambda x, rng: ad.concat_cols([x, Tensor(rng.uniform(-1, 1, (3, 2)))]), (3, 4)),
    ("transpose", lambda x, rng: ad.transpose(x), (3, 4)),
    ("reshape", lambda x, rng: ad.reshape(x, (4, 3)), (3, 4)),
    ("slice_cols", lambda x, rng: ad.slice_cols(x, 1, 3), (3, 4)),
    ("sum_rows", lambda x, rng: ad.sum_rows(x), (3, 4)),
    ("clamp_min", lambda x, rng: ad.clamp_min(x, -2.0), (3, 4)),
    ("exp", lambda x, rng: ad.exp(x), (3, 4)),
    ("sin", lambda x, rng: ad.sin(x), (3, 4)),
    ("cos", lambda x, rng: ad.cos(x), (3, 4)),
    ("sigmoid", lambda x, rng: ad.sigmoid(x), (3, 4)),
    ("logsigmoid", lambda x, rng: ad.logsigmoid(x), (3, 4)),
]


@pytest.mark.parametrize("name,build,shape", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, build, shape):
    seed = zlib.crc32(name.encode())
    x = Tensor(np.random.default_rng(seed).uniform(-1, 1, shape), requires_grad=True)
    if name == "relu":
        # keep entries away from the kink so central differences are valid
        x.data += np.sign(x.data) * 0.05

    def f(t):
        # fresh same-seed generators per call keep f a fixed function of t
        return _weighted(build(t, np.random.default_rng(seed + 1)), np.random.default_rng(99))

    assert ad.finite_diff_check(f, x) < 1e-5


@pytest.mark.parametrize("name,build,shape", [
    ("log", lambda x, rng: ad.log(x), (3, 4)),
    ("sqrt", lambda x, rng: ad.sqrt(x), (3, 4)),
], ids=["log", "sqrt"])
def test_positive_domain_op_gradients(name, build, shape):
    rng = np.random.default_rng(21)
    x = Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True)

    def f(t):
        return _weighted(build(t, rng), np.random.default_rng(99))

    assert ad.finite_diff_check(f, x) < 1e-5


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
    or a non-leaf, and accumulated over repeated backward calls, equal a dense scatter-add."""
    gathers = data.draw(st.lists(st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=8),
                                 min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
    weights = [rng.uniform(-1, 1, (len(ids), shape[1])) for ids in gathers]
    dense_weight = rng.uniform(-1, 1, shape)
    with Tape() as tape:
        source = ad.scale(x, 2.0) if through_scale else x
        loss = ad.sum_all(ad.mul(source, Tensor(dense_weight))) if dense_too else ad.zeros(())
        for ids, w in zip(gathers, weights):
            loss = ad.add(loss, ad.sum_all(ad.mul(ad.gather_rows(source, ids), Tensor(w))))
        for _ in range(calls):
            tape.backward(loss)

    expected = np.zeros(shape)
    for ids, w in zip(gathers, weights):
        np.add.at(expected, ids, w)
    if dense_too:
        expected += dense_weight
    expected *= calls * (2.0 if through_scale else 1.0)
    assert isinstance(x.grad, np.ndarray) and x.grad.shape == shape
    # entries are O(1) sums summed in another order, so an absolute floor covers cancellation
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-12)


def test_gather_backward_memory_does_not_grow_with_gathers():
    """50 gathers from one leaf cost one dense table in backward, not one table per gather."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((20_000, 16)), requires_grad=True)
    gathers = [rng.integers(0, 20_000, 40) for _ in range(50)]
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = ad.zeros(())
            for ids in gathers:
                loss = ad.add(loss, ad.sum_all(ad.gather_rows(x, ids)))
            tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    counts = np.bincount(np.concatenate(gathers), minlength=20_000).astype(np.float64)
    assert np.array_equal(x.grad, np.repeat(counts[:, None], 16, axis=1))
    assert peak < 2 * x.data.nbytes


def test_stack_rows_gradient():
    rng = np.random.default_rng(31)
    x = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
    other = Tensor(rng.uniform(-1, 1, 4))

    def f(t):
        return _weighted(ad.stack_rows([t, other, t]), np.random.default_rng(99))

    assert ad.finite_diff_check(f, x) < 1e-5


def test_pick_and_sum_gradients():
    x = Tensor([0.3, -0.4, 0.9], requires_grad=True)

    def f(t):
        return ad.add(ad.pick(t, 1), ad.sum_all(ad.mul(t, t)))

    assert ad.finite_diff_check(f, x) < 1e-6


def test_absolute_gradient_away_from_zero():
    x = Tensor([0.5, -0.7, 1.2], requires_grad=True)

    def f(t):
        return ad.sum_all(ad.absolute(t))

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
    for out in [ad.softmax_rows(x), ad.relu(x), ad.logsigmoid(x), ad.sigmoid(x)]:
        ad.assert_finite(out)
