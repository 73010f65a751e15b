"""Tests for the optimizer, scheduler, training loop, CV, sweep, and t-test."""

import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancenet import autodiff as ad
from stancenet import model as md
from stancenet import textdata as td
from stancenet import training as tr
from stancenet.autodiff import Tape, Tensor
from stancenet.kge import KnowledgeEmbeddingTable
from stancenet.model import (
    MODES,
    ROW_BUDGET,
    HyperParams,
    KnowledgeBundle,
    cross_entropy,
    init_params,
    make_planted_bundle,
    predict,
    zero_bundle,
)
from stancenet.textdata import build_vocab, encode_corpus, gen_knowledge_corpus, gen_synthetic
from stancenet.training import (
    AdamState,
    CvReport,
    EVAL_BATCH,
    PlateauState,
    TrainConfig,
    adam_step,
    batch_loss,
    cross_validate,
    evaluate_accuracy,
    plateau_step,
    sweep_alpha_beta,
    train,
    welch_t_test,
)

import chunked_model as chunked
import tape_ops as tops


def small_hp(**overrides):
    base = dict(d=16, heads=2, n=10, l=4, classes=2, alpha=0.5, beta=0.5, mode="All")
    base.update(overrides)
    return HyperParams(**base)


def encoded_synthetic(num=16, classes=2, hp=None, seed=0):
    hp = hp or small_hp(classes=classes)
    corpus = gen_synthetic(num, classes, 3, seed=seed)
    vocab = build_vocab(corpus)
    return vocab, encode_corpus(corpus, vocab, n=hp.n, l=hp.l), hp


# --------------------------------------------------------------------------
# Sentence runs and the batch loss
# --------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 64),
                          st.one_of(st.integers(1, 64), st.integers(1, 2 * ROW_BUDGET))),
                min_size=1, max_size=80))
def test_sentence_runs_sort_and_cut_the_sentences(sentences):
    """The runs partition the sentences; their widths never decrease, and equal widths
    keep their input order; a run holds at most ROW_BUDGET real words unless it is one
    sentence."""
    widths, words = (np.array(column, dtype=np.int64) for column in zip(*sentences))
    runs = md.sentence_runs(widths, words)
    order = np.concatenate(runs)
    assert sorted(order.tolist()) == list(range(len(sentences)))
    assert all(run.size for run in runs)
    assert np.all(np.diff(widths[order]) >= 0)
    same = np.diff(widths[order]) == 0
    assert np.all(np.diff(order)[same] > 0)
    for run in runs:
        assert run.size == 1 or words[run].sum() <= ROW_BUDGET


def ragged_training_batch(hp, n_words, count, seed):
    """``count`` articles with sentence holes, sentences and titles of random length, and
    a varying number of active sentences; the first has more than ROW_BUDGET real words."""
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(count):
        active = rng.random(hp.l) < (1.0 if i == 0 else 0.5)
        active[rng.integers(hp.l)] = True
        low = hp.n if i == 0 else 1
        lengths = rng.integers(low, hp.n + 1, hp.l)
        real = (np.arange(hp.n) < lengths[:, None]) & active[:, None]
        title = np.arange(hp.n) < rng.integers(1, hp.n + 1)
        batch.append(td.EncodedArticle(rng.integers(1, n_words, (hp.l, hp.n)) * real,
                                       rng.integers(1, n_words, hp.n) * title,
                                       int(rng.integers(hp.classes))))
    return batch


def ragged_bundle(n_words, width, seed):
    rng = np.random.default_rng(seed)
    tables = []
    for tag in ("common", "liberal", "conservative"):
        coverage = (rng.random(n_words) < 0.6).astype(np.float64)
        tables.append(KnowledgeEmbeddingTable(
            tag, rng.uniform(-1, 1, (n_words, width)) * coverage[:, None]))
    return KnowledgeBundle(*tables)


def loss_and_grads(loss_of, params):
    """The loss value of ``loss_of()`` and every parameter gradient, zeros where none."""
    params.zero_grads()
    with Tape() as tape:
        loss = loss_of()
        tape.backward(loss)
    return loss.data, [np.zeros(t.shape) if t.grad is None else t.dense_grad().copy()
                       for t in params.tensors()]


@pytest.mark.parametrize("mode", MODES)
def test_chunked_batch_loss_matches_the_per_article_sum(monkeypatch, mode):
    """The batch loss, whose word level runs in several sentence runs, and every
    parameter gradient equal the mean over the articles of
    ``cross_entropy(predict(article), label)``, the per-article path, within rtol 1e-10."""
    hp = HyperParams(d=8, heads=2, n=36, l=32, classes=3, alpha=0.3, beta=0.6, mode=mode)
    n_words = 40
    params = init_params(n_words, hp, seed=2)
    bundle = ragged_bundle(n_words, hp.d, 3)
    batch = ragged_training_batch(hp, n_words, 9, 4)
    assert int(batch[0].word_masks.sum()) > ROW_BUDGET

    def per_article():
        losses = [cross_entropy(predict(a, params, bundle, hp), a.label) for a in batch]
        return ad.scale(functools.reduce(ad.add, losses), 1.0 / len(batch))

    grids = spy(monkeypatch, md, "word_level", lambda x: x.shape)
    got, got_grads = loss_and_grads(lambda: batch_loss(batch, params, bundle, hp), params)
    assert len(grids) > 1
    want, want_grads = loss_and_grads(per_article, params)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
    for (name, _), g, w in zip(params.named(), got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=0, err_msg=name)


def over_budget_case(mode):
    """d=64 and 4 heads on a ragged 9-article batch whose first article has more than
    ROW_BUDGET real words: hyperparameters, parameters, bundle and batch."""
    hp = HyperParams(d=64, heads=4, n=36, l=32, classes=3, alpha=0.3, beta=0.6, mode=mode)
    n_words = 40
    batch = ragged_training_batch(hp, n_words, 9, 4)
    assert int(batch[0].word_masks.sum()) > ROW_BUDGET
    return hp, init_params(n_words, hp, seed=2), ragged_bundle(n_words, hp.d, 3), batch


@pytest.mark.parametrize("mode", MODES)
def test_batched_predict_matches_the_chunked_reference(mode):
    """At d=64 and 4 heads, on a ragged batch (sentence holes, PAD sentences, repeated
    ids, one article over the budget), one ``predict`` per batch agrees with the chunked
    path it replaced, ``tests/chunked_model.py``: the batch loss and the probabilities
    within rtol 1e-12, every gradient within 1e-12 of its parameter's largest gradient.
    Sums run over other grid widths, so the bits may differ."""
    hp, params, bundle, batch = over_budget_case(mode)
    got, got_grads = loss_and_grads(lambda: batch_loss(batch, params, bundle, hp), params)
    want, want_grads = loss_and_grads(lambda: chunked.batch_loss(batch, params, bundle, hp),
                                      params)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(predict(batch, params, bundle, hp).data,
                               chunked.probabilities(batch, params, bundle, hp),
                               rtol=1e-12, atol=0)
    for (name, _), g, w in zip(params.named(), got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def test_batched_predict_is_deterministic():
    """Two runs of the batch loss and its gradients, and of the probabilities, are
    byte-identical."""
    hp, params, bundle, batch = over_budget_case("All")

    def run():
        loss, grads = loss_and_grads(lambda: batch_loss(batch, params, bundle, hp), params)
        return ([loss.tobytes()] + [g.tobytes() for g in grads]
                + [predict(batch, params, bundle, hp).data.tobytes()])

    assert run() == run()


def test_predict_injects_knowledge_once_on_the_sorted_distinct_ids(monkeypatch):
    """One ``inject_knowledge`` call per ``predict``, on the sorted distinct ids of the
    batch's body words and titles."""
    hp, params, bundle, batch = over_budget_case("All")
    injected = spy(monkeypatch, md, "inject_knowledge", np.array)
    predict(batch, params, bundle, hp)
    words = np.concatenate([a.sentences[a.word_masks != 0] for a in batch]
                           + [a.title[a.title_mask != 0] for a in batch])
    assert len(injected) == 1
    assert np.array_equal(injected[0], np.unique(words))


def separate_records_encoder(x, mask, attn, ff):
    """``model._encoder`` with the feed-forward block's ReLU as a record of its own, as
    it was written before ``linear`` took the ReLU."""
    h = ad.add(x, md.multi_head_attention(x, mask, attn))
    return ad.add(h, ad.linear(tops.relu(ad.linear(h, ff.w1, ff.b1)), ff.w2, ff.b2))


def paper_width_case(mode):
    """d=64 and 4 heads on a ragged 6-article batch: hyperparameters, parameters, bundle
    and batch."""
    hp = HyperParams(d=64, heads=4, n=12, l=4, classes=3, alpha=0.3, beta=0.6, mode=mode)
    n_words = 40
    return (hp, init_params(n_words, hp, seed=5), ragged_bundle(n_words, hp.d, 6),
            ragged_training_batch(hp, n_words, 6, 7))


def taped_loss_bytes(batch, params, bundle, hp):
    """The tape length of one batch loss and backward, and the bytes of the loss and of
    every parameter gradient."""
    params.zero_grads()
    with Tape() as tape:
        loss = batch_loss(batch, params, bundle, hp)
        tape.backward(loss)
    return len(tape), [loss.data.tobytes()] + [
        None if t.grad is None else t.dense_grad().tobytes() for t in params.tensors()]


@pytest.mark.parametrize("mode", MODES)
def test_fused_dense_layers_are_bitwise_the_separate_records(monkeypatch, mode):
    """At d=64 and 4 heads, on a ragged batch, the batch loss and every parameter
    gradient are bit for bit those of the model whose dense layers run as separate
    matmul, bias add and ReLU records: the feed-forward blocks, the output layer and,
    in All, the knowledge fuse layer."""
    hp, params, bundle, batch = paper_width_case(mode)
    fused_records, fused = taped_loss_bytes(batch, params, bundle, hp)
    monkeypatch.setattr(md, "_encoder", separate_records_encoder)
    monkeypatch.setattr(ad, "linear", tops.linear_records)
    separate_records, separate = taped_loss_bytes(batch, params, bundle, hp)
    assert fused == separate
    assert separate_records > fused_records


@pytest.mark.parametrize("mode", MODES)
def test_mean_rows_pooling_is_bitwise_the_share_matrix_records(monkeypatch, mode):
    """At d=64 and 4 heads, on a ragged batch, the tape length, the batch loss, every
    parameter gradient and the evaluated probabilities are bit for bit those of the
    model that pools by a matmul with a constant share matrix, ``tests.tape_ops.pool_records``."""
    hp, params, bundle, batch = paper_width_case(mode)

    def run():
        return (taped_loss_bytes(batch, params, bundle, hp),
                predict(batch, params, bundle, hp).data.tobytes())

    pooled = run()
    monkeypatch.setattr(ad, "mean_rows", tops.pool_records)
    calls = spy(monkeypatch, ad, "mean_rows", lambda x: x.shape)
    runs = spy(monkeypatch, md, "word_level", lambda x: x.shape)
    assert run() == pooled
    # the words of each sentence run, the title (in the title modes) and the sentences,
    # in the training and in the eval call
    assert len(calls) == len(runs) + 2 * (2 if mode in md.TITLE_MODES else 1)


def spy(monkeypatch, owner, attr, note):
    """Wrap ``owner.attr``; returns the list of ``note(first argument)`` of each call."""
    seen = []
    original = getattr(owner, attr)

    def wrapper(first, *args, **kwargs):
        seen.append(note(first))
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return seen


def ids(articles):
    return [id(a) for a in articles]


@pytest.mark.parametrize("mode,records", [("W", 31), ("WS", 48), ("WST", 65), ("All", 74)],
                         ids=["W", "WS", "WST", "All"])
def test_a_batch_of_short_articles_is_one_forward_pass(monkeypatch, mode, records):
    """16 short articles are one predict call and one backward over a tape of
    31/48/65/74 records (W/WS/WST/All), where one predict per article took
    672/1,024/1,344/1,580. The distinct words are embedded once (one gather, or in All
    the 10 records of knowledge injection) and the word level gathers its rows from
    them; its one sentence run adds a concat and the gather back to article order.
    Each attention level records no reshape and no padded-row layout: its packed rows
    are split straight into heads by their mask and merged straight back (the title
    level reshapes only its weights). Its scores get no offset or scale record: the
    softmax masks the keys, and the 1/sqrt(k) scale is one record on the [d, d] query
    weights. Every dense layer is one ``linear`` record: the feed-forward block's two
    (the first with its ReLU), the output layer's, and in All the knowledge fuse
    layer's."""
    corpus = gen_synthetic(16, 2, 2, seed=0)
    vocab = build_vocab(corpus)
    hp = HyperParams(d=8, heads=2, n=8, l=4, classes=2, mode=mode)
    encoded = encode_corpus(corpus, vocab, n=hp.n, l=hp.l)
    bundle = make_planted_bundle(len(vocab), {2: 0, 3: 1}, hp.d)
    predicted = spy(monkeypatch, md, "predict", len)
    tapes = spy(monkeypatch, Tape, "backward", len)
    train(encoded, bundle, TrainConfig(epochs=1, batch_size=16, hp=hp))
    assert predicted == [16]
    assert tapes == [records]


def test_train_and_evaluate_call_predict_once_per_chunk(monkeypatch):
    """Training calls ``predict`` once per batch, and evaluation once per EVAL_BATCH
    consecutive articles."""
    hp = HyperParams(d=8, heads=2, n=12, l=6, classes=3, mode="WS")
    articles = ragged_training_batch(hp, 40, 2 * EVAL_BATCH + 3, 4)
    bundle = zero_bundle(40, hp.d)
    predicted = spy(monkeypatch, md, "predict", ids)
    evaluate_accuracy(init_params(40, hp), bundle, articles, hp)
    assert predicted == [ids(articles[lo : lo + EVAL_BATCH])
                         for lo in range(0, len(articles), EVAL_BATCH)]
    predicted.clear()
    train(articles, bundle, TrainConfig(epochs=1, batch_size=10, hp=hp))
    assert [len(batch) for batch in predicted] == [10, 10, 10, 5]
    assert sorted(key for batch in predicted for key in batch) == sorted(ids(articles))


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

class TestAdamStep:
    def test_first_step_hand_value(self):
        # m_hat = 1, v_hat = 1 on the first step, so x' = 1 - lr/(1 + eps)
        x = Tensor(np.array([1.0]), requires_grad=True)
        adam_step([("x", x)], [np.array([1.0])], AdamState(), lr=0.1)
        assert x.data[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-6)

    def test_zero_gradient_leaves_params(self):
        x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        adam_step([("x", x)], [np.zeros(2)], AdamState(), lr=0.5)
        assert np.array_equal(x.data, [2.0, -3.0])

    def test_deterministic(self):
        def run():
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            state = AdamState()
            for _ in range(5):
                adam_step([("x", x)], [np.array([0.3, -0.4])], state, lr=0.05,
                          weight_decay=0.01)
            return x.data.copy()

        assert np.array_equal(run(), run())

    def test_weight_decay_pulls_toward_zero(self):
        x = Tensor(np.array([5.0]), requires_grad=True)
        adam_step([("x", x)], [np.zeros(1)], AdamState(), lr=0.1, weight_decay=0.1)
        assert x.data[0] < 5.0

    def test_non_finite_gradient_names_parameter(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(FloatingPointError, match="fuse"):
            adam_step([("fuse", x)], [np.array([np.nan])], AdamState(), lr=0.1)


def reference_adam_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8,
                        weight_decay=0.0):
    """The whole-array Adam formula adam_step replaced, one temporary per term."""
    b1, b2 = betas
    for (name, tensor), grad in zip(params, grads):
        assert np.all(np.isfinite(grad))
        g = grad + weight_decay * tensor.data if weight_decay != 0.0 else grad
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / (1.0 - b1 ** t)
        v_hat = state.v[name] / (1.0 - b2 ** t)
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestBlockedAdam:
    """adam_step works in row blocks with the reference's float ops, so results are bitwise."""

    SHAPES = {
        "rank-1": (300,),
        "rank-2": (40, 24),
        "word-table": (50_000, 64),
        "ragged-blocks": (10_000, 7),  # 4,681 rows per block: two full blocks and a part
        "transposed": (64, 1_000),     # stored as the transpose of this shape
    }

    @staticmethod
    def params(rng, kind, shape):
        data = rng.uniform(-1, 1, shape)
        return Tensor(data.T if kind == "transposed" else data, requires_grad=True)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-2])
    @pytest.mark.parametrize("kind", list(SHAPES))
    def test_matches_whole_array_formula_bitwise(self, kind, weight_decay):
        rng = np.random.default_rng(7)
        x = self.params(rng, kind, self.SHAPES[kind])
        if kind == "transposed":
            assert not x.data.flags.c_contiguous
        y = Tensor(x.data.copy(), requires_grad=True)
        got_state, want_state = AdamState(), AdamState()
        for step in range(3):
            grad = rng.normal(0, 10.0 ** -step, x.shape)
            if kind == "transposed":
                grad = np.asfortranarray(grad)
            adam_step([("p", x)], [grad], got_state, lr=1e-3, weight_decay=weight_decay)
            reference_adam_step([("p", y)], [grad], want_state, lr=1e-3,
                                weight_decay=weight_decay)
            assert x.data.tobytes() == y.data.tobytes()
            assert got_state.m["p"].tobytes() == want_state.m["p"].tobytes()
            assert got_state.v["p"].tobytes() == want_state.v["p"].tobytes()
        assert got_state.t == want_state.t == {"p": 3}

    @pytest.mark.parametrize("kind", ["rank-1", "ragged-blocks", "transposed"])
    def test_nan_gradient_raises_before_anything_changes(self, kind):
        rng = np.random.default_rng(8)
        x = self.params(rng, kind, self.SHAPES[kind])
        state = AdamState()
        adam_step([("p", x)], [rng.normal(size=x.shape)], state, lr=1e-3, weight_decay=5e-2)
        before = [arr.copy() for arr in (x.data, state.m["p"], state.v["p"])]
        grad = rng.normal(size=x.shape)
        grad.flat[-1] = np.nan  # in the last block, after every other block is clean
        with pytest.raises(FloatingPointError, match="'p'"):
            adam_step([("p", x)], [grad], state, lr=1e-3, weight_decay=5e-2)
        for arr, old in zip((x.data, state.m["p"], state.v["p"]), before):
            assert arr.tobytes() == old.tobytes()
        assert state.t["p"] == 1

    def test_finite_gradient_whose_sum_overflows_is_accepted(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(x.data.copy(), requires_grad=True)
        grad = np.array([1e308, 1e308])
        with np.errstate(over="ignore"):
            adam_step([("p", x)], [grad], AdamState(), lr=0.1)
            reference_adam_step([("p", y)], [grad], AdamState(), lr=0.1)
        assert x.data.tobytes() == y.data.tobytes()


class TestRowGradientAdam:
    """adam_step on the RowGrad that backward leaves on a gathered table is bitwise
    adam_step on that gradient's dense copy: parameter, m and v."""

    # signed zeros, subnormals, and values whose decay underflows to a signed zero
    SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1.0, -1e-3])

    @classmethod
    def values(cls, rng, shape):
        out = rng.uniform(-1, 1, shape)
        pick = rng.random(shape) < 0.5
        out[pick] = rng.choice(cls.SPECIALS, int(pick.sum()))
        return out

    @staticmethod
    def row_grad(table: Tensor, gathers, weights) -> ad.RowGrad:
        """The grad backward leaves on ``table`` for sum_k <gather_rows(table, ids_k), w_k>:
        the rows it sums are the w_k, bit for bit."""
        with Tape() as tape:
            terms = [ad.sum_all(ad.mul(ad.gather_rows(table, ids), Tensor(w)))
                     for ids, w in zip(gathers, weights)]
            loss = terms[0]
            for term in terms[1:]:
                loss = ad.add(loss, term)
            tape.backward(loss)
        grad, table.grad = table.grad, None
        assert isinstance(grad, ad.RowGrad)
        return grad

    @settings(max_examples=80, deadline=None)
    @given(shape=st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 5)),
                           st.just((1_500, 64))),  # three real blocks of 512 rows
           block=st.sampled_from([1, 3, 8, None]), weight_decay=st.sampled_from([0.0, 5e-2]),
           steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_row_gradient_is_bitwise_its_dense_copy(self, shape, block, weight_decay, steps,
                                                    seed, data):
        rng = np.random.default_rng(seed)
        x = Tensor(self.values(rng, shape), requires_grad=True)
        y = Tensor(x.data.copy(), requires_grad=True)
        got_state, want_state = AdamState(), AdamState()
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:  # row blocks of a few elements
                mp.setattr(tr, "_ADAM_BLOCK", block)
            for _ in range(steps):
                gathers = data.draw(st.lists(st.lists(st.integers(0, shape[0] - 1),
                                                      min_size=0, max_size=12),
                                             min_size=1, max_size=3), label="gathers")
                grad = self.row_grad(x, gathers, [self.values(rng, (len(ids), shape[1]))
                                                  for ids in gathers])
                adam_step([("p", x)], [grad], got_state, lr=1e-3, weight_decay=weight_decay)
                adam_step([("p", y)], [grad.dense()], want_state, lr=1e-3,
                          weight_decay=weight_decay)
                assert x.data.tobytes() == y.data.tobytes()
                assert got_state.m["p"].tobytes() == want_state.m["p"].tobytes()
                assert got_state.v["p"].tobytes() == want_state.v["p"].tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-2])
    def test_non_finite_summed_row_names_the_parameter(self, weight_decay):
        """Two finite rows whose sum overflows: the row form raises Diverged naming the
        table, as its dense copy does, after the parameter before it has stepped and
        before the table, its m or its v change."""
        rng = np.random.default_rng(3)
        states, messages = [], []
        for dense in (False, True):
            bias = Tensor(np.ones(3), requires_grad=True)
            table = Tensor(rng.uniform(-1, 1, (6, 2)), requires_grad=True)
            grad = self.row_grad(table, [[1, 4], [4]], [np.full((2, 2), 1e308),
                                                       np.full((1, 2), 1e308)])
            assert not np.isfinite(grad.rows).all()
            state = AdamState()
            before = table.data.copy()
            with np.errstate(over="ignore"), pytest.raises(ad.Diverged) as err:
                adam_step([("bias", bias), ("words", table)],
                          [np.ones(3), grad.dense() if dense else grad], state, lr=0.1,
                          weight_decay=weight_decay)
            assert table.data.tobytes() == before.tobytes()
            states.append((state.t, bias.data.tobytes()))
            messages.append(str(err.value))
        assert "'words'" in messages[0]
        assert messages[0] == messages[1]
        assert states[0] == states[1] and states[0][0] == {"bias": 1}


@settings(max_examples=80, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(9, 40), st.integers(1, 5)),
                       st.just((1_500, 64))),  # three real blocks of 512 rows
       block=st.sampled_from([1, 3, 8, None]), weight_decay=st.sampled_from([0.0, 5e-2]),
       steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_dense_adam_is_bitwise_the_whole_array_formula(shape, block, weight_decay, steps, seed):
    """adam_step's g = (wd*x + 0.0) + grad differs from the formula's grad + wd*x only in
    the sign of a zero entry, on -0.0 gradients, -0.0 parameters and subnormals alike.
    m starts at +0.0 and never turns -0.0, and v reads g*g, so x, m and v keep every bit."""
    rng = np.random.default_rng(seed)
    x = Tensor(TestRowGradientAdam.values(rng, shape), requires_grad=True)
    y = Tensor(x.data.copy(), requires_grad=True)
    got_state, want_state = AdamState(), AdamState()
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:  # row blocks of a few elements
            mp.setattr(tr, "_ADAM_BLOCK", block)
        for _ in range(steps):
            grad = TestRowGradientAdam.values(rng, shape)
            adam_step([("p", x)], [grad], got_state, lr=1e-3, weight_decay=weight_decay)
            reference_adam_step([("p", y)], [grad], want_state, lr=1e-3,
                                weight_decay=weight_decay)
            assert x.data.tobytes() == y.data.tobytes()
            assert got_state.m["p"].tobytes() == want_state.m["p"].tobytes()
            assert got_state.v["p"].tobytes() == want_state.v["p"].tobytes()
            m = got_state.m["p"]
            assert not (np.signbit(m) & (m == 0.0)).any()


def test_train_holds_no_dense_word_table_gradient(monkeypatch):
    """One mode-All training batch on a 20,000 x 64 word table hands Adam the table's
    gradient as a RowGrad over the batch's distinct words, and the traced peak of the
    step (initialisation, forward, backward and Adam) stays below the parameters, Adam's
    m and v, and half a table: no dense [20,000, 64] gradient is made."""
    n_words = 20_000
    hp = HyperParams(d=64, heads=4, n=8, l=4, classes=2, mode="All")
    rng = np.random.default_rng(11)
    batch = [td.EncodedArticle(rng.integers(1, n_words, (hp.l, hp.n)),
                               rng.integers(1, n_words, hp.n), i % 2) for i in range(2)]
    words = np.unique(np.concatenate([np.r_[a.sentences.ravel(), a.title] for a in batch]))
    bundle = ragged_bundle(n_words, hp.d, 12)
    grads = []

    def spy(named, step_grads, *args, **kwargs):
        grads.append(dict(zip((name for name, _ in named), step_grads))["word_table"])
        return adam_step(named, step_grads, *args, **kwargs)

    monkeypatch.setattr(tr, "adam_step", spy)
    tracemalloc.start()
    try:
        params, _ = train(batch, bundle, TrainConfig(epochs=1, batch_size=len(batch), hp=hp))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (grad,) = grads
    assert isinstance(grad, ad.RowGrad)
    assert len(grad.ids) == len(words) and np.array_equal(grad.ids, words)
    table = params.word_table.data.nbytes
    assert peak < 3 * sum(t.data.nbytes for t in params.tensors()) + table // 2


# --------------------------------------------------------------------------
# Plateau scheduler
# --------------------------------------------------------------------------

def reference_plateau_trace(losses, lr, patience, factor):
    """Independent re-simulation of the scheduler contract."""
    best = math.inf
    bad = 0
    out = []
    for loss in losses:
        if loss < best:
            best = loss
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                lr *= factor
                bad = 0
        out.append(lr)
    return out


class TestPlateauStep:
    def test_flat_losses_halve_after_patience(self):
        state = PlateauState(lr=1.0, patience=5, factor=0.5)
        lrs = [plateau_step(state, 1.0) for _ in range(6)]
        assert lrs == [1.0] * 5 + [0.5]

    def test_improving_losses_never_reduce(self):
        state = PlateauState(lr=1.0, patience=3, factor=0.5)
        lrs = [plateau_step(state, loss) for loss in np.linspace(1.0, 0.1, 10)]
        assert lrs == [1.0] * 10

    def test_halving_at_seventh_report(self):
        state = PlateauState(lr=1.0, patience=5, factor=0.5)
        losses = [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
        lrs = [plateau_step(state, loss) for loss in losses]
        assert lrs == [1.0] * 6 + [0.5]

    def test_matches_reference_on_random_sequences(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            patience = int(rng.integers(1, 6))
            losses = rng.choice([0.5, 0.6, 0.7, 0.8], size=n).tolist()
            state = PlateauState(lr=1.0, patience=patience, factor=0.5)
            got = [plateau_step(state, loss) for loss in losses]
            assert got == reference_plateau_trace(losses, 1.0, patience, 0.5)

    def test_exact_plateau_triggers_exactly_one_halving(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            patience = int(rng.integers(1, 7))
            state = PlateauState(lr=1.0, patience=patience, factor=0.5)
            plateau_step(state, 1.0)  # establishes the best loss
            lrs = [plateau_step(state, 1.0) for _ in range(patience)]
            assert lrs == [1.0] * (patience - 1) + [0.5]

    @pytest.mark.parametrize("loss", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_rejected(self, loss):
        state = PlateauState(lr=1.0, patience=2, factor=0.5)
        with pytest.raises(ValueError, match="epoch loss must be finite"):
            plateau_step(state, loss)


# --------------------------------------------------------------------------
# Training loop
# --------------------------------------------------------------------------

class TestTrain:
    def test_config_bounds_validated(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0)
        with pytest.raises(ValueError, match="lr_factor"):
            TrainConfig(lr_factor=1.0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1)

    def test_empty_dataset_rejected(self):
        vocab, _, hp = encoded_synthetic(4)
        bundle = zero_bundle(len(vocab), hp.d)
        with pytest.raises(ValueError, match="cannot train on an empty dataset"):
            train([], bundle, TrainConfig(epochs=1, hp=hp))
        with pytest.raises(ValueError, match="cannot evaluate on an empty dataset"):
            evaluate_accuracy(init_params(len(vocab), hp, seed=0), bundle, [], hp)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, np.nan])
    def test_holdout_refuses_a_fraction_outside_0_1(self, fraction):
        _, encoded, _ = encoded_synthetic(4)
        with pytest.raises(ValueError, match=r"'val_fraction' must lie in \[0, 1\)") as err:
            tr.holdout(encoded, fraction, seed=0)
        assert err.value.config_keys == ("val_fraction",)

    def test_zero_epochs_returns_init(self):
        vocab, encoded, hp = encoded_synthetic(8)
        cfg = TrainConfig(epochs=0, hp=hp, seed=3)
        params, reports = train(encoded, zero_bundle(len(vocab), hp.d), cfg)
        fresh = init_params(len(vocab), hp, seed=3)
        assert reports == []
        for (_, a), (_, b) in zip(params.named(), fresh.named()):
            assert np.array_equal(a.data, b.data)

    def test_same_seed_same_final_loss(self):
        vocab, encoded, hp = encoded_synthetic(10)
        cfg = TrainConfig(epochs=3, batch_size=4, hp=hp, seed=7)
        bundle = zero_bundle(len(vocab), hp.d)
        _, r1 = train(encoded, bundle, cfg)
        _, r2 = train(encoded, bundle, cfg)
        assert [r.loss for r in r1] == [r.loss for r in r2]

    def test_overfits_separable_corpus(self):
        # capacity check: regularization off so the model can memorise
        vocab, encoded, hp = encoded_synthetic(24)
        cfg = TrainConfig(weight_decay=0.0, epochs=40, batch_size=8, hp=hp, seed=0)
        bundle = zero_bundle(len(vocab), hp.d)
        params, reports = train(encoded, bundle, cfg)
        assert evaluate_accuracy(params, bundle, encoded, hp) >= 0.9
        assert reports[-1].loss < reports[0].loss

    def test_lr_sequence_non_increasing_with_exact_factor(self):
        vocab, encoded, hp = encoded_synthetic(8)
        cfg = TrainConfig(epochs=12, batch_size=4, lr=1e-3, patience=2, hp=hp, seed=1)
        _, reports = train(encoded, zero_bundle(len(vocab), hp.d), cfg)
        lrs = [r.lr for r in reports]
        for prev, curr in zip(lrs, lrs[1:]):
            assert curr <= prev
            assert curr == prev or curr == pytest.approx(prev * cfg.lr_factor)

    def test_loss_at_init_with_zero_output_layer_is_ln_c(self):
        for classes in (2, 3, 5):
            hp = small_hp(classes=classes)
            corpus = gen_synthetic(6, classes, 2, seed=1)
            vocab = build_vocab(corpus)
            encoded = encode_corpus(corpus, vocab, hp.n, hp.l)
            params = init_params(len(vocab), hp, seed=0)
            params.out_w.data[:] = 0.0
            params.out_b.data[:] = 0.0
            bundle = zero_bundle(len(vocab), hp.d)
            losses = [float(cross_entropy(predict(a, params, bundle, hp), a.label).data)
                      for a in encoded]
            assert np.mean(losses) == pytest.approx(math.log(classes), abs=1e-9)

    def test_val_accuracy_reported_when_val_set_given(self):
        vocab, encoded, hp = encoded_synthetic(12)
        cfg = TrainConfig(epochs=2, batch_size=4, hp=hp, seed=5)
        bundle = zero_bundle(len(vocab), hp.d)
        _, reports = train(encoded[:8], bundle, cfg, val_dataset=encoded[8:])
        assert all(0.0 <= r.val_acc <= 1.0 for r in reports)
        _, reports = train(encoded[:8], bundle, cfg)
        assert all(math.isnan(r.val_acc) for r in reports)

    @pytest.mark.parametrize("bundle_of", [
        lambda n: zero_bundle(n, 32),
        lambda n: make_planted_bundle(n, {5: 0, 6: 1}, 32),
    ], ids=["uncovered", "covered"])
    def test_knowledge_width_other_than_d_rejected_before_training(self, bundle_of):
        """Whether a batch holds a covered word does not decide whether a bundle of the
        wrong width fails: mode All refuses it up front, naming both widths."""
        vocab, encoded, hp = encoded_synthetic(8)
        cfg = TrainConfig(epochs=1, hp=hp)
        with pytest.raises(ValueError, match=r"^knowledge tables are 32 wide, but d = 16$"):
            train(encoded, bundle_of(len(vocab)), cfg)
        train(encoded, bundle_of(len(vocab)), replace(cfg, hp=replace(hp, mode="WST")))


class TestEvaluateAccuracy:
    @pytest.mark.parametrize("words,width,message", [
        (-10, 16, r"^knowledge tables have \d+ words, but the word table has \d+ rows$"),
        (0, 8, r"^knowledge tables are 8 wide, but d = 16$"),
    ], ids=["words", "width"])
    def test_bundle_that_does_not_fit_the_model_rejected(self, words, width, message):
        vocab, encoded, hp = encoded_synthetic(8)
        params = init_params(len(vocab), hp, seed=0)
        bundle = zero_bundle(len(vocab) + words, width)
        with pytest.raises(ValueError, match=message):
            evaluate_accuracy(params, bundle, encoded, hp)
        evaluate_accuracy(params, bundle, encoded, replace(hp, mode="WST"))
    def test_uniform_model_ties_break_to_class_zero(self):
        vocab, encoded, hp = encoded_synthetic(10)
        params = init_params(len(vocab), hp, seed=0)
        params.out_w.data[:] = 0.0
        params.out_b.data[:] = 0.0
        bundle = zero_bundle(len(vocab), hp.d)
        share_zero = sum(a.label == 0 for a in encoded) / len(encoded)
        assert evaluate_accuracy(params, bundle, encoded, hp) == share_zero

    def test_matches_hand_count_on_fixture(self):
        vocab, encoded, hp = encoded_synthetic(5)
        params = init_params(len(vocab), hp, seed=9)
        bundle = zero_bundle(len(vocab), hp.d)
        expected_hits = 0
        for article in encoded:
            probs = predict(article, params, bundle, hp).data
            best = 0
            for c in range(1, hp.classes):
                if probs[c] > probs[best]:
                    best = c
            expected_hits += best == article.label
        assert evaluate_accuracy(params, bundle, encoded, hp) == expected_hits / 5

    def test_perfect_model_scores_one(self):
        vocab, encoded, hp = encoded_synthetic(12)
        cfg = TrainConfig(weight_decay=0.0, epochs=40, batch_size=6, hp=hp, seed=2)
        bundle = zero_bundle(len(vocab), hp.d)
        params, _ = train(encoded, bundle, cfg)
        assert evaluate_accuracy(params, bundle, encoded, hp) == 1.0


class TestCrossValidate:
    def test_leave_one_out_accuracies_are_binary(self):
        vocab, encoded, hp = encoded_synthetic(4)
        cfg = TrainConfig(epochs=2, batch_size=2, hp=hp, seed=0)
        report = cross_validate(encoded, zero_bundle(len(vocab), hp.d), 4, cfg)
        assert len(report.fold_accuracies) == 4
        assert all(acc in (0.0, 1.0) for acc in report.fold_accuracies)

    def test_aggregates_are_mean_and_sample_std(self):
        vocab, encoded, hp = encoded_synthetic(9)
        cfg = TrainConfig(epochs=2, batch_size=4, hp=hp, seed=1)
        report = cross_validate(encoded, zero_bundle(len(vocab), hp.d), 3, cfg)
        assert report.mean == pytest.approx(np.mean(report.fold_accuracies))
        assert report.std == pytest.approx(np.std(report.fold_accuracies, ddof=1))

    def test_mean_std_arithmetic(self):
        report = CvReport([1.0, 0.5, 0.0], float(np.mean([1.0, 0.5, 0.0])),
                          float(np.std([1.0, 0.5, 0.0], ddof=1)))
        assert report.mean == 0.5
        assert report.std == 0.5


class TestSweep:
    def test_single_cell_equals_direct_run(self):
        vocab, encoded, hp = encoded_synthetic(10)
        cfg = TrainConfig(epochs=2, batch_size=4, hp=hp, seed=2)
        bundle = zero_bundle(len(vocab), hp.d)
        grid = sweep_alpha_beta(encoded, bundle, cfg, alphas=[0.5], betas=[0.5])
        assert grid.shape == (1, 1)
        # the sweep's split, run directly
        train_set, val_set = tr.holdout(encoded, 0.25, cfg.seed)
        params, _ = train(train_set, bundle, cfg)
        assert grid[0, 0] == evaluate_accuracy(params, bundle, val_set, hp)

    def test_grid_shape_and_default_axes(self):
        vocab, encoded, hp = encoded_synthetic(8)
        cfg = TrainConfig(epochs=1, batch_size=4, hp=hp, seed=3)
        grid = sweep_alpha_beta(encoded, zero_bundle(len(vocab), hp.d), cfg,
                                alphas=[0.2, 1.0], betas=[0.2, 0.6, 1.0])
        assert grid.shape == (2, 3)

    def test_knowledge_free_cell_no_better_than_best(self):
        hp = small_hp(d=16, n=8, l=3)
        corpus, entity_labels = gen_knowledge_corpus(24)
        vocab = build_vocab(corpus)
        encoded = encode_corpus(corpus, vocab, hp.n, hp.l)
        word_classes = {vocab.token_to_id[w]: c for w, c in entity_labels.items()}
        bundle = make_planted_bundle(len(vocab), word_classes, hp.d, seed=1, strength=2.0)
        cfg = TrainConfig(epochs=25, batch_size=8, hp=hp, seed=0)
        grid = sweep_alpha_beta(encoded, bundle, cfg, alphas=[0.2, 1.0], betas=[0.2, 1.0])
        assert grid[1, 1] <= grid.max()

    def test_invalid_grid_value_rejected(self):
        vocab, encoded, hp = encoded_synthetic(6)
        cfg = TrainConfig(epochs=1, hp=hp)
        with pytest.raises(ValueError):
            sweep_alpha_beta(encoded, zero_bundle(len(vocab), hp.d), cfg, alphas=[1.5])

    def test_default_grid_is_five_ascending_values(self):
        assert tr.DEFAULT_GRID == (0.2, 0.4, 0.6, 0.8, 1.0)


def knowledge_bundles():
    """Bundles over the knowledge corpus's vocabulary whose tables cover words or not."""
    corpus, entity_labels = gen_knowledge_corpus(12)
    vocab = build_vocab(corpus)
    planted = make_planted_bundle(len(vocab), {vocab.token_to_id[w]: c
                                               for w, c in entity_labels.items()}, 8, seed=1)
    empty = zero_bundle(len(vocab), 8)
    return corpus, vocab, {
        "none": empty,
        "all": planted,
        "common only": KnowledgeBundle(planted.com, empty.lib, empty.con),
        "liberal only": KnowledgeBundle(empty.com, planted.lib, empty.con),
    }


class TestSweepCells:
    """``sweep_alpha_beta`` trains once per distinct model, against the loop that trains
    every cell."""

    ALPHAS, BETAS = [0.2, 1.0], [0.4, 0.6, 0.4]

    @pytest.mark.parametrize("mode,tables,groups,line", [
        ("WS", "all", 1, "trained 1 of 6 cells (alpha, beta not read)"),
        ("All", "none", 1, "trained 1 of 6 cells (alpha, beta not read)"),
        ("All", "all", 4, "trained 4 of 6 cells"),  # the repeated beta 0.4 trains once
        ("All", "common only", 2, "trained 2 of 6 cells (beta not read)"),
        ("All", "liberal only", 2, "trained 2 of 6 cells (alpha not read)"),
    ])
    @pytest.mark.parametrize("folds", [0, 2])
    def test_one_training_per_distinct_model(self, monkeypatch, capsys, mode, tables, groups,
                                             line, folds):
        corpus, vocab, bundles = knowledge_bundles()
        bundle = bundles[tables]
        hp = small_hp(d=8, n=8, l=3, mode=mode)
        encoded = encode_corpus(corpus, vocab, hp.n, hp.l)
        cfg = TrainConfig(epochs=2, batch_size=4, hp=hp, seed=1)

        # every cell on its own, on the sweep's split
        train_set, val_set = tr.holdout(encoded, 0.25, cfg.seed)
        want = np.zeros((len(self.ALPHAS), len(self.BETAS)))
        models = set()
        for i, alpha in enumerate(self.ALPHAS):
            for j, beta in enumerate(self.BETAS):
                cell_cfg = TrainConfig(epochs=2, batch_size=4, seed=1,
                                       hp=small_hp(d=8, n=8, l=3, mode=mode, alpha=alpha,
                                                   beta=beta))
                if folds:
                    want[i, j] = cross_validate(encoded, bundle, folds, cell_cfg).mean
                    continue
                params, _ = train(train_set, bundle, cell_cfg)
                want[i, j] = evaluate_accuracy(params, bundle, val_set, cell_cfg.hp)
                models.add(b"".join(t.data.tobytes() for _, t in params.named()))
        if not folds:  # the cells train exactly as many distinct models as the sweep trains
            assert len(models) == groups

        capsys.readouterr()
        calls = spy(monkeypatch, tr, "train", len)
        grid = sweep_alpha_beta(encoded, bundle, cfg, self.ALPHAS, self.BETAS, folds=folds)
        assert len(calls) == groups * max(folds, 1)
        assert grid.tobytes() == want.tobytes()
        assert capsys.readouterr().out.splitlines() == [line]


# --------------------------------------------------------------------------
# Welch's t-test
# --------------------------------------------------------------------------

def t_density_tail(t_abs: float, df: float) -> float:
    """Two-sided tail probability by trapezoid integration of the t density."""
    log_norm = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi))
    xs = np.linspace(t_abs, t_abs + 2000.0, 4_000_001)
    pdf = np.exp(log_norm - ((df + 1) / 2.0) * np.log1p(xs * xs / df))
    return 2.0 * float(np.trapezoid(pdf, xs))


class TestWelchTTest:
    def test_identical_samples(self):
        t, p = welch_t_test([0.8, 0.9, 0.85], [0.8, 0.9, 0.85])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_degenerate_constant_samples(self):
        t, p = welch_t_test([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert p == 0.0

    def test_degenerate_equal_constant_samples(self):
        t, p = welch_t_test([0.3, 0.3], [0.3, 0.3])
        assert (t, p) == (0.0, 1.0)

    def test_matches_high_precision_reference(self):
        a = [0.9, 0.91, 0.92]
        b = [0.85, 0.86, 0.84]
        t, p = welch_t_test(a, b)
        # independent big-step evaluation of the Welch formulas
        ma, mb = sum(a) / 3, sum(b) / 3
        va = sum((x - ma) ** 2 for x in a) / 2
        vb = sum((x - mb) ** 2 for x in b) / 2
        se_sq = va / 3 + vb / 3
        t_ref = (ma - mb) / math.sqrt(se_sq)
        df_ref = se_sq ** 2 / ((va / 3) ** 2 / 2 + (vb / 3) ** 2 / 2)
        assert t == pytest.approx(t_ref, abs=1e-12)
        assert p == pytest.approx(t_density_tail(abs(t_ref), df_ref), abs=1e-6)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([0.5], [0.4, 0.6])


# --------------------------------------------------------------------------
# Knowledge-only generalisation (small version of the acceptance check)
# --------------------------------------------------------------------------

def test_knowledge_tables_carry_class_signal_to_validation():
    hp = small_hp(d=16, n=8, l=3, alpha=0.2, beta=0.2)
    corpus, entity_labels = gen_knowledge_corpus(32)
    vocab = build_vocab(corpus)
    encoded = encode_corpus(corpus, vocab, hp.n, hp.l)
    word_classes = {vocab.token_to_id[w]: c for w, c in entity_labels.items()}
    bundle = make_planted_bundle(len(vocab), word_classes, hp.d, seed=2, strength=2.0)
    train_set, val_set = encoded[:24], encoded[24:]
    cfg = TrainConfig(epochs=30, batch_size=8, hp=hp, seed=0)
    params, _ = train(train_set, bundle, cfg)
    acc_with = evaluate_accuracy(params, bundle, val_set, hp)
    assert acc_with >= 0.75
