"""Tests for knowledge injection, the attention levels, prediction, and loss.

Attention layers are checked against a big-step numpy reference that
loops explicitly over heads and positions; boundary behaviour is checked
with identity/zero-initialised parameters where the output is derivable
by hand.
"""

import json
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
from stancenet.autodiff import DegenerateInput, ShapeMismatch, Tape, Tensor
from stancenet.kge import KnowledgeEmbeddingTable
from stancenet.model import (
    HyperParams,
    KnowledgeBundle,
    cross_entropy,
    init_params,
    inject_knowledge,
    make_planted_bundle,
    multi_head_attention,
    predict,
    sentence_level,
    title_level,
    word_level,
    zero_bundle,
)
from stancenet.training import AdamState, adam_step

import tape_ops as tops


def tiny_hp(**overrides) -> HyperParams:
    base = dict(d=8, heads=2, n=3, l=2, classes=2, alpha=0.5, beta=0.5, mode="All")
    base.update(overrides)
    return HyperParams(**base)


def make_identity_attention(params_attn, d):
    """Single-head identity projections; only valid when heads == 1."""
    assert params_attn.heads == 1
    params_attn.wq = Tensor(np.eye(d), requires_grad=True)
    params_attn.wk = Tensor(np.eye(d), requires_grad=True)
    params_attn.wv = Tensor(np.eye(d), requires_grad=True)
    params_attn.wo = Tensor(np.eye(d), requires_grad=True)


def per_head(attn):
    """The fused query, key and value weights cut into per-head column blocks."""
    return [np.split(w.data, attn.heads, axis=1) for w in (attn.wq, attn.wk, attn.wv)]


def zero_ff(ff):
    for t in (ff.w1, ff.b1, ff.w2, ff.b2):
        t.data[:] = 0.0


def random_bundle(n_words, width, seed):
    rng = np.random.default_rng(seed)
    tables = []
    for tag in ("common", "liberal", "conservative"):
        coverage = (rng.random(n_words) < 0.7).astype(np.float64)
        vectors = rng.uniform(-1, 1, (n_words, width)) * coverage[:, None]
        tables.append(KnowledgeEmbeddingTable(tag, vectors))
    return KnowledgeBundle(*tables)


def encode_fixture(hp, seed=0):
    corpus = td.gen_synthetic(4, hp.classes, 2, seed=seed)
    vocab = td.build_vocab(corpus)
    encoded = td.encode_corpus(corpus, vocab, n=hp.n, l=hp.l)
    return corpus, vocab, encoded


# --------------------------------------------------------------------------
# Hyperparameters
# --------------------------------------------------------------------------

class TestHyperParams:
    def test_heads_must_divide_d(self):
        with pytest.raises(ValueError, match="divide"):
            HyperParams(d=10, heads=3)

    def test_factor_range_checked(self):
        with pytest.raises(ValueError):
            HyperParams(alpha=1.5)
        with pytest.raises(ValueError):
            HyperParams(beta=-0.1)

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="mode"):
            HyperParams(mode="WSTX")

    @pytest.mark.parametrize("key, values", [("heads", dict(heads=0)),
                                             ("d", dict(d=0, heads=1)),
                                             ("d", dict(d=-4, heads=2))])
    def test_sizes_must_be_positive(self, key, values):
        """Checked before the divisibility test, which would divide by zero."""
        with pytest.raises(ValueError, match=f"^{key} must be >= 1"):
            HyperParams(**values)


# --------------------------------------------------------------------------
# Knowledge injection
# --------------------------------------------------------------------------

class TestInjectKnowledge:
    def test_factors_of_one_ignore_the_bundle_bitwise(self):
        hp = tiny_hp(alpha=1.0, beta=1.0)
        params = init_params(12, hp, seed=1)
        ids = [3, 5, 0]
        out_a = inject_knowledge(ids, params, random_bundle(12, hp.d, 1), 1.0, 1.0)
        out_b = inject_knowledge(ids, params, random_bundle(12, hp.d, 2), 1.0, 1.0)
        assert np.array_equal(out_a.data, out_b.data)

    def test_full_injection_boundary_exposes_common_table(self):
        # alpha=0 replaces the embedding with the common row; beta=1 keeps it.
        # A fuse layer that copies one concat half makes the mixed value visible:
        # output - residual = e_lib (top half) or e_con (bottom half).
        hp = tiny_hp()
        d = hp.d
        params = init_params(10, hp, seed=2)
        bundle = random_bundle(10, d, 3)
        covered = [int(i) for i in np.flatnonzero(bundle.com.coverage)[:2]]

        for half, offset in (("lib", 0), ("con", d)):
            params.fuse_w.data[:] = 0.0
            params.fuse_w.data[offset : offset + d, :] = np.eye(d)
            params.fuse_b.data[:] = 0.0
            out = inject_knowledge(covered, params, bundle, alpha=0.0, beta=1.0)
            base = params.word_table.data[covered]
            mixed = out.data - base
            dense = bundle.com.rows(np.arange(bundle.com.n_words))
            assert np.allclose(mixed, dense[covered], atol=1e-12)

    def test_half_mix_with_zero_fuse_is_residual_only(self):
        hp = tiny_hp()
        params = init_params(10, hp, seed=4)
        params.fuse_w.data[:] = 0.0
        params.fuse_b.data[:] = 0.0
        bundle = random_bundle(10, hp.d, 5)
        ids = [1, 2, 3]
        out = inject_knowledge(ids, params, bundle, alpha=0.5, beta=0.5)
        assert np.array_equal(out.data, params.word_table.data[ids])

    def test_uncovered_words_bypass_mixing(self):
        hp = tiny_hp()
        params = init_params(10, hp, seed=6)
        zero_cov = zero_bundle(10, hp.d)
        strong = random_bundle(10, hp.d, 7)
        ids = [int(i) for i in np.flatnonzero(strong.com.coverage == 0)[:2]]
        # words uncovered everywhere see the same path as a zero bundle
        if ids:
            lib_cov = strong.lib.coverage[ids] == 0
            con_cov = strong.con.coverage[ids] == 0
            ids = [i for i, a, b in zip(ids, lib_cov, con_cov) if a and b]
        if not ids:
            pytest.skip("fixture produced no fully-uncovered word")
        out_a = inject_knowledge(ids, params, strong, 0.2, 0.2)
        out_b = inject_knowledge(ids, params, zero_cov, 0.2, 0.2)
        assert np.array_equal(out_a.data, out_b.data)

    def test_partly_covered_call_records_two_steps_per_table(self):
        """gather, one scale and one add per table, the fuse layer's concat, matmul and
        bias, and the residual: 11 tape records, however the coverage is split."""
        hp = tiny_hp()
        params = init_params(10, hp, seed=8)
        bundle = random_bundle(10, hp.d, 9)
        ids = list(range(10))
        for table in (bundle.com, bundle.lib, bundle.con):
            assert 0.0 < table.coverage[ids].mean() < 1.0
        with Tape() as tape:
            inject_knowledge(ids, params, bundle, 0.3, 0.6)
            assert len(tape) <= 11

    def test_factor_out_of_range_rejected(self):
        hp = tiny_hp()
        params = init_params(5, hp, seed=0)
        with pytest.raises(ValueError):
            inject_knowledge([0], params, zero_bundle(5, hp.d), 1.2, 0.5)

    def test_bundle_holds_its_stored_rows_only(self):
        """Three 20,000 x 16 tables that cover 10 words each, their bundle and an injection
        on 100 ids hold less than one dense table once construction has returned."""
        n_words, width = 20_000, 16
        rng = np.random.default_rng(4)
        params = init_params(n_words, tiny_hp(d=width), seed=0)
        ids = rng.choice(n_words, 100, replace=False)
        tracemalloc.start()
        try:
            tables = []
            for tag in ("common", "liberal", "conservative"):
                vectors = np.zeros((n_words, width))
                vectors[ids[:10]] = rng.uniform(-1, 1, (10, width))
                tables.append(KnowledgeEmbeddingTable(tag, vectors))
            del vectors
            bundle = KnowledgeBundle(*tables)
            out = inject_knowledge(ids, params, bundle, 0.3, 0.6)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (100, width) and bundle.com.coverage.sum() == 10
        assert held < n_words * width * 8


def scaled_mix(base, table, ids, w_base, w_know):
    """Knowledge mixing as two blends gated by coverage: the path ``md._mix`` replaces,
    kept here op for op as its reference."""
    cov = table.coverage[ids]
    if w_know == 0.0 or not cov.any():
        return base
    dense = table.rows(np.arange(table.n_words))
    mixed = ad.add(ad.scale(base, w_base), ad.scale(ad.constant(dense[ids]), w_know))
    if cov.all():
        return mixed
    return ad.add(
        ad.scale_rows(mixed, ad.constant(cov)),
        ad.scale_rows(base, ad.constant(1.0 - cov)),
    )


@pytest.mark.parametrize("coverage", ["all", "none", "partial"])
@pytest.mark.parametrize("w_base, w_know", [(0.3, 0.7), (0.0, 1.0), (1.0, 0.0)])
def test_mix_matches_blended_reference_bitwise(coverage, w_base, w_know):
    """Values and the embedding's gradient equal the two-blend path bit for bit."""
    rng = np.random.default_rng(21)
    n_words, d = 9, 6
    cov = {"all": np.ones(n_words), "none": np.zeros(n_words),
           "partial": (np.arange(n_words) % 3 != 0).astype(np.float64)}[coverage]
    table = KnowledgeEmbeddingTable("common", rng.uniform(-1, 1, (n_words, d)) * cov[:, None])
    ids = np.array([4, 0, 8, 3, 3, 7, 1])
    rows = rng.uniform(-1, 1, (len(ids), d))
    weights = Tensor(rng.uniform(-1, 1, (len(ids), d)))

    def run(mix):
        base = Tensor(rows.copy(), requires_grad=True)
        with Tape() as tape:
            out = mix(base, table, ids, w_base, w_know)
            tape.backward(ad.sum_all(ad.mul(out, weights)))
        return out.data, base.grad

    got, got_grad = run(md._mix)
    want, want_grad = run(scaled_mix)
    assert got.tobytes() == want.tobytes()
    assert got_grad.tobytes() == want_grad.tobytes()


# --------------------------------------------------------------------------
# Bundle rules: the fit check, the factors read, the planted tables
# --------------------------------------------------------------------------

def all_words_planted(n_words, width):
    """A bundle whose three tables cover every word but <pad> and <unk>."""
    return make_planted_bundle(n_words, {w: w % 2 for w in range(2, n_words)}, width)


@pytest.mark.parametrize("extra,width,covered", [
    (0, 8, True), (0, 8, False), (-5, 16, False), (5, 16, False),
], ids=["narrow, words covered", "narrow, no word covered", "5 words too few",
        "5 words too many"])
def test_predict_refuses_a_bundle_that_does_not_fit(extra, width, covered):
    """Mode All refuses a bundle that is not [word-table rows, d] with one ValueError
    naming both numbers, whether or not the batch holds a covered word or one past the
    bundle's last; the other modes read no bundle."""
    hp = tiny_hp(d=16)
    _, vocab, encoded = encode_fixture(hp)
    params = init_params(len(vocab), hp, seed=0)
    n_words = len(vocab) + extra
    bundle = (all_words_planted if covered else zero_bundle)(n_words, width)
    message = (f"knowledge tables are {width} wide, but d = 16" if width != 16 else
               f"knowledge tables have {n_words} words, but the word table has {len(vocab)} rows")
    for batch in (encoded, encoded[0]):
        with pytest.raises(ValueError, match=f"^{message}$") as err:
            predict(batch, params, bundle, hp)
        assert type(err.value) is ValueError  # not ShapeMismatch, a ValueError for a bug
    for mode in ("W", "WS", "WST"):
        predict(encoded, params, bundle, replace(hp, mode=mode))


@pytest.mark.parametrize("mode", md.MODES)
@pytest.mark.parametrize("covering", [(), ("common",), ("liberal",), ("conservative",),
                                      ("liberal", "conservative"), md.STANCES])
def test_factors_read_are_the_factors_predict_reads(mode, covering):
    """``factors_read`` says alpha (beta) is read exactly when changing it alone changes
    ``predict``'s bits: in mode All, with a common (a stance) table that covers a word."""
    hp = tiny_hp(mode=mode)
    _, vocab, encoded = encode_fixture(hp)
    params = init_params(len(vocab), hp, seed=3)
    planted, empty = all_words_planted(len(vocab), hp.d), zero_bundle(len(vocab), hp.d)
    bundle = KnowledgeBundle(*(getattr(planted if stance in covering else empty, field)
                               for stance, field in zip(md.STANCES, ("com", "lib", "con"))))

    def probs(**factors):
        return predict(encoded, params, bundle, replace(hp, **factors)).data.tobytes()

    read = (probs(alpha=0.2) != probs(alpha=0.7), probs(beta=0.2) != probs(beta=0.7))
    assert md.factors_read(hp, bundle) == read
    assert read == (mode == "All" and "common" in covering,
                    mode == "All" and bool({"liberal", "conservative"} & set(covering)))


def dense_planted_bundle(n_words, word_classes, width, seed=0, strength=1.0):
    """``make_planted_bundle`` as it was built before ``from_rows``: three dense
    [n_words, width] arrays filled word by word, kept here as its oracle."""
    rng = np.random.default_rng(seed)
    direction = rng.uniform(-1.0, 1.0, width)
    direction *= strength / np.linalg.norm(direction)
    com, lib, con = (np.zeros((n_words, width)) for _ in range(3))
    for wid, cls in word_classes.items():
        sign = 1.0 if cls == 0 else -1.0
        com[wid] = sign * direction
        lib[wid] = sign * direction
        con[wid] = -sign * direction
    return KnowledgeBundle(KnowledgeEmbeddingTable("common", com),
                           KnowledgeEmbeddingTable("liberal", lib),
                           KnowledgeEmbeddingTable("conservative", con))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_planted_bundle_matches_the_dense_build_bitwise(data):
    """Word ids in any order, any class ids, strength 0 (whose -0.0 rows are stored but
    uncover their words) included."""
    n_words = data.draw(st.integers(1, 30), label="n_words")
    width = data.draw(st.integers(1, 5), label="width")
    ids = data.draw(st.lists(st.integers(0, n_words - 1), unique=True), label="ids")
    classes = data.draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    strength = data.draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 10.0),
                         label="strength")
    word_classes = dict(zip(ids, classes))
    got = make_planted_bundle(n_words, word_classes, width, seed, strength)
    want = dense_planted_bundle(n_words, word_classes, width, seed, strength)
    for field in ("com", "lib", "con"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.stance_tag == w.stance_tag
        for part in ("_rows", "_slot", "coverage"):
            a, b = getattr(g, part), getattr(w, part)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# --------------------------------------------------------------------------
# Attention layers against a big-step loop reference
# --------------------------------------------------------------------------

def ref_attention(q, k, v, mask, wqs, wks, wvs, wo):
    """Loop-everything reference for multi-head attention with masking."""
    heads = []
    for wq, wk, wv in zip(wqs, wks, wvs):
        qh, kh, vh = q @ wq, k @ wk, v @ wv
        dk = wq.shape[1]
        out = np.zeros((q.shape[0], dk))
        for i in range(q.shape[0]):
            logits = []
            for j in range(k.shape[0]):
                if mask[j] == 1.0:
                    logits.append(qh[i] @ kh[j] / math.sqrt(dk))
                else:
                    logits.append(-np.inf)
            logits = np.array(logits)
            weights = np.exp(logits - logits[np.isfinite(logits)].max())
            weights = weights / weights.sum()
            for j in range(k.shape[0]):
                out[i] += weights[j] * vh[j]
        heads.append(out)
    return np.concatenate(heads, axis=1) @ wo


class TestMultiHeadAttention:
    def test_singleton_passes_value_through(self):
        d = 4
        hp = HyperParams(d=d, heads=1, n=2, l=2, classes=2)
        params = init_params(5, hp, seed=0)
        make_identity_attention(params.word_attn, d)
        row = Tensor([[0.2, -0.5, 1.0, 0.3]])
        out = multi_head_attention(row, np.array([1.0]), params.word_attn)
        assert np.allclose(out.data, row.data, atol=1e-12)

    def test_duplicate_keys_match_single_key(self):
        """Each row of a doubled input attends to two equal keys: the one row's output."""
        hp = HyperParams(d=4, heads=2, n=2, l=2, classes=2)
        params = init_params(5, hp, seed=1)
        single = Tensor([[1.0, 2.0, 3.0, 4.0]])
        double = Tensor([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        out_one = multi_head_attention(single, np.array([1.0]), params.word_attn)
        out_two = multi_head_attention(double, np.array([1.0, 1.0]), params.word_attn)
        assert np.allclose(out_two.data, np.repeat(out_one.data, 2, axis=0), atol=1e-12)

    def test_random_case_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        d, heads = 8, 2
        hp = HyperParams(d=d, heads=heads, n=3, l=2, classes=2)
        params = init_params(5, hp, seed=3)
        x = rng.uniform(-1, 1, (3, d))
        mask = np.array([1.0, 0.0, 1.0])
        out = multi_head_attention(Tensor(x[mask == 1.0]), mask, params.word_attn)
        want = ref_attention(x, x, x, mask, *per_head(params.word_attn), params.word_attn.wo.data)
        assert np.max(np.abs(out.data - want[mask == 1.0])) < 1e-10

    def test_all_masked_rejected(self):
        """Self-attention and the title level leave a mask with no 1 to the softmax."""
        hp = HyperParams(d=4, heads=1, n=2, l=2, classes=2)
        params = init_params(5, hp, seed=0)
        with pytest.raises(DegenerateInput, match="softmax_rows"):
            multi_head_attention(Tensor(np.ones((0, 4))), np.array([0.0, 0.0]),
                                 params.word_attn)
        with pytest.raises(DegenerateInput, match="softmax_rows"):
            title_level(Tensor(np.ones((1, 4))), Tensor(np.ones((0, 4))), np.array([0.0, 0.0]),
                        params)

    def test_row_count_must_match_the_mask(self):
        hp = HyperParams(d=4, heads=1, n=2, l=2, classes=2)
        params = init_params(5, hp, seed=0)
        with pytest.raises(ShapeMismatch, match="2 packed rows for a mask with 1"):
            multi_head_attention(Tensor(np.ones((2, 4))), np.array([0.0, 1.0]),
                                 params.word_attn)


class TestWordLevel:
    def test_identity_configured_block_passes_input_through(self):
        # zero output projection and zero feed-forward leave only the residuals
        d = 4
        hp = HyperParams(d=d, heads=1, n=2, l=2, classes=2)
        params = init_params(5, hp, seed=0)
        params.word_attn.wo.data[:] = 0.0
        zero_ff(params.word_ff)
        x = Tensor([[0.3, -0.6, 0.5, 0.1]])
        out = word_level(x, np.array([1.0]), params)
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_single_word_attention_output_is_its_value_row(self):
        # with identity projections a one-word sentence attends only to itself,
        # so the block reduces to input + value + feed-forward path
        d = 4
        hp = HyperParams(d=d, heads=1, n=2, l=2, classes=2)
        params = init_params(5, hp, seed=0)
        make_identity_attention(params.word_attn, d)
        zero_ff(params.word_ff)
        x = Tensor([[0.3, -0.6, 0.5, 0.1]])
        out = word_level(x, np.array([1.0]), params)
        assert np.allclose(out.data, 2.0 * x.data, atol=1e-12)

    def test_batched_rows_match_each_sentence_alone(self):
        """The packed rows of an [L, n] mask are each sentence's rows run on its own."""
        hp = tiny_hp()
        params = init_params(6, hp, seed=5)
        mask = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        x = np.random.default_rng(0).uniform(-1, 1, (int(mask.sum()), hp.d))
        out = word_level(Tensor(x), mask, params).data
        sentence = np.nonzero(mask)[0]
        for j, row in enumerate(mask):
            alone = word_level(Tensor(x[sentence == j]), np.ones(int(row.sum())), params).data
            np.testing.assert_allclose(out[sentence == j], alone, rtol=1e-12, atol=1e-15)

    def test_word_permutation_permutes_rows(self):
        hp = tiny_hp(heads=2)
        params = init_params(6, hp, seed=7)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (3, hp.d))
        mask = np.ones(3)
        perm = [2, 0, 1]
        out = word_level(Tensor(x), mask, params)
        out_perm = word_level(Tensor(x[perm]), mask, params)
        assert np.max(np.abs(out.data[perm] - out_perm.data)) < 1e-10


class TestSentenceLevel:
    def test_single_sentence_passthrough_under_identity_block(self):
        d = 4
        hp = HyperParams(d=d, heads=1, n=2, l=1, classes=2)
        params = init_params(5, hp, seed=0)
        params.sent_attn.wo.data[:] = 0.0
        zero_ff(params.sent_ff)
        s = Tensor([[0.7, -0.1, 0.2, 0.4]])
        out = sentence_level(s, np.array([1.0]), params)
        assert np.allclose(out.data, s.data, atol=1e-12)

    def test_identical_sentences_identical_rows(self):
        hp = tiny_hp()
        params = init_params(6, hp, seed=9)
        row = np.random.default_rng(2).uniform(-1, 1, tiny_hp().d)
        s = Tensor(np.stack([row, row]))
        out = sentence_level(s, np.array([1.0, 1.0]), params)
        assert np.allclose(out.data[0], out.data[1], atol=1e-12)

    def test_random_case_matches_loop_reference(self):
        hp = tiny_hp(l=3)
        params = init_params(6, hp, seed=11)
        rng = np.random.default_rng(3)
        s = rng.uniform(-1, 1, (3, hp.d))
        mask = np.array([1.0, 1.0, 1.0])
        out = sentence_level(Tensor(s), mask, params)
        att = s + ref_attention(s, s, s, mask, *per_head(params.sent_attn),
                                params.sent_attn.wo.data)
        ff = params.sent_ff
        hidden = np.maximum(att @ ff.w1.data + ff.b1.data, 0.0)
        want = att + (hidden @ ff.w2.data + ff.b2.data)
        assert np.max(np.abs(out.data - want)) < 1e-10


class TestTitleLevel:
    def test_single_sentence_doubles_under_identity(self):
        d = 4
        hp = HyperParams(d=d, heads=1, n=2, l=1, classes=2)
        params = init_params(5, hp, seed=0)
        make_identity_attention(params.title_attn, d)
        s = Tensor([[0.5, -0.3, 0.8, 0.1]])
        title = Tensor([[1.0, 0.0, 0.0, 0.0]])
        out = title_level(title, s, np.array([1.0]), params)
        assert np.allclose(out.data, 2.0 * s.data, atol=1e-12)

    def test_zero_title_gives_uniform_weights(self):
        d = 4
        hp = HyperParams(d=d, heads=1, n=2, l=3, classes=2)
        params = init_params(5, hp, seed=0)
        make_identity_attention(params.title_attn, d)
        rng = np.random.default_rng(4)
        s_arr = rng.uniform(-1, 1, (3, d))
        out = title_level(Tensor(np.zeros((1, d))), Tensor(s_arr), np.ones(3), params)
        # uniform weight 1/3 on each row, plus the residual
        assert np.allclose(out.data, s_arr / 3.0 + s_arr, atol=1e-12)

    @pytest.mark.parametrize("mask", [[1, 0, 1, 1, 0], [[0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 0]]],
                             ids=["rank1_holes", "rank2_holes"])
    def test_ragged_sentences_match_loop_reference(self, mask):
        """Packed sentence rows of a mask with holes (one title query per item) give
        ``ref_title``'s rows at the real sentences; PAD rows hold values it must ignore."""
        mask = np.array(mask, dtype=np.float64)
        items = mask.reshape(-1, mask.shape[-1])
        hp = tiny_hp()
        params = init_params(6, hp, seed=13)
        rng = np.random.default_rng(5)
        s = rng.uniform(-1, 1, items.shape + (hp.d,))
        titles = rng.uniform(-1, 1, (len(items), hp.d))
        out = title_level(Tensor(titles), Tensor(s[items == 1.0]), mask, params)
        want = np.concatenate([ref_title(t, rows, m, params.title_attn)[m == 1.0]
                               for t, rows, m in zip(titles, s, items)])
        np.testing.assert_allclose(out.data, want, rtol=1e-10, atol=1e-15)


# --------------------------------------------------------------------------
# Prediction
# --------------------------------------------------------------------------

class TestPredict:
    def test_output_is_a_distribution(self):
        hp = tiny_hp()
        _, vocab, encoded = encode_fixture(hp)
        params = init_params(len(vocab), hp, seed=0)
        bundle = random_bundle(len(vocab), hp.d, 1)
        for article in encoded:
            probs = predict(article, params, bundle, hp)
            assert np.all(probs.data >= 0)
            assert abs(probs.data.sum() - 1.0) < 1e-12

    def test_zero_output_layer_gives_uniform(self):
        hp = tiny_hp(classes=2)
        _, vocab, encoded = encode_fixture(hp)
        params = init_params(len(vocab), hp, seed=1)
        params.out_w.data[:] = 0.0
        params.out_b.data[:] = 0.0
        probs = predict(encoded[0], params, zero_bundle(len(vocab), hp.d), hp)
        assert np.allclose(probs.data, [0.5, 0.5], atol=1e-15)

    def test_mode_w_and_ws_differ_on_two_sentence_article(self):
        vocab_corpus = [td.RawArticle("head", "aa bb <sep> cc dd", 0)]
        vocab = td.build_vocab(vocab_corpus)
        enc = td.encode_article(vocab_corpus[0], vocab, n=3, l=2)
        hp_w = tiny_hp(mode="W")
        hp_ws = tiny_hp(mode="WS")
        params = init_params(len(vocab), hp_w, seed=3)
        bundle = zero_bundle(len(vocab), hp_w.d)
        p_w = predict(enc, params, bundle, hp_w)
        p_ws = predict(enc, params, bundle, hp_ws)
        assert not np.allclose(p_w.data, p_ws.data)

    def test_knowledge_free_factors_make_bundles_interchangeable(self):
        hp = tiny_hp(alpha=1.0, beta=1.0, mode="All")
        _, vocab, encoded = encode_fixture(hp)
        params = init_params(len(vocab), hp, seed=4)
        p_a = predict(encoded[0], params, random_bundle(len(vocab), hp.d, 10), hp)
        p_b = predict(encoded[0], params, random_bundle(len(vocab), hp.d, 20), hp)
        assert np.array_equal(p_a.data, p_b.data)

    def test_wst_equals_ws_when_title_context_path_is_zero(self):
        hp_ws = tiny_hp(mode="WS")
        hp_wst = tiny_hp(mode="WST")
        _, vocab, encoded = encode_fixture(hp_ws)
        params = init_params(len(vocab), hp_ws, seed=5)
        params.title_attn.wo.data[:] = 0.0  # residual-only title path
        bundle = zero_bundle(len(vocab), hp_ws.d)
        p_ws = predict(encoded[0], params, bundle, hp_ws)
        p_wst = predict(encoded[0], params, bundle, hp_wst)
        assert np.max(np.abs(p_ws.data - p_wst.data)) < 1e-10

    def test_word_permutation_leaves_pooled_vectors_unchanged(self):
        hp = tiny_hp(mode="WS", n=4)
        corpus = [td.RawArticle("title word", "aa bb cc <sep> dd ee", 0)]
        vocab = td.build_vocab(corpus)
        enc = td.encode_article(corpus[0], vocab, n=4, l=2)
        params = init_params(len(vocab), hp, seed=6)
        bundle = zero_bundle(len(vocab), hp.d)
        base = predict(enc, params, bundle, hp).data.copy()
        # permute the three live words of the first sentence
        enc.sentences[0, :3] = enc.sentences[0, [2, 0, 1]]
        permuted = predict(enc, params, bundle, hp).data
        assert np.max(np.abs(base - permuted)) < 1e-10

    @pytest.mark.parametrize("mode,field,what", [("W", "sentence_mask", "all-masked"),
                                                 ("WST", "title_mask", "non-empty title")])
    def test_empty_article_parts_rejected(self, mode, field, what):
        hp = tiny_hp(mode=mode)
        _, vocab, encoded = encode_fixture(hp)
        ids = encoded[0].sentences if field == "sentence_mask" else encoded[0].title
        ids[:] = td.PAD_ID
        assert not getattr(encoded[0], field).any()
        params = init_params(len(vocab), hp, seed=0)
        with pytest.raises(DegenerateInput, match=what):
            predict(encoded[0], params, zero_bundle(len(vocab), hp.d), hp)

    def test_tape_length_of_a_ragged_all_article(self):
        """One mode-All predict on 3 active sentences with holes, a padded sentence and
        partly covered tables records 69 ops: knowledge injection of the distinct body
        and title words 10 (gather, 2 per table, concat, fuse linear, residual); the
        gather of the one sentence run's words 1; word level 17 (the 1/sqrt(k) scale of
        the query weights; 3 x matmul and head split from the packed rows; transpose,
        scores, softmax over the key mask; weighted sum, head merge to the packed rows,
        output matmul; the attention residual, linear with ReLU, linear, residual); the
        pool matmul 1; the run concat and the gather back to article order 2; sentence
        level 17 (the same ops on a full [1, 3] mask); the title words' gather and pool
        matmul 2, and its level 15 (query weight scale; 3 x matmul and head split;
        transpose, scores, masked softmax; reshape of the weights, row scaling, head
        merge, output matmul, residual); output 4 (pool matmul, linear, softmax, reshape
        to [classes])."""
        hp = HyperParams(d=8, heads=2, n=5, l=4, classes=2, mode="All")
        real = np.array([[1, 1, 0, 1, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 1, 1, 1, 0]])
        article = td.EncodedArticle((np.arange(20).reshape(4, 5) % 11 + 1) * real,
                                    np.array([3, 4, 5, 0, 0]), 1)
        with Tape() as tape:
            predict(article, init_params(12, hp, seed=3), random_bundle(12, hp.d, 4), hp)
            assert len(tape) == 69

    def test_sentence_permutation_equivariance_with_zero_title(self):
        # permuting whole sentences permutes the refined rows correspondingly,
        # and with a zero title query the pooled article vector cannot move
        hp = tiny_hp(l=3)
        params = init_params(6, hp, seed=8)
        rng = np.random.default_rng(7)
        s_arr = rng.uniform(-1, 1, (3, hp.d))
        mask = np.ones(3)
        zero_title = Tensor(np.zeros((1, hp.d)))
        perm = [2, 0, 1]

        def through_levels(rows):
            refined = md.sentence_level(Tensor(rows), mask, params)
            final = title_level(zero_title, refined, mask, params)
            return refined.data, final.data

        refined, final = through_levels(s_arr)
        refined_p, final_p = through_levels(s_arr[perm])
        assert np.max(np.abs(refined[perm] - refined_p)) < 1e-10
        assert np.max(np.abs(final[perm] - final_p)) < 1e-10
        pooled = final.mean(axis=0)
        pooled_p = final_p.mean(axis=0)
        assert np.max(np.abs(pooled - pooled_p)) < 1e-10


def padded_encoder(x, mask, attn, ff):
    """The encoder block on every row of the padded layout, PAD rows zeroed at the end:
    the path the packed levels replace, kept here op for op as their reference."""
    h, mask = attn.heads, np.atleast_2d(mask)
    every = np.ones_like(mask)  # the padded layout has a row at every position
    rows = ad.reshape(x, (-1, x.shape[-1]))
    qh, kh, vh = (ad.split_heads(ad.matmul(rows, w), h, every)
                  for w in (attn.wq, attn.wk, attn.wv))
    offset = np.repeat((mask - 1.0) * 1e9, h, axis=0)[:, None, :]
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(vh.shape[2]))
    w = ad.softmax_rows(ad.add(scores, ad.constant(np.broadcast_to(offset, scores.shape))))
    out = ad.add(rows, ad.matmul(ad.merge_heads(ad.matmul(w, vh), h, every), attn.wo))
    hidden = tops.relu(ad.add(ad.matmul(out, ff.w1), ff.b1))
    out = ad.add(out, ad.add(ad.matmul(hidden, ff.w2), ff.b2))
    return ad.reshape(ad.scale_rows(out, ad.constant(mask.reshape(-1))), x.shape)


PACKING_MASKS = {
    # ragged rows, a hole, and a sentence with one real word
    "rank3_ragged": [[1, 1, 1, 0, 0], [1, 0, 0, 0, 0], [1, 1, 0, 1, 1], [0, 1, 1, 1, 1]],
    "rank3_all_real": [[1, 1, 1], [1, 1, 1]],
    "rank2_ragged": [1, 0, 1, 1, 0, 1],
    "rank2_single_word": [0, 0, 1, 0],
    "rank2_all_real": [1, 1, 1, 1],
}


# (mask, level, d, heads); k = d/heads = 8 and 12 have an inexact 1/sqrt(k)
PACKING_CASES = [(name, level, d, heads) for d, heads in ((8, 2), (16, 2), (24, 2))
                 for name in sorted(PACKING_MASKS) for level in ("word", "sentence")]


@pytest.mark.parametrize("name,level,d,heads", PACKING_CASES,
                         ids=[f"{name}-{level}" + ("" if d == 8 else f"-k{d // heads}")
                              for name, level, d, heads in PACKING_CASES])
def test_packed_encoder_matches_padded_reference(name, level, d, heads):
    """On the packed rows of the mask's real positions, values, the input's gradient
    and every gradient of the level's parameters agree with the real rows of the padded
    block (whose PAD rows hold random values) within rtol 1e-10, also at head widths
    k = 8 and 12, where the 1/sqrt(k) scale is inexact and the packed levels apply it
    to the query weights, the padded block to the scores."""
    mask = np.array(PACKING_MASKS[name], dtype=np.float64)
    real = mask == 1.0
    hp = tiny_hp(d=d, heads=heads)
    params = init_params(6, hp, seed=11)
    attn, ff = ((params.word_attn, params.word_ff) if level == "word"
                else (params.sent_attn, params.sent_ff))
    encoder = word_level if level == "word" else sentence_level
    rng = np.random.default_rng(len(name))
    padded = Tensor(rng.uniform(-1, 1, mask.shape + (hp.d,)), requires_grad=True)
    packed = Tensor(padded.data[real], requires_grad=True)
    weights = rng.uniform(-1, 1, padded.shape)
    weights[~real] = 0.0
    params_ = [attn.wq, attn.wk, attn.wv, attn.wo, ff.w1, ff.b1, ff.w2, ff.b2]

    def run(block, x, w):
        for t in [x] + params_:
            t.zero_grad()
        with Tape() as tape:
            out = block(x)
            tape.backward(ad.sum_all(ad.mul(ad.reshape(out, (-1, hp.d)),
                                            ad.constant(w.reshape(-1, hp.d)))))
        return out.data, [t.grad.copy() for t in [x] + params_]

    got, got_grads = run(lambda x: encoder(x, mask, params), packed, weights[real])
    want, want_grads = run(lambda x: padded_encoder(x, mask, attn, ff), padded, weights)
    assert got.shape == (int(mask.sum()), hp.d)
    np.testing.assert_allclose(got, want[real], rtol=1e-10, atol=0)
    assert np.all(want_grads[0][~real] == 0.0)
    want_grads[0] = want_grads[0][real]
    for leaf, g, w in zip(("x", "wq", "wk", "wv", "wo", "w1", "b1", "w2", "b2"),
                          got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=0, err_msg=leaf)


@pytest.mark.parametrize("level", ["word", "sentence", "title"])
@pytest.mark.parametrize("mask", [[1, 0, 1, 1, 0], [1, 1, 1]], ids=["holes", "all_real"])
def test_one_item_mask_and_its_row_form_agree(level, mask):
    """An [m] mask is one item: its [1, m] form gives bitwise-equal rows and records as
    many ops."""
    mask = np.array(mask, dtype=np.float64)
    hp = tiny_hp(d=8, heads=2)
    params = init_params(6, hp, seed=5)
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (int(mask.sum()), hp.d)), requires_grad=True)
    title = Tensor(rng.uniform(-1, 1, (1, hp.d)), requires_grad=True)
    level_fn = {"word": lambda m: word_level(x, m, params),
                "sentence": lambda m: sentence_level(x, m, params),
                "title": lambda m: title_level(title, x, m, params)}[level]
    runs = []
    for form in (mask, mask[None, :]):
        with Tape() as tape:
            runs.append((level_fn(form).data, len(tape)))
    (rows, records), (rows_2d, records_2d) = runs
    assert np.array_equal(rows, rows_2d)
    assert records == records_2d


def ref_inject(ids, params, bundle, hp):
    """Numpy knowledge injection: a covered word's row is mixed, an uncovered one kept."""
    base = params.word_table.data[ids]
    mix_a, mix_b = (hp.alpha, 1.0 - hp.alpha), (hp.beta, 1.0 - hp.beta)

    def mix(rows, table, weights):
        covered = table.coverage[ids][:, None] == 1.0
        dense = table.rows(np.arange(table.n_words))
        return np.where(covered, weights[0] * rows + weights[1] * dense[ids], rows)

    e_com = mix(base, bundle.com, mix_a)
    fused = np.concatenate([mix(e_com, bundle.lib, mix_b), mix(e_com, bundle.con, mix_b)], axis=1)
    return fused @ params.fuse_w.data + params.fuse_b.data + base


def ref_encoder(x, mask, attn, ff):
    att = x + ref_attention(x, x, x, mask, *per_head(attn), attn.wo.data)
    out = att + np.maximum(att @ ff.w1.data + ff.b1.data, 0.0) @ ff.w2.data + ff.b2.data
    return out * mask[:, None]


def ref_title(title, s, mask, attn):
    """Loop-everything title level: per head, each sentence row scaled by its weight."""
    heads = []
    for wq, wk, wv in zip(*per_head(attn)):
        q, k, v = title @ wq, s @ wk, s @ wv
        logits = np.array([q @ k[j] / math.sqrt(wq.shape[1]) if mask[j] else -np.inf
                           for j in range(len(s))])
        weights = np.exp(logits - logits.max())
        heads.append(v * (weights / weights.sum())[:, None])
    return np.concatenate(heads, axis=1) @ attn.wo.data + s


def ref_predict(article, params, bundle, hp):
    """The model sentence by sentence over the full padded [l, n] article, in numpy."""
    def embed(ids):
        if hp.mode == "All":
            return ref_inject(ids, params, bundle, hp)
        return params.word_table.data[ids]

    smask = article.sentence_mask
    rows = np.zeros((len(smask), hp.d))
    for j in np.flatnonzero(smask):
        m = article.word_masks[j]
        words = ref_encoder(embed(article.sentences[j]), m, params.word_attn, params.word_ff)
        rows[j] = words[m == 1.0].mean(axis=0)
    if hp.mode != "W":
        rows = ref_encoder(rows, smask, params.sent_attn, params.sent_ff)
    if hp.mode in ("WST", "All"):
        title = embed(article.title)[article.title_mask == 1.0].mean(axis=0)
        rows = ref_title(title, rows, smask, params.title_attn)
    logits = rows[smask == 1.0].mean(axis=0) @ params.out_w.data + params.out_b.data
    e = np.exp(logits - logits.max())
    return e / e.sum()


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(md.MODES), heads=st.sampled_from([1, 2, 4]),
       l=st.integers(1, 5), n=st.integers(1, 6), count=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_predict_matches_per_sentence_oracle(mode, heads, l, n, count, seed):
    """Batched, trimmed prediction equals the per-sentence oracle on ragged articles:
    holes in word masks, padded sentences in the middle and at the end, any head count.
    A list of articles gives one row per article, each the oracle of that article, and
    one article alone gives its row."""
    rng = np.random.default_rng(seed)
    hp = HyperParams(d=8, heads=heads, n=n, l=l, classes=3, alpha=float(rng.uniform()),
                     beta=float(rng.uniform()), mode=mode)
    n_words = 12
    params = init_params(n_words, hp, seed=int(rng.integers(1000)))
    bundle = random_bundle(n_words, hp.d, int(rng.integers(1000)))
    articles = []
    for _ in range(count):
        active = rng.random(l) < 0.6
        active[rng.integers(l)] = True
        real = (rng.random((l, n)) < 0.6) & active[:, None]
        for j in np.flatnonzero(active):
            real[j, rng.integers(n)] = True
        title = rng.random(n) < 0.5
        title[rng.integers(n)] = True
        articles.append(td.EncodedArticle(rng.integers(1, n_words, (l, n)) * real,
                                          rng.integers(1, n_words, n) * title, 0))
    want = np.array([ref_predict(a, params, bundle, hp) for a in articles])
    got = predict(articles, params, bundle, hp).data
    assert got.shape == (count, hp.classes)
    np.testing.assert_allclose(got, want, rtol=1e-10)
    np.testing.assert_allclose(predict(articles[0], params, bundle, hp).data, want[0],
                               rtol=1e-10)


# --------------------------------------------------------------------------
# Loss
# --------------------------------------------------------------------------

class TestCrossEntropy:
    def test_uniform_over_five_classes(self):
        probs = Tensor(np.full(5, 0.2))
        assert float(cross_entropy(probs, 3).data) == pytest.approx(math.log(5), abs=1e-12)

    def test_certain_correct_prediction_is_zero(self):
        probs = Tensor([0.0, 1.0, 0.0])
        assert float(cross_entropy(probs, 1).data) == pytest.approx(0.0, abs=1e-15)

    def test_direct_value(self):
        probs = Tensor([0.7, 0.3])
        assert float(cross_entropy(probs, 1).data) == pytest.approx(-math.log(0.3), abs=1e-12)

    def test_zero_probability_is_clamped(self):
        probs = Tensor([1.0, 0.0])
        val = float(cross_entropy(probs, 1).data)
        assert np.isfinite(val)
        assert val == pytest.approx(-math.log(1e-12), abs=1e-6)

    def test_value_is_minus_log_of_the_label_entry_bitwise(self):
        probs = np.random.default_rng(3).dirichlet(np.ones(4))
        for label in range(4):
            assert float(cross_entropy(Tensor(probs), label).data) == -np.log(probs[label])

    def test_rows_sum_their_label_losses(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.0, 0.5, 0.5]])
        labels = [0, 2, 0]
        want = -math.log(0.7) - math.log(0.8) - math.log(1e-12)
        assert float(cross_entropy(Tensor(probs), labels).data) == pytest.approx(want,
                                                                                 rel=1e-12)

    def test_row_gradients_reach_only_the_labels(self):
        probs = Tensor(np.array([[0.6, 0.4], [0.25, 0.75]]), requires_grad=True)
        with Tape() as tape:
            tape.backward(cross_entropy(probs, [1, 0]))
        np.testing.assert_allclose(probs.grad, [[0.0, -1 / 0.4], [-1 / 0.25, 0.0]],
                                   rtol=1e-15)

    def test_gradient_reaches_probabilities(self):
        x = Tensor([0.1, -0.4, 0.3], requires_grad=True)

        def f(t):
            probs = ad.reshape(ad.softmax_rows(ad.reshape(t, (1, 3))), (3,))
            return cross_entropy(probs, 2)

        assert ad.finite_diff_check(f, x) < 1e-6


# --------------------------------------------------------------------------
# End-to-end gradients (smoke version; the acceptance suite checks all groups)
# --------------------------------------------------------------------------

def test_end_to_end_gradient_spot_check():
    hp = tiny_hp(mode="All")
    _, vocab, encoded = encode_fixture(hp)
    params = init_params(len(vocab), hp, seed=0)
    bundle = random_bundle(len(vocab), hp.d, 2)
    article = encoded[0]

    def loss_with(t):
        probs = predict(article, params, bundle, hp)
        return cross_entropy(probs, article.label)

    for name, tensor in list(params.named())[:1] + [("fuse.w", params.fuse_w),
                                                    ("output.w", params.out_w)]:
        err = ad.finite_diff_check(loss_with, tensor)
        assert err < 1e-4, f"gradient mismatch for {name}: {err}"


def ragged_batch(hp, n_words, count, seed):
    """``count`` articles with holes in their sentence masks, words and titles of random length."""
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(count):
        active = rng.random(hp.l) < 0.8
        active[0] = True
        lengths = rng.integers(1, hp.n + 1, hp.l)
        real = (np.arange(hp.n) < lengths[:, None]) & active[:, None]
        title = np.arange(hp.n) < rng.integers(1, hp.n + 1)
        batch.append(td.EncodedArticle(rng.integers(1, n_words, (hp.l, hp.n)) * real,
                                       rng.integers(1, n_words, hp.n) * title, i % hp.classes))
    return batch


def test_tape_holds_little_after_a_ragged_all_batch_forward():
    """The arrays held after a 4-article mode-All forward pass are what backward reads.

    Records that kept every op's inputs and outputs would hold 7.2 MB here; these hold 2.3 MB.
    """
    hp = HyperParams(d=32, heads=4, n=24, l=8, classes=2, mode="All")
    params = init_params(300, hp, seed=1)
    bundle = random_bundle(300, hp.d, 2)
    batch = ragged_batch(hp, 300, 4, 3)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = cross_entropy(predict(batch[0], params, bundle, hp), batch[0].label)
            for article in batch[1:]:
                loss = ad.add(loss, cross_entropy(predict(article, params, bundle, hp),
                                                  article.label))
            held, _ = tracemalloc.get_traced_memory()
            tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in params.tensors())
    assert held < 3_500_000


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        hp = tiny_hp(alpha=0.3, beta=0.7, mode="WST")
        params = init_params(9, hp, seed=42)
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, params, hp, seed=42)
        loaded, hp2, seed = md.load_checkpoint(path)
        assert seed == 42
        assert hp2 == hp
        for (name_a, t_a), (name_b, t_b) in zip(params.named(), loaded.named()):
            assert name_a == name_b
            assert np.array_equal(t_a.data, t_b.data)

    NAMES = ["word_table",
             "word_attn.q", "word_attn.k", "word_attn.v", "word_attn.out",
             "sentence_attn.q", "sentence_attn.k", "sentence_attn.v", "sentence_attn.out",
             "title_attn.q", "title_attn.k", "title_attn.v", "title_attn.out",
             "word_ff.w1", "word_ff.b1", "word_ff.w2", "word_ff.b2",
             "sentence_ff.w1", "sentence_ff.b1", "sentence_ff.w2", "sentence_ff.b2",
             "fuse.w", "fuse.b", "output.w", "output.b"]

    def test_parameter_names_keys_and_draw_order_are_pinned(self, tmp_path):
        """The 25 names, in one order: ``named``, the checkpoint's arrays, the Adam state
        and ``init_params``' draws (q, k and v one block per head) all follow it."""
        hp = tiny_hp()
        p = init_params(9, hp, seed=5)
        assert [name for name, _ in p.named()] == self.NAMES
        assert [t for _, t in p.named()] == [
            p.word_table, *(t for a in (p.word_attn, p.sent_attn, p.title_attn)
                            for t in (a.wq, a.wk, a.wv, a.wo)),
            *(t for f in (p.word_ff, p.sent_ff) for t in (f.w1, f.b1, f.w2, f.b2)),
            p.fuse_w, p.fuse_b, p.out_w, p.out_b]
        rng, bound = np.random.default_rng(5), 1.0 / np.sqrt(hp.d)
        for name, t in p.named():
            blocks = hp.heads if name.endswith((".q", ".k", ".v")) else 1
            block = t.shape[:-1] + (t.shape[-1] // blocks,)
            want = np.concatenate([rng.uniform(-bound, bound, block) for _ in range(blocks)],
                                  axis=-1)
            assert np.array_equal(t.data, want), name
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, p, hp)
        with np.load(path) as data:
            assert data.files == ["manifest"] + [f"param:{name}" for name in self.NAMES]
        state = AdamState()
        adam_step(p.named(), [np.ones(t.shape) for t in p.tensors()], state, 0.1)
        assert list(state.m) == list(state.v) == self.NAMES

    def test_load_draws_no_parameters(self, tmp_path, monkeypatch):
        """Loading builds each parameter from its saved array; nothing is drawn and dropped."""
        hp = tiny_hp()
        params = init_params(9, hp, seed=5)
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, params, hp)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint called init_params")

        monkeypatch.setattr(md, "init_params", refuse)
        loaded, _, _ = md.load_checkpoint(path)
        for (name, t), (_, u) in zip(params.named(), loaded.named()):
            assert np.array_equal(t.data, u.data) and u.requires_grad, name

    def rewrite(self, tmp_path, edit):
        """A saved checkpoint whose arrays (manifest included) went through ``edit``."""
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, init_params(9, tiny_hp(), seed=0), tiny_hp())
        with np.load(path) as data:
            arrays = dict(data)
        edit(arrays)
        np.savez(path, **arrays)
        return path

    @pytest.mark.parametrize("version", [None, 1, 3])
    def test_other_format_rejected(self, tmp_path, version):
        """A manifest without ``"format": 2`` (every older stancenet wrote none) is
        refused, naming the file and asking for a retrained model."""
        def edit(arrays):
            manifest = json.loads(bytes(arrays["manifest"]).decode())
            del manifest["format"]
            if version is not None:
                manifest["format"] = version
            arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        path = self.rewrite(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"model\.npz: an older stancenet.*'format' "
                                             rf"{version}, not 2\); retrain"):
            md.load_checkpoint(path)

    def test_manifest_missing_a_key_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, init_params(9, tiny_hp(), seed=0), tiny_hp())
        with np.load(path) as data:
            keys = list(json.loads(bytes(data["manifest"]).decode()))
        for key in keys:
            def drop(arrays):
                manifest = json.loads(bytes(arrays["manifest"]).decode())
                del manifest[key]
                arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
            path = self.rewrite(tmp_path, drop)
            with pytest.raises(ValueError, match=rf"model\.npz.*'{key}'"):
                md.load_checkpoint(path)

    @staticmethod
    def with_key(key, value) -> bytes:
        """The tiny checkpoint's manifest text with ``key`` set to ``value``."""
        manifest = {"format": md.CHECKPOINT_FORMAT, **vars(tiny_hp()), "seed": 0, "n_words": 9}
        return json.dumps({**manifest, key: value}).encode()

    @pytest.mark.parametrize("text, key", [
        (b"\xff\xfe{}", None),               # not UTF-8
        (b'{"format": 2, "d": 8', None),      # not JSON
        (b"[1, 2]", None),                    # JSON, but not an object
        (with_key("heads", "2"), "heads"),    # a string where an int belongs
        (with_key("d", 8.0), "d"),            # a float where an int belongs
        (with_key("mode", 1), "mode"),
        (with_key("alpha", True), "alpha"),
        (with_key("n_words", None), "n_words"),
        (with_key("heads", 3), None),         # an int, but heads must divide d
    ], ids=["not-utf8", "not-json", "json-list", "heads-str", "d-float", "mode-int",
            "alpha-bool", "n_words-null", "heads-3"])
    def test_bad_manifest_raises_value_error_naming_file_and_key(self, tmp_path, text, key):
        def edit(arrays):
            arrays["manifest"] = np.frombuffer(text, dtype=np.uint8)
        path = self.rewrite(tmp_path, edit)
        with pytest.raises(ValueError) as err:
            md.load_checkpoint(path)
        assert str(path) in str(err.value)
        if key is not None:
            assert repr(key) in str(err.value)

    def test_missing_parameter_array_rejected(self, tmp_path):
        path = self.rewrite(tmp_path, lambda arrays: arrays.pop("param:sentence_attn.k"))
        with pytest.raises(ValueError, match=r"model\.npz.*'sentence_attn\.k'"):
            md.load_checkpoint(path)

    def test_archive_without_manifest_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(ValueError, match=r"other\.npz.*manifest"):
            md.load_checkpoint(path)

    def test_misshapen_parameter_array_rejected(self, tmp_path):
        def edit(arrays):
            arrays["param:fuse.w"] = arrays["param:fuse.w"][:, :-1]
        path = self.rewrite(tmp_path, edit)
        with pytest.raises(ValueError, match=r"model\.npz.*'fuse\.w'.*\(16, 7\).*\(16, 8\)"):
            md.load_checkpoint(path)
