"""Tests for knowledge injection, the attention levels, prediction, and loss.

Attention layers are checked against a big-step numpy reference that
loops explicitly over heads and positions; boundary behaviour is checked
with identity/zero-initialised parameters where the output is derivable
by hand.
"""

import json
import math

import numpy as np
import pytest

from stancenet import autodiff as ad
from stancenet import model as md
from stancenet import textdata as td
from stancenet.autodiff import DegenerateInput, Tape, Tensor
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


def tiny_hp(**overrides) -> HyperParams:
    base = dict(d=8, heads=2, n=3, l=2, classes=2, alpha=0.5, beta=0.5, mode="All")
    base.update(overrides)
    return HyperParams(**base)


def make_identity_attention(params_attn, d):
    """Single-head identity projections; only valid when heads == 1."""
    params_attn.wq = [Tensor(np.eye(d), requires_grad=True)]
    params_attn.wk = [Tensor(np.eye(d), requires_grad=True)]
    params_attn.wv = [Tensor(np.eye(d), requires_grad=True)]
    params_attn.wo = Tensor(np.eye(d), requires_grad=True)


def zero_ff(ff):
    for t in (ff.w1, ff.b1, ff.w2, ff.b2):
        t.data[:] = 0.0


def random_bundle(n_words, width, seed):
    rng = np.random.default_rng(seed)
    tables = []
    for tag in ("common", "liberal", "conservative"):
        coverage = (rng.random(n_words) < 0.7).astype(np.float64)
        vectors = rng.uniform(-1, 1, (n_words, width)) * coverage[:, None]
        tables.append(KnowledgeEmbeddingTable(tag, vectors, coverage))
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
            assert np.allclose(mixed, bundle.com.vectors[covered], atol=1e-12)

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

    def test_inject_orientation_flips_weighting(self):
        hp = tiny_hp()
        params = init_params(10, hp, seed=8)
        params.fuse_w.data[:] = 0.0
        params.fuse_w.data[: hp.d, :] = np.eye(hp.d)
        params.fuse_b.data[:] = 0.0
        bundle = random_bundle(10, hp.d, 9)
        wid = int(np.flatnonzero(bundle.com.coverage)[0])
        # under "inject", alpha=1 pulls in the full common row
        out = inject_knowledge([wid], params, bundle, 1.0, 0.0, orientation="inject")
        e_lib = out.data[0] - params.word_table.data[wid]
        assert np.allclose(e_lib, bundle.com.vectors[wid], atol=1e-12)

    def test_factor_out_of_range_rejected(self):
        hp = tiny_hp()
        params = init_params(5, hp, seed=0)
        with pytest.raises(ValueError):
            inject_knowledge([0], params, zero_bundle(5, hp.d), 1.2, 0.5)


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
        out = multi_head_attention(row, row, row, np.array([1.0]), params.word_attn)
        assert np.allclose(out.data, row.data, atol=1e-12)

    def test_duplicate_keys_match_single_key(self):
        d = 4
        hp = HyperParams(d=d, heads=1, n=2, l=2, classes=2)
        params = init_params(5, hp, seed=1)
        make_identity_attention(params.word_attn, d)
        q = Tensor([[0.4, 0.1, -0.2, 0.9]])
        single = Tensor([[1.0, 2.0, 3.0, 4.0]])
        double = Tensor([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        out_one = multi_head_attention(q, single, single, np.array([1.0]), params.word_attn)
        out_two = multi_head_attention(q, double, double, np.array([1.0, 1.0]), params.word_attn)
        assert np.allclose(out_one.data, out_two.data, atol=1e-12)

    def test_random_case_matches_loop_reference(self):
        rng = np.random.default_rng(12)
        d, heads = 8, 2
        hp = HyperParams(d=d, heads=heads, n=3, l=2, classes=2)
        params = init_params(5, hp, seed=3)
        x = rng.uniform(-1, 1, (3, d))
        mask = np.array([1.0, 1.0, 0.0])
        out = multi_head_attention(Tensor(x), Tensor(x), Tensor(x), mask, params.word_attn)
        want = ref_attention(
            x, x, x, mask,
            [w.data for w in params.word_attn.wq],
            [w.data for w in params.word_attn.wk],
            [w.data for w in params.word_attn.wv],
            params.word_attn.wo.data,
        )
        assert np.max(np.abs(out.data - want)) < 1e-10

    def test_all_masked_rejected(self):
        hp = HyperParams(d=4, heads=1, n=2, l=2, classes=2)
        params = init_params(5, hp, seed=0)
        x = Tensor(np.ones((2, 4)))
        with pytest.raises(DegenerateInput):
            multi_head_attention(x, x, x, np.array([0.0, 0.0]), params.word_attn)


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

    def test_pad_rows_exactly_zero(self):
        hp = tiny_hp()
        params = init_params(6, hp, seed=5)
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (3, hp.d)))
        out = word_level(x, np.array([1.0, 1.0, 0.0]), params)
        assert np.all(out.data[2] == 0.0)

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
        att = s + ref_attention(
            s, s, s, mask,
            [w.data for w in params.sent_attn.wq],
            [w.data for w in params.sent_attn.wk],
            [w.data for w in params.sent_attn.wv],
            params.sent_attn.wo.data,
        )
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

    def test_masked_rows_stay_zero(self):
        hp = tiny_hp()
        params = init_params(6, hp, seed=13)
        rng = np.random.default_rng(5)
        s_arr = rng.uniform(-1, 1, (2, hp.d))
        s_arr[1] = 0.0  # sentence_level zeroes masked rows upstream
        title = Tensor(rng.uniform(-1, 1, (1, hp.d)))
        out = title_level(title, Tensor(s_arr), np.array([1.0, 0.0]), params)
        assert np.all(out.data[1] == 0.0)


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


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        hp = tiny_hp(alpha=0.3, beta=0.7, mode="WST")
        params = init_params(9, hp, seed=42)
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, params, hp, seed=42)
        loaded, hp2, seed = md.load_checkpoint(path, expected_n_words=9)
        assert seed == 42
        assert hp2 == hp
        for (name_a, t_a), (name_b, t_b) in zip(params.named(), loaded.named()):
            assert name_a == name_b
            assert np.array_equal(t_a.data, t_b.data)

    def test_manifest_with_retired_l2_coeff_loads(self, tmp_path):
        """Checkpoints written while the loss-side L2 knob existed still load."""
        hp = tiny_hp()
        params = init_params(9, hp, seed=5)
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, params, hp, seed=5)
        with np.load(path) as data:
            arrays = dict(data)
        manifest = json.loads(bytes(arrays["manifest"]).decode())
        manifest["l2_coeff"] = 0.25
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        loaded, hp2, seed = md.load_checkpoint(path, expected_n_words=9)
        assert (hp2, seed) == (hp, 5)
        for (_, t_a), (_, t_b) in zip(params.named(), loaded.named()):
            assert np.array_equal(t_a.data, t_b.data)

    def rewrite(self, tmp_path, edit):
        """A saved checkpoint whose arrays (manifest included) went through ``edit``."""
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, init_params(9, tiny_hp(), seed=0), tiny_hp())
        with np.load(path) as data:
            arrays = dict(data)
        edit(arrays)
        np.savez(path, **arrays)
        return path

    @staticmethod
    def set_positional(value):
        def edit(arrays):
            manifest = json.loads(bytes(arrays["manifest"]).decode())
            manifest["positional"] = value
            arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        return edit

    def test_manifest_with_positional_false_loads(self, tmp_path):
        """Checkpoints written while the (always off) positional knob existed still load."""
        path = self.rewrite(tmp_path, self.set_positional(False))
        _, hp, _ = md.load_checkpoint(path, expected_n_words=9)
        assert hp == tiny_hp()

    def test_manifest_with_positional_true_rejected(self, tmp_path):
        path = self.rewrite(tmp_path, self.set_positional(True))
        with pytest.raises(ValueError, match="positional"):
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
                md.load_checkpoint(path, expected_n_words=9)

    def test_missing_parameter_array_rejected(self, tmp_path):
        path = self.rewrite(tmp_path, lambda arrays: arrays.pop("param:sentence_attn.k1"))
        with pytest.raises(ValueError, match=r"model\.npz.*'sentence_attn\.k1'"):
            md.load_checkpoint(path)

    def test_misshapen_parameter_array_rejected(self, tmp_path):
        def edit(arrays):
            arrays["param:fuse.w"] = arrays["param:fuse.w"][:, :-1]
        path = self.rewrite(tmp_path, edit)
        with pytest.raises(ValueError, match=r"model\.npz.*'fuse\.w'.*\(16, 7\).*\(16, 8\)"):
            md.load_checkpoint(path)

    def test_vocabulary_mismatch_fails_loudly(self, tmp_path):
        hp = tiny_hp()
        params = init_params(9, hp, seed=0)
        path = tmp_path / "model.npz"
        md.save_checkpoint(path, params, hp)
        with pytest.raises(ValueError, match="vocabulary"):
            md.load_checkpoint(path, expected_n_words=11)
