"""Tests for knowledge graph embedding: loading, scoring, training, ranking.

The scoring oracles below re-evaluate the published formulas step by step
with plain python/numpy, independently of the scorer under test. The
ranking oracle enumerates and sorts every corruption by brute force.
"""

import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stancenet import autodiff as ad
from stancenet import kge
from stancenet.kge import (
    KgeConfig,
    KgeModel,
    TripleStore,
    evaluate_completion,
    export_aligned_table,
    load_links,
    load_triples,
    score_triple,
    train_kge,
)
from stancenet.textdata import RawArticle, Vocabulary, build_vocab, not_utf8

import tape_ops as tops


def write_store(tmp_path, named, stance="liberal", name="kg.tsv"):
    path = tmp_path / name
    path.write_text("\n".join("\t".join(t) for t in named) + "\n")
    return load_triples(path, stance)


def random_model(rng, method, n_ent, n_rel, dim, gamma=4.0):
    entity = rng.uniform(-1, 1, (n_ent, dim))
    if method == "RotatE":
        relation = rng.uniform(-np.pi, np.pi, (n_rel, dim // 2))
    else:
        relation = rng.uniform(-1, 1, (n_rel, dim))
    return KgeModel(method, dim, gamma, entity, relation)


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------

class TestLoadTriples:
    def test_three_distinct_lines(self, tmp_path):
        store = write_store(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("a", "s", "c")])
        assert len(store.triples) == 3
        assert store.duplicates_dropped == 0

    def test_duplicate_dropped_and_counted(self, tmp_path):
        store = write_store(tmp_path, [("a", "r", "b"), ("a", "r", "b")])
        assert len(store.triples) == 1
        assert store.duplicates_dropped == 1

    def test_hand_counted_fixture(self, tmp_path):
        named = [
            ("alice", "knows", "bob"),
            ("bob", "knows", "carol"),
            ("carol", "knows", "dave"),
            ("dave", "likes", "eve"),
            ("eve", "likes", "alice"),
            ("alice", "likes", "carol"),
        ]
        store = write_store(tmp_path, named)
        assert store.n_entities == 5
        assert store.n_relations == 2
        assert len(store.triples) == 6

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tr\tb\nonly two\tfields\n")
        with pytest.raises(ValueError, match=":2:"):
            load_triples(path, "common")

    @pytest.mark.parametrize("read,text,message", [
        (lambda path: load_triples(path, "common"), "# c\n\na\tr\tb\nonly two\tfields\n",
         "{}:4: expected 3 tab-separated fields, got 2"),
        (load_links, "# c\n\nw\te\nw\te\tx\n", "{}:4: expected word<TAB>entity, got 3 fields"),
        (load_links, "w\te\n w0\te0\n", "{}:2: word ' w0' cannot be a vocabulary word: "
                                         "it is empty or holds whitespace"),
        (load_links, "\te1\n", "{}:1: word '' cannot be a vocabulary word: "
                               "it is empty or holds whitespace"),
    ], ids=["triples", "links", "links word with a space", "links empty word"])
    def test_malformed_line_message(self, tmp_path, read, text, message):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value) == message.format(path)

    def test_links_skip_comments_and_blanks(self, tmp_path):
        path = tmp_path / "links.tsv"
        path.write_text("# word\tentity\nobama\tBarack_Obama\n\n  # x\nbiden\tJoe\n")
        assert load_links(path) == {"obama": "Barack_Obama", "biden": "Joe"}

    @pytest.mark.parametrize("text,line,first", [
        ("w1\tE1\nw1\tE2\n", 2, 1),
        ("# c\nw1\tE1\n\nw2\tE2\nw1\tE1\n", 5, 2),  # the same link again, too
    ])
    def test_a_word_linked_again_names_both_lines(self, tmp_path, text, line, first):
        path = tmp_path / "links.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_links(path)
        assert str(err.value) == f"{path}:{line}: word 'w1' is linked again (first at line {first})"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("# a comment\na\tr\tb\n\n")
        store = load_triples(path, "common")
        assert len(store.triples) == 1

    def test_first_appearance_vocab_order(self, tmp_path):
        store = write_store(tmp_path, [("x", "r", "y"), ("y", "s", "z")])
        assert store.entity_names == ["x", "y", "z"]
        assert store.relation_names == ["r", "s"]

    names = st.text("abcxyz", min_size=1, max_size=2)
    line = st.one_of(
        st.tuples(names, st.sampled_from(["r", "s", "t"]), names),  # small pools: duplicates
        st.sampled_from(["", "   ", "# a comment", "  #\tx\ty\tz"]),
    )

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(line, max_size=30),
           bad=st.one_of(st.none(), st.tuples(st.integers(0, 30),
                                              st.sampled_from(["a", "a\tr", "a\tr\tb\tc"]))))
    def test_random_files_against_a_line_by_line_oracle(self, lines, bad):
        text = ["\t".join(ln) if isinstance(ln, tuple) else ln for ln in lines]
        if bad is not None:
            at, malformed = min(bad[0], len(text)), bad[1]
            text.insert(at, malformed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "kg.tsv"
            path.write_text("".join(ln + "\n" for ln in text))
            if bad is not None:
                with pytest.raises(ValueError, match=rf"kg\.tsv:{at + 1}: expected 3"):
                    load_triples(path, "common")
                return
            store = load_triples(path, "common")
        facts = [ln for ln in lines if isinstance(ln, tuple)]
        entities, relations = [], []
        for h, r, t in facts:
            for name, seen in ((h, entities), (r, relations), (t, entities)):
                if name not in seen:
                    seen.append(name)
        assert store.entity_names == entities
        assert store.relation_names == relations
        assert store.entities == {name: i for i, name in enumerate(entities)}
        distinct = list(dict.fromkeys(facts))
        assert store.triples == [(entities.index(h), relations.index(r), entities.index(t))
                                 for h, r, t in distinct]
        assert store.duplicates_dropped == len(facts) - len(distinct)


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------

def oracle_rotate(entity, relation, gamma, h, r, t):
    """Step-by-step complex rotation score, written from the formula."""
    half = entity.shape[1] // 2
    total = 0.0
    for j in range(half):
        h_c = complex(entity[h, j], entity[h, half + j])
        t_c = complex(entity[t, j], entity[t, half + j])
        rot = complex(math.cos(relation[r, j]), math.sin(relation[r, j]))
        total += abs(h_c * rot - t_c)
    return gamma - total


def oracle_mode(entity, relation, gamma, h, r, t):
    total = 0.0
    for j in range(entity.shape[1]):
        total += abs(entity[h, j] * relation[r, j] - entity[t, j])
    return gamma - total


def oracle_hake(entity, relation, gamma, h, r, t):
    half = entity.shape[1] // 2
    sq = 0.0
    for j in range(half):
        d = entity[h, j] * relation[r, j] - entity[t, j]
        sq += d * d
    phase = 0.0
    for j in range(half):
        d = entity[h, half + j] + relation[r, half + j] - entity[t, half + j]
        phase += abs(math.sin(d / 2.0))
    return gamma - math.sqrt(sq) - phase


def _minus(a, b):
    """a - b on the tape, as a + (-1 * b): the same value and gradients, bit for bit."""
    return ad.add(a, ad.scale(b, -1.0))


def _scores(m, h, r, t):
    """The scores of the rows of (h, r, t) under m's method as a [B] tensor, from
    autodiff ops and the test-only ops of ``tape_ops``: the tape oracle of the
    library's NumPy forwards and hand-written backward functions.

    h and t are [B, dim] entity rows, or one [1, dim] row shared by every row of
    the other; r is one [1, w] relation row. ``reference_train_kge`` trains through
    it on the tape, and the side-scorer test compares ranking's scores with it.
    """
    dim, half = m.dim, m.dim // 2

    def halves(x):
        return tops.slice_cols(x, 0, half), tops.slice_cols(x, half, dim)

    if m.method == "RotatE":
        (h_re, h_im), (t_re, t_im) = halves(h), halves(t)
        cos_r, sin_r = tops.cos(r), tops.sin(r)
        d_re = _minus(_minus(ad.mul(h_re, cos_r), ad.mul(h_im, sin_r)), t_re)
        d_im = _minus(ad.add(ad.mul(h_re, sin_r), ad.mul(h_im, cos_r)), t_im)
        sq = ad.add(ad.mul(d_re, d_re), ad.mul(d_im, d_im))
        dist = tops.sum_rows(tops.sqrt(ad.add(sq, ad.constant(np.full(half, kge._GRAD_EPS)))))
    elif m.method == "ModE":
        dist = tops.sum_rows(tops.absolute(_minus(ad.mul(h, r), t)))
    else:  # HAKE
        (h_m, h_p), (t_m, t_p), (r_m, r_p) = halves(h), halves(t), halves(r)
        d_m = _minus(ad.mul(h_m, r_m), t_m)
        sq = tops.sum_rows(ad.mul(d_m, d_m))
        mod_term = tops.sqrt(ad.add(sq, ad.constant(np.full(sq.shape, kge._GRAD_EPS))))
        d_p = ad.scale(_minus(ad.add(h_p, r_p), t_p), 0.5)
        phase_term = tops.sum_rows(tops.absolute(tops.sin(d_p)))
        dist = ad.add(mod_term, phase_term)
    return _minus(ad.constant(np.full(dist.shape, m.gamma)), dist)


def _row(table, i):
    return ad.constant(table[i : i + 1])


class TestScoreTriple:
    def test_rotate_identity_rotation(self):
        entity = np.array([[0.3, -0.2, 0.1, 0.5]] * 2)
        relation = np.zeros((1, 2))
        m = KgeModel("RotatE", 4, gamma=6.0, entity=entity, relation=relation)
        assert score_triple(m, 0, 0, 1) == pytest.approx(6.0, abs=1e-12)

    def test_mode_identity_modulus(self):
        entity = np.array([[0.3, -0.2, 0.1]] * 2)
        relation = np.ones((1, 3))
        m = KgeModel("ModE", 3, gamma=6.0, entity=entity, relation=relation)
        assert score_triple(m, 0, 0, 1) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["RotatE", "ModE", "HAKE"])
    def test_random_scores_match_formula_oracle(self, method):
        rng = np.random.default_rng(42)
        m = random_model(rng, method, n_ent=5, n_rel=3, dim=6)
        for h, r, t in [(0, 0, 1), (2, 1, 3), (4, 2, 0)]:
            if method == "RotatE":
                want = oracle_rotate(m.entity, m.relation, m.gamma, h, r, t)
            elif method == "ModE":
                want = oracle_mode(m.entity, m.relation, m.gamma, h, r, t)
            else:
                want = oracle_hake(m.entity, m.relation, m.gamma, h, r, t)
            assert score_triple(m, h, r, t) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("method", ["RotatE", "HAKE"])
    def test_phase_shift_by_two_pi_preserves_scores(self, method):
        rng = np.random.default_rng(8)
        m = random_model(rng, method, n_ent=4, n_rel=2, dim=6)
        before = [score_triple(m, h, r, t) for h in range(4) for r in range(2) for t in range(4)]
        shifted = m.relation.copy()
        if method == "RotatE":
            shifted[0, 1] += 2.0 * np.pi
        else:
            shifted[0, m.dim // 2 + 1] += 2.0 * np.pi  # a phase-half coordinate
        m2 = KgeModel(method, m.dim, m.gamma, m.entity, shifted)
        after = [score_triple(m2, h, r, t) for h in range(4) for r in range(2) for t in range(4)]
        assert np.max(np.abs(np.array(before) - np.array(after))) < 1e-10

    def test_vectorized_candidates_match_scalar(self):
        rng = np.random.default_rng(5)
        for method in ["RotatE", "ModE", "HAKE"]:
            m = random_model(rng, method, n_ent=6, n_rel=2, dim=4)
            every = ad.constant(m.entity)
            rel, fixed = _row(m.relation, 1), _row(m.entity, 3)
            for side in ("head", "tail"):
                h, t = (every, fixed) if side == "head" else (fixed, every)
                scores = _scores(m, h, rel, t).data
                for c in range(6):
                    direct = score_triple(m, c, 1, 3) if side == "head" else score_triple(m, 3, 1, c)
                    assert scores[c] == direct

    @pytest.mark.parametrize("method", ["RotatE", "ModE", "HAKE"])
    def test_batch_equals_single_rows(self, method):
        """A [B] batch from the scorer equals B one-row calls bit for bit."""
        rng = np.random.default_rng(13)
        m = random_model(rng, method, n_ent=7, n_rel=2, dim=20)
        heads, tails = [0, 3, 6, 2, 5], [1, 1, 4, 6, 0]
        rel = _row(m.relation, 1)
        batch = _scores(m, ad.constant(m.entity[heads]), rel,
                        ad.constant(m.entity[tails])).data
        single = [_scores(m, _row(m.entity, h), rel, _row(m.entity, t)).data[0]
                  for h, t in zip(heads, tails)]
        assert np.array_equal(batch, single)
        for shared in range(m.n_entities):
            row = _row(m.entity, shared)
            as_head = _scores(m, row, rel, ad.constant(m.entity)).data
            as_tail = _scores(m, ad.constant(m.entity), rel, row).data
            for c in range(m.n_entities):
                assert as_head[c] == score_triple(m, shared, 1, c)
                assert as_tail[c] == score_triple(m, c, 1, shared)


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------

class TestTrainKge:
    def test_single_triple_beats_all_corruptions(self, tmp_path):
        store = write_store(tmp_path, [("a", "r", "b")])
        # one extra entity so corruption is meaningful
        store.entities["c"] = 2
        store.entity_names.append("c")
        cfg = KgeConfig(method="ModE", dim=8, epochs=50, lr=0.1, negatives=4, seed=3)
        model = train_kge(store, cfg)
        true_score = score_triple(model, 0, 0, 1)
        for h in range(3):
            for t in range(3):
                if (h, t) != (0, 1):
                    assert true_score > score_triple(model, h, 0, t)

    def test_same_seed_identical_parameters(self, tmp_path):
        store = write_store(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")])
        cfg = KgeConfig(method="RotatE", dim=8, epochs=10, seed=11)
        m1, m2 = train_kge(store, cfg), train_kge(store, cfg)
        assert np.array_equal(m1.entity, m2.entity)
        assert np.array_equal(m1.relation, m2.relation)

    def test_chain_kg_improves_over_random_init(self, tmp_path):
        named = [(f"e{i}", "next", f"e{i + 1}") for i in range(9)]
        store = write_store(tmp_path, named)
        cfg = KgeConfig(method="RotatE", dim=16, epochs=80, lr=0.05, seed=0)
        trained = train_kge(store, cfg)
        untrained = kge.init_kge_model(store.n_entities, store.n_relations, cfg)
        test = store.triples[:4]
        mrr_trained = evaluate_completion(trained, store, test)["MRR"]
        mrr_random = evaluate_completion(untrained, store, test)["MRR"]
        assert mrr_trained > mrr_random

    def test_loss_decreases_over_training(self, tmp_path):
        store = write_store(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("a", "s", "c")])
        for method in ["RotatE", "ModE", "HAKE"]:
            cfg = KgeConfig(method=method, dim=8, epochs=30, lr=0.05, seed=1)
            model = train_kge(store, cfg)
            assert model.epoch_losses[-1] <= model.epoch_losses[0]

    def test_odd_dim_rejected_for_paired_methods(self):
        with pytest.raises(ValueError, match="even"):
            KgeConfig(method="RotatE", dim=7)
        with pytest.raises(ValueError, match="even"):
            KgeConfig(method="HAKE", dim=9)

    @pytest.mark.parametrize("key, values", [("dim", dict(method="ModE", dim=0)),
                                             ("dim", dict(method="RotatE", dim=-2)),
                                             ("negatives", dict(negatives=-1)),
                                             ("epochs", dict(epochs=-1))])
    def test_sizes_range_checked(self, key, values):
        with pytest.raises(ValueError, match=f"^{key} must be >= "):
            KgeConfig(**values)

    def test_phases_stay_wrapped(self, tmp_path):
        store = write_store(tmp_path, [("a", "r", "b"), ("b", "r", "a")])
        cfg = KgeConfig(method="RotatE", dim=8, epochs=20, lr=0.5, seed=2)
        model = train_kge(store, cfg)
        assert np.all(model.relation >= -np.pi)
        assert np.all(model.relation < np.pi)

    def test_hake_phases_stay_wrapped(self, tmp_path):
        store = write_store(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")])
        cfg = KgeConfig(method="HAKE", dim=8, epochs=20, lr=0.5, seed=2)
        model = train_kge(store, cfg)
        for phases in (model.entity[:, 4:], model.relation[:, 4:]):
            assert np.all(phases >= -np.pi)
            assert np.all(phases <= np.pi)

    def test_empty_store_rejected(self):
        store = TripleStore({}, [], {}, [], [], "common")
        with pytest.raises(ValueError):
            train_kge(store, KgeConfig())


def scalar_negatives(rng, h, t, n_ent, k):
    """The heads and tails of a positive and its k negatives, from 2 * k interleaved
    scalar draws: whether to corrupt the head, then the candidate entity."""
    heads, tails = [h], [t]
    for _ in range(k):
        corrupt_head = bool(rng.integers(0, 2))
        cand = int(rng.integers(0, n_ent))
        if cand == (h if corrupt_head else t):
            cand = (cand + 1) % n_ent
        heads.append(cand if corrupt_head else h)
        tails.append(t if corrupt_head else cand)
    return heads, tails


def reference_train_kge(store, config):
    """The dense SGD loop train_kge replaced: every step updates, checks and wraps every row."""
    model = kge.init_kge_model(store.n_entities, store.n_relations, config)
    ent = ad.Tensor(model.entity, requires_grad=True)
    rel = ad.Tensor(model.relation, requires_grad=True)
    rng = np.random.default_rng(config.seed + 1)
    n_ent = store.n_entities
    half = config.dim // 2
    n_neg = config.negatives if n_ent >= 2 else 0
    signs = ad.constant(np.r_[1.0, -np.ones(n_neg)])
    for _ in range(config.epochs):
        losses = []
        for h, r, t in store.triples:
            heads, tails = scalar_negatives(rng, h, t, n_ent, n_neg)
            with ad.Tape() as tape:
                scores = _scores(model, ad.gather_rows(ent, heads),
                                 ad.gather_rows(rel, [r]), ad.gather_rows(ent, tails))
                weights = np.ones(1 + n_neg)
                if n_neg:
                    raw = scores.data[1:]
                    w = np.exp(config.adv_temperature * (raw - raw.max()))
                    weights[1:] = w / w.sum()
                fit = tops.logsigmoid(ad.mul(scores, signs))
                loss = ad.scale(ad.sum_all(ad.mul(fit, ad.constant(weights))), -1.0)
                tape.backward(loss)
            losses.append(float(loss.data))
            for p in (ent, rel):
                if p.grad is not None:
                    assert np.all(np.isfinite(p.dense_grad()))
                    p.data -= config.lr * p.dense_grad()
                    p.zero_grad()
            if config.method == "RotatE":
                rel.data[:] = kge._wrap_phase(rel.data)
            elif config.method == "HAKE":
                ent.data[:, half:] = kge._wrap_phase(ent.data[:, half:])
                rel.data[:, half:] = kge._wrap_phase(rel.data[:, half:])
        model.epoch_losses.append(float(np.mean(losses)))
    return model


class TestRowLocalStep:
    """train_kge touches only the entity rows a step scores, with the dense loop's results."""

    @staticmethod
    def skewed_store(tmp_path, n_ent=40, n_triples=90, seed=4):
        rng = np.random.default_rng(seed)
        heads = np.minimum(rng.zipf(1.6, n_triples) - 1, n_ent - 1)
        tails = rng.integers(0, n_ent, n_triples)
        rels = rng.integers(0, 3, n_triples)
        named = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in zip(heads, rels, tails)]
        return write_store(tmp_path, named)

    @staticmethod
    def assert_bitwise_equal(store, cfg):
        got, want = train_kge(store, cfg), reference_train_kge(store, cfg)
        assert got.entity.tobytes() == want.entity.tobytes()
        assert got.relation.tobytes() == want.relation.tobytes()
        assert got.epoch_losses == want.epoch_losses

    @pytest.mark.parametrize("method", ["RotatE", "ModE", "HAKE"])
    @pytest.mark.parametrize("lr", [0.05, 0.8])
    def test_matches_dense_loop_bitwise(self, tmp_path, method, lr):
        store = self.skewed_store(tmp_path)
        assert store.n_entities > 2 + 2 * 6  # most rows are untouched by any one step
        self.assert_bitwise_equal(store, KgeConfig(method=method, dim=8, negatives=6,
                                                   lr=lr, epochs=3, seed=5))

    @pytest.mark.parametrize("method", ["RotatE", "HAKE"])
    def test_a_phase_wrapped_to_pi_stays_pi_until_its_row_is_updated(self, tmp_path,
                                                                     monkeypatch, method):
        """Relation phases of exactly pi, in range and what a wrap can return, are not
        rewrapped before the first step. A pi stays pi until its row's next update,
        where the dense loop, which rewraps the whole table after every step, makes it
        -pi after the first step: so every row is first read with phases of pi. Every
        phase stays in [-pi, pi], and the parameters and losses are the dense loop's up
        to rounding, phases compared modulo 2 pi."""
        init = kge.init_kge_model

        def pi_init(n_entities, n_relations, config):
            model = init(n_entities, n_relations, config)
            model.relation[:, -2:] = np.pi
            return model

        monkeypatch.setattr(kge, "init_kge_model", pi_init)
        step, reads = kge._sgd_step, []

        def recorded(forward, h, r, *args):
            reads.append(r[:, -2:].copy())  # the last two phases of each step's relation row
            return step(forward, h, r, *args)

        monkeypatch.setattr(kge, "_sgd_step", recorded)
        store = self.skewed_store(tmp_path)
        cfg = KgeConfig(method=method, dim=8, negatives=6, lr=0.05, epochs=3, seed=5)
        got = train_kge(store, cfg)
        monkeypatch.setattr(kge, "_sgd_step", step)
        want = reference_train_kge(store, cfg)

        rels = [r for _, r, _ in store.triples] * cfg.epochs
        reads = np.concatenate(reads)
        first = {r: reads[rels.index(r)] for r in set(rels)}
        assert len(first) > 1
        for r, phases in first.items():
            assert np.all(phases == np.pi)

        half = cfg.dim // 2
        rel_phase = slice(None) if method == "RotatE" else slice(half, None)
        ent_phase = slice(0) if method == "RotatE" else slice(half, None)
        for a, b, phase in ((got.relation, want.relation, rel_phase),
                            (got.entity, want.entity, ent_phase)):
            assert np.all(np.abs(a[:, phase]) <= np.pi)
            diff = a - b
            diff[:, phase] = kge._wrap_phase(diff[:, phase])
            assert np.abs(diff).max() <= 1e-12
        np.testing.assert_allclose(got.epoch_losses, want.epoch_losses, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method", ["RotatE", "ModE", "HAKE"])
    @pytest.mark.parametrize("named", [
        [("a", "r", "a"), ("a", "s", "a")],  # one entity: no negatives
        [("a", "r", "b"), ("b", "r", "a"), ("a", "s", "a")],  # two entities
    ])
    def test_tiny_stores_match_dense_loop_bitwise(self, tmp_path, method, named):
        store = write_store(tmp_path, named)
        self.assert_bitwise_equal(store, KgeConfig(method=method, dim=4, negatives=3,
                                                   lr=0.5, epochs=3, seed=1))


@pytest.mark.parametrize("method", ["RotatE", "ModE", "HAKE"])
def test_short_draw_blocks_match_dense_loop_bitwise(tmp_path, monkeypatch, method):
    """Many blocks per epoch, the last one short, train the dense loop's bits."""
    monkeypatch.setattr(kge, "_DRAW_BLOCK", 5)
    store = TestRowLocalStep.skewed_store(tmp_path)
    assert len(store.triples) % 5 != 0
    TestRowLocalStep.assert_bitwise_equal(store, KgeConfig(method=method, dim=8, negatives=6,
                                                           lr=0.05, epochs=3, seed=5))


def brute_force_levels(ids, rels):
    """Each step's wave written from its rule, step by step: one past the latest wave
    that holds an earlier step sharing an entity row or the relation, else the first."""
    levels = []
    for j in range(len(rels)):
        levels.append(1 + max((levels[i] for i in range(j)
                                if set(ids[i]) & set(ids[j]) or rels[i] == rels[j]),
                               default=-1))
    return levels


class TestWaves:
    """``train_kge`` runs each wave of steps, which cannot see each other's updates, as
    one batched step with the per-step loop's bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n_ent=st.sampled_from([2, 3, 6, 1000]),
           n_rel=st.sampled_from([1, 2, 5, 200]), width=st.integers(1, 6),
           n_steps=st.integers(1, 30))
    @example(data=None, n_ent=100_000, n_rel=1000, width=18, n_steps=40)
    def test_each_step_runs_in_the_earliest_wave_its_dependencies_allow(
            self, data, n_ent, n_rel, width, n_steps):
        """The waves partition the steps, each in ascending order; no two steps of a wave
        share an entity row or a relation; every earlier step that shares one with a
        step lies in an earlier wave; and every step of a wave but the first conflicts
        with a step of the wave before. They match the levels written step by step."""
        if data is None:  # many entities and relations: the waves are long
            rng = np.random.default_rng(7)
            ids = rng.integers(0, n_ent, (n_steps, width))
            rels = rng.integers(0, n_rel, n_steps)
        else:
            ids = np.array(data.draw(st.lists(
                st.lists(st.integers(0, n_ent - 1), min_size=width, max_size=width),
                min_size=n_steps, max_size=n_steps)))
            rels = np.array(data.draw(st.lists(st.integers(0, n_rel - 1),
                                               min_size=n_steps, max_size=n_steps)))
        waves = kge._waves(ids, rels)
        assert all(w.size and np.all(np.diff(w) > 0) for w in waves)
        assert sorted(np.concatenate(waves).tolist()) == list(range(n_steps))
        if data is None:
            assert len(waves) <= 3
        level = np.empty(n_steps, dtype=int)
        for k, wave in enumerate(waves):
            level[wave] = k
        assert level.tolist() == brute_force_levels(ids.tolist(), rels.tolist())

        rows = [set(row) for row in ids.tolist()]

        def conflict(i, j):
            return bool(rows[i] & rows[j]) or rels[i] == rels[j]
        for k, wave in enumerate(waves):
            wave = wave.tolist()
            assert sum(len(rows[j]) for j in wave) == len(set().union(*(rows[j] for j in wave)))
            assert len(set(rels[wave].tolist())) == len(wave)
            for j in wave:
                assert all(level[i] < k for i in range(j) if conflict(i, j))
                if k:
                    assert any(conflict(i, j) for i in waves[k - 1].tolist())

    @staticmethod
    def sparse_store(n_ent=2000, n_rel=300, n_triples=70, seed=9):
        """A graph whose steps rarely share a row or a relation: long waves."""
        rng = np.random.default_rng(seed)
        names = [f"e{i}" for i in range(n_ent)]
        triples = zip(*(rng.integers(0, n, n_triples).tolist() for n in (n_ent, n_rel, n_ent)))
        return TripleStore({name: i for i, name in enumerate(names)}, names,
                           {f"r{i}": i for i in range(n_rel)}, [f"r{i}" for i in range(n_rel)],
                           list(triples), "common")

    @pytest.mark.parametrize("method", ["RotatE", "ModE", "HAKE"])
    @pytest.mark.parametrize("block", [None, 1, 3, 5])
    def test_long_waves_match_dense_loop_bitwise(self, monkeypatch, method, block):
        if block is not None:
            monkeypatch.setattr(kge, "_DRAW_BLOCK", block)
        cut, lengths = kge._waves, []

        def recorded(ids, rels):
            waves = cut(ids, rels)
            lengths.extend(len(wave) for wave in waves)
            return waves

        monkeypatch.setattr(kge, "_waves", recorded)
        store = self.sparse_store()
        TestRowLocalStep.assert_bitwise_equal(store, KgeConfig(method=method, dim=8, negatives=6,
                                                               lr=0.05, epochs=2, seed=5))
        assert sum(lengths) == 2 * len(store.triples)
        assert max(lengths) >= 8 if block is None else max(lengths) == block  # waves fill
        assert lengths[0] > 1 or block == 1  # the run's first wave holds several steps too

    def test_divergence_in_the_second_step_of_a_wave_names_its_triple(self, monkeypatch):
        """Step 4 is the second of the first wave, after step 1. Its raw gradients are
        finite, but the two rows of its head entity (the positive's and the negative's)
        sum to inf; the step before it in the wave is finite. The message is the
        step-by-step loop's: epoch 1, triple 4."""
        n_ent = 40
        names = [f"e{i}" for i in range(n_ent)]
        triples = [(2, 0, 3), (4, 0, 5), (6, 0, 7), (0, 1, 1), (8, 0, 9)]
        store = TripleStore({name: i for i, name in enumerate(names)}, names,
                            {"r0": 0, "r1": 1}, ["r0", "r1"], triples, "common")
        cfg = KgeConfig(method="ModE", dim=2, negatives=1, lr=0.05, epochs=1, seed=13)
        init = kge.init_kge_model

        def planted_init(n_entities, n_relations, config):
            model = init(n_entities, n_relations, config)
            model.entity[:] = 0.01
            model.entity[0], model.entity[1] = 0.0, -100.0  # step 4's head and tail
            model.relation[0], model.relation[1] = 0.5, 1e308
            return model

        monkeypatch.setattr(kge, "init_kge_model", planted_init)
        arr = np.array(triples)
        heads, tails = kge._draw_negatives(np.random.default_rng(cfg.seed + 1), arr[:, 0],
                                           arr[:, 2], n_ent, 1)
        ids = np.concatenate((tails, heads), axis=1)
        assert [wave.tolist() for wave in kge._waves(ids, arr[:, 1])] == [[0, 3], [1], [2], [4]]
        assert not set(ids[:3].ravel()) & set(ids[3])  # no earlier step touches its rows
        model = planted_init(n_ent, 2, cfg)
        grads = np.empty((1, 4, 2))
        kge._sgd_step(kge._mode, model.entity[heads[3:4]], model.relation[[1]],
                      model.entity[tails[3:4]], np.r_[1.0, -1.0], cfg, grads)
        assert np.isfinite(grads).all()
        summed = np.zeros((n_ent, 2))
        with np.errstate(over="ignore"):
            np.add.at(summed, ids[3], grads[0])
        assert not np.isfinite(summed).all()
        with pytest.raises(ad.Diverged, match="diverged at epoch 1, triple 4 of 5: a non-fin"):
            train_kge(store, cfg)

    def test_divergence_names_the_first_bad_step_in_step_order_not_in_wave_order(
            self, monkeypatch):
        """Steps 2 and 3 both score an infinite relation row. Step 2 shares an entity with
        step 1, so it runs in the second wave; step 3 shares nothing, so it runs in the
        first, and is found bad first. The message is the step-by-step loop's: triple 2."""
        n_ent = 40
        names = [f"e{i}" for i in range(n_ent)]
        triples = [(2, 0, 3), (3, 1, 4), (0, 2, 1)]
        store = TripleStore({name: i for i, name in enumerate(names)}, names,
                            {"r0": 0, "r1": 1, "r2": 2}, ["r0", "r1", "r2"], triples, "common")
        cfg = KgeConfig(method="ModE", dim=2, negatives=1, lr=0.05, epochs=1, seed=13)
        init = kge.init_kge_model

        def planted_init(n_entities, n_relations, config):
            model = init(n_entities, n_relations, config)
            model.relation[1:] = np.inf
            return model

        monkeypatch.setattr(kge, "init_kge_model", planted_init)
        arr = np.array(triples)
        heads, tails = kge._draw_negatives(np.random.default_rng(cfg.seed + 1), arr[:, 0],
                                           arr[:, 2], n_ent, 1)
        ids = np.concatenate((tails, heads), axis=1)
        assert [wave.tolist() for wave in kge._waves(ids, arr[:, 1])] == [[0, 2], [1]]
        with pytest.raises(ad.Diverged, match="diverged at epoch 1, triple 2 of 3: a non-fin"):
            train_kge(store, cfg)


class TestNegativeDraws:
    """One draw per block of positives stands for the 2 * k interleaved scalar draws
    per step of ``scalar_negatives``, whose stream the kg-2k reference losses depend on."""

    @pytest.mark.parametrize("n_ent", [2, 3, 2000, 2**32 + 5])
    @pytest.mark.parametrize("k", [1, 8])
    def test_array_draw_matches_scalar_pairs_and_generator_state(self, n_ent, k):
        got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
        steps = np.arange(50)
        h, t = steps % n_ent, (7 * steps + 1) % n_ent
        for block in (slice(0, 1), slice(1, 30), slice(30, 50)):
            heads, tails = kge._draw_negatives(got_rng, h[block], t[block], n_ent, k)
            assert heads.shape == tails.shape == (block.stop - block.start, 1 + k)
            for j, (hj, tj) in enumerate(zip(h[block].tolist(), t[block].tolist())):
                want = scalar_negatives(want_rng, hj, tj, n_ent, k)
                assert (heads[j].tolist(), tails[j].tolist()) == want, (block, j)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, block

    def test_no_negatives_draw_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        heads, tails = kge._draw_negatives(rng, np.array([0, 0]), np.array([0, 0]), 1, 0)
        assert heads.tolist() == tails.tolist() == [[0], [0]]
        assert rng.bit_generator.state == before

    class CountingGenerator(np.random.Generator):
        """A Generator that counts its ``integers`` calls."""

        calls = 0

        def integers(self, *args, **kwargs):
            type(self).calls += 1
            return super().integers(*args, **kwargs)

    @settings(max_examples=60, deadline=None)
    @given(n_ent=st.sampled_from([1, 2, 3, 2000, 2**32 + 5]), k=st.sampled_from([0, 1, 8]),
           block=st.integers(1, 5), n_pos=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_the_per_step_draws(self, n_ent, k, block, n_pos, seed):
        """Blocks of ``_DRAW_BLOCK`` positives, the last one short when it does not
        divide P: each step's heads and tails are ``scalar_negatives``'s, and train_kge
        draws once per block."""
        n_neg = k if n_ent >= 2 else 0  # as train_kge forces it
        pick = np.random.default_rng(seed)
        h, t = pick.integers(0, n_ent, n_pos), pick.integers(0, n_ent, n_pos)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for start in range(0, n_pos, block):
            heads, tails = kge._draw_negatives(got_rng, h[start:start + block],
                                               t[start:start + block], n_ent, n_neg)
            for j in range(len(heads)):
                want = scalar_negatives(want_rng, int(h[start + j]), int(t[start + j]), n_ent,
                                        n_neg)
                assert (heads[j].tolist(), tails[j].tolist()) == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

        if n_ent > 2000:
            return  # too many entities to train
        names = [f"e{i}" for i in range(n_ent)]
        store = TripleStore({name: i for i, name in enumerate(names)}, names, {"r": 0}, ["r"],
                            list(zip(h.tolist(), [0] * n_pos, t.tolist())), "common")
        counter = self.CountingGenerator
        counter.calls = 0
        with mock.patch.object(kge, "_DRAW_BLOCK", block), \
                mock.patch.object(np.random, "default_rng",
                                  lambda s: counter(np.random.PCG64(s))):
            train_kge(store, KgeConfig(method="ModE", dim=2, negatives=k, epochs=2))
        assert counter.calls == (2 * math.ceil(n_pos / block) if n_neg else 0)

    @pytest.mark.parametrize("lr, block, where", [
        (1e150, 4, "epoch 1, triple 7 of 9"),
        (1e100, 2, "epoch 2, triple 3 of 9"),
    ])
    def test_divergence_in_a_later_block_names_the_global_triple(self, monkeypatch, lr, block,
                                                                 where):
        """The triples that diverge lie in the second block; the messages are those of
        the step-by-step loop, for any block size."""
        names = [f"e{i}" for i in range(12)]
        store = TripleStore({name: i for i, name in enumerate(names)}, names,
                            {"r0": 0, "r1": 1}, ["r0", "r1"],
                            [(i % 12, i % 2, (5 * i + 3) % 12) for i in range(9)], "common")
        cfg = KgeConfig(method="ModE", dim=4, negatives=2, lr=lr, epochs=2, seed=3)
        for size in (block, kge._DRAW_BLOCK):
            monkeypatch.setattr(kge, "_DRAW_BLOCK", size)
            with pytest.raises(ad.Diverged, match=f"diverged at {where}: a non-finite"):
                train_kge(store, cfg)


class TestWrapPhase:
    # any float a phase update can produce, plus values a few ulps from each period's edge
    floats = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.builds(lambda k, ulps: np.pi * (2 * k + 1) * (1 + ulps * 2.0 ** -52),
                  st.integers(-1000, 1000), st.integers(-4, 4)),
    )

    @settings(max_examples=500, deadline=None)
    @given(xs=st.lists(floats, min_size=1, max_size=64))
    def test_wrapping_twice_equals_wrapping_once_except_at_pi(self, xs):
        once = kge._wrap_phase(np.array(xs))
        twice = kge._wrap_phase(once)
        assert np.all((once >= -np.pi) & (once <= np.pi))
        keep = once != np.pi
        assert twice[keep].tobytes() == once[keep].tobytes()
        assert np.all(twice[~keep] == -np.pi)

    def test_pi_is_the_one_output_that_rewraps(self):
        below = np.nextafter(-np.pi, -np.inf)
        once = kge._wrap_phase(np.array([below]))
        assert once[0] == np.pi  # the float just below -pi rounds up to a full period
        assert kge._wrap_phase(once)[0] == -np.pi
        assert kge._wrap_phase(np.array([-np.pi]))[0] == -np.pi


# --------------------------------------------------------------------------
# Ranking metrics
# --------------------------------------------------------------------------

def brute_force_metrics(m, store, test, k_list=(1, 3, 10)):
    """Sort-based ranking oracle: score every corruption, order, find the true one."""
    known = set(store.triples) | set(test)
    ranks = []
    for h, r, t in test:
        for side, true_id, fixed in (("head", h, t), ("tail", t, h)):
            candidates = []
            for c in range(m.n_entities):
                full = (c, r, fixed) if side == "head" else (fixed, r, c)
                if c != true_id and full in known:
                    continue
                s = score_triple(m, *full)
                candidates.append((-s, c))
            candidates.sort()
            ranks.append([c for _, c in candidates].index(true_id) + 1)
    arr = np.array(ranks, dtype=float)
    out = {"MR": arr.mean(), "MRR": (1.0 / arr).mean()}
    for k in k_list:
        out[f"HITS@{k}"] = (arr <= k).mean()
    return out


SIDE_SCORER_CASES = [(method, dim) for method in kge.METHODS for dim in (2, 3, 4, 32)
                     if dim % 2 == 0 or method == "ModE"]


def side_scorer_model(rng, method, n_ent, dim):
    """A random model with the awkward entries the ranking algebra must survive:
    RotatE relation phases outside [-pi, pi], HAKE entity and relation phases outside
    it, and a ModE relation row with a 0 entry."""
    m = random_model(rng, method, n_ent, 3, dim)
    half = dim // 2
    if method == "RotatE":
        m.relation *= 3.0
    elif method == "HAKE":
        m.entity[:, half:] *= 5.0
        m.relation[:, half:] *= 5.0
    else:
        m.relation[1, half] = 0.0
    return m


@pytest.mark.parametrize("method,dim", SIDE_SCORER_CASES)
@pytest.mark.parametrize("n_ent", [1, 3, 257])
def test_side_scorer_is_bitwise_scores(method, dim, n_ent):
    """Ranking's scorer agrees with ``_scores`` (so with ``score_triple``) to 1e-12,
    relative or absolute, on both sides, call after call; and its scores are bitwise
    those of the same rows in another order: an entity's score does not depend on
    where its row sits in the table."""
    rng = np.random.default_rng(17)
    m = side_scorer_model(rng, method, n_ent, dim)
    perm = rng.permutation(n_ent)
    moved = KgeModel(method, dim, m.gamma, m.entity[perm], m.relation)
    score, score_moved = kge._side_scorer(m), kge._side_scorer(moved)
    every = ad.constant(m.entity)
    for r in range(3):
        for e in rng.integers(0, n_ent, 3):
            rel, row = _row(m.relation, r), _row(m.entity, int(e))
            for head, want in ((True, _scores(m, every, rel, row)),
                               (False, _scores(m, row, rel, every))):
                got = score(r, int(e), head).copy()
                np.testing.assert_allclose(got, want.data, rtol=1e-12, atol=1e-12,
                                           err_msg=str((r, int(e), head)))
                e_moved = int(np.flatnonzero(perm == e)[0])
                assert np.array_equal(score_moved(r, e_moved, head), got[perm]), \
                    (r, int(e), head)


class TestEvaluateCompletion:
    def test_perfect_ranking(self):
        # ModE with identity relation: self-loop triples score highest at the true entity
        entity = np.array([[0.0], [1.0], [3.0]])
        relation = np.array([[1.0]])
        m = KgeModel("ModE", 1, gamma=2.0, entity=entity, relation=relation)
        store = TripleStore({}, ["a", "b", "c"], {}, ["r"], [], "common")
        test = [(0, 0, 0), (1, 0, 1), (2, 0, 2)]
        metrics = evaluate_completion(m, store, test)
        assert metrics["MR"] == 1.0
        assert metrics["MRR"] == 1.0
        assert metrics["HITS@1"] == 1.0

    def test_constant_scores_break_ties_by_entity_id(self):
        entity = np.zeros((4, 2))
        relation = np.zeros((1, 2))
        m = KgeModel("ModE", 2, gamma=1.0, entity=entity, relation=relation)
        store = TripleStore({}, list("abcd"), {}, ["r"], [], "common")
        test = [(1, 0, 2), (3, 0, 0)]
        assert evaluate_completion(m, store, test) == brute_force_metrics(m, store, test)

    @pytest.mark.parametrize("method", kge.METHODS)
    def test_equal_rows_tie_exactly_and_rank_by_id(self, method):
        """Entities with equal rows get bitwise equal ranking scores on both sides, so
        the tie rule (strictly better, then smaller id) ranks them as the oracle does."""
        rng = np.random.default_rng(31)
        n_ent = 43  # not a multiple of 4, where a BLAS row sum changes its order
        m = side_scorer_model(rng, method, n_ent, 32)
        copies = [(0, 7), (0, 21), (3, 42), (12, 13), (12, 41), (25, 30), (25, 31)]
        for src, dst in copies:
            m.entity[dst] = m.entity[src]
        score = kge._side_scorer(m)
        for r in range(3):
            for e in range(n_ent):
                for head in (True, False):
                    s = score(r, e, head)
                    for src, dst in copies:
                        assert s[src] == s[dst], (r, e, head, src, dst)
        # each of the first six test triples has a copied row as its true or fixed entity
        triples = [(0, 0, 7), (21, 1, 3), (42, 2, 12), (13, 0, 25), (30, 1, 31), (41, 2, 0)]
        store = TripleStore({}, [str(i) for i in range(n_ent)], {}, ["r", "s", "t"],
                            triples + [(7, 0, 3), (25, 1, 21)], "common")
        test = triples + [(int(rng.integers(n_ent)), int(rng.integers(3)),
                           int(rng.integers(n_ent))) for _ in range(10)]
        assert evaluate_completion(m, store, test) == brute_force_metrics(m, store, test)

    def test_hand_ranked_toy_graph(self):
        entity = np.array([[0.0], [1.0], [3.0]])
        relation = np.array([[1.0]])
        m = KgeModel("ModE", 1, gamma=5.0, entity=entity, relation=relation)
        store = TripleStore({}, ["a", "b", "c"], {}, ["r"], [(0, 0, 1)], "common")
        metrics = evaluate_completion(m, store, [(0, 0, 1)])
        # tail side: scores gamma-[0,1,3] -> true tail 1 ranks 2nd
        # head side: scores gamma-|e_c - 1| = gamma-[1,0,2] -> true head 0 ranks 2nd
        assert metrics["MR"] == 2.0
        assert metrics["MRR"] == 0.5
        assert metrics["HITS@1"] == 0.0
        assert metrics["HITS@3"] == 1.0
        assert metrics["HITS@10"] == 1.0

    def test_matches_brute_force_on_random_instances(self):
        """Twenty small dim-4 instances, then one dim-32 model of 100 entities per
        method, whose 16- or 32-term row sums take NumPy's unrolled summation."""
        rng = np.random.default_rng(99)
        for trial in range(23):
            method = ["RotatE", "ModE", "HAKE"][trial % 3]
            n_ent, dim = (int(rng.integers(3, 13)), 4) if trial < 20 else (100, 32)
            n_rel = int(rng.integers(1, 4))
            m = random_model(rng, method, n_ent, n_rel, dim=dim)
            all_triples = [
                (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
                for _ in range(int(rng.integers(3, 10)))
            ]
            store = TripleStore({}, [str(i) for i in range(n_ent)], {},
                                [str(i) for i in range(n_rel)], all_triples, "common")
            test = all_triples[: max(1, len(all_triples) // 2)]
            assert evaluate_completion(m, store, test) == brute_force_metrics(m, store, test)

    def test_metric_orderings(self):
        rng = np.random.default_rng(55)
        m = random_model(rng, "ModE", 8, 2, dim=4)
        store = TripleStore({}, [str(i) for i in range(8)], {}, ["r", "s"],
                            [(0, 0, 1), (2, 1, 3), (4, 0, 5)], "common")
        metrics = evaluate_completion(m, store, store.triples)
        assert metrics["HITS@1"] <= metrics["HITS@3"] <= metrics["HITS@10"]
        assert metrics["MRR"] >= 1.0 / metrics["MR"]
        assert 0.0 < metrics["MRR"] <= 1.0

    def test_empty_test_set_rejected(self):
        m = random_model(np.random.default_rng(1), "ModE", 3, 1, dim=2)
        store = TripleStore({}, list("abc"), {}, ["r"], [(0, 0, 1)], "common")
        with pytest.raises(ValueError):
            evaluate_completion(m, store, [])


# --------------------------------------------------------------------------
# Vocabulary-aligned export
# --------------------------------------------------------------------------

class TestExportAlignedTable:
    def setup_method(self):
        self.vocab = build_vocab([
            RawArticle("alpha beta", "gamma delta <sep> beta", 0),
        ])
        self.store = TripleStore(
            {"E_alpha": 0, "E_beta": 1, "E_gamma": 2}, ["E_alpha", "E_beta", "E_gamma"],
            {"r": 0}, ["r"], [(0, 0, 1)], "liberal",
        )
        rng = np.random.default_rng(3)
        self.model = KgeModel("ModE", 4, 2.0, rng.uniform(0.1, 1, (3, 4)),
                              rng.uniform(-1, 1, (1, 4)))

    def test_empty_links_gives_zero_table(self):
        table = export_aligned_table(self.model, {}, self.vocab, self.store)
        assert np.all(table.rows(np.arange(table.n_words)) == 0)
        assert np.all(table.coverage == 0)

    def test_single_link_single_nonzero_row(self):
        table = export_aligned_table(self.model, {"alpha": "E_alpha"}, self.vocab, self.store)
        dense = table.rows(np.arange(table.n_words))
        nonzero_rows = np.flatnonzero(np.abs(dense).sum(axis=1))
        assert nonzero_rows.tolist() == [self.vocab.token_to_id["alpha"]]
        assert table.coverage.sum() == 1

    def test_three_links_coverage_three(self):
        links = {"alpha": "E_alpha", "beta": "E_beta", "gamma": "E_gamma"}
        table = export_aligned_table(self.model, links, self.vocab, self.store)
        assert table.coverage.sum() == 3

    def test_unknown_entity_names_the_word(self):
        with pytest.raises(ValueError, match="alpha"):
            export_aligned_table(self.model, {"alpha": "E_missing"}, self.vocab, self.store)

    def test_width_truncation_and_padding(self):
        narrow = export_aligned_table(self.model, {"alpha": "E_alpha"}, self.vocab,
                                      self.store, width=2)
        wide = export_aligned_table(self.model, {"alpha": "E_alpha"}, self.vocab,
                                    self.store, width=6)
        wid = self.vocab.token_to_id["alpha"]
        narrow_rows = narrow.rows(np.arange(narrow.n_words))
        wide_rows = wide.rows(np.arange(wide.n_words))
        assert np.array_equal(narrow_rows[wid], self.model.entity[0, :2])
        assert np.array_equal(wide_rows[wid, :4], self.model.entity[0])
        assert np.all(wide_rows[wid, 4:] == 0)

    def test_save_load_round_trip(self, tmp_path):
        table = export_aligned_table(self.model, {"beta": "E_beta"}, self.vocab, self.store)
        path = tmp_path / "table.txt"
        table.save(path)
        loaded = kge.KnowledgeEmbeddingTable.load(path)
        assert loaded.stance_tag == "liberal"
        assert np.array_equal(loaded.rows(np.arange(loaded.n_words)),
                              table.rows(np.arange(table.n_words)))
        assert np.array_equal(loaded.coverage, table.coverage)

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 5), data=st.data())
    def test_save_load_round_trip_is_bitwise(self, width, data):
        """repr round-trips float64, so a saved table loads back bit for bit, and its
        all-zero rows (including all -0.0 ones) load as uncovered."""
        value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([-0.0, 5e-324, -1e-310, 1e300, -1e300]))
        row = st.one_of(st.just([0.0] * width), st.just([-0.0] * width),
                        st.lists(value, min_size=width, max_size=width))
        rows = data.draw(st.lists(row, max_size=6))
        vectors = np.array(rows, dtype=np.float64).reshape(len(rows), width)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.txt"
            kge.KnowledgeEmbeddingTable("liberal", vectors).save(path)
            loaded = kge.KnowledgeEmbeddingTable.load(path)
        assert loaded.stance_tag == "liberal"
        dense = loaded.rows(np.arange(loaded.n_words))
        assert dense.shape == vectors.shape
        assert dense.tobytes() == vectors.tobytes()
        assert loaded.coverage.tolist() == [float(any(v != 0 for v in r)) for r in rows]

    @pytest.mark.parametrize("edit,rows,count", [
        (lambda row: row[:-1], [1], 3),
        (lambda row: row + ["0.5"], [1], 5),
        (lambda row: row[:-1], None, 3),  # numpy parses this one; the width check fails
    ], ids=["short", "long", "every-row-short"])
    def test_ragged_row_names_file_and_row(self, tmp_path, edit, rows, count):
        table = export_aligned_table(self.model, {"beta": "E_beta"}, self.vocab, self.store)
        path = tmp_path / "table.txt"
        table.save(path)
        lines = path.read_text().splitlines()
        rows = range(len(lines) - 2) if rows is None else rows
        for i in rows:
            lines[2 + i] = " ".join(edit(lines[2 + i].split()))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=rf"table\.txt: row {rows[0]} has {count} values, but dim=4"):
            kge.KnowledgeEmbeddingTable.load(path)

    @pytest.mark.parametrize("dim", ["abc", "-1", "0", "2.5", ""])
    def test_bad_dim_header_names_file_and_header(self, tmp_path, dim):
        table = export_aligned_table(self.model, {"beta": "E_beta"}, self.vocab, self.store)
        path = tmp_path / "table.txt"
        table.save(path)
        lines = path.read_text().splitlines()
        lines[1] = f"dim={dim}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"table\.txt: header 'dim={dim}'"):
            kge.KnowledgeEmbeddingTable.load(path)

    def test_non_numeric_token_names_file_row_and_token(self, tmp_path):
        """'#' starts no comment, so a '#1' after a full row is an error, and row numbers
        count only the non-blank rows."""
        table = export_aligned_table(self.model, {"beta": "E_beta"}, self.vocab, self.store)
        path = tmp_path / "table.txt"
        for keep, token, blank_lines in ((3, "abc", []), (4, "#1", []), (3, "abc", ["", " \t"])):
            table.save(path)
            lines = path.read_text().splitlines()
            lines[2 + 1] = " ".join(lines[2 + 1].split()[:keep] + [token])
            lines[2 + 1:2 + 1] = blank_lines
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError,
                               match=rf"table\.txt: row 1 has the non-numeric value '{token}'"):
                kge.KnowledgeEmbeddingTable.load(path)


def test_training_gradients_match_finite_differences():
    """The scorer's tape gradients agree with central differences for all methods."""
    rng = np.random.default_rng(6)
    for method in ["RotatE", "ModE", "HAKE"]:
        dim = 4
        ent = ad.Tensor(rng.uniform(-1, 1, (3, dim)), requires_grad=True)
        rel_width = dim // 2 if method == "RotatE" else dim
        rel = ad.Tensor(rng.uniform(-1, 1, (2, rel_width)))
        m = KgeModel(method, dim, 4.0, ent.data, rel.data)

        def f(t):
            scores = _scores(m, ad.gather_rows(t, [0, 1, 2, 0]), ad.gather_rows(rel, [1]),
                                 ad.gather_rows(t, [2, 0, 1, 1]))
            return ad.sum_all(scores)

        assert ad.finite_diff_check(f, ent) < 1e-5


def kink_margin(method, h, r, t):
    """How far the point is from the kinks of a method's distance: ModE's |x| at
    h*r - t = 0, HAKE's |sin| at a zero of the sine, RotatE's modulus at 0. h and t
    are [S, B, dim] and r [S, w], a wave of S steps."""
    half = h.shape[2] // 2
    r = r[:, None]
    if method == "ModE":
        return np.abs(h * r - t).min()
    if method == "HAKE":
        return np.abs(np.sin((h[..., half:] + r[..., half:] - t[..., half:]) * 0.5)).min()
    d_re = h[..., :half] * np.cos(r) - h[..., half:] * np.sin(r) - t[..., :half]
    d_im = h[..., :half] * np.sin(r) + h[..., half:] * np.cos(r) - t[..., half:]
    return np.sqrt(d_re**2 + d_im**2).min()


@pytest.mark.parametrize("method", kge.METHODS)
@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_step_gradients_match_finite_differences(method, temperature):
    """The hand-written gradient of a wave of two SGD steps, for every scored head and
    tail row and the relation rows, agrees with central differences of the sum of the
    steps' losses to a relative error below 1e-5. The adversarial weights are constants
    of the gradient, so the differenced loss holds them at their value at the point: at
    temperature 0 that is the steps' own loss, and otherwise the same loss from NumPy's
    logaddexp."""
    rng = np.random.default_rng(31)
    dim, k, waves = 6, 3, 2
    config = KgeConfig(method=method, dim=dim, gamma=2.0, adv_temperature=temperature)
    forward = kge._FORWARD[method]
    signs = np.r_[1.0, -np.ones(k)]
    width = dim // 2 if method == "RotatE" else dim
    while True:  # a point well away from every kink
        h = rng.uniform(-1, 1, (waves, 1 + k, dim))
        t = rng.uniform(-1, 1, (waves, 1 + k, dim))
        r = rng.uniform(-2, 2, (waves, width))
        if kink_margin(method, h, r, t) > 1e-2:
            break
    grads = np.empty((waves, 2 * (1 + k), dim))
    loss, g_rel = kge._sgd_step(forward, h, r, t, signs, config, grads)
    scores, _ = forward(h, r, t, config.gamma)
    weights = np.ones((waves, 1 + k))
    w = np.exp(temperature * (scores[:, 1:] - scores[:, 1:].max(axis=1, keepdims=True)))
    weights[:, 1:] = w / w.sum(axis=1, keepdims=True)

    def frozen_loss():
        if temperature == 0.0:
            return kge._sgd_step(forward, h, r, t, signs, config, np.empty_like(grads))[0].sum()
        s, _ = forward(h, r, t, config.gamma)
        return float((weights * np.logaddexp(0.0, -signs * s)).sum())

    assert frozen_loss() == pytest.approx(loss.sum(), rel=1e-12)
    step = 1e-5
    for name, x, analytic in (("tail", t, grads[:, : 1 + k]), ("head", h, grads[:, 1 + k :]),
                              ("relation", r, g_rel)):
        numeric = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            keep = x[i]
            x[i] = keep + step
            up = frozen_loss()
            x[i] = keep - step
            down = frozen_loss()
            x[i] = keep
            numeric[i] = (up - down) / (2 * step)
        error = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-10)
        assert error.max() < 1e-5, (name, error.max())


class TestTableInvariant:
    """Every table, however it is made, holds finite [n_words, width] vectors, and its
    coverage is derived from them: 1 exactly at the non-zero rows."""

    VECTORS = np.array([[0.0, 0.0], [0.5, -1.0], [0.0, 2.0]])

    def test_a_consistent_table_is_accepted(self):
        table = kge.KnowledgeEmbeddingTable("liberal", self.VECTORS)
        assert table.n_words == 3 and table.width == 2
        assert table.coverage.dtype == np.float64
        assert table.coverage.tolist() == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("covered", [True, False])
    def test_a_non_finite_row_names_the_stance_and_the_row(self, value, covered):
        """A NaN row would reach predict even uncovered, since 0 * NaN is NaN; the
        row's other entry is non-zero (covered) or zero."""
        vectors = self.VECTORS.copy()
        vectors[2] = [float(covered), value]
        with pytest.raises(ValueError, match=r"^knowledge table 'liberal': row 2 has a "
                                             r"non-finite value$"):
            kge.KnowledgeEmbeddingTable("liberal", vectors)

    @settings(max_examples=80, deadline=None)
    @given(width=st.integers(1, 4), data=st.data())
    def test_rows_and_vectors_are_the_input_bitwise(self, width, data):
        """The table keeps only its stored rows, yet ``rows(ids)`` (repeated ids too) and
        ``rows`` of every word give the input back byte for byte, as a copy."""
        value = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 0.75, -3.0])
        row = st.one_of(st.just([0.0] * width), st.just([-0.0] * width),
                        st.just([5e-324] * width), st.lists(value, min_size=width, max_size=width))
        rows = data.draw(st.lists(row, min_size=1, max_size=8))
        ids = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12)),
                       dtype=np.int64)
        vectors = np.array(rows, dtype=np.float64).reshape(len(rows), width)
        table = kge.KnowledgeEmbeddingTable("common", vectors)
        expected = vectors.tobytes()
        assert table.rows(ids).shape == (len(ids), width)
        assert table.rows(ids).tobytes() == vectors[ids].tobytes()
        dense = table.rows(np.arange(table.n_words))
        assert dense.shape == vectors.shape and dense.tobytes() == expected
        dense[:] = 7.0
        vectors[:] = 7.0
        assert table.rows(np.arange(table.n_words)).tobytes() == expected

    def test_zero_table_allocates_no_dense_array(self):
        tracemalloc.start()
        try:
            table = kge.zero_table("common", 20_000, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (table.n_words, table.width) == (20_000, 16) and not table.coverage.any()
        assert peak < 20_000 * 16 * 8 // 4

    @pytest.mark.parametrize("vectors", [np.zeros(3), np.zeros((3, 2, 1))])
    def test_shapes_that_do_not_fit_are_refused(self, vectors):
        with pytest.raises(ValueError, match="^knowledge table 'conservative': vectors"):
            kge.KnowledgeEmbeddingTable("conservative", vectors)

    def test_load_prefixes_the_path(self, tmp_path):
        path = tmp_path / "table.txt"
        kge.KnowledgeEmbeddingTable("liberal", self.VECTORS).save(path)
        lines = path.read_text().splitlines()
        lines[2 + 1] = "0.5 nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            kge.KnowledgeEmbeddingTable.load(path)
        assert str(err.value) == f"{path}: knowledge table 'liberal': row 1 has a non-finite value"


class TestTableFromRows:
    """``from_rows`` builds every table from its stored rows and their word ids."""

    def test_rows_land_at_their_ids_in_any_order(self):
        rows = np.array([[0.5, -1.0], [-0.0, -0.0], [0.0, 0.0], [2.0, 0.0]])
        table = kge.KnowledgeEmbeddingTable.from_rows("liberal", 6, [4, 0, 2, 1], rows)
        dense = np.zeros((6, 2))
        dense[[4, 0, 2, 1]] = rows
        assert table.rows(np.arange(6)).tobytes() == dense.tobytes()
        assert table.coverage.tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]
        # the -0.0 row and the two covered ones are stored, in word order
        assert table._rows[1:].tobytes() == rows[[1, 3, 0]].tobytes()

    @pytest.mark.parametrize("ids, rows, message", [
        ([0, 1], np.ones((3, 2)), "2 word ids for 3 rows"),
        ([0, 5], np.ones((2, 2)), "word id 5 is outside \\[0, 5\\)"),
        ([-1], np.ones((1, 2)), "word id -1 is outside"),
        ([3, 1, 3], np.ones((3, 2)), "word id 3 has two rows"),
        ([4, 2], [[1.0, np.nan], [np.inf, 0.0]], "row 2 has a non-finite value"),
        ([0], np.ones(2), "vectors \\(2,\\) are not"),
    ])
    def test_bad_input_names_the_stance(self, ids, rows, message):
        with pytest.raises(ValueError, match=f"^knowledge table 'common': {message}"):
            kge.KnowledgeEmbeddingTable.from_rows("common", 5, ids, rows)

    def test_export_allocates_no_dense_array(self):
        n_words, width = 20_000, 16
        vocab = Vocabulary({f"w{i}": i for i in range(n_words)},
                           [f"w{i}" for i in range(n_words)])
        store = TripleStore({f"E{i}": i for i in range(8)}, [f"E{i}" for i in range(8)],
                            {"r": 0}, ["r"], [(0, 0, 1)], "common")
        model = KgeModel("ModE", width, 2.0, np.random.default_rng(0).uniform(-1, 1, (8, width)),
                         np.ones((1, width)))
        links = {f"w{3 * i}": f"E{i}" for i in range(8)}
        tracemalloc.start()
        try:
            table = export_aligned_table(model, links, vocab, store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (table.n_words, table.width) == (n_words, width)
        assert table.coverage.sum() == 8
        assert table.rows(np.array([21])).tobytes() == model.entity[7].tobytes()
        assert peak < n_words * width * 8 // 4


def _dense_load(path):
    """The whole-file loader ``KnowledgeEmbeddingTable.load`` replaced: one
    ``np.loadtxt`` over every row after the header into a dense [n_words, width] array,
    then the dense checks. Kept as the oracle of the loader: returns the stance, the
    dense vectors and their coverage, or raises the same ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            stance_line = fh.readline().strip()
            dim_line = fh.readline().strip()
            if not stance_line.startswith("stance=") or not dim_line.startswith("dim="):
                raise ValueError(f"{path}: expected 'stance=' and 'dim=' header lines")
            stance, dim = stance_line.split("=", 1)[1], dim_line.split("=", 1)[1].strip()
            if not dim.isdecimal() or int(dim) < 1:
                raise ValueError(f"{path}: header {dim_line!r} is not dim=<integer >= 1>")
            width = int(dim)
            try:
                with warnings.catch_warnings():  # a header-only table is valid
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    vectors = np.loadtxt(fh, dtype=np.float64, ndmin=2, comments=None)
            except ValueError as err:
                raise ValueError(_dense_bad_row(path, width) or f"{path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ValueError(not_utf8(path)) from err
    if vectors.size == 0:
        vectors = np.zeros((0, width))
    elif vectors.shape[1] != width:
        raise ValueError(_dense_bad_row(path, width))
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: knowledge table {stance!r}: row {bad[0]} has a "
                         f"non-finite value")
    bits = vectors.view(np.uint64) & ~np.uint64(1 << 63)
    return stance, vectors, bits.any(axis=1).astype(np.float64)


def _dense_bad_row(path, width):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()[2:]
    for i, tokens in enumerate(line.split() for line in lines if line.strip()):
        for token in tokens:
            try:
                float(token)
            except ValueError:
                return f"{path}: row {i} has the non-numeric value {token!r}"
        if len(tokens) != width:
            return f"{path}: row {i} has {len(tokens)} values, but dim={width}"
    return None


@st.composite
def table_files(draw):
    """The bytes of a table file: rows among which canonical zero lines and other
    spellings of zero, blank lines, three line endings and a last line with or without
    one; about one file in three has one fault: a short, long, non-numeric or
    non-finite row, a bad header, or a byte that is not UTF-8."""
    width = draw(st.integers(1, 3))
    zero = " ".join(["0.0"] * width)
    number = st.sampled_from(["0", "0.0", "-0.0", "+0.0", "0e0", "5e-324", "-2.5e-310",
                              "0.1", "-3.25", "1e300", "0.30000000000000004"])
    sep = st.sampled_from([" ", " ", "\t", "  ", " \t"])

    def row(tokens):
        spaced = [tokens[0]]
        for token in tokens[1:]:
            spaced += [draw(sep), token]
        return "".join(spaced) + draw(st.sampled_from(["", "", "", " ", "\t"]))

    good = st.one_of(st.just(zero), st.just(zero), st.just(" ".join(["-0.0"] * width)),
                     st.lists(number, min_size=width, max_size=width).map(row))
    blank = st.sampled_from(["", " ", "\t", " \t "])
    lines = draw(st.lists(st.one_of(good, good, good, blank), max_size=8))
    fault = draw(st.sampled_from([None] * 12 + ["short", "long", "token", "dim", "byte"]))
    if fault in ("short", "long", "token"):
        if fault == "token":
            tokens = draw(st.lists(number, min_size=width, max_size=width))
            tokens[draw(st.integers(0, width - 1))] = draw(st.sampled_from(
                ["abc", "#1", "nan", "inf", "-inf", "1e400", "1_0", "\u0661"]))
        else:
            size = width + 1 if fault == "long" or width == 1 else width - 1
            tokens = draw(st.lists(number, min_size=size, max_size=size))
        lines.insert(draw(st.integers(0, len(lines))), row(tokens))
    dim = draw(st.sampled_from(["0", "x", ""])) if fault == "dim" else str(width)
    text = f"stance=liberal{draw(st.sampled_from(['', ' ']))}\ndim={dim}\n"
    for i, body in enumerate(lines):
        last = i == len(lines) - 1
        text += body + draw(st.sampled_from(["\n", "\r\n", "\r"] + (["", ""] if last else [])))
    data = text.encode("utf-8")
    if fault == "byte":  # a byte that is not UTF-8, or a cut sequence
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[at:]
    return data


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=table_files())
def test_load_matches_the_dense_whole_file_parse(data):
    """Skipping the canonical zero lines changes nothing: on any file, the table's rows,
    coverage and word count are bitwise the dense parse's, or both raise the same
    ValueError text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_bytes(data)
        try:
            stance, vectors, coverage = _dense_load(path)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                kge.KnowledgeEmbeddingTable.load(path)
            assert str(got.value) == str(err)
            return
        table = kge.KnowledgeEmbeddingTable.load(path)
    assert table.stance_tag == stance and table.n_words == len(vectors)
    assert table.width == vectors.shape[1]
    assert table.rows(np.arange(table.n_words)).tobytes() == vectors.tobytes()
    assert table.coverage.tobytes() == coverage.tobytes()


def test_load_parses_only_the_stored_rows(tmp_path, monkeypatch):
    """On a file ``save`` wrote, ``np.loadtxt`` is called once, on the lines of the
    stored rows only: the uncovered words' zero lines are counted, not parsed."""
    vectors = np.zeros((7, 3))
    vectors[1] = [0.5, -1.0, 2.0]
    vectors[3] = -0.0
    vectors[4] = [0.0, 5e-324, 0.0]
    path = tmp_path / "table.txt"
    kge.KnowledgeEmbeddingTable("common", vectors).save(path)
    calls = []
    loadtxt = np.loadtxt

    def counting(lines, *args, **kwargs):
        calls.append(list(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    table = kge.KnowledgeEmbeddingTable.load(path)
    saved = path.read_text().splitlines(keepends=True)[2:]
    assert calls == [[saved[1], saved[3], saved[4]]]
    assert table.rows(np.arange(7)).tobytes() == vectors.tobytes()
