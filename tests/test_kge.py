"""Tests for knowledge graph embedding: loading, scoring, training, ranking.

The scoring oracles below re-evaluate the published formulas step by step
with plain python/numpy, independently of the scorer under test. The
ranking oracle enumerates and sorts every corruption by brute force.
"""

import math

import numpy as np
import pytest

from stancenet import autodiff as ad
from stancenet import kge
from stancenet.kge import (
    KgeConfig,
    KgeModel,
    TripleFormatError,
    TripleStore,
    evaluate_completion,
    export_aligned_table,
    load_triples,
    score_triple,
    train_kge,
)
from stancenet.textdata import RawArticle, build_vocab


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
        with pytest.raises(TripleFormatError, match=":2:"):
            load_triples(path, "common")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("# a comment\na\tr\tb\n\n")
        store = load_triples(path, "common")
        assert len(store.triples) == 1

    def test_first_appearance_vocab_order(self, tmp_path):
        store = write_store(tmp_path, [("x", "r", "y"), ("y", "s", "z")])
        assert store.entity_names == ["x", "y", "z"]
        assert store.relation_names == ["r", "s"]


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


def oracle_hake(entity, relation, gamma, lam_m, lam_p, h, r, t):
    half = entity.shape[1] // 2
    sq = 0.0
    for j in range(half):
        d = entity[h, j] * relation[r, j] - entity[t, j]
        sq += d * d
    phase = 0.0
    for j in range(half):
        d = entity[h, half + j] + relation[r, half + j] - entity[t, half + j]
        phase += abs(math.sin(d / 2.0))
    return gamma - lam_m * math.sqrt(sq) - lam_p * phase


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
                want = oracle_hake(m.entity, m.relation, m.gamma,
                                   m.lambda_modulus, m.lambda_phase, h, r, t)
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
            rel, fixed = kge._row(m.relation, 1), kge._row(m.entity, 3)
            for side in ("head", "tail"):
                h, t = (every, fixed) if side == "head" else (fixed, every)
                scores = kge._scores(m, h, rel, t).data
                for c in range(6):
                    direct = score_triple(m, c, 1, 3) if side == "head" else score_triple(m, 3, 1, c)
                    assert scores[c] == direct

    @pytest.mark.parametrize("method", ["RotatE", "ModE", "HAKE"])
    def test_batch_equals_single_rows(self, method):
        """A [B] batch from the scorer equals B one-row calls bit for bit."""
        rng = np.random.default_rng(13)
        m = random_model(rng, method, n_ent=7, n_rel=2, dim=20)
        heads, tails = [0, 3, 6, 2, 5], [1, 1, 4, 6, 0]
        rel = kge._row(m.relation, 1)
        batch = kge._scores(m, ad.constant(m.entity[heads]), rel,
                            ad.constant(m.entity[tails])).data
        single = [kge._scores(m, kge._row(m.entity, h), rel, kge._row(m.entity, t)).data[0]
                  for h, t in zip(heads, tails)]
        assert np.array_equal(batch, single)
        for shared in range(m.n_entities):
            row = kge._row(m.entity, shared)
            as_head = kge._scores(m, row, rel, ad.constant(m.entity)).data
            as_tail = kge._scores(m, ad.constant(m.entity), rel, row).data
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

    def test_phases_stay_wrapped(self, tmp_path):
        store = write_store(tmp_path, [("a", "r", "b"), ("b", "r", "a")])
        cfg = KgeConfig(method="RotatE", dim=8, epochs=20, lr=0.5, seed=2)
        model = train_kge(store, cfg)
        assert np.all(model.relation >= -np.pi)
        assert np.all(model.relation < np.pi)

    def test_empty_store_rejected(self):
        store = TripleStore({}, [], {}, [], [], "common")
        with pytest.raises(ValueError):
            train_kge(store, KgeConfig())


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
        rng = np.random.default_rng(99)
        for trial in range(20):
            method = ["RotatE", "ModE", "HAKE"][trial % 3]
            n_ent = int(rng.integers(3, 13))
            n_rel = int(rng.integers(1, 4))
            m = random_model(rng, method, n_ent, n_rel, dim=4)
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
        assert np.all(table.vectors == 0)
        assert np.all(table.coverage == 0)

    def test_single_link_single_nonzero_row(self):
        table = export_aligned_table(self.model, {"alpha": "E_alpha"}, self.vocab, self.store)
        nonzero_rows = np.flatnonzero(np.abs(table.vectors).sum(axis=1))
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
        assert np.array_equal(narrow.vectors[wid], self.model.entity[0, :2])
        assert np.array_equal(wide.vectors[wid, :4], self.model.entity[0])
        assert np.all(wide.vectors[wid, 4:] == 0)

    def test_save_load_round_trip(self, tmp_path):
        table = export_aligned_table(self.model, {"beta": "E_beta"}, self.vocab, self.store)
        path = tmp_path / "table.txt"
        table.save(path)
        loaded = kge.KnowledgeEmbeddingTable.load(path)
        assert loaded.stance_tag == "liberal"
        assert np.array_equal(loaded.vectors, table.vectors)
        assert np.array_equal(loaded.coverage, table.coverage)

    @pytest.mark.parametrize("edit,count", [(lambda row: row[:-1], 3),
                                            (lambda row: row + ["0.5"], 5)], ids=["short", "long"])
    def test_ragged_row_names_file_and_row(self, tmp_path, edit, count):
        table = export_aligned_table(self.model, {"beta": "E_beta"}, self.vocab, self.store)
        path = tmp_path / "table.txt"
        table.save(path)
        lines = path.read_text().splitlines()
        lines[2 + 1] = " ".join(edit(lines[2 + 1].split()))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"table\.txt: row 1 has {count} values, but dim=4"):
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
            scores = kge._scores(m, ad.gather_rows(t, [0, 1, 2, 0]), ad.gather_rows(rel, [1]),
                                 ad.gather_rows(t, [2, 0, 1, 1]))
            return ad.sum_all(scores)

        assert ad.finite_diff_check(f, ent) < 1e-5
