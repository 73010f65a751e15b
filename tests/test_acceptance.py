"""Acceptance suite: one check per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` for the per-criterion
lines, or directly as a script: ``python tests/test_acceptance.py``.

Every expected value is either an analytic anchor (ln C), an independent
oracle run in this file (brute-force ranking, bag-of-words vote,
scheduler re-simulation, central finite differences), or a structural
property (bitwise equality, partition). Tolerances are fixed here and
nowhere else.
"""

import math
import time

import numpy as np
import pytest

from stancenet import autodiff as ad
from stancenet import kge
from stancenet import model as md
from stancenet import textdata as td
from stancenet import training as tr
from stancenet.autodiff import Tensor
from stancenet.kge import KgeModel, KnowledgeEmbeddingTable, TripleStore
from stancenet.model import HyperParams, KnowledgeBundle


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


# --------------------------------------------------------------------------
# 1. End-to-end gradient correctness
# --------------------------------------------------------------------------

def gradcheck_fixture(seed: int = 0):
    """Tiny full-model fixture (d=8, heads=2, n=3, l=2, C=2) with every
    gradient path alive: all title words also occur in the body, and the
    knowledge tables give the two sentences distinct directions so no
    attention level collapses into uniformity at this scale."""
    hp = HyperParams(d=8, heads=2, n=3, l=2, classes=2, alpha=0.3, beta=0.3, mode="All")
    corpus = [td.RawArticle("tax plan vote", "senate vote tax <sep> budget cut plan", 0)]
    vocab = td.build_vocab(corpus)
    article = td.encode_article(corpus[0], vocab, n=hp.n, l=hp.l)
    params = md.init_params(len(vocab), hp, seed=seed)
    rng = np.random.default_rng(seed + 3)
    coverage = np.zeros(len(vocab))
    for word in ("senate", "vote", "tax", "budget", "cut", "plan"):
        coverage[vocab.token_to_id[word]] = 1.0
    tables = [
        KnowledgeEmbeddingTable(
            tag, rng.uniform(-1.2, 1.2, (len(vocab), hp.d)) * coverage[:, None])
        for tag in ("common", "liberal", "conservative")
    ]
    return hp, article, params, KnowledgeBundle(*tables)


def test_criterion_1_end_to_end_gradients():
    start = time.perf_counter()
    hp, article, params, bundle = gradcheck_fixture(seed=0)

    def loss_fn(_):
        probs = md.predict(article, params, bundle, hp)
        return md.cross_entropy(probs, article.label)

    worst = 0.0
    worst_group = ""
    for name, tensor in params.named():
        err = ad.finite_diff_check(loss_fn, tensor)
        if err > worst:
            worst, worst_group = err, name
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"group {worst_group}: max relative error {worst:.3e}"
    assert elapsed < 60.0
    report(1, f"full-model finite-difference check, max rel err {worst:.2e} "
              f"(worst group {worst_group}) in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Loss anchor
# --------------------------------------------------------------------------

def test_criterion_2_uniform_loss_is_ln_c():
    for classes in (2, 3, 5):
        probs = Tensor(np.full(classes, 1.0 / classes))
        for label in range(classes):
            value = float(md.cross_entropy(probs, label).data)
            assert abs(value - math.log(classes)) < 1e-9, (classes, label, value)
    report(2, "uniform predictions cost exactly ln C for C in {2, 3, 5} (tol 1e-9)")


# --------------------------------------------------------------------------
# 3. Knowledge boundary
# --------------------------------------------------------------------------

def random_bundle(n_words, width, seed):
    rng = np.random.default_rng(seed)
    tables = []
    for tag in ("common", "liberal", "conservative"):
        coverage = (rng.random(n_words) < 0.8).astype(np.float64)
        vectors = rng.uniform(-2, 2, (n_words, width)) * coverage[:, None]
        tables.append(KnowledgeEmbeddingTable(tag, vectors))
    return KnowledgeBundle(*tables)


def test_criterion_3_knowledge_free_factors_are_bundle_invariant():
    hp = HyperParams(d=16, heads=2, n=8, l=3, classes=3, alpha=1.0, beta=1.0, mode="All")
    corpus = td.gen_synthetic(12, 3, 2, seed=4)
    vocab = td.build_vocab(corpus)
    encoded = td.encode_corpus(corpus, vocab, hp.n, hp.l)
    params = md.init_params(len(vocab), hp, seed=1)
    bundles = [random_bundle(len(vocab), hp.d, s) for s in (10, 20, 30)]
    for article in encoded:
        outputs = [md.predict(article, params, b, hp).data for b in bundles]
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])
    report(3, "alpha=beta=1 predictions are bit-identical across knowledge bundles "
              f"({len(encoded)} articles, 3 bundles)")


# --------------------------------------------------------------------------
# 4. Ranking-metric oracle
# --------------------------------------------------------------------------

def brute_force_metrics(m, store, test, k_list=(1, 3, 10)):
    """Score every corruption, sort by (-score, id), locate the true entity."""
    known = set(store.triples) | set(test)
    ranks = []
    for h, r, t in test:
        for side, true_id, fixed in (("head", h, t), ("tail", t, h)):
            candidates = []
            for c in range(m.n_entities):
                full = (c, r, fixed) if side == "head" else (fixed, r, c)
                if c != true_id and full in known:
                    continue
                candidates.append((-kge.score_triple(m, *full), c))
            candidates.sort()
            ranks.append([c for _, c in candidates].index(true_id) + 1)
    arr = np.array(ranks, dtype=float)
    out = {"MR": float(arr.mean()), "MRR": float((1.0 / arr).mean())}
    for k in k_list:
        out[f"HITS@{k}"] = float((arr <= k).mean())
    return out


def test_criterion_4_ranking_matches_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(200):
        method = ("RotatE", "ModE", "HAKE")[trial % 3]
        n_ent = int(rng.integers(3, 13))
        n_rel = int(rng.integers(1, 4))
        dim = int(rng.choice([4, 6, 8]))
        entity = rng.uniform(-1, 1, (n_ent, dim))
        rel_width = dim // 2 if method == "RotatE" else dim
        relation = rng.uniform(-np.pi, np.pi, (n_rel, rel_width))
        m = KgeModel(method, dim, gamma=float(rng.uniform(1, 8)), entity=entity,
                     relation=relation)
        triples = list({
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(int(rng.integers(3, 12)))
        })
        store = TripleStore({}, [str(i) for i in range(n_ent)], {},
                            [str(i) for i in range(n_rel)], triples, "common")
        test = triples[: max(1, len(triples) // 2)]
        got = kge.evaluate_completion(m, store, test)
        want = brute_force_metrics(m, store, test)
        assert got == want, f"trial {trial}: {got} != {want}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"evaluate_completion equals the brute-force ranking oracle on "
              f"200 random instances in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. Permutation invariance
# --------------------------------------------------------------------------

def test_criterion_5_word_permutation_invariance():
    rng = np.random.default_rng(77)
    hp = HyperParams(d=16, heads=4, n=8, l=2, classes=2)
    params = md.init_params(30, hp, seed=5)
    worst = 0.0
    for _ in range(100):
        n_words = int(rng.integers(2, hp.n + 1))
        ids = rng.integers(2, 30, n_words)
        mask = np.ones(n_words)
        x = md.word_level(ad.gather_rows(params.word_table, ids), mask, params)
        pooled = ad.mean_rows(x, ad.constant(mask)).data
        perm = rng.permutation(n_words)
        x_p = md.word_level(ad.gather_rows(params.word_table, ids[perm]), mask, params)
        pooled_p = ad.mean_rows(x_p, ad.constant(mask)).data
        worst = max(worst, float(np.abs(pooled - pooled_p).max()))
    assert worst < 1e-10
    report(5, f"pooled sentence vectors invariant to word order, "
              f"max deviation {worst:.2e} over 100 trials")


# --------------------------------------------------------------------------
# 6. Overfit sanity
# --------------------------------------------------------------------------

def bow_majority_oracle(article, classes):
    votes = [0] * classes
    for token in (article.title + " " + article.body).split():
        for c in range(classes):
            if token.startswith(f"marker{c}w"):
                votes[c] += 1
    return int(np.argmax(votes))


def test_criterion_6_overfit_separable_corpus():
    start = time.perf_counter()
    corpus = td.gen_synthetic(64, 2, 3, seed=0)
    # the independent oracle proves the corpus is separable before training
    assert all(bow_majority_oracle(a, 2) == a.label for a in corpus)

    hp = HyperParams(d=32, heads=4, n=12, l=4, classes=2, alpha=0.5, beta=0.5, mode="All")
    vocab = td.build_vocab(corpus)
    encoded = td.encode_corpus(corpus, vocab, hp.n, hp.l)
    bundle = md.zero_bundle(len(vocab), hp.d)
    cfg = tr.TrainConfig(lr=1e-3, weight_decay=0.0, epochs=80, batch_size=16,
                         hp=hp, seed=0)
    assert cfg.epochs <= 200
    params, _ = tr.train(encoded, bundle, cfg)
    accuracy = tr.evaluate_accuracy(params, bundle, encoded, hp)
    elapsed = time.perf_counter() - start
    assert accuracy >= 0.95, f"training accuracy {accuracy}"
    assert elapsed < 300.0
    report(6, f"planted-token corpus memorised to accuracy {accuracy:.3f} "
              f"in {cfg.epochs} epochs ({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 7. Knowledge utility at desk scale
# --------------------------------------------------------------------------

def test_criterion_7_knowledge_only_signal():
    start = time.perf_counter()
    corpus, entity_labels = td.gen_knowledge_corpus(64)
    vocab = td.build_vocab(corpus)
    word_classes = {vocab.token_to_id[w]: c for w, c in entity_labels.items()}

    accuracies = {}
    for factor in (0.2, 1.0):
        hp = HyperParams(d=16, heads=2, n=8, l=3, classes=2,
                         alpha=factor, beta=factor, mode="All")
        encoded = td.encode_corpus(corpus, vocab, hp.n, hp.l)
        bundle = md.make_planted_bundle(len(vocab), word_classes, hp.d, seed=2,
                                        strength=2.0)
        train_set, val_set = encoded[:48], encoded[48:]
        cfg = tr.TrainConfig(lr=1e-3, weight_decay=0.0, epochs=40, batch_size=16,
                             hp=hp, seed=0)
        params, _ = tr.train(train_set, bundle, cfg)
        accuracies[factor] = tr.evaluate_accuracy(params, bundle, val_set, hp)

    elapsed = time.perf_counter() - start
    assert accuracies[0.2] >= 0.8, f"with knowledge: {accuracies[0.2]}"
    assert accuracies[1.0] <= 0.6, f"without knowledge: {accuracies[1.0]}"
    report(7, f"knowledge-only signal: val acc {accuracies[0.2]:.2f} at factors 0.2 "
              f"vs {accuracies[1.0]:.2f} at factors 1.0 ({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 8. Scheduler contract
# --------------------------------------------------------------------------

def reference_plateau_trace(losses, lr, patience, factor):
    best = math.inf
    bad = 0
    out = []
    for loss in losses:
        if loss < best:
            best, bad = loss, 0
        else:
            bad += 1
            if bad >= patience:
                lr *= factor
                bad = 0
        out.append(lr)
    return out


def test_criterion_8_plateau_scheduler_contract():
    rng = np.random.default_rng(404)
    # exact-length plateaus trigger exactly one halving
    for _ in range(100):
        patience = int(rng.integers(1, 8))
        state = tr.PlateauState(lr=1.0, patience=patience, factor=0.5)
        tr.plateau_step(state, 1.0)
        lrs = [tr.plateau_step(state, 1.0) for _ in range(patience)]
        assert lrs.count(0.5) == 1 and lrs[-1] == 0.5
    # random sequences agree with an independent re-simulation
    for _ in range(300):
        n = int(rng.integers(1, 50))
        patience = int(rng.integers(1, 6))
        losses = rng.choice([0.4, 0.5, 0.6, 0.7], size=n).tolist()
        state = tr.PlateauState(lr=1.0, patience=patience, factor=0.5)
        got = [tr.plateau_step(state, loss) for loss in losses]
        assert got == reference_plateau_trace(losses, 1.0, patience, 0.5)
    report(8, "plateau scheduler: exact-patience plateaus halve exactly once; "
              "400 random traces match the reference simulation")


# --------------------------------------------------------------------------
# 9. Cross-validation protocol
# --------------------------------------------------------------------------

def test_criterion_9_fold_protocol():
    folds = td.make_folds(645, 10, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [64] * 5 + [65] * 5
    flat = sorted(i for f in folds for i in f)
    assert flat == list(range(645))
    report(9, "make_folds(645, 10): five folds of 65 and five of 64, "
              "union is a partition")


# --------------------------------------------------------------------------
# 10. Explicit non-reproduction
# --------------------------------------------------------------------------

def test_criterion_10_non_reproduction_notice():
    # Full-corpus benchmark accuracies and full-graph completion numbers are
    # out of scope at this scale; criteria 1-9 are the substitute contract.
    # Nothing to assert beyond the suite itself existing and running.
    report(10, "full-scale benchmark numbers intentionally not reproduced; "
               "property-based criteria 1-9 stand in")


if __name__ == "__main__":
    criteria = sorted(
        (int(name.split("_")[2]), fn)
        for name, fn in globals().items()
        if name.startswith("test_criterion_")
    )
    failures = 0
    for number, fn in criteria:
        try:
            fn()
        except AssertionError as err:
            failures += 1
            print(f"ACCEPTANCE {number} FAIL: {err}")
    raise SystemExit(1 if failures else 0)
