"""Walk one toy article through encoding, knowledge injection, and the three
attention levels, printing shapes and asserting a few structural properties.

Every level takes and returns packed rows: one row per real position of its
mask, in mask order, with no PAD rows."""

import numpy as np

from stancenet import autodiff as ad
from stancenet import model as md
from stancenet import textdata as td
from stancenet.kge import KnowledgeEmbeddingTable

article_text = td.RawArticle(
    title="budget vote nears",
    body="the senate debates the budget <sep> a final vote nears <sep> markets watch closely",
    label=0,
)

corpus = [article_text]
vocab = td.build_vocab(corpus)
hp = md.HyperParams(d=16, heads=4, n=6, l=4, classes=2, alpha=0.4, beta=0.4, mode="All")
article = td.encode_article(article_text, vocab, n=hp.n, l=hp.l)
print("vocabulary size:", len(vocab))
print("sentence id matrix:\n", article.sentences)
print("sentence mask:", article.sentence_mask.tolist())

params = md.init_params(len(vocab), hp, seed=0)

# A bundle covering two words; the rest pass through untouched.
vectors = np.zeros((len(vocab), hp.d))
rng = np.random.default_rng(1)
for word in ("senate", "budget"):
    vectors[vocab.token_to_id[word]] = rng.uniform(-1, 1, hp.d)
bundle = md.KnowledgeBundle(
    KnowledgeEmbeddingTable("common", vectors),
    KnowledgeEmbeddingTable("liberal", vectors * 0.5),
    KnowledgeEmbeddingTable("conservative", -vectors * 0.5),
)

# Word level on one sentence: its real words' injected embeddings, [W, d].
mask = article.word_masks[0]
injected = md.inject_knowledge(article.sentences[0][mask == 1.0], params, bundle,
                               hp.alpha, hp.beta)
word_out = md.word_level(injected, mask, params)
print("word level output shape:", word_out.shape, "for", int(mask.sum()), "real words")
assert word_out.shape == (int(mask.sum()), hp.d)

# The word level runs on all active sentences at once: the packed rows of the
# [L, n] mask; each sentence vector is the mean of its real words' rows.
active = np.flatnonzero(article.sentence_mask)
masks = article.word_masks[active]
sentence, word = np.nonzero(masks)
x = md.inject_knowledge(article.sentences[active][sentence, word], params, bundle,
                        hp.alpha, hp.beta)
batch = md.word_level(x, masks, params)
print("batched word level output shape:", batch.shape)
assert np.allclose(batch.data[sentence == 0], word_out.data, rtol=1e-12, atol=1e-15), \
    "the first sentence's rows differ from the one-sentence call"
sentence_vectors = ad.mean_rows(batch, ad.constant(masks))
print("sentence vectors shape:", sentence_vectors.shape)
assert np.allclose(sentence_vectors.data[0], word_out.data.mean(axis=0), rtol=1e-12,
                   atol=1e-15), "the first sentence vector is not its words' mean"

# Sentence level over the pooled sentence vectors.
sent = md.sentence_level(sentence_vectors, np.ones(len(active)), params)
print("sentence level output shape:", sent.shape)

# Title level re-weights the sentences toward the headline, the mean of the title's
# real words; a [1, n] mask pools them into the [1, d] query of one article.
title_words = md.inject_knowledge(article.title[article.title_mask == 1.0], params, bundle,
                                  hp.alpha, hp.beta)
title_vec = ad.mean_rows(title_words, ad.constant(article.title_mask[None]))
final = md.title_level(title_vec, sent, np.ones(len(active)), params)
print("title level output shape:", final.shape)

# The whole pipeline in one call, for each ablation mode.
for mode in ("W", "WS", "WST", "All"):
    hp_mode = md.HyperParams(d=16, heads=4, n=6, l=4, classes=2,
                             alpha=0.4, beta=0.4, mode=mode)
    probs = md.predict(article, params, bundle, hp_mode)
    print(f"mode {mode:3s} -> probabilities {probs.data.round(4).tolist()}"
          f" (sum {probs.data.sum():.12f})")
    assert abs(probs.data.sum() - 1.0) < 1e-12, f"mode {mode} is not a distribution"

# With factors at 1.0 the knowledge tables are provably ignored.
hp_off = md.HyperParams(d=16, heads=4, n=6, l=4, classes=2, alpha=1.0, beta=1.0, mode="All")
other = md.zero_bundle(len(vocab), hp.d)
assert np.array_equal(md.predict(article, params, bundle, hp_off).data,
                      md.predict(article, params, other, hp_off).data), \
    "alpha=beta=1 depends on the bundle"
print("alpha=beta=1 ignores the bundle (bitwise)")
