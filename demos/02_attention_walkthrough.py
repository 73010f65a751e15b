"""Walk one toy article through encoding, knowledge injection, and the three
attention levels, printing shapes and a couple of structural properties."""

import numpy as np

from stancenet import autodiff as ad
from stancenet import model as md
from stancenet import textdata as td

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
coverage = np.zeros(len(vocab))
vectors = np.zeros((len(vocab), hp.d))
rng = np.random.default_rng(1)
for word in ("senate", "budget"):
    wid = vocab.token_to_id[word]
    coverage[wid] = 1.0
    vectors[wid] = rng.uniform(-1, 1, hp.d)
from stancenet.kge import KnowledgeEmbeddingTable
bundle = md.KnowledgeBundle(
    KnowledgeEmbeddingTable("common", vectors, coverage.copy()),
    KnowledgeEmbeddingTable("liberal", vectors * 0.5, coverage.copy()),
    KnowledgeEmbeddingTable("conservative", -vectors * 0.5, coverage.copy()),
)

# Word level: injected embeddings, self-attention within the sentence.
ids = article.sentences[0]
mask = article.word_masks[0]
injected = md.inject_knowledge(ids, params, bundle, hp.alpha, hp.beta)
word_out = md.word_level(injected, mask, params)
print("word level output shape:", word_out.shape, " PAD rows zero:",
      bool(np.all(word_out.data[mask == 0.0] == 0.0)))

# The word level runs on all active sentences at once, [L, n, d] with an [L, n]
# mask; each sentence vector is the mean of its real words' rows.
active = np.flatnonzero(article.sentence_mask)
masks = article.word_masks[active]
x = md.inject_knowledge(article.sentences[active].reshape(-1), params, bundle,
                        hp.alpha, hp.beta)
batch = md.word_level(ad.reshape(x, (len(active), hp.n, hp.d)), masks, params)
print("batched word level output shape:", batch.shape, " first sentence as above:",
      bool(np.allclose(batch.data[0], word_out.data, rtol=1e-12, atol=1e-15)))
vectors = (batch.data * masks[:, :, None]).sum(axis=1) / masks.sum(axis=1, keepdims=True)

# Sentence level over the pooled sentence vectors.
sent = md.sentence_level(ad.constant(vectors), np.ones(len(active)), params)
print("sentence level output shape:", sent.shape)

# Title level re-weights the sentences toward the headline.
title_words = md.inject_knowledge(article.title, params, bundle, hp.alpha, hp.beta)
title_vec = ad.mean_rows(title_words, ad.constant(article.title_mask))
final = md.title_level(ad.reshape(title_vec, (1, hp.d)), sent,
                       np.ones(len(active)), params)
print("title level output shape:", final.shape)

# The whole pipeline in one call, for each ablation mode.
for mode in ("W", "WS", "WST", "All"):
    hp_mode = md.HyperParams(d=16, heads=4, n=6, l=4, classes=2,
                             alpha=0.4, beta=0.4, mode=mode)
    probs = md.predict(article, params, bundle, hp_mode)
    print(f"mode {mode:3s} -> probabilities {probs.data.round(4).tolist()}"
          f" (sum {probs.data.sum():.12f})")

# With factors at 1.0 the knowledge tables are provably ignored.
hp_off = md.HyperParams(d=16, heads=4, n=6, l=4, classes=2, alpha=1.0, beta=1.0, mode="All")
other = md.zero_bundle(len(vocab), hp.d)
same = np.array_equal(md.predict(article, params, bundle, hp_off).data,
                      md.predict(article, params, other, hp_off).data)
print("alpha=beta=1 ignores the bundle (bitwise):", same)
