"""The classifier's forward pass as it ran before ``model.predict`` took a whole batch,
kept as the reference for the batched one: a batch is cut into ``chunks`` of
consecutive whole articles of at most ROW_BUDGET real body words, and each chunk is one
``predict`` that embeds every word occurrence and pads every sentence to the chunk's
longest one. It calls the layers through ``stancenet.model``, so it shares their
parameters and arithmetic.
"""

import functools

import numpy as np

from stancenet import autodiff as ad
from stancenet import model as md
from stancenet.autodiff import DegenerateInput
from stancenet.textdata import EncodedArticle

ROW_BUDGET = 1024  # real body words per chunk


def chunks(articles):
    """Runs of consecutive whole articles holding at most ROW_BUDGET real body words
    each, in order; an article over the budget is a run of its own."""
    chunk, rows = [], 0
    for article in articles:
        words = int(article.word_masks.sum())
        if chunk and rows + words > ROW_BUDGET:
            yield chunk
            chunk, rows = [], 0
        chunk.append(article)
        rows += words
    if chunk:
        yield chunk


def predict(articles, params, bundle, hp):
    """One chunk's class probabilities: every level runs once on the chunk, the word
    level on a grid cut after the chunk's last real word."""
    def embed(ids):
        if hp.mode == "All":
            return md.inject_knowledge(ids, params, bundle, hp.alpha, hp.beta)
        return ad.gather_rows(params.word_table, ids)

    one = isinstance(articles, EncodedArticle)
    chunk = [articles] if one else list(articles)
    active = [np.flatnonzero(a.sentence_mask) for a in chunk]
    counts = np.array([act.size for act in active])
    if not counts.all():
        raise DegenerateInput("predict got an all-masked article")
    masks = np.concatenate([a.word_masks[act] for a, act in zip(chunk, active)])
    n = masks.shape[1] - int(np.argmax(masks.any(axis=0)[::-1]))  # after the last real word
    masks = masks[:, :n]
    ids = np.concatenate([a.sentences[act, :n] for a, act in zip(chunk, active)])
    words = md.word_level(embed(ids[masks != 0]), masks, params)
    rows = ad.mean_rows(words, ad.constant(masks))
    smask = (np.arange(counts.max()) < counts[:, None]).astype(np.float64)
    if hp.mode != "W":
        rows = md.sentence_level(rows, smask, params)
    if hp.mode in md.TITLE_MODES:
        title_masks = np.stack([a.title_mask for a in chunk])
        if not title_masks.any(axis=1).all():
            raise DegenerateInput("title-level modes need a non-empty title")
        titles = embed(np.stack([a.title for a in chunk])[title_masks != 0])
        rows = md.title_level(ad.mean_rows(titles, ad.constant(title_masks)), rows, smask,
                              params)

    pooled = ad.mean_rows(rows, ad.constant(smask))
    probs = ad.softmax_rows(ad.linear(pooled, params.out_w, params.out_b))
    return ad.reshape(probs, (hp.classes,)) if one else probs


def batch_loss(batch, params, bundle, hp):
    """The mean cross-entropy of a batch, from one ``predict`` call per chunk of it."""
    losses = [md.cross_entropy(predict(chunk, params, bundle, hp), [a.label for a in chunk])
              for chunk in chunks(batch)]
    return ad.scale(functools.reduce(ad.add, losses), 1.0 / len(batch))


def probabilities(articles, params, bundle, hp):
    """The [B, classes] probabilities of a list of articles, one chunk at a time."""
    return np.concatenate([predict(chunk, params, bundle, hp).data
                           for chunk in chunks(articles)])
