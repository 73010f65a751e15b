"""The stance classifier: knowledge-injected embeddings through three
nested attention levels (words within a sentence, sentences within the
article, the title over the sentences), then mean-pool, project, softmax.

Knowledge injection mixes per-word external-knowledge vectors into the
word embeddings. ``alpha`` controls the general-knowledge mix and
``beta`` the stance-specific mix; with the default ``retain``
orientation a factor of 1 keeps the original embedding untouched, so
alpha = beta = 1 is bit-for-bit equivalent to running with no knowledge
at all. The ``inject`` orientation flips the weighting (the factor
becomes the knowledge share). Words with no coverage in a table bypass
that table's mixing entirely instead of being dragged toward zero.

The ``mode`` field selects the ablation: ``W`` pools straight after the
word level, ``WS`` adds the sentence level, ``WST`` adds the title
level, and ``All`` is ``WST`` plus knowledge injection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DegenerateInput, Tensor
from .kge import KnowledgeEmbeddingTable, zero_table
from .textdata import EncodedArticle

MODES = ("W", "WS", "WST", "All")
ORIENTATIONS = ("retain", "inject")

PROB_FLOOR = 1e-12  # cross-entropy clamp; keeps a confident miss finite


@dataclass
class HyperParams:
    d: int = 64
    heads: int = 4
    n: int = 64
    l: int = 32
    classes: int = 2
    alpha: float = 0.5
    beta: float = 0.5
    mode: str = "All"
    injection_orientation: str = "retain"

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d ({self.d})")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError(f"alpha/beta must lie in [0, 1], got {self.alpha}, {self.beta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.injection_orientation not in ORIENTATIONS:
            raise ValueError(
                f"injection_orientation must be one of {ORIENTATIONS}, "
                f"got {self.injection_orientation!r}"
            )


@dataclass
class AttentionParams:
    """Per-head projections plus the shared output projection for one level."""

    wq: list[Tensor]
    wk: list[Tensor]
    wv: list[Tensor]
    wo: Tensor


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class ModelParams:
    """All learnable parameters of one classifier instance.

    Word-, sentence-, and title-level attention keep distinct parameter
    objects; nothing is shared between levels.
    """

    word_table: Tensor
    word_attn: AttentionParams
    sent_attn: AttentionParams
    title_attn: AttentionParams
    word_ff: FeedForwardParams
    sent_ff: FeedForwardParams
    fuse_w: Tensor
    fuse_b: Tensor
    out_w: Tensor
    out_b: Tensor

    def named(self) -> Iterator[tuple[str, Tensor]]:
        yield "word_table", self.word_table
        for level, attn in (("word", self.word_attn), ("sentence", self.sent_attn),
                            ("title", self.title_attn)):
            for h, (q, k, v) in enumerate(zip(attn.wq, attn.wk, attn.wv)):
                yield f"{level}_attn.q{h}", q
                yield f"{level}_attn.k{h}", k
                yield f"{level}_attn.v{h}", v
            yield f"{level}_attn.out", attn.wo
        for name, ff in (("word_ff", self.word_ff), ("sentence_ff", self.sent_ff)):
            yield f"{name}.w1", ff.w1
            yield f"{name}.b1", ff.b1
            yield f"{name}.w2", ff.w2
            yield f"{name}.b2", ff.b2
        yield "fuse.w", self.fuse_w
        yield "fuse.b", self.fuse_b
        yield "output.w", self.out_w
        yield "output.b", self.out_b

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]

    def zero_grads(self):
        for t in self.tensors():
            t.zero_grad()


def init_params(n_words: int, hp: HyperParams, seed: int = 0) -> ModelParams:
    """Uniform(-1/sqrt(d), 1/sqrt(d)) everywhere, drawn in a fixed order."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hp.d)
    dk = hp.d // hp.heads

    def draw(shape):
        return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)

    def attention():
        return AttentionParams(
            wq=[draw((hp.d, dk)) for _ in range(hp.heads)],
            wk=[draw((hp.d, dk)) for _ in range(hp.heads)],
            wv=[draw((hp.d, dk)) for _ in range(hp.heads)],
            wo=draw((hp.d, hp.d)),
        )

    def feed_forward():
        inner = 4 * hp.d
        return FeedForwardParams(draw((hp.d, inner)), draw(inner),
                                 draw((inner, hp.d)), draw(hp.d))

    return ModelParams(
        word_table=draw((n_words, hp.d)),
        word_attn=attention(),
        sent_attn=attention(),
        title_attn=attention(),
        word_ff=feed_forward(),
        sent_ff=feed_forward(),
        fuse_w=draw((2 * hp.d, hp.d)),
        fuse_b=draw(hp.d),
        out_w=draw((hp.d, hp.classes)),
        out_b=draw(hp.classes),
    )


@dataclass
class KnowledgeBundle:
    """General plus liberal/conservative knowledge tables, vocabulary-aligned."""

    com: KnowledgeEmbeddingTable
    lib: KnowledgeEmbeddingTable
    con: KnowledgeEmbeddingTable

    def __post_init__(self):
        shapes = {self.com.vectors.shape, self.lib.vectors.shape, self.con.vectors.shape}
        if len(shapes) != 1:
            raise ValueError(f"knowledge tables disagree on shape: {shapes}")

    @property
    def n_words(self) -> int:
        return self.com.n_words

    @property
    def width(self) -> int:
        return self.com.width


def zero_bundle(n_words: int, width: int) -> KnowledgeBundle:
    return KnowledgeBundle(
        zero_table("common", n_words, width),
        zero_table("liberal", n_words, width),
        zero_table("conservative", n_words, width),
    )


def make_planted_bundle(
    n_words: int,
    word_classes: dict[int, int],
    width: int,
    seed: int = 0,
    strength: float = 1.0,
) -> KnowledgeBundle:
    """Bundle whose tables encode a class signal for the given word ids.

    Class-0 words point along a fixed random direction, class-1 words along
    its negation; the conservative table is mirrored so the two stances
    disagree. Used by demos and tests where the class signal must live in
    knowledge rather than text.
    """
    rng = np.random.default_rng(seed)
    direction = rng.uniform(-1.0, 1.0, width)
    direction *= strength / np.linalg.norm(direction)
    com = np.zeros((n_words, width))
    lib = np.zeros((n_words, width))
    con = np.zeros((n_words, width))
    coverage = np.zeros(n_words)
    for wid, cls in word_classes.items():
        sign = 1.0 if cls == 0 else -1.0
        com[wid] = sign * direction
        lib[wid] = sign * direction
        con[wid] = -sign * direction
        coverage[wid] = 1.0
    return KnowledgeBundle(
        KnowledgeEmbeddingTable("common", com, coverage.copy()),
        KnowledgeEmbeddingTable("liberal", lib, coverage.copy()),
        KnowledgeEmbeddingTable("conservative", con, coverage.copy()),
    )


# --------------------------------------------------------------------------
# Layers
# --------------------------------------------------------------------------

def _mix(base: Tensor, table: KnowledgeEmbeddingTable, ids: np.ndarray,
         w_base: float, w_know: float) -> Tensor:
    """One knowledge-mixing step, gated per word by the table's coverage."""
    cov = table.coverage[ids]
    if w_know == 0.0 or not cov.any():
        return base
    mixed = ad.add(ad.scale(base, w_base), ad.scale(ad.constant(table.vectors[ids]), w_know))
    if cov.all():
        return mixed
    return ad.add(
        ad.scale_rows(mixed, ad.constant(cov)),
        ad.scale_rows(base, ad.constant(1.0 - cov)),
    )


def inject_knowledge(
    word_ids,
    params: ModelParams,
    bundle: KnowledgeBundle,
    alpha: float,
    beta: float,
    orientation: str = "retain",
) -> Tensor:
    """Fuse general and stance-specific knowledge into word embeddings.

    The common table is mixed in first, the two political tables are mixed
    into that result independently, and a learned fuse layer combines the
    two stance views; a residual keeps the original embedding in reach.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError(f"knowledge factors must lie in [0, 1], got {alpha}, {beta}")
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown injection orientation {orientation!r}")
    ids = np.asarray(word_ids, dtype=np.int64)
    base = ad.gather_rows(params.word_table, ids)

    if orientation == "retain":
        wb_a, wk_a = alpha, 1.0 - alpha
        wb_b, wk_b = beta, 1.0 - beta
    else:
        wb_a, wk_a = 1.0 - alpha, alpha
        wb_b, wk_b = 1.0 - beta, beta

    e_com = _mix(base, bundle.com, ids, wb_a, wk_a)
    e_lib = _mix(e_com, bundle.lib, ids, wb_b, wk_b)
    e_con = _mix(e_com, bundle.con, ids, wb_b, wk_b)
    fused = ad.linear(ad.concat_cols([e_lib, e_con]), params.fuse_w, params.fuse_b)
    return ad.add(fused, base)


def _mask(mask, what: str) -> np.ndarray:
    """The mask as a float array; an all-zero mask raises ``DegenerateInput(what)``."""
    mask_arr = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=np.float64)
    if not mask_arr.any():
        raise DegenerateInput(what)
    return mask_arr


def _heads(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, attn: AttentionParams
           ) -> Iterator[tuple[Tensor, Tensor]]:
    """Per head: softmax weights of scaled dot-product scores (masked keys get
    -1e9 logits) and the projected value rows."""
    offset = ad.constant((mask - 1.0) * 1e9)
    inv_sqrt_dk = 1.0 / np.sqrt(attn.wq[0].shape[1])
    for wq, wk, wv in zip(attn.wq, attn.wk, attn.wv):
        qh = ad.matmul(q, wq)
        kh = ad.matmul(k, wk)
        vh = ad.matmul(v, wv)
        logits = ad.add(ad.scale(ad.matmul(qh, ad.transpose(kh)), inv_sqrt_dk), offset)
        yield ad.softmax_rows(logits), vh


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, mask,
                         attn: AttentionParams) -> Tensor:
    """Scaled dot-product attention per head; masked keys get -1e9 logits."""
    mask_arr = _mask(mask, "attention needs at least one unmasked key position")
    outs = [ad.matmul(w, vh) for w, vh in _heads(q, k, v, mask_arr, attn)]
    return ad.matmul(ad.concat_cols(outs), attn.wo)


def _encoder(x: Tensor, mask, attn: AttentionParams, ff: FeedForwardParams,
             what: str) -> Tensor:
    """Self-attention, then feed-forward, each with a residual; PAD rows zeroed.

    The residuals keep each row's identity through the block instead of
    collapsing toward the attention average.
    """
    mask_arr = _mask(mask, what)
    h = ad.add(x, multi_head_attention(x, x, x, mask_arr, attn))
    h = ad.add(h, ad.linear(ad.relu(ad.linear(h, ff.w1, ff.b1)), ff.w2, ff.b2))
    return ad.scale_rows(h, ad.constant(mask_arr))


def word_level(x: Tensor, word_mask, params: ModelParams) -> Tensor:
    """Self-attention over one sentence's words, then feed-forward; PAD rows zeroed."""
    return _encoder(x, word_mask, params.word_attn, params.word_ff,
                    "word_level got an empty sentence")


def sentence_level(s: Tensor, sentence_mask, params: ModelParams) -> Tensor:
    """Self-attention over the article's sentence vectors, then feed-forward."""
    return _encoder(s, sentence_mask, params.sent_attn, params.sent_ff,
                    "sentence_level got an all-masked article")


def title_level(title: Tensor, s: Tensor, sentence_mask, params: ModelParams) -> Tensor:
    """Re-weight sentence rows by their attention to the title, plus a residual.

    Each head scores the sentences against the single title query; instead
    of collapsing to one context row, every sentence row is scaled by its
    own attention weight so the output stays one row per sentence and can
    carry the residual.
    """
    mask_arr = _mask(sentence_mask, "title_level got an all-masked article")
    attn = params.title_attn
    outs = [ad.scale_rows(vh, ad.reshape(w, (s.shape[0],)))
            for w, vh in _heads(title, s, s, mask_arr, attn)]
    return ad.add(ad.matmul(ad.concat_cols(outs), attn.wo), s)


def predict(article: EncodedArticle, params: ModelParams, bundle: KnowledgeBundle,
            hp: HyperParams) -> Tensor:
    """Class probability vector for one encoded article under the given mode."""
    use_knowledge = hp.mode == "All"
    l, n = article.sentences.shape

    def embed(ids):
        if use_knowledge:
            return inject_knowledge(ids, params, bundle, hp.alpha, hp.beta,
                                    hp.injection_orientation)
        return ad.gather_rows(params.word_table, ids)

    rows = []
    for j in range(l):
        if article.sentence_mask[j] == 1.0:
            mask = article.word_masks[j]
            pooled = ad.mean_rows(
                word_level(embed(article.sentences[j]), mask, params), ad.constant(mask)
            )
            rows.append(pooled)
        else:
            rows.append(ad.constant(np.zeros(hp.d)))
    sentence_vecs = ad.stack_rows(rows)
    smask = ad.constant(article.sentence_mask)

    if hp.mode == "W":
        pooled = ad.mean_rows(sentence_vecs, smask)
    else:
        refined = sentence_level(sentence_vecs, article.sentence_mask, params)
        if hp.mode == "WS":
            pooled = ad.mean_rows(refined, smask)
        else:  # WST or All
            if not article.title_mask.any():
                raise DegenerateInput("title-level modes need a non-empty title")
            title_words = embed(article.title)
            title_vec = ad.mean_rows(title_words, ad.constant(article.title_mask))
            reweighted = title_level(ad.reshape(title_vec, (1, hp.d)), refined,
                                     article.sentence_mask, params)
            pooled = ad.mean_rows(reweighted, smask)

    logits = ad.linear(ad.reshape(pooled, (1, hp.d)), params.out_w, params.out_b)
    return ad.reshape(ad.softmax_rows(logits), (hp.classes,))


def cross_entropy(probs: Tensor, label: int) -> Tensor:
    """-log p[label], with the probability floored at 1e-12; batch averaging is the caller's job."""
    return ad.scale(ad.log(ad.clamp_min(ad.pick(probs, label), PROB_FLOOR)), -1.0)


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, hp: HyperParams, seed: int = 0):
    manifest = {
        "d": hp.d, "heads": hp.heads, "n": hp.n, "l": hp.l, "classes": hp.classes,
        "alpha": hp.alpha, "beta": hp.beta, "mode": hp.mode,
        "injection_orientation": hp.injection_orientation,
        "seed": seed, "n_words": params.word_table.shape[0],
    }
    arrays = {f"param:{name}": t.data for name, t in params.named()}
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path, expected_n_words: Optional[int] = None
                    ) -> tuple[ModelParams, HyperParams, int]:
    """Parameters, hyperparameters and seed of a checkpoint; any array that is
    missing or shaped unlike ``init_params`` for its manifest raises ValueError."""
    with np.load(path) as data:
        manifest = json.loads(bytes(data["manifest"]).decode())
        if manifest.get("positional", False):
            raise ValueError(f"{path}: checkpoint was trained with sinusoidal positional "
                             f"encodings, which this version no longer adds")
        hp = HyperParams(
            d=manifest["d"], heads=manifest["heads"], n=manifest["n"], l=manifest["l"],
            classes=manifest["classes"], alpha=manifest["alpha"], beta=manifest["beta"],
            mode=manifest["mode"],
            injection_orientation=manifest["injection_orientation"],
        )
        if expected_n_words is not None and manifest["n_words"] != expected_n_words:
            raise ValueError(
                f"checkpoint was trained with vocabulary size {manifest['n_words']}, "
                f"but the current vocabulary has {expected_n_words} words"
            )
        params = init_params(manifest["n_words"], hp, seed=0)
        for name, t in params.named():
            key = f"param:{name}"
            if key not in data.files:
                raise ValueError(f"{path}: checkpoint has no array for parameter {name!r}")
            array = data[key]
            if array.shape != t.shape:
                raise ValueError(f"{path}: parameter {name!r} has shape {array.shape}, "
                                 f"but the manifest implies {t.shape}")
            t.data = array
    return params, hp, manifest["seed"]
