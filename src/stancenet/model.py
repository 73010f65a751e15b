"""The stance classifier: knowledge-injected embeddings through three
nested attention levels (words within a sentence, sentences within the
article, the title over the sentences), then mean-pool, project, softmax.

Knowledge injection mixes per-word external-knowledge vectors into the
word embeddings. ``alpha`` controls the general-knowledge mix and
``beta`` the stance-specific mix: each is the share of the embedding a
covered word keeps, so a factor of 1 keeps the original embedding
untouched and alpha = beta = 1 is bit-for-bit equivalent to running with
no knowledge at all. Words with no coverage in a table bypass that
table's mixing entirely instead of being dragged toward zero.

The ``mode`` field selects the ablation: ``W`` pools straight after the
word level, ``WS`` adds the sentence level, ``WST`` adds the title
level, and ``All`` is ``WST`` plus knowledge injection.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import DegenerateInput, Tensor
from .kge import KnowledgeEmbeddingTable, zero_table
from .textdata import EncodedArticle

MODES = ("W", "WS", "WST", "All")

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

    def __post_init__(self):
        for key in ("d", "heads"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.d % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d ({self.d})")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError(f"alpha/beta must lie in [0, 1], got {self.alpha}, {self.beta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class AttentionParams:
    """One level's fused d x d query/key/value projections (head h owns columns
    [h*d/heads, (h+1)*d/heads)) plus the shared output projection."""

    heads: int
    wq: Tensor
    wk: Tensor
    wv: Tensor
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
            for part, w in (("q", attn.wq), ("k", attn.wk), ("v", attn.wv), ("out", attn.wo)):
                yield f"{level}_attn.{part}", w
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

    def fused():
        # one d x d/heads block per head, in head order, as the columns of one matrix
        return Tensor(np.concatenate([rng.uniform(-bound, bound, (hp.d, dk))
                                      for _ in range(hp.heads)], axis=1), requires_grad=True)

    def attention():
        return AttentionParams(hp.heads, wq=fused(), wk=fused(), wv=fused(),
                               wo=draw((hp.d, hp.d)))

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
    """One knowledge-mixing step, gated per word by the table's coverage: covered rows
    scaled by w_base plus w_know times their knowledge vectors, uncovered rows kept.
    Coverage is 0/1, so the row factors (w_base or 1) and the constant term are exact."""
    cov = table.coverage[ids]
    if w_know == 0.0 or not cov.any():
        return base
    know = (w_know * cov)[:, None] * table.vectors[ids]
    return ad.add(ad.scale_rows(base, ad.constant(w_base * cov + (1.0 - cov))),
                  ad.constant(know))


def inject_knowledge(
    word_ids,
    params: ModelParams,
    bundle: KnowledgeBundle,
    alpha: float,
    beta: float,
) -> Tensor:
    """Fuse general and stance-specific knowledge into word embeddings.

    The common table is mixed in first, the two political tables are mixed
    into that result independently, and a learned fuse layer combines the
    two stance views; a residual keeps the original embedding in reach.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError(f"knowledge factors must lie in [0, 1], got {alpha}, {beta}")
    ids = np.asarray(word_ids, dtype=np.int64)
    base = ad.gather_rows(params.word_table, ids)
    e_com = _mix(base, bundle.com, ids, alpha, 1.0 - alpha)
    e_lib = _mix(e_com, bundle.lib, ids, beta, 1.0 - beta)
    e_con = _mix(e_com, bundle.con, ids, beta, 1.0 - beta)
    fused = ad.linear(ad.concat_cols([e_lib, e_con]), params.fuse_w, params.fuse_b)
    return ad.add(fused, base)


def _mask(mask, what: str) -> np.ndarray:
    """The mask as a float array; a row (last axis) with no 1 raises ``DegenerateInput(what)``."""
    mask_arr = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=np.float64)
    if not mask_arr.any(axis=-1).all():
        raise DegenerateInput(what)
    return mask_arr


def _as_shape(x: Tensor, shape) -> Tensor:
    """x reshaped to ``shape``, recording nothing when it already has that shape."""
    return x if x.shape == tuple(shape) else ad.reshape(x, shape)


def _heads(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, attn: AttentionParams,
           real: Optional[np.ndarray] = None) -> tuple[Tensor, Tensor]:
    """The attention of every level on [N, m, d] queries, keys and values ([m, d] is
    N = 1): softmax weights of the scaled dot-product scores, [N*heads, mq, mk] (keys
    masked in the [N, mk] mask get -1e9 logits, so weight exactly 0), and the projected
    values, [N*heads, mk, d/heads]; entry n*heads + h is head h of item n.

    With ``real``, the flat positions of the mask's 1s, q, k and v are the packed
    [W, d] rows of those positions: they are projected as they are and laid out in
    the mask's [N, m] positions, with zero rows at the PAD positions.
    """
    h = attn.heads

    def project(x, w):
        x = ad.matmul(x, w)
        if real is not None:
            x = _as_shape(ad.put_rows(x, real, mask.size), mask.shape + x.shape[-1:])
        return ad.split_heads(x, h)

    qh, kh, vh = project(q, attn.wq), project(k, attn.wk), project(v, attn.wv)
    offset = np.repeat((mask.reshape(-1, mask.shape[-1]) - 1.0) * 1e9, h, axis=0)[:, None, :]
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(vh.shape[2]))
    logits = ad.add(scores, ad.constant(np.broadcast_to(offset, scores.shape)))
    return ad.softmax_rows(logits), vh


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, mask, attn: AttentionParams,
                         real: Optional[np.ndarray] = None) -> Tensor:
    """Scaled dot-product attention with fused heads; masked keys get -1e9 logits.

    q, k and v are [m, d] rows with an [mk] key mask, or batches [N, m, d] with an
    [N, mk] mask; the output has the shape of q. With ``real``, the flat positions
    of the mask's 1s, q, k and v are the packed [W, d] rows of those positions (self-
    attention), and so are the output's rows: the output projection runs on them only.
    """
    mask_arr = _mask(mask, "attention needs at least one unmasked key position")
    w, vh = _heads(q, k, v, mask_arr, attn, real)
    context = ad.merge_heads(ad.matmul(w, vh), attn.heads)
    n, m, d = context.shape
    context = _as_shape(context, (n * m, d))
    if real is not None:
        context = ad.take_rows(context, real)
    return _as_shape(ad.matmul(context, attn.wo), q.shape)


def _encoder(x: Tensor, mask, attn: AttentionParams, ff: FeedForwardParams,
             what: str) -> Tensor:
    """Self-attention, then feed-forward, each with a residual; PAD rows are exactly 0.
    x is [m, d] with an [m] mask or [N, m, d] with an [N, m] mask.

    Every row-wise step (the projections, both residuals, the feed-forward) runs on
    the real rows only; the [N, m] layout is used only for scores, softmax and the
    weighted sum of values. The residuals keep each row's identity through the block
    instead of collapsing toward the attention average.
    """
    mask_arr = _mask(mask, what)
    flat = mask_arr.reshape(-1)
    size, d = flat.size, x.shape[-1]
    real = None if flat.all() else np.flatnonzero(flat)
    rows = _as_shape(x, (size, d))
    if real is not None:
        rows = ad.take_rows(rows, real)
    q = x if real is None else rows
    h = ad.add(rows, _as_shape(multi_head_attention(q, q, q, mask_arr, attn, real), rows.shape))
    h = ad.add(h, ad.linear(ad.relu(ad.linear(h, ff.w1, ff.b1)), ff.w2, ff.b2))
    if real is not None:
        h = ad.put_rows(h, real, size)
    return _as_shape(h, x.shape)


def word_level(x: Tensor, word_mask, params: ModelParams) -> Tensor:
    """Self-attention over each sentence's words ([n, d], or [L, n, d] for L
    sentences), then feed-forward; PAD rows zeroed."""
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
    w, vh = _heads(title, s, s, mask_arr, attn)
    out = ad.merge_heads(ad.scale_rows(vh, ad.reshape(w, vh.shape[:2])), attn.heads)
    return ad.add(ad.matmul(ad.reshape(out, s.shape), attn.wo), s)


def _trim(mask: np.ndarray) -> int:
    """One past the last position any row of the mask uses (all of them if none is used)."""
    used = mask.reshape(-1, mask.shape[-1]).any(axis=0)
    return mask.shape[-1] - int(np.argmax(used[::-1]))


def predict(article: EncodedArticle, params: ModelParams, bundle: KnowledgeBundle,
            hp: HyperParams) -> Tensor:
    """Class probability vector for one encoded article under the given mode.

    The word level runs once over the active sentences, cut after the last real
    word: padded sentences and PAD columns would only get zero weight and zero rows.
    Only the real words are embedded; their rows are laid out in that [L, n', d]
    grid with zero PAD rows.
    """
    def embed(ids):
        if hp.mode == "All":
            return inject_knowledge(ids, params, bundle, hp.alpha, hp.beta)
        return ad.gather_rows(params.word_table, ids)

    active = np.flatnonzero(_mask(article.sentence_mask, "predict got an all-masked article"))
    n = _trim(article.word_masks[active])
    masks = article.word_masks[active, :n]
    real = np.flatnonzero(masks)
    words = ad.put_rows(embed(article.sentences[active, :n].reshape(-1)[real]), real, masks.size)
    words = word_level(ad.reshape(words, (active.size, n, hp.d)), masks, params)
    # each sentence's vector is the mean of its real words' rows
    pool = ad.constant((masks / masks.sum(axis=1, keepdims=True))[:, None, :])
    rows = ad.reshape(ad.matmul(pool, words), (active.size, hp.d))
    smask = ad.constant(np.ones(active.size))
    if hp.mode != "W":
        rows = sentence_level(rows, smask, params)
    if hp.mode in ("WST", "All"):
        t = _trim(_mask(article.title_mask, "title-level modes need a non-empty title"))
        title = ad.mean_rows(embed(article.title[:t]), ad.constant(article.title_mask[:t]))
        rows = title_level(ad.reshape(title, (1, hp.d)), rows, smask, params)

    pooled = ad.mean_rows(rows, smask)
    logits = ad.linear(ad.reshape(pooled, (1, hp.d)), params.out_w, params.out_b)
    return ad.reshape(ad.softmax_rows(logits), (hp.classes,))


def cross_entropy(probs: Tensor, label: int) -> Tensor:
    """-log p[label], with the probability floored at 1e-12; batch averaging is the caller's job."""
    return ad.scale(ad.log(ad.clamp_min(ad.pick(probs, label), PROB_FLOOR)), -1.0)


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

_HP_KEYS = tuple(f.name for f in fields(HyperParams))


def save_checkpoint(path, params: ModelParams, hp: HyperParams, seed: int = 0):
    manifest = {**asdict(hp), "seed": seed, "n_words": params.word_table.shape[0]}
    arrays = {f"param:{name}": t.data for name, t in params.named()}
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path, expected_n_words: Optional[int] = None
                    ) -> tuple[ModelParams, HyperParams, int]:
    """Parameters, hyperparameters and seed of a checkpoint; any array that is
    missing or shaped unlike ``init_params`` for its manifest raises ValueError.
    Per-head arrays of older checkpoints (``word_attn.q0``, ...) are joined in head order.
    An older manifest's ``injection_orientation`` "inject" (each factor was the
    knowledge share) loads as factors 1 - alpha and 1 - beta; "retain" is the default.
    """
    with np.load(path) as data:
        if "manifest" not in data.files:
            raise ValueError(f"{path}: not a stancenet checkpoint (no manifest array)")
        manifest = json.loads(bytes(data["manifest"]).decode())
        for key in _HP_KEYS + ("seed", "n_words"):
            if key not in manifest:
                raise ValueError(f"{path}: checkpoint manifest has no {key!r} key")
        if manifest.get("positional", False):
            raise ValueError(f"{path}: checkpoint was trained with sinusoidal positional "
                             f"encodings, which this version no longer adds")
        hp = HyperParams(**{key: manifest[key] for key in _HP_KEYS})
        orientation = manifest.get("injection_orientation", "retain")
        if orientation == "inject":
            hp = replace(hp, alpha=1.0 - hp.alpha, beta=1.0 - hp.beta)
        elif orientation != "retain":
            raise ValueError(f"{path}: unknown injection_orientation {orientation!r}")
        if expected_n_words is not None and manifest["n_words"] != expected_n_words:
            raise ValueError(
                f"checkpoint was trained with vocabulary size {manifest['n_words']}, "
                f"but the current vocabulary has {expected_n_words} words"
            )
        params = init_params(manifest["n_words"], hp, seed=0)
        for name, t in params.named():
            parts, shape = [name], t.shape
            if f"param:{name}" not in data.files and f"param:{name}0" in data.files:
                parts, shape = [f"{name}{h}" for h in range(hp.heads)], (hp.d, hp.d // hp.heads)
            arrays = []
            for part in parts:
                if f"param:{part}" not in data.files:
                    raise ValueError(f"{path}: checkpoint has no array for parameter {part!r}")
                arrays.append(data[f"param:{part}"])
                if arrays[-1].shape != shape:
                    raise ValueError(f"{path}: parameter {part!r} has shape "
                                     f"{arrays[-1].shape}, but the manifest implies {shape}")
            t.data = np.concatenate(arrays, axis=1) if len(arrays) > 1 else arrays[0]
    return params, hp, manifest["seed"]
