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
level, and ``All`` is ``WST`` plus knowledge injection. Every level reads
packed rows, one per 1 of its mask, and ``predict`` pools them with ``mean_rows``.

``predict`` runs a whole batch at once. It embeds each distinct word once, since
every occurrence of a word gets the same row, and runs the word level on runs of
length-sorted sentences (``sentence_runs``), since attention within a sentence only
needs the sentence padded to the width of those like it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import DegenerateInput, Tensor
from .kge import KnowledgeEmbeddingTable, zero_table
from .textdata import PAD_ID, EncodedArticle, npz_array, open_npz

MODES = ("W", "WS", "WST", "All")
TITLE_MODES = ("WST", "All")  # the modes whose title level reads the article's title

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
        for key in ("d", "heads", "n", "l"):
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
    made: list[tuple[str, Tensor]] = field(default_factory=list, repr=False, compare=False)

    def named(self) -> list[tuple[str, Tensor]]:
        """The (name, tensor) pairs in the order ``_build`` made them."""
        return self.made

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]

    def zero_grads(self):
        for t in self.tensors():
            t.zero_grad()


def _build(n_words: int, hp: HyperParams, supply) -> ModelParams:
    """The one place that names and shapes the parameters.

    ``supply(name, shape)`` returns each, called in one fixed order, which
    ``ModelParams.named`` keeps; a fused query, key or value projection also gets
    ``blocks``, its number of per-head column blocks.
    """
    d, inner = hp.d, 4 * hp.d
    made = []

    def make(name, shape, blocks=1):
        made.append((name, supply(name, shape, blocks=blocks)))
        return made[-1][1]

    def attention(level):
        return AttentionParams(hp.heads, *(make(f"{level}_attn.{part}", (d, d), blocks=hp.heads)
                                           for part in ("q", "k", "v")),
                               make(f"{level}_attn.out", (d, d)))

    def feed_forward(name):
        return FeedForwardParams(make(f"{name}.w1", (d, inner)), make(f"{name}.b1", (inner,)),
                                 make(f"{name}.w2", (inner, d)), make(f"{name}.b2", (d,)))

    return ModelParams(
        word_table=make("word_table", (n_words, d)),
        word_attn=attention("word"),
        sent_attn=attention("sentence"),
        title_attn=attention("title"),
        word_ff=feed_forward("word_ff"),
        sent_ff=feed_forward("sentence_ff"),
        fuse_w=make("fuse.w", (2 * d, d)),
        fuse_b=make("fuse.b", (d,)),
        out_w=make("output.w", (d, hp.classes)),
        out_b=make("output.b", (hp.classes,)),
        made=made,
    )


def init_params(n_words: int, hp: HyperParams, seed: int = 0) -> ModelParams:
    """Uniform(-1/sqrt(d), 1/sqrt(d)) everywhere, drawn in a fixed order."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hp.d)

    def draw(name, shape, blocks=1):
        if blocks == 1:
            return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)
        # a fused projection draws one d x d/heads block per head, in head order
        block = shape[:-1] + (shape[-1] // blocks,)
        return Tensor(np.concatenate([rng.uniform(-bound, bound, block) for _ in range(blocks)],
                                     axis=1), requires_grad=True)

    return _build(n_words, hp, draw)


@dataclass
class KnowledgeBundle:
    """General plus liberal/conservative knowledge tables, vocabulary-aligned."""

    com: KnowledgeEmbeddingTable
    lib: KnowledgeEmbeddingTable
    con: KnowledgeEmbeddingTable

    def __post_init__(self):
        shapes = {(t.n_words, t.width) for t in (self.com, self.lib, self.con)}
        if len(shapes) != 1:
            raise ValueError(f"knowledge tables disagree on shape: {shapes}")

    @property
    def n_words(self) -> int:
        return self.com.n_words

    @property
    def width(self) -> int:
        return self.com.width


STANCES = ("common", "liberal", "conservative")  # the tables of a bundle, in field order


def zero_bundle(n_words: int, width: int) -> KnowledgeBundle:
    return KnowledgeBundle(*(zero_table(stance, n_words, width) for stance in STANCES))


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
    ids = np.fromiter(word_classes, dtype=np.intp, count=len(word_classes))
    signs = np.array([1.0 if cls == 0 else -1.0 for cls in word_classes.values()])
    return KnowledgeBundle(*(KnowledgeEmbeddingTable.from_rows(stance, n_words, ids,
                                                               sign[:, None] * direction)
                             for stance, sign in zip(STANCES, (signs, signs, -signs))))


# --------------------------------------------------------------------------
# Layers
# --------------------------------------------------------------------------

def _mix(base: Tensor, table: KnowledgeEmbeddingTable, ids: np.ndarray,
         w_base: float, w_know: float) -> Tensor:
    """One knowledge-mixing step, gated per word by the table's coverage: covered rows
    scaled by w_base plus w_know times their knowledge vectors, uncovered rows kept.
    Coverage is 0/1, so the row factors (w_base or 1) and the constant term are exact.
    ``table.rows(ids)`` reads only the rows of ``ids``, never the dense table."""
    cov = table.coverage[ids]
    if w_know == 0.0 or not cov.any():
        return base
    know = (w_know * cov)[:, None] * table.rows(ids)
    return ad.add(ad.scale_rows(base, ad.constant(w_base * cov + (1.0 - cov))),
                  ad.constant(know))


def factors_read(hp: HyperParams, bundle: KnowledgeBundle) -> tuple[bool, bool]:
    """Whether ``predict`` reads (alpha, beta): only in mode All, and ``_mix`` skips a
    table that covers no word, so alpha needs a covered common word, beta a stance one."""
    knowledge = hp.mode == "All"
    return (knowledge and bool(bundle.com.coverage.any()),
            knowledge and bool(bundle.lib.coverage.any() or bundle.con.coverage.any()))


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

    A bundle that is not [word-table rows, d] raises ValueError naming its width against
    d, or else its word count against the rows, whatever words ``word_ids`` holds.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError(f"knowledge factors must lie in [0, 1], got {alpha}, {beta}")
    n_words, d = params.word_table.shape
    if bundle.width != d:
        raise ValueError(f"knowledge tables are {bundle.width} wide, but d = {d}")
    if bundle.n_words != n_words:
        raise ValueError(f"knowledge tables have {bundle.n_words} words, but the word table "
                         f"has {n_words} rows")
    ids = np.asarray(word_ids, dtype=np.int64)
    base = ad.gather_rows(params.word_table, ids)
    e_com = _mix(base, bundle.com, ids, alpha, 1.0 - alpha)
    e_lib = _mix(e_com, bundle.lib, ids, beta, 1.0 - beta)
    e_con = _mix(e_com, bundle.con, ids, beta, 1.0 - beta)
    fused = ad.linear(ad.concat([e_lib, e_con], axis=1), params.fuse_w, params.fuse_b)
    return ad.add(fused, base)


def _mask(mask) -> np.ndarray:
    """The mask as [N, m] floats, an [m] mask as one item; the softmax rejects an all-0 row."""
    return np.atleast_2d(np.asarray(mask, dtype=np.float64))


def _heads(q: Tensor, q_mask: np.ndarray, x: Tensor, mask: np.ndarray,
           attn: AttentionParams) -> tuple[Tensor, Tensor]:
    """The attention of every level: packed queries q, laid out by the [N, mq] q_mask,
    over the packed rows x of the [N, m] mask. Returns the softmax weights of the scaled
    dot-product scores, [N*heads, mq, m], exactly 0 at the mask's 0s, and the projected
    values, [N*heads, m, d/heads]; entry n*heads + h is head h of item n. The packed rows
    are projected (wq scaled by 1/sqrt(d/heads)) and ``split_heads`` scatters them into
    the head grid; only the scores, the softmax and the caller's use of the weights run there."""
    h = attn.heads
    wq = ad.scale(attn.wq, 1.0 / np.sqrt(attn.wq.shape[1] // h))
    qh, kh, vh = (ad.split_heads(ad.matmul(rows, w), h, m) for rows, m, w in
                  ((q, q_mask, wq), (x, mask, attn.wk), (x, mask, attn.wv)))
    return ad.softmax_rows(ad.matmul(qh, ad.transpose(kh)), np.repeat(mask, h, axis=0)), vh


def multi_head_attention(x: Tensor, mask, attn: AttentionParams) -> Tensor:
    """Scaled dot-product self-attention with fused heads over packed rows: x holds the
    [W, d] rows of the 1s of an [m] mask, or of an [N, m] mask for N items, in mask
    order, and so does the output. Keys at the mask's 0s get weight exactly 0, and
    ``merge_heads`` gathers the head grid's context back to the mask's packed rows."""
    mask_arr = _mask(mask)
    w, vh = _heads(x, mask_arr, x, mask_arr, attn)
    return ad.matmul(ad.merge_heads(ad.matmul(w, vh), attn.heads, mask_arr), attn.wo)


def _encoder(x: Tensor, mask, attn: AttentionParams, ff: FeedForwardParams) -> Tensor:
    """Self-attention, then feed-forward, each with a residual, on the packed rows x of
    an [m] or [N, m] mask. The residuals keep each row's identity through the block
    instead of collapsing toward the attention average."""
    h = ad.add(x, multi_head_attention(x, mask, attn))
    return ad.add(h, ad.linear(ad.linear(h, ff.w1, ff.b1, relu=True), ff.w2, ff.b2))


def word_level(x: Tensor, word_mask, params: ModelParams) -> Tensor:
    """Self-attention over each sentence's words, then feed-forward: x is the packed
    rows of a sentence's [n] word mask, or of an [L, n] mask for L sentences."""
    return _encoder(x, word_mask, params.word_attn, params.word_ff)


def sentence_level(s: Tensor, sentence_mask, params: ModelParams) -> Tensor:
    """Self-attention over the packed sentence rows of an article, then feed-forward."""
    return _encoder(s, sentence_mask, params.sent_attn, params.sent_ff)


def title_level(title: Tensor, s: Tensor, sentence_mask, params: ModelParams) -> Tensor:
    """Re-weight packed sentence rows by their attention to the title, plus a residual.

    title is the [1, d] query of an [m] sentence mask ([N, d], one per item, for an
    [N, m] mask). Each head scores the sentences against the title query; instead of
    collapsing to one context row, every sentence row is scaled by its own attention
    weight, so the output stays one packed row per sentence and can carry the residual.
    """
    mask_arr = _mask(sentence_mask)
    attn = params.title_attn
    w, vh = _heads(title, np.ones((len(mask_arr), 1)), s, mask_arr, attn)
    out = ad.merge_heads(ad.scale_rows(vh, ad.reshape(w, vh.shape[:2])), attn.heads, mask_arr)
    return ad.add(ad.matmul(out, attn.wo), s)


ROW_BUDGET = 1024  # real body words per word-level run; see sentence_runs


def sentence_runs(widths: np.ndarray, words: np.ndarray) -> list[np.ndarray]:
    """The indices of S sentences, of the given widths (last real word + 1) and real
    word counts, stably sorted by width and cut into consecutive runs of at most
    ROW_BUDGET real words; a sentence over the budget is a run of its own.

    A run's word grid is as wide as its widest sentence, so sorting keeps the grid
    near each sentence's own width, and the budget bounds the grid's rows.
    """
    order = np.argsort(widths, kind="stable")
    cuts, total = [0], 0  # the first sentence of each run
    for i, count in enumerate(words[order].tolist()):
        if total + count > ROW_BUDGET and i > cuts[-1]:
            cuts.append(i)
            total = 0
        total += count
    return np.split(order, cuts[1:])


def predict(articles, params: ModelParams, bundle: KnowledgeBundle, hp: HyperParams) -> Tensor:
    """Class probabilities of a list of B encoded articles, [B, classes]; of one
    encoded article, [classes].

    The distinct words of the active sentences and, in the title modes, of the titles
    are embedded once, and every level gathers its rows from those. The word level
    runs on ``sentence_runs`` of the active sentences, each on a grid cut at its widest
    sentence, and each run's sentences are pooled with ``mean_rows``; one gather puts
    the sentence rows back in article order. The sentence and title levels run once, on
    the [B, L_max] sentence mask.
    """
    one = isinstance(articles, EncodedArticle)
    batch = [articles] if one else list(articles)
    active = [np.flatnonzero(a.sentence_mask) for a in batch]
    counts = np.array([act.size for act in active])
    if not counts.all():
        raise DegenerateInput("predict got an all-masked article")
    sentences = np.concatenate([a.sentences[act] for a, act in zip(batch, active)])
    real = sentences != PAD_ID
    ids = [sentences[real]]
    if hp.mode in TITLE_MODES:
        title_masks = np.stack([a.title_mask for a in batch])
        if not title_masks.any(axis=1).all():
            raise DegenerateInput("title-level modes need a non-empty title")
        ids.append(np.stack([a.title for a in batch])[title_masks != 0])
    unique, inverse = np.unique(np.concatenate(ids), return_inverse=True)
    if hp.mode == "All":
        table = inject_knowledge(unique, params, bundle, hp.alpha, hp.beta)
    else:
        table = ad.gather_rows(params.word_table, unique)

    slot = np.zeros(sentences.shape, dtype=np.int64)  # each word's row of table
    slot[real] = inverse[: ids[0].size]
    widths = real.shape[1] - np.argmax(real[:, ::-1], axis=1)
    runs = sentence_runs(widths, real.sum(axis=1))
    means = []
    for run in runs:
        width = widths[run[-1]]
        mask = real[run, :width]
        words = word_level(ad.gather_rows(table, slot[run, :width][mask]), mask, params)
        means.append(ad.mean_rows(words, ad.constant(mask)))  # each sentence's mean word row
    rows = ad.gather_rows(ad.concat(means, axis=0), np.argsort(np.concatenate(runs)))
    smask = (np.arange(counts.max()) < counts[:, None]).astype(np.float64)
    if hp.mode != "W":
        rows = sentence_level(rows, smask, params)
    if hp.mode in TITLE_MODES:
        titles = ad.gather_rows(table, inverse[ids[0].size :])
        rows = title_level(ad.mean_rows(titles, ad.constant(title_masks)), rows, smask, params)

    pooled = ad.mean_rows(rows, ad.constant(smask))
    probs = ad.softmax_rows(ad.linear(pooled, params.out_w, params.out_b))
    return ad.reshape(probs, (hp.classes,)) if one else probs


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """The sum over the rows of [B, classes] probabilities of -log p[label], one label
    per row; for one [classes] vector and one label, -log p[label]. Each probability is
    floored at 1e-12. Batch averaging is the caller's job.

    p[label] is read through a constant one-hot mask, so the sum adds only zeros to it.
    """
    onehot = np.zeros(probs.shape)
    labels = np.atleast_1d(labels)
    onehot.reshape(-1, probs.shape[-1])[np.arange(labels.size), labels] = 1.0
    log_p = ad.log(ad.clamp_min(probs, PROB_FLOOR))
    return ad.scale(ad.sum_all(ad.mul(log_p, ad.constant(onehot))), -1.0)


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

# manifest key -> the JSON values it takes; a number written without a point loads as int
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}
_MANIFEST_KEYS = {**{f.name: f.type for f in fields(HyperParams)}, "seed": "int",
                  "n_words": "int"}
CHECKPOINT_FORMAT = 2


def save_checkpoint(path, params: ModelParams, hp: HyperParams, seed: int = 0):
    manifest = {"format": CHECKPOINT_FORMAT, **asdict(hp), "seed": seed,
                "n_words": params.word_table.shape[0]}
    arrays = {f"param:{name}": t.data for name, t in params.named()}
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path) -> tuple[ModelParams, HyperParams, int]:
    """Parameters, hyperparameters and seed of a checkpoint of the current format.

    A file that is not a readable .npz archive, a manifest that is not a JSON object, another
    format (an older stancenet's), a manifest key missing, of the wrong JSON type or out of
    range, or an array missing, unreadable, shaped unlike the manifest's parameters or
    holding a non-finite value raises a ValueError naming the file.
    """
    with open_npz(path) as data:
        if "manifest" not in data.files:
            raise ValueError(f"{path}: not a stancenet checkpoint (no manifest array)")
        text = bytes(npz_array(data, "manifest", path))
        try:
            manifest = json.loads(text.decode())
        except ValueError as err:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: checkpoint manifest is not JSON text ({err})") from err
        if not isinstance(manifest, dict):
            raise ValueError(f"{path}: checkpoint manifest is not a JSON object")
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: an older stancenet wrote this checkpoint (manifest "
                             f"'format' {manifest.get('format')!r}, not {CHECKPOINT_FORMAT}); "
                             f"retrain the model")
        for key, kind in _MANIFEST_KEYS.items():
            if key not in manifest:
                raise ValueError(f"{path}: checkpoint manifest has no {key!r} key")
            if type(manifest[key]) not in _JSON_TYPES[kind]:  # a JSON true is no int
                raise ValueError(f"{path}: checkpoint manifest key {key!r} must be {kind}, "
                                 f"not {manifest[key]!r}")
        try:
            hp = HyperParams(**{f.name: manifest[f.name] for f in fields(HyperParams)})
        except ValueError as err:
            raise ValueError(f"{path}: checkpoint manifest: {err}") from err

        def saved(name, shape, blocks=1):
            if f"param:{name}" not in data.files:
                raise ValueError(f"{path}: checkpoint has no array for parameter {name!r}")
            array = npz_array(data, f"param:{name}", path)
            if array.shape != shape:
                raise ValueError(f"{path}: parameter {name!r} has shape {array.shape}, "
                                 f"but the manifest implies {shape}")
            bad = np.argwhere(~np.isfinite(array))
            if bad.size:
                raise ValueError(f"{path}: parameter {name!r} has a non-finite value at "
                                 f"{bad[0].tolist()}")
            return Tensor(array, requires_grad=True)

        params = _build(manifest["n_words"], hp, saved)
    return params, hp, manifest["seed"]
