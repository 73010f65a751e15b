"""Corpus handling: tokenised articles to fixed-shape encoded inputs.

Input articles are pre-tokenised lowercase text; bodies carry sentence
boundaries as a literal ``<sep>`` token. Encoding truncates to the first
``l`` sentences and first ``n`` words per sentence and pads the rest with
word id 0, ``PAD_ID``. An encoded article is its word ids alone: id 0 is
padding and nothing else (a literal ``<pad>`` token encodes as ``<unk>``),
so its 0/1 masks are derived from the ids, and padding can never leak into
attention or averages.

Also home to the synthetic corpus generators used by the demos and the
acceptance suite, and to fold construction for cross-validation.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
SEP_TOKEN = "<sep>"

_RESERVED = {PAD_TOKEN, UNK_TOKEN, SEP_TOKEN}


def text_lines(path) -> Iterator[tuple[int, str]]:
    """The lines of a UTF-8 text file, numbered from 1. A byte sequence that is not
    UTF-8 raises ValueError with ``not_utf8``'s message; a path that cannot be opened
    raises the OSError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as err:
            raise ValueError(not_utf8(path)) from err


def not_utf8(path) -> str:
    """``{path}:{line}: ...`` naming the first line of a file that is not UTF-8. The
    decoder reads ahead, so the line is found by decoding each line's bytes; no UTF-8
    sequence holds a newline byte. Read only after a decode has failed."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as err:
                return f"{path}:{lineno}: not UTF-8 text ({err})"
    return f"{path}: not UTF-8 text"


# what np.load and an archive member read raise on a file that is not a whole .npz
_NPZ_ERRORS = (zipfile.BadZipFile, EOFError, OSError, ValueError)


def open_npz(path):
    """``np.load(path)`` without pickles; a path that is not a readable .npz archive
    (missing, a directory, cut short, not a zip, a pickle) raises ValueError naming
    the file."""
    try:
        return np.load(path)
    except _NPZ_ERRORS as err:
        raise ValueError(f"{path}: not a readable .npz archive ({err})") from err


def npz_array(data, key: str, path) -> np.ndarray:
    """Array ``key`` of an open archive; one that cannot be read (an object array, a
    damaged member, a member that is not .npy data) raises ValueError naming the file
    and the array."""
    try:
        array = data[key]
    except _NPZ_ERRORS as err:
        raise ValueError(f"{path}: array {key!r} cannot be read: {err}") from err
    if not isinstance(array, np.ndarray):  # np.load returns such a member's raw bytes
        raise ValueError(f"{path}: array {key!r} cannot be read: not .npy data")
    return array


@dataclass
class RawArticle:
    title: str
    body: str
    label: int


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self):
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        """The token's id; ``<unk>``'s for a token outside the vocabulary and for
        ``<pad>``, since id 0 marks padding only."""
        return UNK_ID if token == PAD_TOKEN else self.token_to_id.get(token, UNK_ID)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.id_to_token:
                fh.write(token + "\n")

    @staticmethod
    def load(path) -> "Vocabulary":
        tokens = [line.rstrip("\n") for _, line in text_lines(path) if line.strip()]
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError(f"{path}: vocabulary must start with {PAD_TOKEN}, {UNK_TOKEN}")
        token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(token_to_id) != len(tokens):  # a repeated token leaves its first id dead
            i = next(i for i, t in enumerate(tokens) if token_to_id[t] != i)
            raise ValueError(f"{path}: token {tokens[i]!r} is repeated, at ids {i} "
                             f"and {token_to_id[tokens[i]]}")
        return Vocabulary(token_to_id, tokens)


@dataclass
class EncodedArticle:
    """One article as fixed-shape word id matrices, PAD_ID wherever there is no word.
    Its float 0/1 masks are read from the ids."""

    sentences: np.ndarray  # [l, n] word ids
    title: np.ndarray      # [n] word ids
    label: int

    @property
    def word_masks(self) -> np.ndarray:  # [l, n]
        return (self.sentences != PAD_ID).astype(np.float64)

    @property
    def sentence_mask(self) -> np.ndarray:  # [l], 1 for a sentence with a word
        return (self.sentences != PAD_ID).any(axis=1).astype(np.float64)

    @property
    def title_mask(self) -> np.ndarray:  # [n]
        return (self.title != PAD_ID).astype(np.float64)


def split_sentences(body: str) -> list[list[str]]:
    """Split a token string into sentences at SEP_TOKEN, dropping empties."""
    current: list[str] = []
    sentences = [current]
    for token in body.split():
        if token != SEP_TOKEN:
            current.append(token)
        elif current:  # a separator ends a sentence that has a word
            current = []
            sentences.append(current)
    return sentences if current else sentences[:-1]


def _article_tokens(article: RawArticle) -> Iterable[str]:
    for sent in split_sentences(article.body):
        yield from sent
    for token in article.title.split():
        if token != SEP_TOKEN:
            yield token


def build_vocab(corpus: list[RawArticle]) -> Vocabulary:
    """Deterministic vocabulary: reserved ids 0/1, then corpus tokens in sorted order."""
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    seen = set()
    for article in corpus:
        seen.update(_article_tokens(article))
    seen -= _RESERVED
    id_to_token = [PAD_TOKEN, UNK_TOKEN] + sorted(seen)
    return Vocabulary({t: i for i, t in enumerate(id_to_token)}, id_to_token)


def encode_article(article: RawArticle, vocab: Vocabulary, n: int, l: int) -> EncodedArticle:
    """Encode one article to [l, n] id matrices with keep-first truncation."""
    if n < 1 or l < 1:
        raise ValueError(f"sequence limits must be positive, got n={n}, l={l}")
    sentence_tokens = split_sentences(article.body)
    if not sentence_tokens:
        raise ValueError(f"article {article.title!r} has no sentences after splitting")

    sentences = np.full((l, n), PAD_ID, dtype=np.int64)
    for j, tokens in enumerate(sentence_tokens[:l]):
        kept = tokens[:n]
        sentences[j, : len(kept)] = [vocab.lookup(t) for t in kept]

    title = np.full(n, PAD_ID, dtype=np.int64)
    title_tokens = [t for t in article.title.split() if t != SEP_TOKEN][:n]
    title[: len(title_tokens)] = [vocab.lookup(t) for t in title_tokens]
    return EncodedArticle(sentences, title, article.label)


def encode_corpus(corpus: list[RawArticle], vocab: Vocabulary, n: int, l: int) -> list[EncodedArticle]:
    return [encode_article(a, vocab, n, l) for a in corpus]


def make_folds(dataset_size: int, k: int, seed: int) -> list[list[int]]:
    """Shuffle [0, dataset_size) with the seed and slice into k near-equal folds."""
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if k > dataset_size:
        raise ValueError(f"cannot make {k} folds from {dataset_size} items")
    order = np.random.default_rng(seed).permutation(dataset_size)
    return [f.tolist() for f in np.array_split(order, k)]


# --------------------------------------------------------------------------
# Article files (one JSON object per line)
# --------------------------------------------------------------------------

def load_corpus(path) -> tuple[list[RawArticle], int]:
    """Read a JSONL article file; returns the articles and the class count.

    The first line may be a ``classes=<C>`` header; otherwise C is inferred
    as max(label)+1. Every record must have exactly the keys title, body,
    label.
    """
    articles: list[RawArticle] = []
    declared: Optional[int] = None
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        if lineno == 1 and line.startswith("classes="):
            try:
                declared = int(line.split("=", 1)[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad classes header {line!r}")
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{lineno}: invalid JSON ({err.msg})")
        if not isinstance(record, dict) or set(record) != {"title", "body", "label"}:
            raise ValueError(f"{path}:{lineno}: expected exactly the keys title/body/label")
        if type(record["label"]) is not int or record["label"] < 0:  # bool is an int
            raise ValueError(f"{path}:{lineno}: label must be a non-negative integer")
        if declared is not None and record["label"] >= declared:
            raise ValueError(f"{path}:{lineno}: label {record['label']} >= classes {declared}")
        for key in ("title", "body"):
            if not isinstance(record[key], str):
                raise ValueError(f"{path}:{lineno}: {key} must be a string")
        articles.append(RawArticle(record["title"], record["body"], record["label"]))
    if not articles:
        raise ValueError(f"{path}: no articles found")
    return articles, declared if declared is not None else max(a.label for a in articles) + 1


def save_corpus(path, articles: list[RawArticle], classes: Optional[int] = None):
    with open(path, "w", encoding="utf-8") as fh:
        if classes is not None:
            fh.write(f"classes={classes}\n")
        for a in articles:
            fh.write(json.dumps({"title": a.title, "body": a.body, "label": a.label}) + "\n")


def class_histogram(articles: list[RawArticle], classes: int) -> list[int]:
    counts = [0] * classes
    for a in articles:
        counts[a.label] += 1
    return counts


# --------------------------------------------------------------------------
# Encoded corpus files
# --------------------------------------------------------------------------

def save_encoded(path, encoded: list[EncodedArticle], classes: int):
    np.savez(
        path,
        sentences=np.stack([e.sentences for e in encoded]),
        titles=np.stack([e.title for e in encoded]),
        labels=np.array([e.label for e in encoded], dtype=np.int64),
        classes=np.array(classes, dtype=np.int64),
    )


# the rank of each array of an encoded corpus: [N, l, n], [N, n], [N], and a scalar
_ENCODED_RANKS = {"sentences": 3, "titles": 2, "labels": 1, "classes": 0}


def load_encoded(path) -> tuple[list[EncodedArticle], int]:
    """The encoded articles and the class count, from the ``sentences``, ``titles``,
    ``labels`` and ``classes`` arrays. Any other array is ignored, so the mask arrays
    that older files also hold change nothing: the masks are derived from the ids.

    A file that is not a readable .npz archive, a missing or unreadable array, an
    array of the wrong rank or of a non-integer
    dtype, arrays that disagree on the article count or on the sentence width ``n``,
    a label outside ``[0, classes)``, or an article with no word (only PAD_ID in its
    sentences) raises ValueError naming the file, and the array or the article.

    Each array is read from the archive once and the articles are rows of
    it: every archive lookup reads a fresh copy of the whole array, so a
    lookup per article would hold memory growing with the square of the count.
    """
    arrays = {}
    with open_npz(path) as data:
        for key, rank in _ENCODED_RANKS.items():
            if key not in data.files:
                raise ValueError(f"{path}: not an encoded corpus (no {key!r} array)")
            arr = npz_array(data, key, path)
            if arr.ndim != rank or not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{path}: array {key!r} must be a rank-{rank} integer "
                                 f"array, not a rank-{arr.ndim} {arr.dtype} one")
            arrays[key] = arr
    sentences, titles, labels = arrays["sentences"], arrays["titles"], arrays["labels"]
    classes = int(arrays["classes"])
    counts = {key: len(arrays[key]) for key in ("sentences", "titles", "labels")}
    if len(set(counts.values())) != 1:
        raise ValueError(f"{path}: arrays disagree on the article count: " +
                         ", ".join(f"{key!r} has {count}" for key, count in counts.items()))
    if titles.shape[1] != sentences.shape[2]:
        raise ValueError(f"{path}: array 'titles' holds {titles.shape[1]} words per "
                         f"title, but 'sentences' {sentences.shape[2]} per sentence")
    outside = np.flatnonzero((labels < 0) | (labels >= classes))
    if outside.size:
        i = int(outside[0])
        raise ValueError(f"{path}: article {i} has label {int(labels[i])}, outside [0, {classes})")
    wordless = np.flatnonzero((sentences == PAD_ID).all(axis=(1, 2)))
    if wordless.size:
        raise ValueError(f"{path}: article {int(wordless[0])} has no word")
    encoded = [EncodedArticle(sentences[i], titles[i], int(labels[i]))
               for i in range(labels.shape[0])]
    return encoded, classes


# --------------------------------------------------------------------------
# Synthetic corpora
# --------------------------------------------------------------------------

def gen_synthetic(
    num_articles: int,
    classes: int,
    planted_tokens_per_class: int = 3,
    seed: int = 0,
) -> list[RawArticle]:
    """Separable toy corpus: each class owns marker tokens mixed into shared filler.

    Article i gets label i % classes (balanced within one article). Marker
    tokens follow the ``marker<c>w<i>`` convention and never appear under a
    different label, so a bag-of-words majority vote over markers recovers
    every label; titles always carry at least one marker.
    """
    for name, value, least in (("classes", classes, 2), ("num_articles", num_articles, 1),
                               ("planted_tokens_per_class", planted_tokens_per_class, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    rng = np.random.default_rng(seed)
    markers = [
        [f"marker{c}w{i}" for i in range(planted_tokens_per_class)] for c in range(classes)
    ]
    fillers = [f"filler{i}" for i in range(16)]

    articles = []
    for i in range(num_articles):
        label = i % classes
        own = markers[label]
        title_words = [str(rng.choice(own))] + list(rng.choice(fillers, size=2))
        sentence_count = int(rng.integers(2, 5))
        sentences = []
        for s in range(sentence_count):
            words = list(rng.choice(fillers, size=int(rng.integers(3, 7))))
            if s == 0 or rng.random() < 0.5:
                words.insert(int(rng.integers(0, len(words) + 1)), str(rng.choice(own)))
            sentences.append(" ".join(words))
        articles.append(
            RawArticle(" ".join(title_words), f" {SEP_TOKEN} ".join(sentences), label)
        )
    return articles


def gen_knowledge_corpus(num_articles: int) -> tuple[list[RawArticle], dict[str, int]]:
    """Two-class corpus whose text is class-uninformative.

    Every article has the same filler skeleton; the only varying token is a
    per-article entity name (``entity<i>``) that appears in both title and
    body. Returns the articles and the entity-token -> label map, so the
    class signal can be planted in knowledge tables instead of text.
    """
    fillers = [f"filler{i}" for i in range(8)]
    articles = []
    entity_labels: dict[str, int] = {}
    for i in range(num_articles):
        label = i % 2
        entity = f"entity{i}"
        entity_labels[entity] = label
        # identical skeleton per article; the label never influences the text
        body = (
            f"{fillers[0]} {fillers[1]} {entity} {fillers[2]} "
            f"{SEP_TOKEN} {fillers[3]} {entity} {fillers[4]} {fillers[5]}"
        )
        title = f"{entity} {fillers[6]} {fillers[7]}"
        articles.append(RawArticle(title, body, label))
    return articles, entity_labels
