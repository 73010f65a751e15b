"""Knowledge graph embedding: scoring, training, and link-prediction evaluation.

A knowledge graph is a set of <head, relation, tail> facts. Entities and
relations get dense embeddings trained so that observed facts score higher
than corrupted ones. Three scoring functions are supported:

* ``RotatE``  - entities are complex vectors (dim/2 pairs stored real-part
  first), relations are unit-modulus rotations; score is gamma minus the
  summed complex moduli of ``h * r - t``.
* ``ModE``    - real elementwise product; score is gamma minus the L1
  distance between ``h * r`` and ``t``.
* ``HAKE``    - entities split into a modulus half and a phase half;
  score is gamma minus a weighted L2 modulus distance minus a weighted
  L1 phase distance through ``|sin((h_p + r_p - t_p) / 2)|``.

Each formula is written once, in ``_scores``, from autodiff ops over rows
of entity embeddings: training scores a positive and its negatives as one
batch on the tape, while ranking and ``score_triple`` run the same ops
with no tape active.

Training minimises a self-adversarial negative-sampling loss with SGD.
Evaluation scores every entity as a replacement for the head and for the
tail of each test triple and ranks the true one in the filtered setting:
one mask per side drops the other known-true triples from the candidate
pool, and ties are broken by ascending entity id.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor

METHODS = ("RotatE", "ModE", "HAKE")

_GRAD_EPS = 1e-30  # keeps sqrt gradients bounded when a distance hits zero


class TripleFormatError(ValueError):
    """A triple file line that is not head<TAB>relation<TAB>tail."""


@dataclass
class TripleStore:
    """One knowledge graph: vocabularies in first-appearance order plus its facts."""

    entities: dict[str, int]
    entity_names: list[str]
    relations: dict[str, int]
    relation_names: list[str]
    triples: list[tuple[int, int, int]]
    stance_tag: str
    duplicates_dropped: int = 0

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)


def load_triples(path, stance_tag: str) -> TripleStore:
    """Parse a TSV triple file; '#' lines are comments, duplicates are dropped."""
    entities: dict[str, int] = {}
    entity_names: list[str] = []
    relations: dict[str, int] = {}
    relation_names: list[str] = []
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    duplicates = 0

    def intern(name: str, table: dict[str, int], names: list[str]) -> int:
        if name not in table:
            table[name] = len(names)
            names.append(name)
        return table[name]

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripleFormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            h = intern(fields[0], entities, entity_names)
            r = intern(fields[1], relations, relation_names)
            t = intern(fields[2], entities, entity_names)
            triple = (h, r, t)
            if triple in seen:
                duplicates += 1
                continue
            seen.add(triple)
            triples.append(triple)
    return TripleStore(entities, entity_names, relations, relation_names, triples,
                       stance_tag, duplicates)


@dataclass
class KgeConfig:
    method: str = "RotatE"
    dim: int = 16
    gamma: float = 6.0
    negatives: int = 8
    lr: float = 0.05
    epochs: int = 100
    seed: int = 0
    adv_temperature: float = 1.0
    lambda_modulus: float = 1.0
    lambda_phase: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown embedding method {self.method!r}; choose from {METHODS}")
        if self.method in ("RotatE", "HAKE") and self.dim % 2 != 0:
            raise ValueError(f"{self.method} needs an even dim (pairs/halves), got {self.dim}")


@dataclass
class KgeModel:
    """Trained entity/relation parameters under one scoring method."""

    method: str
    dim: int
    gamma: float
    entity: np.ndarray    # [n_entities, dim]
    relation: np.ndarray  # [n_relations, dim or dim/2]
    lambda_modulus: float = 1.0
    lambda_phase: float = 1.0
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def n_entities(self) -> int:
        return self.entity.shape[0]


def _wrap_phase(x: np.ndarray) -> np.ndarray:
    return np.mod(x + np.pi, 2.0 * np.pi) - np.pi


def init_kge_model(n_entities: int, n_relations: int, config: KgeConfig) -> KgeModel:
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(config.dim)
    entity = rng.uniform(-bound, bound, (n_entities, config.dim))
    if config.method == "RotatE":
        relation = rng.uniform(-np.pi, np.pi, (n_relations, config.dim // 2))
    elif config.method == "ModE":
        relation = rng.uniform(-bound, bound, (n_relations, config.dim))
    else:  # HAKE: modulus half free, phase half wrapped
        relation = rng.uniform(-bound, bound, (n_relations, config.dim))
        half = config.dim // 2
        relation[:, half:] = rng.uniform(-np.pi, np.pi, (n_relations, half))
        entity[:, half:] = _wrap_phase(entity[:, half:])
    return KgeModel(config.method, config.dim, config.gamma, entity, relation,
                    config.lambda_modulus, config.lambda_phase)


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------

def _scores(m: KgeModel, h: Tensor, r: Tensor, t: Tensor) -> Tensor:
    """Scores of the rows of (h, r, t) under m's method, as a [B] tensor.

    h and t are [B, dim] entity rows, or one [1, dim] row shared by every
    row of the other; r is one [1, w] relation row. Only m's method and
    constants are read, so the same formulas serve tape-recorded training
    and tape-free ranking.
    """
    dim, half = m.dim, m.dim // 2

    def halves(x):
        return ad.slice_cols(x, 0, half), ad.slice_cols(x, half, dim)

    if m.method == "RotatE":
        (h_re, h_im), (t_re, t_im) = halves(h), halves(t)
        cos_r, sin_r = ad.cos(r), ad.sin(r)
        d_re = ad.sub(ad.sub(ad.mul(h_re, cos_r), ad.mul(h_im, sin_r)), t_re)
        d_im = ad.sub(ad.add(ad.mul(h_re, sin_r), ad.mul(h_im, cos_r)), t_im)
        sq = ad.add(ad.mul(d_re, d_re), ad.mul(d_im, d_im))
        dist = ad.sum_rows(ad.sqrt(ad.add(sq, ad.constant(np.full(half, _GRAD_EPS)))))
    elif m.method == "ModE":
        dist = ad.sum_rows(ad.absolute(ad.sub(ad.mul(h, r), t)))
    else:  # HAKE
        (h_m, h_p), (t_m, t_p), (r_m, r_p) = halves(h), halves(t), halves(r)
        d_m = ad.sub(ad.mul(h_m, r_m), t_m)
        sq = ad.sum_rows(ad.mul(d_m, d_m))
        mod_term = ad.sqrt(ad.add(sq, ad.constant(np.full(sq.shape, _GRAD_EPS))))
        d_p = ad.scale(ad.sub(ad.add(h_p, r_p), t_p), 0.5)
        phase_term = ad.sum_rows(ad.absolute(ad.sin(d_p)))
        dist = ad.add(ad.scale(mod_term, m.lambda_modulus), ad.scale(phase_term, m.lambda_phase))
    return ad.sub(ad.constant(np.full(dist.shape, m.gamma)), dist)


def _row(table: np.ndarray, i: int) -> Tensor:
    return ad.constant(table[i : i + 1])


def score_triple(m: KgeModel, h: int, r: int, t: int) -> float:
    """Plausibility score of one triple; higher means more plausible."""
    return float(_scores(m, _row(m.entity, h), _row(m.relation, r), _row(m.entity, t)).data[0])


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------

def train_kge(store: TripleStore, config: KgeConfig) -> KgeModel:
    """Fit embeddings to a triple store with self-adversarial negative sampling.

    One SGD step per positive triple, in a fixed order, so a seed fully
    determines the final parameters. The positive and its negatives are
    scored as one batch. Per-epoch mean losses are recorded on the
    returned model.
    """
    if not store.triples:
        raise ValueError("cannot train on an empty triple store")
    model = init_kge_model(store.n_entities, store.n_relations, config)
    ent = Tensor(model.entity, requires_grad=True)
    rel = Tensor(model.relation, requires_grad=True)
    rng = np.random.default_rng(config.seed + 1)
    n_ent = store.n_entities
    half = config.dim // 2
    n_neg = config.negatives if n_ent >= 2 else 0
    # loss = -sum_i weight_i * logsigmoid(sign_i * score_i); row 0 is the positive
    signs = ad.constant(np.r_[1.0, -np.ones(n_neg)])

    def wrap_params():
        if config.method == "RotatE":
            rel.data[:] = _wrap_phase(rel.data)
        elif config.method == "HAKE":
            ent.data[:, half:] = _wrap_phase(ent.data[:, half:])
            rel.data[:, half:] = _wrap_phase(rel.data[:, half:])

    for _ in range(config.epochs):
        losses = []
        for h, r, t in store.triples:
            heads, tails = [h], [t]
            for _ in range(n_neg):
                corrupt_head = bool(rng.integers(0, 2))
                cand = int(rng.integers(0, n_ent))
                if cand == (h if corrupt_head else t):
                    cand = (cand + 1) % n_ent
                heads.append(cand if corrupt_head else h)
                tails.append(t if corrupt_head else cand)
            with Tape() as tape:
                scores = _scores(model, ad.gather_rows(ent, heads), ad.gather_rows(rel, [r]),
                                 ad.gather_rows(ent, tails))
                weights = np.ones(1 + n_neg)
                if n_neg:
                    # adversarial weights are data, not part of the gradient
                    raw = scores.data[1:]
                    w = np.exp(config.adv_temperature * (raw - raw.max()))
                    weights[1:] = w / w.sum()
                fit = ad.logsigmoid(ad.mul(scores, signs))
                loss = ad.scale(ad.sum_all(ad.mul(fit, ad.constant(weights))), -1.0)
                tape.backward(loss)
            losses.append(float(loss.data))
            for p in (ent, rel):
                if p.grad is not None:
                    if not np.all(np.isfinite(p.grad)):
                        raise FloatingPointError("non-finite gradient in embedding training")
                    p.data -= config.lr * p.grad
                    p.zero_grad()
            wrap_params()
        model.epoch_losses.append(float(np.mean(losses)))

    model.entity = ent.data
    model.relation = rel.data
    return model


# --------------------------------------------------------------------------
# Link-prediction evaluation
# --------------------------------------------------------------------------

def evaluate_completion(
    m: KgeModel,
    store: TripleStore,
    test: Sequence[tuple[int, int, int]],
    k_list: Sequence[int] = (1, 3, 10),
) -> dict[str, float]:
    """Filtered ranking metrics (MR, MRR, HITS@k) over head and tail corruption.

    For each test triple and each side, every entity is scored as a
    replacement; entities forming a different known-true triple are
    excluded. The true entity's rank counts strictly-better scores plus
    equal-score entities with a smaller id.
    """
    if not test:
        raise ValueError("evaluate_completion needs at least one test triple")
    known_heads: dict[tuple[int, int], list[int]] = defaultdict(list)
    known_tails: dict[tuple[int, int], list[int]] = defaultdict(list)
    for h, r, t in set(store.triples) | {tuple(tr) for tr in test}:
        known_heads[r, t].append(h)
        known_tails[h, r].append(t)

    ids = np.arange(m.n_entities)
    every = ad.constant(m.entity)
    ranks: list[int] = []
    for h, r, t in test:
        rel = _row(m.relation, r)
        for true_id, scores, known in (
            (h, _scores(m, every, rel, _row(m.entity, t)), known_heads[r, t]),
            (t, _scores(m, _row(m.entity, h), rel, every), known_tails[h, r]),
        ):
            s = scores.data
            better = (s > s[true_id]) | ((s == s[true_id]) & (ids < true_id))
            better[known] = False  # includes the true entity itself
            ranks.append(1 + int(better.sum()))

    arr = np.array(ranks, dtype=np.float64)
    metrics = {"MR": float(arr.mean()), "MRR": float((1.0 / arr).mean())}
    for k in k_list:
        metrics[f"HITS@{k}"] = float((arr <= k).mean())
    return metrics


# --------------------------------------------------------------------------
# Vocabulary-aligned export
# --------------------------------------------------------------------------

@dataclass
class KnowledgeEmbeddingTable:
    """Per-vocabulary-word external-knowledge vectors for one stance."""

    stance_tag: str
    vectors: np.ndarray   # [n_words, width]
    coverage: np.ndarray  # [n_words] 0/1, zero rows exactly where coverage is 0

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_words(self) -> int:
        return self.vectors.shape[0]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"stance={self.stance_tag}\n")
            fh.write(f"dim={self.width}\n")
            for row in self.vectors:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")

    @staticmethod
    def load(path) -> "KnowledgeEmbeddingTable":
        with open(path, encoding="utf-8") as fh:
            stance_line = fh.readline().strip()
            dim_line = fh.readline().strip()
            if not stance_line.startswith("stance=") or not dim_line.startswith("dim="):
                raise ValueError(f"{path}: expected 'stance=' and 'dim=' header lines")
            stance = stance_line.split("=", 1)[1]
            width = int(dim_line.split("=", 1)[1])
            rows = [np.array(line.split(), dtype=np.float64) for line in fh if line.strip()]
        for i, row in enumerate(rows):
            if row.size != width:
                raise ValueError(f"{path}: row {i} has {row.size} values, but dim={width}")
        vectors = np.vstack(rows) if rows else np.zeros((0, width))
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        if bad.size:
            raise ValueError(f"{path}: row {bad[0]} has a non-finite value")
        coverage = (np.abs(vectors).sum(axis=1) > 0).astype(np.float64)
        return KnowledgeEmbeddingTable(stance, vectors, coverage)


def zero_table(stance_tag: str, n_words: int, width: int) -> KnowledgeEmbeddingTable:
    return KnowledgeEmbeddingTable(
        stance_tag, np.zeros((n_words, width)), np.zeros(n_words)
    )


def load_links(path) -> dict[str, str]:
    """word<TAB>entity_name per line; '#' comments allowed."""
    links: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise TripleFormatError(
                    f"{path}:{lineno}: expected word<TAB>entity, got {len(fields)} fields"
                )
            links[fields[0]] = fields[1]
    return links


def export_aligned_table(
    m: KgeModel,
    links: dict[str, str],
    vocab,
    store: TripleStore,
    width: Optional[int] = None,
) -> KnowledgeEmbeddingTable:
    """Build a vocabulary-aligned table from entity embeddings.

    Linked words get their entity's raw parameter row (for RotatE that is
    the real-then-imaginary concatenation, for HAKE modulus-then-phase),
    truncated or zero-padded to ``width``. Unlinked words stay all-zero
    with coverage 0.
    """
    width = m.dim if width is None else int(width)
    vectors = np.zeros((len(vocab), width))
    coverage = np.zeros(len(vocab))
    for word, entity_name in links.items():
        if entity_name not in store.entities:
            raise ValueError(f"word {word!r} links to unknown entity {entity_name!r}")
        wid = vocab.token_to_id.get(word)
        if wid is None:
            continue  # word not in this corpus vocabulary
        row = m.entity[store.entities[entity_name]]
        take = min(width, row.shape[0])
        vectors[wid, :take] = row[:take]
        coverage[wid] = 1.0
    return KnowledgeEmbeddingTable(store.stance_tag, vectors, coverage)
