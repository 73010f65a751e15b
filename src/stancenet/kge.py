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
  score is gamma minus an L2 modulus distance minus an L1 phase
  distance through ``|sin((h_p + r_p - t_p) / 2)|``.

Each formula is written once for training, in ``_rotate``, ``_mode`` and
``_hake``: plain NumPy over a wave of S steps, [S, B, dim] entity rows and one
relation row per step, returning the scores and a backward function with the
hand-derived gradients. ``score_triple`` runs the same forward on a wave of
one. The SGD step (``_sgd_step``) follows the op and accumulation order of the
same loss recorded on the autodiff tape, so its parameters and losses are
bitwise the tape's; the tests keep that tape scorer as their oracle
(``tests/test_kge.py``, on the test-only tape ops of ``tests/tape_ops.py``)
and check the hand-written gradients against central differences.
Ranking scores every entity twice per test triple, so it runs a second
form of the formulas, ``_side_scorer``: each side does its per-query algebra
on one [dim/2] vector, touches a transposed copy of the entity table a few
times, and writes into work buffers allocated once per ranking. Its scores
agree with ``score_triple`` to a few ulps, not bitwise (a test holds them to
1e-12, relative or absolute, for every method, both sides and several
widths), and entities with equal rows get bitwise equal scores.

Training minimises a self-adversarial negative-sampling loss with SGD, one
step per positive. Each block of positives draws its negatives in one
generator call, the same stream as one call per step (``_draw_negatives``),
and its steps are grouped into waves (``_waves``): each step runs in the wave
right after the latest one holding an earlier step it shares an entity row or
its relation with. Steps that touch disjoint rows commute, so a wave runs as
one batched step with the per-step loop's bits. A step wraps the phases of
the rows it updated, entities' and relations' alike.
Evaluation scores every entity as a replacement for the head and for the
tail of each test triple and ranks the true one in the filtered setting:
one mask per side drops the other known-true triples from the candidate
pool, and ties of the ranking scores are broken by ascending entity id. So a
rank can differ from one computed with ``score_triple`` only where two
candidates' scores lie within a few ulps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .autodiff import Diverged, _scatter
from .textdata import text_lines

METHODS = ("RotatE", "ModE", "HAKE")

_GRAD_EPS = 1e-30  # keeps sqrt gradients bounded when a distance hits zero
_SIGN_BIT = np.uint64(1 << 63)  # of a float64 viewed as uint64


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


def _tsv_rows(path, width: int, expected: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and tab-separated fields of each line of a text file, skipping
    blank and '#' lines. A line without ``width`` fields raises ValueError
    ``{path}:{line}: expected {expected}``, the field count formatted into ``expected``;
    a line that is not UTF-8 raises it too, naming the line."""
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {expected.format(len(fields))}")
        yield lineno, fields


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

    for _, (head, relation, tail) in _tsv_rows(path, 3, "3 tab-separated fields, got {}"):
        triple = (intern(head, entities, entity_names),
                  intern(relation, relations, relation_names),
                  intern(tail, entities, entity_names))
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

    def __post_init__(self):
        """Range checks; each error names the field and the config key that sets it,
        ``kge_<field>`` (the seed is the run's ``seed``)."""
        for key, ok, rule in (
                ("dim", self.dim >= 1, "be >= 1"),
                ("negatives", self.negatives >= 0, "be >= 0"),
                ("epochs", self.epochs >= 0, "be >= 0"),
                ("seed", self.seed >= 0, "be >= 0"),
                ("lr", 0.0 < self.lr < np.inf, "be finite and > 0"),
                ("gamma", np.isfinite(self.gamma), "be finite"),
                ("adv_temperature", 0.0 <= self.adv_temperature < np.inf, "be finite and >= 0")):
            if not ok:
                config_key = key if key == "seed" else f"kge_{key}"
                raise ValueError(f"{key} must {rule} (config key {config_key!r}), "
                                 f"got {getattr(self, key)}")
        if self.method not in METHODS:
            raise ValueError(f"unknown embedding method {self.method!r} (config key "
                             f"'kge_method'); choose from {METHODS}")
        if self.method in ("RotatE", "HAKE") and self.dim % 2 != 0:
            raise ValueError(f"{self.method} needs an even dim (pairs/halves; config key "
                             f"'kge_dim'), got {self.dim}")


@dataclass
class KgeModel:
    """Trained entity/relation parameters under one scoring method."""

    method: str
    dim: int
    gamma: float
    entity: np.ndarray    # [n_entities, dim]
    relation: np.ndarray  # [n_relations, dim or dim/2]
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def n_entities(self) -> int:
        return self.entity.shape[0]


def _wrap_phase(x: np.ndarray) -> np.ndarray:
    return np.mod(x + np.pi, 2.0 * np.pi) - np.pi


def init_kge_model(n_entities: int, n_relations: int, config: KgeConfig) -> KgeModel:
    """The tables ``config.seed`` draws, every phase wrapped as a training step wraps
    it: RotatE's relation table, and HAKE's entity and relation phase halves. So a
    step need wrap only the rows it updated."""
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(config.dim)
    entity = rng.uniform(-bound, bound, (n_entities, config.dim))
    if config.method == "RotatE":
        relation = _wrap_phase(rng.uniform(-np.pi, np.pi, (n_relations, config.dim // 2)))
    elif config.method == "ModE":
        relation = rng.uniform(-bound, bound, (n_relations, config.dim))
    else:  # HAKE: modulus half free, phase half wrapped
        relation = rng.uniform(-bound, bound, (n_relations, config.dim))
        half = config.dim // 2
        relation[:, half:] = _wrap_phase(rng.uniform(-np.pi, np.pi, (n_relations, half)))
        entity[:, half:] = _wrap_phase(entity[:, half:])
    return KgeModel(config.method, config.dim, config.gamma, entity, relation)


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------

def _rotate(h: np.ndarray, r: np.ndarray, t: np.ndarray,
            gamma: float) -> tuple[np.ndarray, Callable]:
    """RotatE scores of the rows of (h, r, t) and their backward function.

    A wave of S steps: h and t are [S, B, dim] entity rows, r is [S, dim/2], one
    relation row per step. ``backward(g, grads)`` takes the [S, B] score gradients,
    writes each step's gradients of t's rows and then of h's into the [S, 2B, dim]
    ``grads`` and returns the [S, dim/2] relation rows'.
    """
    half = r.shape[1]
    h_re, h_im, t_re, t_im = h[..., :half], h[..., half:], t[..., :half], t[..., half:]
    cos_r, sin_r = np.cos(r)[:, None], np.sin(r)[:, None]
    d_re = h_re * cos_r - h_im * sin_r - t_re
    d_im = h_re * sin_r + h_im * cos_r - t_im
    root = np.sqrt(d_re * d_re + d_im * d_im + _GRAD_EPS)

    def backward(g, grads):
        b = g.shape[1]
        g_sq = (-g)[..., None] * 0.5 / root
        g_re, g_im = g_sq * d_re, g_sq * d_im
        g_re += g_re  # d_re * d_re: one term per operand
        g_im += g_im
        np.negative(g_re, out=grads[:, :b, :half])
        np.negative(g_im, out=grads[:, :b, half:])
        grads[:, b:, :half] = g_im * sin_r + g_re * cos_r
        grads[:, b:, half:] = g_im * cos_r - g_re * sin_r
        g_cos = (g_im * h_im).sum(axis=1) + (g_re * h_re).sum(axis=1)
        g_sin = (g_im * h_re).sum(axis=1) - (g_re * h_im).sum(axis=1)
        return g_sin * cos_r[:, 0] - g_cos * sin_r[:, 0]

    return gamma - root.sum(axis=2), backward


def _mode(h: np.ndarray, r: np.ndarray, t: np.ndarray,
          gamma: float) -> tuple[np.ndarray, Callable]:
    """ModE scores and backward function, as ``_rotate``'s; r is [S, dim]."""
    r = r[:, None]
    d = h * r - t

    def backward(g, grads):
        b = g.shape[1]
        g_d = (-g)[..., None] * np.sign(d)
        np.negative(g_d, out=grads[:, :b])
        np.multiply(g_d, r, out=grads[:, b:])
        return (g_d * h).sum(axis=1)

    return gamma - np.abs(d).sum(axis=2), backward


def _hake(h: np.ndarray, r: np.ndarray, t: np.ndarray,
          gamma: float) -> tuple[np.ndarray, Callable]:
    """HAKE scores and backward function, as ``_rotate``'s; r is [S, dim]."""
    half = h.shape[2] // 2
    h_m, r_m = h[..., :half], r[:, None, :half]
    d_m = h_m * r_m - t[..., :half]
    mod = np.sqrt((d_m * d_m).sum(axis=2) + _GRAD_EPS)
    d_p = (h[..., half:] + r[:, None, half:] - t[..., half:]) * 0.5
    sin_p = np.sin(d_p)

    def backward(g, grads):
        b = g.shape[1]
        g_dist = -g
        g_p = g_dist[..., None] * np.sign(sin_p) * np.cos(d_p) * 0.5
        g_m = (g_dist * 0.5 / mod)[..., None] * d_m
        g_m += g_m  # d_m * d_m: one term per operand
        np.negative(g_m, out=grads[:, :b, :half])
        np.negative(g_p, out=grads[:, :b, half:])
        np.multiply(g_m, r_m, out=grads[:, b:, :half])
        grads[:, b:, half:] = g_p
        return np.concatenate(((g_m * h_m).sum(axis=1), g_p.sum(axis=1)), axis=1)

    return gamma - (mod + np.abs(sin_p).sum(axis=2)), backward


_FORWARD = {"RotatE": _rotate, "ModE": _mode, "HAKE": _hake}


def _side_scorer(m: KgeModel) -> Callable[[int, int, bool], np.ndarray]:
    """A tape-free scorer of every entity on one side of a (relation, entity) pair.

    ``score(r, e, head)`` returns the [n_entities] scores of (every, r, e) when
    ``head`` is true, else of (e, r, every). They agree with ``score_triple`` to a
    few ulps, not bitwise: each side does its per-query algebra on [w] vectors and
    touches the table as few times as it can.

    * RotatE: a relation entry has modulus 1, so |x∘r − e| = |x − e∘r̄|, and both
      sides measure |x − q| against one vector, q = e∘r̄ (head) or e∘r (tail).
    * HAKE: sin(x/2 + k) = sin(x/2)·cos k + cos(x/2)·sin k, with the table's
      half-phase sines and cosines taken once here; k = (r_p − e_p)/2 for the head
      side, and sin(k − x/2) with k = (e_p + r_p)/2 for the tail side.
    * ModE keeps its multiply: a relation entry may be 0, so it cannot divide.

    The table is held transposed, [w, n_entities], and each entity's sum runs over
    axis 0, in the same order for every entity. So two entities with equal rows get
    bitwise equal scores wherever they sit, as the tie rule needs; a BLAS row sum
    would not, as it adds the rows past its last full block in another order. Every
    step writes into work buffers allocated once here; the returned array is one of
    them, so read it before the next call.
    """
    n, half, gamma = m.n_entities, m.dim // 2, m.gamma
    out = np.empty(n)

    if m.method == "ModE":
        every, d = np.ascontiguousarray(m.entity.T), np.empty((m.dim, n))

        def score(r, e, head):
            rel, row = m.relation[r, :, None], m.entity[e, :, None]
            if head:
                np.subtract(np.multiply(every, rel, out=d), row, out=d)
            else:
                np.subtract(row * rel, every, out=d)
            return np.subtract(gamma, np.abs(d, out=d).sum(axis=0, out=out), out=out)
        return score

    first, second = (np.ascontiguousarray(m.entity[:, :half].T),
                     np.ascontiguousarray(m.entity[:, half:].T))
    a, b = np.empty((half, n)), np.empty((half, n))

    if m.method == "RotatE":
        def score(r, e, head):
            cos_r, sin_r = np.cos(m.relation[r]), np.sin(m.relation[r])
            e_re, e_im = m.entity[e, :half], m.entity[e, half:]
            if head:  # q = e * conj(rot)
                q_re, q_im = e_re * cos_r + e_im * sin_r, e_im * cos_r - e_re * sin_r
            else:  # q = e * rot
                q_re, q_im = e_re * cos_r - e_im * sin_r, e_re * sin_r + e_im * cos_r
            np.subtract(first, q_re[:, None], out=a)
            np.subtract(second, q_im[:, None], out=b)
            np.add(np.multiply(a, a, out=a), np.multiply(b, b, out=b), out=a)
            np.sqrt(np.add(a, _GRAD_EPS, out=a), out=a)
            return np.subtract(gamma, a.sum(axis=0, out=out), out=out)
        return score

    half_phase = second * 0.5
    sin_half, cos_half = np.sin(half_phase), np.cos(half_phase)
    phase = np.empty(n)

    def score(r, e, head):  # HAKE
        r_m, r_p = m.relation[r, :half, None], m.relation[r, half:]
        e_m, e_p = m.entity[e, :half, None], m.entity[e, half:]
        if head:  # sin(x/2 + k), then x * r_m - e_m
            k = (r_p - e_p) * 0.5
            np.multiply(sin_half, np.cos(k)[:, None], out=b)
            np.add(b, np.multiply(cos_half, np.sin(k)[:, None], out=a), out=b)
            np.subtract(np.multiply(first, r_m, out=a), e_m, out=a)
        else:  # sin(k - x/2), then e_m * r_m - x
            k = (e_p + r_p) * 0.5
            np.multiply(cos_half, np.sin(k)[:, None], out=b)
            np.subtract(b, np.multiply(sin_half, np.cos(k)[:, None], out=a), out=b)
            np.subtract(e_m * r_m, first, out=a)
        mod = np.multiply(a, a, out=a).sum(axis=0, out=out)
        np.sqrt(np.add(mod, _GRAD_EPS, out=mod), out=mod)
        np.abs(b, out=b).sum(axis=0, out=phase)
        return np.subtract(gamma, np.add(mod, phase, out=out), out=out)
    return score


def score_triple(m: KgeModel, h: int, r: int, t: int) -> float:
    """Plausibility score of one triple; higher means more plausible."""
    scores, _ = _FORWARD[m.method](m.entity[None, h : h + 1], m.relation[r : r + 1],
                                   m.entity[None, t : t + 1], m.gamma)
    return float(scores[0, 0])


# --------------------------------------------------------------------------
# Training
# --------------------------------------------------------------------------

def train_kge(store: TripleStore, config: KgeConfig) -> KgeModel:
    """Fit embeddings to a triple store with self-adversarial negative sampling.

    One SGD step per positive triple, in a fixed order, so a seed fully determines
    the final parameters; per-epoch mean losses are recorded on the returned model.
    Each block of at most ``_DRAW_BLOCK`` positives draws its negatives in one call
    (``_draw_negatives``, the same stream as one draw per step) and its steps are
    grouped into waves (``_waves``): each step runs after every earlier step it
    shares a row with and before every later one, and with no step that shares
    one. A wave runs as one batched step, in plain NumPy with hand-derived
    gradients (``_sgd_step``): one gather, one forward and backward, one scatter
    into its distinct entity rows, then the updates. Each step's loss is kept at
    its own index, so an epoch's mean sums them in step order. A step updates,
    checks and wraps only the entity rows and the relation row it scores; every
    other row has a zero gradient and phases already wrapped, by ``init_kge_model``
    or by its own last update. So the parameters are those of a loop that wraps
    whole tables after every step, except that a phase a wrap returns as exactly pi
    stays pi until its row's next update. A non-finite gradient raises ``Diverged``
    once the block has run every step before the first bad one, naming that step in
    step order.
    """
    if not store.triples:
        raise ValueError("cannot train on an empty triple store")
    model = init_kge_model(store.n_entities, store.n_relations, config)
    ent, rel = model.entity, model.relation
    forward = _FORWARD[config.method]
    rng = np.random.default_rng(config.seed + 1)
    n_ent = store.n_entities
    half = config.dim // 2
    n_neg = config.negatives if n_ent >= 2 else 0
    b = 1 + n_neg  # scored rows per side; row 0 is the positive
    signs = np.r_[1.0, -np.ones(n_neg)]
    phase = {"RotatE": slice(None), "HAKE": slice(half, None)}.get(config.method)
    triples = np.array(store.triples)

    # a diverging step overflows before its gradient check names the cause; the check
    # is the one report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            losses = np.empty(len(triples))  # in step order, whatever the waves' order
            for start in range(0, len(triples), _DRAW_BLOCK):
                block = triples[start:start + _DRAW_BLOCK]
                heads, tails = _draw_negatives(rng, block[:, 0], block[:, 2], n_ent, n_neg)
                ids = np.concatenate((tails, heads), axis=1)  # in the order of grads' rows
                stop = len(block)  # the block's first bad step found so far
                for wave in _waves(ids, block[:, 1]):
                    if stop < len(block):  # no step after a bad one needs to run
                        wave = wave[wave < stop]
                        if not wave.size:
                            continue
                    wave_ids, rs = ids[wave], block[wave, 1]
                    rows, inv = np.unique(wave_ids, return_inverse=True)
                    scored = ent[wave_ids]
                    grads = np.empty(scored.shape)  # each step's tail rows', then head rows'
                    loss, g_rel = _sgd_step(forward, scored[:, b:], rel[rs], scored[:, :b],
                                            signs, config, grads)
                    losses[start + wave] = loss
                    # steps share no row, so each row sums its own step's entries in order
                    g_ent = _scatter(inv.reshape(-1), grads.reshape(-1, config.dim), len(rows))
                    if not (np.isfinite(g_ent).all() and np.isfinite(g_rel).all()):
                        finite = (np.isfinite(g_ent).all(axis=1)[inv.reshape(wave_ids.shape)]
                                  .all(axis=1) & np.isfinite(g_rel).all(axis=1))
                        stop = wave[finite.argmin()]
                    # a bad step updates its rows too: a step that shares one and runs
                    # later comes after it in step order, so never runs
                    ent[rows] -= config.lr * g_ent
                    rel[rs] -= config.lr * (g_rel + 0.0)  # a dense gradient's row: -0.0 becomes 0.0
                    if config.method == "HAKE":
                        ent[rows, half:] = _wrap_phase(ent[rows, half:])
                    if phase is not None:
                        rel[rs, phase] = _wrap_phase(rel[rs, phase])
                if stop < len(block):
                    raise Diverged(f"{config.method} embedding training diverged at epoch "
                                   f"{epoch + 1}, triple {start + stop + 1} of {len(triples)}: "
                                   f"a non-finite gradient; lower kge_lr (now {config.lr!r})")
            model.epoch_losses.append(float(np.mean(losses)))
    return model


_DRAW_BLOCK = 4096  # positives whose negatives one call draws


def _draw_negatives(rng: np.random.Generator, h: np.ndarray, t: np.ndarray, n_ent: int,
                    n_neg: int) -> tuple[np.ndarray, np.ndarray]:
    """The [P, 1 + n_neg] heads and tails of the P positives (h, t), each row the
    positive followed by its n_neg negatives.

    A negative replaces the head or the tail, by a fair coin, with a uniform
    entity, or with the next entity if it drew the replaced one. The coins and
    entities come from one draw against the bounds [2, n_ent, 2, n_ent, ...],
    n_neg pairs per positive, which yields the values, and leaves the generator
    in the state, of the 2 * n_neg interleaved scalar draws of each positive in
    turn; n_neg = 0 draws nothing.
    """
    heads = np.repeat(h[:, None], 1 + n_neg, axis=1)
    tails = np.repeat(t[:, None], 1 + n_neg, axis=1)
    if n_neg:
        draw = rng.integers(0, np.tile([2, n_ent], (len(h), n_neg)))
        corrupt_head = draw[:, 0::2] == 1
        cand = draw[:, 1::2]
        cand += cand == np.where(corrupt_head, heads[:, 1:], tails[:, 1:])
        cand %= n_ent  # only a drawn replaced entity + 1 can reach n_ent
        np.copyto(heads[:, 1:], cand, where=corrupt_head)
        np.copyto(tails[:, 1:], cand, where=~corrupt_head)
    return heads, tails


def _waves(ids: np.ndarray, rels: np.ndarray) -> list[np.ndarray]:
    """A block's steps grouped into waves, each an ascending index array, in the order
    they run. Step j scores the entity rows ``ids[j]`` and the relation ``rels[j]``; it
    goes in the wave right after the latest one that holds an earlier step sharing an
    entity row or its relation, or in the first. So no step of a wave sees another's
    update, each step sees the updates of every earlier step it shares a row with, and
    none of a later one's: the waves give the step-by-step loop's bits."""
    n = int(ids.max()) + 1  # the relations' keys follow the entities'
    last = [-1] * (n + int(rels.max()) + 1)  # the latest wave that touched each key
    levels = []
    for keys in np.concatenate((ids, n + rels[:, None]), axis=1).tolist():
        level = 1 + max(map(last.__getitem__, keys))
        levels.append(level)
        for key in keys:
            last[key] = level
    order = np.argsort(levels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(levels))[:-1])


def _sgd_step(forward: Callable, h: np.ndarray, r: np.ndarray, t: np.ndarray, signs: np.ndarray,
              config: KgeConfig, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The self-adversarial losses of a wave of S steps, each a positive (row 0 of its
    h and t) and its negatives, and their gradients.

    loss = -sum_i weight_i * logsigmoid(sign_i * score_i), where the negatives'
    weights are a softmax of their scores at ``adv_temperature``, held constant.
    Writes each step's gradients of t's rows, then of h's, into the [S, 2B, dim]
    ``grads`` and returns the [S] losses and the [S, w] relation-row gradients.
    Every value follows the op and accumulation order of the same loss recorded on
    an autodiff tape, step by step, so both give bitwise equal results.
    """
    scores, backward = forward(h, r, t, config.gamma)
    weights = np.ones(scores.shape)
    if scores.shape[1] > 1:
        raw = scores[:, 1:]
        w = np.exp(config.adv_temperature * (raw - raw.max(axis=1, keepdims=True)))
        weights[:, 1:] = w / w.sum(axis=1, keepdims=True)
    x = scores * signs
    e_pos, e_neg = np.exp(x), np.exp(-x)
    fit = np.where(x >= 0, -np.log1p(e_neg), x - np.log1p(e_pos))  # logsigmoid(x)
    sigmoid_neg = np.where(x <= 0, 1.0 / (1.0 + e_pos), e_neg / (1.0 + e_neg))
    return (fit * weights).sum(axis=1) * -1.0, backward(-weights * sigmoid_neg * signs, grads)


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
    equal-score entities with a smaller id, on ``_side_scorer``'s scores.
    """
    if not test:
        raise ValueError("evaluate_completion needs at least one test triple")
    known_heads: dict[tuple[int, int], list[int]] = defaultdict(list)
    known_tails: dict[tuple[int, int], list[int]] = defaultdict(list)
    for h, r, t in set(store.triples) | {tuple(tr) for tr in test}:
        known_heads[r, t].append(h)
        known_tails[h, r].append(t)

    ids = np.arange(m.n_entities)
    score = _side_scorer(m)
    ranks: list[int] = []
    for h, r, t in test:
        for true_id, head, other, known in ((h, True, t, known_heads[r, t]),
                                            (t, False, h, known_tails[h, r])):
            s = score(r, other, head)
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

class KnowledgeEmbeddingTable:
    """Per-vocabulary-word external-knowledge vectors for one stance.

    Only the words that name an entity have a vector, so the table keeps its stored
    rows: ``_rows`` [1 + S, width] is a row of +0.0 followed by the S rows whose bit
    pattern is not all zero (a row of -0.0 is stored), in word order, and ``_slot``
    [n_words] gives each word's row there, 0 for the rest. Memory grows with what the
    knowledge graph covers, not with the vocabulary. ``rows(ids)`` reads them.
    ``from_rows`` builds every table; ``KnowledgeEmbeddingTable(stance, vectors)``
    is the dense form of it.
    """

    def __init__(self, stance_tag: str, vectors: np.ndarray):
        """The table of finite [n_words, width] vectors: ``from_rows`` with every word's
        row, so a ValueError names the stance and the first bad row."""
        vectors = np.asarray(vectors, dtype=np.float64)
        n_words = len(vectors) if vectors.ndim else 0
        vars(self).update(vars(self.from_rows(stance_tag, n_words, np.arange(n_words),
                                              vectors)))

    @classmethod
    def from_rows(cls, stance_tag: str, n_words: int, ids, rows) -> "KnowledgeEmbeddingTable":
        """The table of ``n_words`` words whose vectors are ``rows`` [k, width] at the
        distinct word ids ``ids`` [k] and all-zero elsewhere, built without a dense
        [n_words, width] array. The rows must be finite: a NaN row would otherwise reach
        ``predict`` even uncovered, since 0 * NaN is NaN. The coverage is 1 exactly at
        the non-zero rows; an all-zero row is an uncovered word. Raises ValueError
        naming the stance and the first bad row's word id."""
        where = f"knowledge table {stance_tag!r}"
        rows = np.asarray(rows, dtype=np.float64)
        ids = np.asarray(ids, dtype=np.intp)
        if rows.ndim != 2:
            raise ValueError(f"{where}: vectors {rows.shape} are not [n_words, width]")
        if ids.shape != rows.shape[:1]:
            raise ValueError(f"{where}: {ids.size} word ids for {len(rows)} rows")
        outside = ids[(ids < 0) | (ids >= n_words)]
        if outside.size:
            raise ValueError(f"{where}: word id {outside[0]} is outside [0, {n_words})")
        ordered = np.sort(ids)
        twice = ordered[1:][ordered[1:] == ordered[:-1]]
        if twice.size:
            raise ValueError(f"{where}: word id {twice[0]} has two rows")
        with np.errstate(over="ignore", invalid="ignore"):  # the scan below names the cause
            total = rows.sum()
        if not np.isfinite(total):  # a finite sum proves every entry finite
            bad = ids[~np.isfinite(rows).all(axis=1)]
            if bad.size:
                raise ValueError(f"{where}: row {bad.min()} has a non-finite value")
        # one OR over each row's bits: not 0 marks a stored row, and not 0 without the
        # sign bit a covered one, since only +0.0 and -0.0 have no other bit set
        bits = np.bitwise_or.reduce(np.ascontiguousarray(rows).view(np.uint64), axis=1)
        stored = np.flatnonzero(bits)
        stored = stored[np.argsort(ids[stored], kind="stable")]  # in word order
        table = cls.__new__(cls)
        table.stance_tag = stance_tag
        table._rows = np.empty((1 + stored.size, rows.shape[1]))
        table._rows[0] = 0.0
        # the ids are in range; "raise" would copy through a buffer, at twice the time
        np.take(rows, stored, axis=0, out=table._rows[1:], mode="clip")
        table._slot = np.zeros(n_words, dtype=np.intp)
        table._slot[ids[stored]] = np.arange(1, 1 + stored.size)
        table.coverage = np.zeros(n_words)  # 1.0 at the non-zero rows, else 0.0
        table.coverage[ids[stored]] = (bits[stored] & ~_SIGN_BIT) != 0
        return table

    def rows(self, ids) -> np.ndarray:
        """The vectors of the words ``ids``, bitwise the rows ``ids`` of the [n_words,
        width] vectors the table was made from (all-zero where no row was given)."""
        return self._rows[self._slot[ids]]

    @property
    def width(self) -> int:
        return self._rows.shape[1]

    @property
    def n_words(self) -> int:
        return self._slot.shape[0]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"stance={self.stance_tag}\n")
            fh.write(f"dim={self.width}\n")
            lines = [" ".join(repr(float(v)) for v in row) + "\n" for row in self._rows]
            fh.writelines(lines[s] for s in self._slot)

    @staticmethod
    def load(path) -> "KnowledgeEmbeddingTable":
        """Read a table file; a malformed one raises ValueError naming the file, and the
        row or the line at fault.

        The file is read once through ``text_lines``, in lines as text mode splits them
        (CRLF and a lone CR end a line, as LF does). A row that is the canonical zero line,
        ``dim`` copies of ``0.0`` as ``save`` writes an uncovered word, is counted
        without being parsed; one ``np.loadtxt`` call parses the other non-blank lines,
        and ``from_rows`` places them at their word ids. Every other spelling of zero
        goes through the parser and loads to the same table."""
        numbered = text_lines(path)
        stance_line, dim_line = (next(numbered, (0, ""))[1].strip() for _ in range(2))
        if not stance_line.startswith("stance=") or not dim_line.startswith("dim="):
            raise ValueError(f"{path}: expected 'stance=' and 'dim=' header lines")
        stance, dim = stance_line.split("=", 1)[1], dim_line.split("=", 1)[1].strip()
        if not dim.isdecimal() or int(dim) < 1:
            raise ValueError(f"{path}: header {dim_line!r} is not dim=<integer >= 1>")
        width = int(dim)
        lines = [line for _, line in numbered if not line.isspace()]
        zero = " ".join(["0.0"] * width)
        zero_lines = (zero + "\n", zero)  # the last line may have no newline
        ids = [i for i, line in enumerate(lines) if line not in zero_lines]
        rows = np.empty((0, width))
        if ids:
            try:
                rows = np.loadtxt([lines[i] for i in ids], dtype=np.float64, ndmin=2,
                                  comments=None)
            except ValueError as err:
                raise ValueError(_bad_row(path, width, lines)) from err
            if rows.shape[1] != width:
                raise ValueError(_bad_row(path, width, lines))
        try:
            return KnowledgeEmbeddingTable.from_rows(stance, len(lines), ids, rows)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err


def _bad_row(path, width: int, lines: list[str]) -> str:
    """The message naming the first of a table file's non-blank ``lines`` that is not
    ``width`` numbers.

    Rows count the non-blank lines after the header from 0, as word ids do.
    Only called after a load has failed, so loading a valid table pays nothing for it.
    """
    for i, tokens in enumerate(line.split() for line in lines):
        for token in tokens:
            try:
                float(token)
            except ValueError:
                return f"{path}: row {i} has the non-numeric value {token!r}"
        if len(tokens) != width:
            return f"{path}: row {i} has {len(tokens)} values, but dim={width}"
    # every token is a Python float, yet numpy refused one ('1_0'): numpy's message, from
    # a parse of every row, numbers the rows as a parse of the whole file does
    try:
        np.loadtxt(lines, comments=None)
    except ValueError as err:
        return f"{path}: {err}"
    return f"{path}: a row numpy cannot read"  # not reached after a failed parse


def zero_table(stance_tag: str, n_words: int, width: int) -> KnowledgeEmbeddingTable:
    """A table that covers no word, built without a dense [n_words, width] array."""
    return KnowledgeEmbeddingTable.from_rows(stance_tag, n_words, [], np.empty((0, width)))


def load_links(path) -> dict[str, str]:
    """word<TAB>entity_name per line; '#' comments allowed. A word linked on two lines
    raises ValueError naming both, as a repeated vocabulary token does, and so does a word
    no vocabulary holds: an empty one or one with whitespace, where preprocess splits."""
    links: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, (word, entity_name) in _tsv_rows(path, 2, "word<TAB>entity, got {} fields"):
        if word.split() != [word]:
            raise ValueError(f"{path}:{lineno}: word {word!r} cannot be a vocabulary word: "
                             f"it is empty or holds whitespace")
        if word in links:
            raise ValueError(f"{path}:{lineno}: word {word!r} is linked again "
                             f"(first at line {first[word]})")
        links[word], first[word] = entity_name, lineno
    return links


def check_links(links: dict[str, str], store: TripleStore) -> None:
    """Raise ValueError naming the first word whose linked entity the store lacks."""
    for word, entity_name in links.items():
        if entity_name not in store.entities:
            raise ValueError(f"word {word!r} links to unknown entity {entity_name!r}")


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
    truncated or zero-padded to ``width``. Unlinked words stay all-zero,
    so the table marks them uncovered.
    """
    check_links(links, store)
    width = m.dim if width is None else int(width)
    linked = [word for word in links if word in vocab.token_to_id]  # in this vocabulary
    rows = np.zeros((len(linked), width))
    take = min(width, m.entity.shape[1])
    rows[:, :take] = m.entity[[store.entities[links[word]] for word in linked], :take]
    return KnowledgeEmbeddingTable.from_rows(
        store.stance_tag, len(vocab), [vocab.token_to_id[word] for word in linked], rows)
