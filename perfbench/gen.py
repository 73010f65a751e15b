"""Input generators for the benchmark workloads.

Every generator draws from a numpy Generator seeded by the workload seed,
so one (workload, seed) pair always yields byte-identical files. The files
use the formats the stancenet program reads: a vocabulary text file, an
encoded-corpus ``.npz``, a JSONL article file, knowledge tables in the text
format ``train-kge`` writes, and a TSV triple file.

Run as a script it writes one workload's inputs into a directory:

    python3 perfbench/gen.py --workload news-v50k --seed 0 --out DIR

The benchmark runs it in a child process, so the generator's memory never
shows in the peak resident memory of the process that runs the workload.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAD, UNK = "<pad>", "<unk>"
RESERVED = 2  # ids 0 and 1 are <pad> and <unk>
SEP = "<sep>"


@dataclass(frozen=True)
class NewsShape:
    """Corpus shape: vocabulary size, article counts and length distributions."""

    vocab: int
    train_articles: int
    eval_articles: int
    sentences: tuple[int, int]   # inclusive range of sentences per article
    words_mean: float            # mean words per sentence (1 + Poisson)
    title_words: tuple[int, int]
    tables: bool                 # write three knowledge tables
    coverage: float = 0.3        # share of vocabulary rows each table covers
    classes: int = 2
    markers_per_class: int = 64
    marker_rate: float = 0.5     # chance a sentence carries a marker of its class
    zipf_exponent: float = 1.0


@dataclass(frozen=True)
class GraphShape:
    """Graph size, and how many of its triples the benchmark trains and ranks."""

    entities: int
    relations: int
    triples: int
    test: int                    # held-out triples every method ranks
    share: int                   # training triples per method; the rest only filter
    head_skew: float             # head id drawn with p ~ 1 / rank**head_skew


SHAPES = {
    "news-v50k": NewsShape(vocab=50_000, train_articles=16, eval_articles=40,
                           sentences=(12, 32), words_mean=20.0, title_words=(6, 12),
                           tables=True),
    "news-v5k-cv": NewsShape(vocab=5_000, train_articles=64, eval_articles=0,
                             sentences=(3, 12), words_mean=12.0, title_words=(4, 10),
                             tables=False),
    "kg-2k": GraphShape(entities=2_000, relations=24, triples=2_400, test=40, share=240,
                        head_skew=1.0),
}

D = 64   # classifier width; knowledge tables must match it
N = 64   # words kept per sentence
L = 32   # sentences kept per article


def word_name(i: int, vocab: int) -> str:
    return f"w{i:0{len(str(vocab))}d}"


# --------------------------------------------------------------------------
# News corpora
# --------------------------------------------------------------------------

def zipf_probs(count: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** exponent
    return p / p.sum()


def news_articles(shape: NewsShape, rng: np.random.Generator,
                  shape_rng: np.random.Generator):
    """Articles as (title ids, [sentence ids], label), ids in [2, vocab).

    ``shape_rng`` draws the lengths: how many sentences each article has and
    how many words each sentence and title has. It does not depend on the
    seed, so every seed gives the same corpus shape and the same work per
    batch; ``rng`` draws everything else. Word frequencies follow a Zipf law
    over a seeded permutation of the vocabulary. Each class owns a set of
    mid-frequency marker words that never occur under another label; every
    title and about half of the sentences carry one, which plants a
    learnable class signal. Labels alternate, so both classes are balanced.
    """
    words = shape.vocab - RESERVED
    by_rank = rng.permutation(words) + RESERVED
    probs = zipf_probs(words, shape.zipf_exponent)
    mid = by_rank[100 : 100 + shape.classes * shape.markers_per_class]
    markers = mid.reshape(shape.classes, shape.markers_per_class)
    probs[100 : 100 + mid.size] = 0.0  # markers only appear where planted
    probs /= probs.sum()

    def draw(k):
        return by_rank[rng.choice(words, size=k, p=probs)]

    articles = []
    for i in range(shape.train_articles + shape.eval_articles):
        label = i % shape.classes
        title = draw(int(shape_rng.integers(*shape.title_words, endpoint=True)))
        title[int(rng.integers(title.size))] = rng.choice(markers[label])
        sentences = []
        for _ in range(int(shape_rng.integers(*shape.sentences, endpoint=True))):
            sent = draw(1 + int(shape_rng.poisson(shape.words_mean - 1.0)))
            if rng.random() < shape.marker_rate:
                sent[int(rng.integers(sent.size))] = rng.choice(markers[label])
            sentences.append(sent)
        articles.append((title, sentences, label))
    return articles, markers


def cover_vocabulary(articles, vocab: int, rng: np.random.Generator):
    """Overwrite random body slots so every non-reserved word occurs at least once.

    Preprocessing builds its vocabulary from the corpus, so this is what
    makes the realised vocabulary exactly ``vocab`` words.
    """
    slots = [(a, s, w) for a, (_, sents, _) in enumerate(articles)
             for s, sent in enumerate(sents) for w in range(sent.size)]
    if len(slots) < vocab - RESERVED:
        raise ValueError(f"{len(slots)} body tokens cannot cover {vocab} words")
    chosen = rng.choice(len(slots), size=vocab - RESERVED, replace=False)
    for word, k in zip(rng.permutation(vocab - RESERVED) + RESERVED, chosen):
        a, s, w = slots[k]
        articles[a][1][s][w] = word


def write_vocab(path: Path, vocab: int):
    tokens = [PAD, UNK] + [word_name(i, vocab) for i in range(RESERVED, vocab)]
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")


def write_encoded(path: Path, articles, classes: int):
    """The ``.npz`` layout that ``textdata.load_encoded`` reads, keep-first truncated."""
    count = len(articles)
    sentences = np.zeros((count, L, N), dtype=np.int64)
    word_masks = np.zeros((count, L, N))
    sentence_masks = np.zeros((count, L))
    titles = np.zeros((count, N), dtype=np.int64)
    title_masks = np.zeros((count, N))
    for i, (title, sents, _) in enumerate(articles):
        for j, sent in enumerate(sents[:L]):
            kept = sent[:N]
            sentences[i, j, : kept.size] = kept
            word_masks[i, j, : kept.size] = 1.0
            sentence_masks[i, j] = 1.0
        kept = title[:N]
        titles[i, : kept.size] = kept
        title_masks[i, : kept.size] = 1.0
    np.savez(path, sentences=sentences, sentence_masks=sentence_masks,
             word_masks=word_masks, titles=titles, title_masks=title_masks,
             labels=np.array([a[2] for a in articles], dtype=np.int64),
             classes=np.array(classes, dtype=np.int64))


def write_jsonl(path: Path, articles, vocab: int, classes: int):
    """The JSONL article format ``textdata.load_corpus`` reads."""
    def text(ids):
        return " ".join(word_name(int(i), vocab) for i in ids)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"classes={classes}\n")
        for title, sents, label in articles:
            body = f" {SEP} ".join(text(s) for s in sents)
            fh.write(json.dumps({"title": text(title), "body": body, "label": int(label)}) + "\n")


def write_tables(out: Path, shape: NewsShape, markers: np.ndarray, rng: np.random.Generator):
    """Three vocabulary-aligned tables, each covering its own random share of words.

    Covered rows hold random vectors; marker words are covered in every
    table and point along a class direction (mirrored in the conservative
    table), as the knowledge signal a stance table carries. Uncovered rows
    are all-zero, which is how the table format marks missing coverage.
    """
    direction = rng.uniform(-1.0, 1.0, D)
    direction /= np.linalg.norm(direction)
    zero_row = " ".join(["0.0"] * D)
    for stance, mirror in (("common", 1.0), ("liberal", 1.0), ("conservative", -1.0)):
        vectors = np.zeros((shape.vocab, D))
        covered = rng.random(shape.vocab) < shape.coverage
        covered[:RESERVED] = False
        vectors[covered] = rng.uniform(-0.5, 0.5, (int(covered.sum()), D))
        for cls, ids in enumerate(markers):
            vectors[ids] = (1.0 if cls == 0 else -1.0) * mirror * direction
        lines = [f"stance={stance}", f"dim={D}"]
        for row in vectors:
            lines.append(" ".join(map(repr, row.tolist())) if row.any() else zero_row)
        (out / f"table_{stance}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Knowledge graph
# --------------------------------------------------------------------------

def graph_triples(shape: GraphShape, rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """Distinct triples with power-law head degree over a seeded entity order.

    Tails walk a permutation of all entities first, so every entity occurs
    in the graph and the ranking runs over exactly ``entities`` candidates;
    later tails are uniform. Heads always follow the degree law.
    """
    if shape.triples < shape.entities:
        raise ValueError("need at least one triple per entity to cover the graph")
    head_p = zipf_probs(shape.entities, shape.head_skew)
    head_rank = rng.permutation(shape.entities)
    rel_p = zipf_probs(shape.relations, 0.5)
    tails = rng.permutation(shape.entities)
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    while len(triples) < shape.triples:
        k = len(triples)
        t = int(tails[k]) if k < tails.size else int(rng.integers(shape.entities))
        h = int(head_rank[rng.choice(shape.entities, p=head_p)])
        r = int(rng.choice(shape.relations, p=rel_p))
        if h == t or (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        triples.append((h, r, t))
    return triples


def write_graph(path: Path, triples):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# generated knowledge graph: head<TAB>relation<TAB>tail\n")
        for h, r, t in triples:
            fh.write(f"ent{h:04d}\trel{r:02d}\tent{t:04d}\n")


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into ``out``; returns the manifest also saved there."""
    shape = SHAPES[workload]
    stream = sorted(SHAPES).index(workload)
    rng = np.random.default_rng([seed, stream])
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed}
    if isinstance(shape, GraphShape):
        triples = graph_triples(shape, rng)
        write_graph(out / "graph.tsv", triples)
        manifest.update(graph="graph.tsv", entities=shape.entities, test=shape.test,
                        share=shape.share)
    else:
        articles, markers = news_articles(shape, rng, np.random.default_rng([stream]))
        if shape.tables:
            write_vocab(out / "vocab.txt", shape.vocab)
            write_encoded(out / "train.npz", articles[: shape.train_articles], shape.classes)
            write_encoded(out / "eval.npz", articles[shape.train_articles :], shape.classes)
            write_tables(out, shape, markers, rng)
            manifest.update(vocab="vocab.txt", train="train.npz", eval="eval.npz",
                            tables=[f"table_{s}.txt" for s in ("common", "liberal",
                                                                "conservative")])
        else:
            cover_vocabulary(articles, shape.vocab, rng)
            write_jsonl(out / "articles.jsonl", articles, shape.vocab, shape.classes)
            manifest.update(articles="articles.jsonl")
        manifest["tokens"] = int(sum(min(s.size, N) for _, sents, _ in articles
                                     for s in sents[:L]))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
