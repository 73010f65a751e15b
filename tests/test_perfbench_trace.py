"""Tests for perfbench/trace.py, the tracer behind the benchmark's per-layer metrics.

The tracer patches library attributes by name and reads article fields in its
counters, so these tests run it on the command line to keep those names working.
It is loaded by file path, since the standard library also has a ``trace`` module.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from stancenet import autodiff as ad
from stancenet import cli
from stancenet import kge as kg
from stancenet import model as md
from stancenet import textdata as td
from stancenet import training as tr

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)

OWNERS = (ad, ad.Tape, md, tr, kg, kg.KnowledgeEmbeddingTable, td, td.Vocabulary, cli)


def kept_word_count(articles, n, l):
    """Body words of the first l sentences and title words, each cut to the first n."""
    total = 0
    for a in articles:
        sentences = [s.split() for s in a.body.split(td.SEP_TOKEN) if s.split()]
        total += sum(min(len(s), n) for s in sentences[:l]) + min(len(a.title.split()), n)
    return total


def test_traced_preprocess_and_cross_validation(tmp_path):
    """The traced counts of a tiny ``preprocess`` and ``train --folds 2``: the encoded
    words, one ``predict`` call per fold's training batch and per fold's evaluation,
    and no failed command; ``uninstall`` puts back every
    patched attribute."""
    articles = td.gen_synthetic(12, 2, 2, seed=0)
    corpus = tmp_path / "corpus.jsonl"
    td.save_corpus(corpus, articles, classes=2)
    pre = tmp_path / "pre"
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert md.predict is not before[OWNERS.index(md)]["predict"]
        tracer.begin_unit("setup")
        assert cli.main(["preprocess", str(corpus), "--n", "2", "--l", "2",
                         "--output-dir", str(pre)]) == 0
        tracer.begin_unit("cycle")
        assert cli.main(["train", "--folds", "2", "--corpus", str(pre / "corpus.npz"),
                         "--vocab", str(pre / "vocab.txt"), "--no-knowledge", "--mode", "WST",
                         "--d", "8", "--heads", "2", "--epochs", "1",
                         "--output-dir", str(tmp_path / "cv")]) == 0
    finally:
        tracer.uninstall()
    counts = sum(tracer.counts.values(), Counter())
    assert counts["textdata.tokens_encoded"] == kept_word_count(articles, n=2, l=2)
    assert counts["model.predict_calls"] == 4
    assert counts["cli.exit_nonzero"] == 0
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[key] is saved[key] for key in saved), owner


def test_traced_train_kge(tmp_path):
    """The traced counts of ``train-kge`` on the command line: one positive per train
    triple and epoch, two ranked sides per test triple, no tape and no failed command;
    ``uninstall`` puts back every patched attribute."""
    path = tmp_path / "kg.tsv"
    path.write_text("".join(f"e{i}\tr{i % 3}\te{(3 * i + 1) % 11}\n" for i in range(20)))
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert kg.train_kge is not before[OWNERS.index(kg)]["train_kge"]
        tracer.begin_unit("cycle")
        assert cli.main(["train-kge", str(path), "--kge-method", "HAKE", "--kge-dim", "4",
                         "--kge-epochs", "3", "--holdout", "0.25",
                         "--output-dir", str(tmp_path / "kge")]) == 0
    finally:
        tracer.uninstall()
    counts = sum(tracer.counts.values(), Counter())
    n_test = int(20 * 0.25)
    assert counts["kge.positives"] == (20 - n_test) * 3
    assert counts["kge.ranked_sides"] == 2 * n_test
    assert counts["cli.exit_nonzero"] == 0
    assert counts["autodiff.backward_calls"] == 0
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[key] is saved[key] for key in saved), owner
