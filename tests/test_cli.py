"""End-to-end tests for the command-line interface and its file contracts."""

import json

import numpy as np
import pytest

from stancenet import model as md
from stancenet import textdata as td
from stancenet.autodiff import ShapeMismatch
from stancenet.cli import main
from stancenet.kge import KnowledgeEmbeddingTable
from stancenet.textdata import RawArticle, save_corpus


def write_corpus(tmp_path, num=12, classes=2, name="corpus.jsonl", seed=0):
    path = tmp_path / name
    save_corpus(path, td.gen_synthetic(num, classes, 2, seed=seed), classes=classes)
    return path


def preprocess(tmp_path, corpus_path, out="pre", n=8, l=3):
    out_dir = tmp_path / out
    rc = main(["preprocess", str(corpus_path), "--n", str(n), "--l", str(l),
               "--output-dir", str(out_dir)])
    assert rc == 0
    return out_dir


def write_tables(tmp_path, out_dir, d=8):
    vocab = td.Vocabulary.load(out_dir / "vocab.txt")
    paths = {}
    rng = np.random.default_rng(0)
    for key, tag in (("table_com", "common"), ("table_lib", "liberal"),
                     ("table_con", "conservative")):
        coverage = (rng.random(len(vocab)) < 0.5).astype(float)
        vectors = rng.uniform(-1, 1, (len(vocab), d)) * coverage[:, None]
        table = KnowledgeEmbeddingTable(tag, vectors, coverage)
        path = tmp_path / f"{tag}.txt"
        table.save(path)
        paths[key] = path
    return paths


class TestPreprocess:
    def test_benchmark_shaped_output_line(self, tmp_path, capsys):
        articles = [RawArticle(f"t {i}", f"w{i} x <sep> y z", 0 if i < 407 else 1)
                    for i in range(645)]
        path = tmp_path / "benchmark_shaped.jsonl"
        save_corpus(path, articles, classes=2)
        rc = main(["preprocess", str(path), "--n", "6", "--l", "2",
                   "--output-dir", str(tmp_path / "pre")])
        assert rc == 0
        assert "645 articles, classes 407/238" in capsys.readouterr().out

    def test_empty_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = main(["preprocess", str(path), "--output-dir", str(tmp_path / "pre")])
        assert rc == 2

    def test_malformed_line_reports_number_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"title": "a", "body": "b c", "label": 0}\nbroken\n')
        rc = main(["preprocess", str(path), "--output-dir", str(tmp_path / "pre")])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out1 = preprocess(tmp_path, corpus, out="pre1")
        out2 = preprocess(tmp_path, corpus, out="pre2")
        assert (out1 / "vocab.txt").read_bytes() == (out2 / "vocab.txt").read_bytes()
        assert (out1 / "corpus.npz").read_bytes() == (out2 / "corpus.npz").read_bytes()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["preprocess", str(tmp_path / "nope.jsonl")]) == 2


class TestTrainKge:
    def write_kg(self, tmp_path, triples):
        path = tmp_path / "kg.tsv"
        path.write_text("\n".join("\t".join(t) for t in triples) + "\n")
        return path

    def test_metrics_csv_schema(self, tmp_path):
        kg_path = self.write_kg(tmp_path, [
            ("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"),
            ("d", "s", "e"), ("e", "s", "a"), ("a", "s", "c"),
            ("b", "s", "d"), ("c", "r", "e"), ("d", "r", "a"), ("e", "r", "b"),
        ])
        out = tmp_path / "kge"
        rc = main(["train-kge", str(kg_path), "--stance", "liberal", "--kge-dim", "8",
                   "--kge-epochs", "5", "--output-dir", str(out)])
        assert rc == 0
        header = (out / "kge_liberal_metrics.csv").read_text().splitlines()[0]
        assert header == "MR,MRR,HITS@1,HITS@3,HITS@10"

    def test_deterministic_metrics(self, tmp_path):
        kg_path = self.write_kg(tmp_path, [
            ("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"),
            ("d", "r", "e"), ("e", "r", "a"), ("a", "s", "d"),
            ("b", "s", "e"), ("c", "s", "a"), ("d", "s", "b"), ("e", "s", "c"),
        ])
        outs = []
        for name in ("k1", "k2"):
            out = tmp_path / name
            rc = main(["train-kge", str(kg_path), "--kge-dim", "8", "--kge-epochs", "4",
                       "--seed", "5", "--output-dir", str(out)])
            assert rc == 0
            outs.append((out / "kge_common_metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_single_triple_skips_eval_with_warning(self, tmp_path, capsys):
        kg_path = self.write_kg(tmp_path, [("a", "r", "b")])
        out = tmp_path / "kge"
        rc = main(["train-kge", str(kg_path), "--kge-dim", "4", "--kge-epochs", "2",
                   "--output-dir", str(out)])
        assert rc == 0
        assert "skipping evaluation" in capsys.readouterr().out
        assert not (out / "kge_common_metrics.csv").exists()

    def test_malformed_triples_exit_2(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tr\tb\nbad line without tabs\n")
        assert main(["train-kge", str(path), "--output-dir", str(tmp_path / "o")]) == 2

    def test_exports_aligned_table_with_links(self, tmp_path):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        vocab = td.Vocabulary.load(pre / "vocab.txt")
        word = vocab.id_to_token[2]
        kg_path = self.write_kg(tmp_path, [("E1", "r", "E2"), ("E2", "r", "E3")])
        links = tmp_path / "links.tsv"
        links.write_text(f"{word}\tE1\n")
        out = tmp_path / "kge"
        rc = main(["train-kge", str(kg_path), "--kge-dim", "4", "--kge-epochs", "2",
                   "--stance", "liberal", "--entity-links", str(links),
                   "--vocab", str(pre / "vocab.txt"), "--d", "4",
                   "--output-dir", str(out)])
        assert rc == 0
        table = KnowledgeEmbeddingTable.load(out / "table_liberal.txt")
        assert table.coverage.sum() == 1
        assert table.width == 4


class TestTrain:
    def test_word_mode_without_knowledge(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "W", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                   "--epochs", "2", "--batch-size", "4",
                   "--output-dir", str(out)])
        assert rc == 0
        assert (out / "checkpoint.npz").exists()
        lines = (out / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "loss", "val_acc", "lr", "secs"}

    def test_folds_produce_cv_report(self, tmp_path):
        corpus = write_corpus(tmp_path, num=9)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "WS", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                   "--epochs", "1", "--batch-size", "4", "--folds", "3",
                   "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "cv_report.csv").read_text().splitlines()
        assert lines[0] == "fold,accuracy"
        assert len([ln for ln in lines[1:] if ln[0].isdigit()]) == 3
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")

    def test_ten_folds_yield_ten_accuracies(self, tmp_path):
        corpus = write_corpus(tmp_path, num=30)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "W", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                   "--epochs", "1", "--batch-size", "8", "--folds", "10",
                   "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "cv_report.csv").read_text().splitlines()
        assert len([ln for ln in lines[1:] if ln[0].isdigit()]) == 10

    def test_invalid_alpha_exits_2_naming_key(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"corpus = {pre / 'corpus.npz'}\nvocab = {pre / 'vocab.txt'}\n"
            "no_knowledge = true\nalpha = 1.5\n"
        )
        rc = main(["train", "--config", str(config)])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_table_without_flag_exits_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--epochs", "1",
                   "--output-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "no-knowledge" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery_key = 3\n")
        rc = main(["train", "--config", str(config)])
        assert rc == 2
        assert "mystery_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["jobs", "l2_coeff", "kg_lib", "kg_con", "positional"])
    def test_retired_config_keys_exit_2(self, tmp_path, capsys, key):
        config = tmp_path / "old.cfg"
        config.write_text(f"{key} = 1\n")
        assert main(["train", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    def test_trains_with_knowledge_tables(self, tmp_path):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        tables = write_tables(tmp_path, pre, d=8)
        out = tmp_path / "run"
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"),
                   "--table-com", str(tables["table_com"]),
                   "--table-lib", str(tables["table_lib"]),
                   "--table-con", str(tables["table_con"]),
                   "--mode", "All", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                   "--epochs", "1", "--batch-size", "4",
                   "--output-dir", str(out)])
        assert rc == 0
        assert (out / "checkpoint.npz").exists()


class TestEval:
    def test_eval_prints_accuracy(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                     "--epochs", "1", "--batch-size", "4",
                     "--output-dir", str(run)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--d", "8", "--heads", "2", "--n", "8", "--l", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy ")
        value = float(out.split()[1])
        assert 0.0 <= value <= 1.0

    def test_vocab_mismatch_exits_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                     "--epochs", "1", "--batch-size", "4",
                     "--output-dir", str(run)]) == 0
        other = write_corpus(tmp_path, num=20, classes=4, name="other.jsonl", seed=9)
        pre2 = preprocess(tmp_path, other, out="pre2")
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--corpus", str(pre2 / "corpus.npz"),
                   "--vocab", str(pre2 / "vocab.txt"), "--no-knowledge"])
        assert rc == 2
        assert "vocabulary" in capsys.readouterr().err

    def test_manifest_missing_a_key_exits_2(self, tmp_path, capsys):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                     "--epochs", "1", "--output-dir", str(run)]) == 0
        checkpoint = run / "checkpoint.npz"
        with np.load(checkpoint) as data:
            arrays = dict(data)
        manifest = json.loads(bytes(arrays["manifest"]).decode())
        del manifest["injection_orientation"]
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(checkpoint, **arrays)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(checkpoint),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge"])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(checkpoint) in err
        assert "'injection_orientation'" in err

    def test_internal_shape_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        """A ShapeMismatch is a ValueError, but a bug in the program, not in its input."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                     "--epochs", "1", "--output-dir", str(run)]) == 0

        def broken_predict(*args, **kwargs):
            raise ShapeMismatch("matmul: (2, 3) @ (2, 2)")

        monkeypatch.setattr(md, "predict", broken_predict)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge"])
        assert rc == 1
        assert "internal error: ShapeMismatch" in capsys.readouterr().err


class TestLoadBoundary:
    """Bad input files exit 2 with a message naming the file, before any training."""

    SMALL = ["--no-knowledge", "--mode", "W", "--d", "8", "--heads", "2", "--n", "8", "--l", "3"]

    def command_args(self, tmp_path, pre, command):
        """What each command needs besides corpus, vocabulary and model shape."""
        out = ["--output-dir", str(tmp_path / "run")]
        if command == "train":
            return ["--epochs", "1", *out]
        if command == "sweep":
            return ["--epochs", "1", "--alphas", "0.5", "--betas", "0.5", *out]
        run = tmp_path / "ckpt"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), *self.SMALL, "--epochs", "1",
                     "--output-dir", str(run)]) == 0
        return ["--checkpoint", str(run / "checkpoint.npz")]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_table_row_exits_2(self, tmp_path, capsys, command):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        tables = write_tables(tmp_path, pre, d=8)
        extra = self.command_args(tmp_path, pre, command)
        lines = tables["table_lib"].read_text().splitlines()
        lines[2 + 3] = " ".join(["nan"] + lines[2 + 3].split()[1:])  # word id 3
        tables["table_lib"].write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main([command, "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"),
                   *[f"--{key.replace('_', '-')}={path}" for key, path in tables.items()],
                   "--mode", "All", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                   *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(tables["table_lib"]) in err
        assert "row 3" in err

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_word_ids_beyond_vocabulary_exit_2(self, tmp_path, capsys, command):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        extra = self.command_args(tmp_path, pre, command)
        short = tmp_path / "short_vocab.txt"
        short.write_text("\n".join((pre / "vocab.txt").read_text().splitlines()[:4]) + "\n")
        capsys.readouterr()
        rc = main([command, "--corpus", str(pre / "corpus.npz"), "--vocab", str(short),
                   *self.SMALL, *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(pre / "corpus.npz") in err
        assert "4-word vocabulary" in err

    @pytest.mark.parametrize("label", [-1, 2])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_label_outside_class_range_exits_2(self, tmp_path, capsys, command, label):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        extra = self.command_args(tmp_path, pre, command)
        corpus = pre / "corpus.npz"
        with np.load(corpus) as data:
            arrays = dict(data)
        arrays["labels"][5] = label
        np.savez(corpus, **arrays)
        capsys.readouterr()
        rc = main([command, "--corpus", str(corpus), "--vocab", str(pre / "vocab.txt"),
                   *self.SMALL, *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(corpus) in err
        assert f"article 5 has label {label}" in err


class TestSweep:
    def test_single_cell_sweep(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["sweep", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "All", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                   "--epochs", "1", "--batch-size", "4",
                   "--alphas", "0.5", "--betas", "0.5",
                   "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,accuracy"
        assert len(lines) == 2
        printed = capsys.readouterr().out
        assert "best cell" in printed

    def test_best_cell_is_grid_max(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["sweep", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "All", "--d", "8", "--heads", "2", "--n", "8", "--l", "3",
                   "--epochs", "1", "--batch-size", "4",
                   "--alphas", "0.2,1.0", "--betas", "0.5",
                   "--output-dir", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        accs = [float(r.split(",")[2]) for r in rows]
        best_line = [ln for ln in capsys.readouterr().out.splitlines() if "best cell" in ln][0]
        assert f"{max(accs):.4f}" in best_line


class TestGenSynthetic:
    def test_writes_requested_count(self, tmp_path):
        out = tmp_path / "synth.jsonl"
        rc = main(["gen-synthetic", "--articles", "20", "--classes", "2",
                   "--planted", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "classes=2"
        assert len(lines) == 21

    def test_round_trips_through_preprocess(self, tmp_path):
        out = tmp_path / "synth.jsonl"
        assert main(["gen-synthetic", "--articles", "10", "--classes", "3",
                     "--planted", "2", "--out", str(out)]) == 0
        rc = main(["preprocess", str(out), "--n", "8", "--l", "3",
                   "--output-dir", str(tmp_path / "pre")])
        assert rc == 0

    def test_balanced_label_histogram(self, tmp_path):
        out = tmp_path / "synth.jsonl"
        assert main(["gen-synthetic", "--articles", "21", "--classes", "2",
                     "--planted", "2", "--out", str(out)]) == 0
        articles, classes = td.load_corpus(out)
        hist = td.class_histogram(articles, classes)
        assert max(hist) - min(hist) <= 1
