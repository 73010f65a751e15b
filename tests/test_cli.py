"""End-to-end tests for the command-line interface and its file contracts."""

import contextlib
import functools
import io
import json
import re
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancenet import kge as kg
from stancenet import model as md
from stancenet import textdata as td
from stancenet import training as tr
from stancenet.autodiff import DegenerateInput, ShapeMismatch
from stancenet.cli import ConfigError, build_config, main, make_parser, parse_config_file
from stancenet.kge import KgeConfig, KnowledgeEmbeddingTable
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
        table = KnowledgeEmbeddingTable(tag, vectors)
        path = tmp_path / f"{tag}.txt"
        table.save(path)
        paths[key] = path
    return paths


class TestCommandLine:
    """The flags and defaults come from the library dataclasses; these pins keep
    that derivation from adding a flag or moving a default."""

    OPTIONS = {
        "preprocess": "--config --dataset --l --n --output-dir",
        "train-kge": "--config --d --entity-links --holdout --kg-common --kge-adv-temperature "
                     "--kge-dim --kge-epochs --kge-gamma --kge-lr --kge-method --kge-negatives "
                     "--output-dir --seed --stance --vocab",
        "train": "--alpha --batch-size --beta --config --corpus --d --epochs "
                 "--folds --heads --lr --lr-factor --mode --no-knowledge "
                 "--output-dir --patience --seed --table-com --table-con --table-lib "
                 "--val-fraction --vocab --weight-decay",
        "eval": "--checkpoint --config --corpus --no-knowledge --table-com --table-con "
                "--table-lib --vocab",
        "sweep": "--alphas --batch-size --betas --config --corpus "
                 "--d --epochs --folds --heads --lr --lr-factor --mode "
                 "--no-knowledge --output-dir --patience --seed --table-com --table-con "
                 "--table-lib --val-fraction --vocab --weight-decay",
        "gen-synthetic": "--articles --classes --config --out --planted --seed",
    }
    DEFAULTS = {
        "dataset": "", "corpus": "", "vocab": "", "kg_common": "", "entity_links": "",
        "table_com": "", "table_lib": "", "table_con": "", "checkpoint": "",
        "output_dir": "out", "seed": 0, "folds": 0, "val_fraction": 0.25,
        "no_knowledge": False, "holdout": 0.1, "stance": "common",
        "d": 64, "heads": 4, "n": 64, "l": 32, "alpha": 0.5, "beta": 0.5, "mode": "All",
        "lr": 1e-3, "weight_decay": 5e-2, "batch_size": 16, "epochs": 50, "patience": 5,
        "lr_factor": 0.5,
        "kge_method": "RotatE", "kge_dim": 16, "kge_gamma": 6.0, "kge_negatives": 8,
        "kge_lr": 0.05, "kge_epochs": 100, "kge_adv_temperature": 1.0,
    }
    REQUIRED = {"gen-synthetic": ["--out", "x.jsonl"]}

    def test_option_strings_per_subcommand(self):
        subcommands = make_parser()._subparsers._group_actions[0].choices
        assert sorted(subcommands) == sorted(self.OPTIONS)
        for name, sub in subcommands.items():
            options = {o for action in sub._actions for o in action.option_strings}
            assert options == {"-h", "--help", *self.OPTIONS[name].split()}, name

    @staticmethod
    def resolved(built) -> dict:
        """Every key's value in what build_config returns, flattened: a KgeConfig
        field f is key kge_f, and a nested dataclass's fields are keys of their own."""
        flat = {}
        for part in built if isinstance(built, tuple) else (built,):
            prefix = "kge_" if isinstance(part, KgeConfig) else ""
            for f in fields(part):
                value = getattr(part, f.name)
                nested = fields(value) if is_dataclass(value) else ()
                flat.update({g.name: getattr(value, g.name) for g in nested})
                if not nested:
                    flat[prefix + f.name] = value
        return flat

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_defaults_without_flags(self, command):
        args = make_parser().parse_args([command, *self.REQUIRED.get(command, [])])
        flat = self.resolved(build_config(args))
        assert {k: (flat[k], type(flat[k])) for k in self.DEFAULTS} == {
            k: (v, type(v)) for k, v in self.DEFAULTS.items()}

    @pytest.mark.parametrize("argv, key", [
        (["train", "--heads", "0"], "heads"),
        (["train", "--d", "0", "--heads", "1"], "d"),
        (["train", "--val-fraction", "-0.25"], "val_fraction"),
        (["train", "--val-fraction", "1.0"], "val_fraction"),
        (["sweep", "--val-fraction", "1.5"], "val_fraction"),
        (["train-kge", "--holdout", "-0.5"], "holdout"),
        (["train-kge", "--holdout", "1"], "holdout"),
        (["train-kge", "--kge-dim", "0", "--kge-method", "ModE"], "dim"),
        (["train-kge", "--kge-negatives", "-1"], "negatives"),
        (["train-kge", "--kge-epochs", "-1"], "epochs"),
        (["train", "--lr", "nan"], "lr"),
        (["train", "--lr", "inf"], "lr"),
        (["train", "--lr", "-1"], "lr"),
        (["sweep", "--lr", "0"], "lr"),
        (["train", "--weight-decay", "-1"], "weight_decay"),
        (["train", "--weight-decay", "inf"], "weight_decay"),
        (["train-kge", "--kge-lr", "nan"], "lr"),
        (["train-kge", "--kge-lr", "-1"], "lr"),
        (["train-kge", "--kge-gamma", "nan"], "gamma"),
        (["train-kge", "--kge-adv-temperature", "nan"], "adv_temperature"),
        (["train-kge", "--kge-adv-temperature", "-1"], "adv_temperature"),
        (["preprocess", "--n", "0"], "n"),
        (["preprocess", "--l", "0"], "l"),
    ])
    def test_out_of_range_value_exits_2_naming_key(self, capsys, argv, key):
        """Checked before any file is read, so the command needs no input files."""
        assert main(argv) == 2
        assert re.search(rf"\b{key}'? must", capsys.readouterr().err)

    MISSING_CORPUS = ["--corpus", "{tmp}/none.npz", "--vocab", "{tmp}/none.txt",
                      "--output-dir", "{tmp}/out"]

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1", *MISSING_CORPUS],
        ["train", "--folds", "2", "--seed", "-2", *MISSING_CORPUS],
        ["sweep", "--seed", "-1", *MISSING_CORPUS],
        ["train-kge", "{tmp}/none.tsv", "--seed", "-1", "--output-dir", "{tmp}/out"],
        ["gen-synthetic", "--seed", "-3", "--out", "{tmp}/out/corpus.jsonl"],
    ], ids=["train", "train_folds", "sweep", "train_kge", "gen_synthetic"])
    def test_negative_seed_exits_2_naming_it_before_reading_or_writing(
            self, tmp_path, capsys, argv):
        """The inputs named do not exist, so naming the seed proves it is checked first;
        no output directory or file is created."""
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        assert re.search(r"\bseed'? must", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("folds", ["1", "-3"])
    def test_folds_must_be_off_or_at_least_two(self, capsys, command, folds):
        assert main([command, "--folds", folds]) == 2
        assert re.search(r"\bfolds'? must", capsys.readouterr().err)

    def test_preprocess_accepts_a_shared_config_seed(self, tmp_path):
        """preprocess has no --seed (encoding is deterministic), but a config file
        shared with train may still set the seed."""
        config = tmp_path / "shared.cfg"
        config.write_text("seed = 7\n")
        corpus = write_corpus(tmp_path, num=3)
        assert main(["preprocess", str(corpus), "--config", str(config), "--n", "8",
                     "--l", "3", "--output-dir", str(tmp_path / "pre")]) == 0
        assert main(["preprocess", str(corpus), "--seed", "7"]) == 2

    @pytest.mark.parametrize("argv", [["train", "--checkpoint", "x"],
                                      ["sweep", "--checkpoint", "x"],
                                      ["sweep", "--alpha", "0.3"], ["sweep", "--beta", "0.3"]])
    def test_flags_the_command_would_ignore_are_rejected(self, capsys, argv):
        """train and sweep write a checkpoint but read none, and every sweep cell sets its
        own alpha and beta."""
        assert main(argv) == 2
        assert f"unrecognized arguments: {argv[1]} " in capsys.readouterr().err

    def test_positional_input_beats_the_config_file(self, tmp_path, capsys):
        """As every flag does: preprocess's dataset and train-kge's triples."""
        config = tmp_path / "run.cfg"
        config.write_text(f"dataset = {write_corpus(tmp_path, num=6, name='a.jsonl')}\n"
                          f"kg_common = {TestTrainKge.write_kg(tmp_path / 'a', CYCLE[:3])}\n")
        assert main(["preprocess", str(write_corpus(tmp_path, num=10, name="b.jsonl")),
                     "--config", str(config), "--output-dir", str(tmp_path / "pre")]) == 0
        assert capsys.readouterr().out.startswith("10 articles")
        out = tmp_path / "kge"
        assert main(["train-kge", str(TestTrainKge.write_kg(tmp_path / "b", CYCLE)),
                     "--config", str(config), "--kge-dim", "4", "--kge-epochs", "0",
                     "--holdout", "0", "--output-dir", str(out)]) == 0
        with np.load(out / "kge_common.npz") as data:
            assert data["entity"].shape[0] == 5

    @pytest.mark.parametrize("command", ["preprocess", "train", "eval"])
    def test_config_file_keys_are_checked_for_every_command(self, tmp_path, capsys, command):
        config = tmp_path / "shared.cfg"
        config.write_text("kge_dim = 7\n")
        assert main([command, "--config", str(config)]) == 2
        assert "even dim" in capsys.readouterr().err


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

    def test_boolean_label_exits_2(self, tmp_path, capsys):
        """JSON true is a python bool, an int subclass, but not a class label."""
        path = tmp_path / "bool.jsonl"
        path.write_text('{"title": "a", "body": "b c", "label": 0}\n'
                        '{"title": "a", "body": "b c", "label": true}\n')
        rc = main(["preprocess", str(path), "--output-dir", str(tmp_path / "pre")])
        assert rc == 2
        assert f"{path}:2: label must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "pre").exists()

    def test_null_title_exits_2_naming_line(self, tmp_path, capsys):
        path = tmp_path / "null.jsonl"
        path.write_text('{"title": null, "body": "b c", "label": 0}\n')
        rc = main(["preprocess", str(path), "--output-dir", str(tmp_path / "pre")])
        assert rc == 2
        assert f"{path}:1: title must be a string" in capsys.readouterr().err
        assert not (tmp_path / "pre").exists()

    def test_article_without_sentences_exits_2_without_output(self, tmp_path, capsys):
        path = tmp_path / "sep.jsonl"
        save_corpus(path, [RawArticle("a", "b c", 0), RawArticle("c", "<sep>", 1)], classes=2)
        rc = main(["preprocess", str(path), "--output-dir", str(tmp_path / "pre")])
        assert rc == 2
        assert "article 'c' has no sentences after splitting" in capsys.readouterr().err
        assert not (tmp_path / "pre").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = write_corpus(tmp_path)
        out1 = preprocess(tmp_path, corpus, out="pre1")
        out2 = preprocess(tmp_path, corpus, out="pre2")
        assert (out1 / "vocab.txt").read_bytes() == (out2 / "vocab.txt").read_bytes()
        assert (out1 / "corpus.npz").read_bytes() == (out2 / "corpus.npz").read_bytes()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["preprocess", str(tmp_path / "nope.jsonl")]) == 2


CYCLE = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a"), ("c", "r", "d"), ("d", "r", "e")]


class TestErrorExits:
    """Each bad input exits 2 with one error line naming the file, and the line or key
    where the format has one, and creates no output directory."""

    @staticmethod
    def train_argv(pre, *flags):
        return ["train", "--corpus", str(pre / "corpus.npz"), "--vocab", str(pre / "vocab.txt"),
                "--mode", "W", "--d", "8", "--heads", "2", "--epochs", "1", *flags]

    def case(self, tmp_path, name):
        """The argv of one bad input and the texts its error line must hold."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        if name.startswith("table"):
            tables = write_tables(tmp_path, pre)
            bad = tmp_path / "bad_table.txt"
            n_words = len(td.Vocabulary.load(pre / "vocab.txt"))
            if name == "table header":
                bad.write_text("0 0 0 0 0 0 0 0\n")
            else:
                shape = (n_words + 1, 8) if name == "table rows" else (n_words, 4)
                KnowledgeEmbeddingTable("common", np.ones(shape)).save(bad)
            want = {"table rows": "rows", "table width": "width 4", "table header": "header"}
            return self.train_argv(pre, "--table-com", str(bad), "--table-lib",
                                   str(tables["table_lib"]), "--table-con",
                                   str(tables["table_con"])), [str(bad), want[name]]
        if name.startswith("config"):
            config = tmp_path / "run.cfg"
            config.write_text("# defaults\n" + ("d = eight\n" if name == "config value"
                                                else "epochs 3\n"))
            want = ["'d'", "'eight'"] if name == "config value" else ["'key = value'"]
            return self.train_argv(pre, "--no-knowledge", "--config", str(config)), \
                [f"{config}:2", *want]
        if name == "empty path":
            return [*self.train_argv(pre, "--no-knowledge"), "--corpus", ""], \
                ["missing required path", "'corpus'", "--corpus"]
        if name == "no article":
            corpus = tmp_path / "empty.npz"
            np.savez(corpus, sentences=np.zeros((0, 3, 8), np.int64),
                     titles=np.zeros((0, 8), np.int64), labels=np.zeros(0, np.int64),
                     classes=np.array(2))
            return [*self.train_argv(pre, "--no-knowledge"), "--corpus", str(corpus)], \
                [str(corpus), "no article"]
        if name.startswith("kge"):
            kg_path = TestTrainKge.write_kg(tmp_path / "kg", [("a", "r", "b"), ("b", "r", "a")])
            flag, value, want = {"kge method": ("--kge-method", "TransE", "method 'TransE'"),
                                 "kge dim": ("--kge-dim", "0", "'kge_dim'"),
                                 "kge negatives": ("--kge-negatives", "-1",
                                                   "'kge_negatives'")}[name]
            return ["train-kge", str(kg_path), flag, value], [want]
        if name == "vocab start":
            vocab = tmp_path / "vocab.txt"
            vocab.write_text("the\n<pad>\n<unk>\n")
            return self.train_argv(pre, "--no-knowledge", "--vocab", str(vocab)), \
                [str(vocab), "<pad>, <unk>"]
        jsonl = tmp_path / "bad.jsonl"
        record = json.dumps({"title": "t", "body": "b", "label": 2})
        if name == "classes header":
            jsonl.write_text(f"classes=two\n{record}\n")
            return ["preprocess", str(jsonl)], [f"{jsonl}:1", "'classes=two'"]
        jsonl.write_text(f"classes=2\n{record}\n")  # label at the declared classes
        return ["preprocess", str(jsonl)], [f"{jsonl}:2", "label 2"]

    @pytest.mark.parametrize("name", [
        "table rows", "table width", "table header", "config value", "config line",
        "empty path", "no article", "kge method", "kge dim", "kge negatives", "vocab start",
        "classes header", "label range"])
    def test_bad_input_exits_2_naming_its_file(self, tmp_path, capsys, name):
        argv, want = self.case(tmp_path, name)
        capsys.readouterr()
        rc = main([*argv, "--output-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for text in want:
            assert text in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["dataset", "kg_common", "vocab", "checkpoint"])
    def test_empty_required_path_names_its_key_and_flag(self, tmp_path, capsys, key):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        corpus = ["--corpus", str(pre / "corpus.npz"), "--no-knowledge"]
        argv = {"dataset": ["preprocess", "--dataset", ""],
                "kg_common": ["train-kge", "--kg-common", ""],
                "vocab": ["train", *corpus, "--vocab", ""],
                "checkpoint": ["eval", *corpus, "--vocab", str(pre / "vocab.txt"),
                               "--checkpoint", ""]}[key]
        capsys.readouterr()
        assert main(argv) == 2
        flag = "--" + key.replace("_", "-")
        assert capsys.readouterr().err == (f"error: missing required path: config key "
                                           f"{key!r} ({flag}) is empty\n")

    def test_unexpected_exception_exits_1_as_internal_error(self, tmp_path, capsys,
                                                            monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(td, "build_vocab", broken)
        rc = main(["preprocess", str(write_corpus(tmp_path)),
                   "--output-dir", str(tmp_path / "pre")])
        assert rc == 1
        assert capsys.readouterr().err == "internal error: RuntimeError('boom')\n"

    def test_a_repeated_triple_is_dropped_and_counted(self, tmp_path, capsys):
        kg_path = TestTrainKge.write_kg(tmp_path / "kg", [("a", "r", "b"), ("b", "r", "c"),
                                                          ("a", "r", "b")])
        rc = main(["train-kge", str(kg_path), "--kge-dim", "4", "--kge-epochs", "1",
                   "--output-dir", str(tmp_path / "kge")])
        assert rc == 0
        assert "dropped 1 duplicate triples" in capsys.readouterr().out.splitlines()


class TestTrainKge:
    @staticmethod
    def write_kg(tmp_path, triples):
        tmp_path.mkdir(exist_ok=True)
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

    def test_zero_epochs_writes_the_initial_model(self, tmp_path, capsys):
        """No step runs, so RotatE's relation table is the one ``init_kge_model`` draws
        and wraps, bit for bit."""
        kg_path = self.write_kg(tmp_path, [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
        out = tmp_path / "kge"
        argv = ["train-kge", str(kg_path), "--kge-dim", "4", "--kge-epochs", "0",
                "--output-dir", str(out)]
        rc = main(argv)
        assert rc == 0
        assert "(no epoch ran)" in capsys.readouterr().out
        drawn = kg.init_kge_model(3, 1, build_config(make_parser().parse_args(argv))[2])
        assert drawn.method == "RotatE"
        with np.load(out / "kge_common.npz") as data:
            assert sorted(data.files) == ["dim", "entity", "epoch_losses", "gamma", "method",
                                          "relation"]
            assert data["epoch_losses"].size == 0
            assert data["relation"].tobytes() == drawn.relation.tobytes()

    def test_malformed_triples_exit_2(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tr\tb\nbad line without tabs\n")
        assert main(["train-kge", str(path), "--output-dir", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_a_store_of_only_comments_exits_2_without_output(self, tmp_path, capsys):
        path = tmp_path / "comments.tsv"
        path.write_text("# head\trelation\ttail\n\n")
        assert main(["train-kge", str(path), "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: cannot train on an empty triple store\n"
        assert not (tmp_path / "o").exists()

    def test_divergence_exits_2_naming_method_epoch_triple_and_kge_lr(self, tmp_path, capsys):
        """A learning rate that passes validation but drives the embeddings to a
        non-finite gradient is the user's to lower, not an internal error."""
        kg_path = self.write_kg(tmp_path, [
            ("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"),
            ("d", "s", "e"), ("e", "s", "a"), ("a", "s", "c"),
        ])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train-kge", str(kg_path), "--kge-method", "ModE", "--kge-lr", "1e5",
                       "--kge-dim", "4", "--kge-epochs", "20",
                       "--output-dir", str(tmp_path / "kge")])
        err = capsys.readouterr().err
        assert rc == 2
        assert [str(w.message) for w in caught] == []  # the error line is the one report
        assert re.fullmatch(r"error: ModE embedding training diverged at epoch \d+, triple \d+ "
                            r"of 6: .*lower kge_lr \(now 100000\.0\)\n", err), err
        assert not (tmp_path / "kge").exists()

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

    def test_missing_links_file_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        kg_path = self.write_kg(tmp_path, [("E1", "r", "E2"), ("E2", "r", "E3")])
        trained = []
        monkeypatch.setattr(kg, "train_kge", lambda *args: trained.append(args))
        rc = main(["train-kge", str(kg_path), "--kge-dim", "4", "--kge-epochs", "2",
                   "--entity-links", str(tmp_path / "missing.tsv"),
                   "--vocab", str(pre / "vocab.txt"), "--output-dir", str(tmp_path / "kge")])
        assert rc == 2
        assert "entity_links file not found" in capsys.readouterr().err
        assert trained == []
        assert not list(tmp_path.glob("kge/kge_*.npz"))

    def test_link_to_unknown_entity_exits_2_before_training(self, tmp_path, capsys,
                                                            monkeypatch):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        kg_path = self.write_kg(tmp_path, [("E1", "r", "E2"), ("E2", "r", "E3")])
        links = tmp_path / "links.tsv"
        links.write_text("w1\tE1\nw2\tE9\n")
        trained = []
        monkeypatch.setattr(kg, "train_kge", lambda *args: trained.append(args))
        rc = main(["train-kge", str(kg_path), "--kge-dim", "4", "--kge-epochs", "2",
                   "--entity-links", str(links), "--vocab", str(pre / "vocab.txt"),
                   "--output-dir", str(tmp_path / "kge")])
        assert rc == 2
        assert capsys.readouterr().err == "error: word 'w2' links to unknown entity 'E9'\n"
        assert trained == []
        assert not (tmp_path / "kge").exists()

    def test_a_word_linked_again_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        kg_path = self.write_kg(tmp_path, [("E1", "r", "E2"), ("E2", "r", "E3")])
        links = tmp_path / "links.tsv"
        links.write_text("w1\tE1\nw1\tE2\n")
        trained = []
        monkeypatch.setattr(kg, "train_kge", lambda *args: trained.append(args))
        rc = main(["train-kge", str(kg_path), "--kge-dim", "4", "--kge-epochs", "2",
                   "--entity-links", str(links), "--vocab", str(pre / "vocab.txt"),
                   "--output-dir", str(tmp_path / "kge")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {links}:2: word 'w1' is linked again (first at line 1)\n")
        assert trained == []
        assert not (tmp_path / "kge").exists()

    def test_links_without_vocab_exit_2_naming_vocab(self, tmp_path, capsys):
        kg_path = self.write_kg(tmp_path, [("E1", "r", "E2"), ("E2", "r", "E3")])
        links = tmp_path / "links.tsv"
        links.write_text("word\tE1\n")
        rc = main(["train-kge", str(kg_path), "--kge-dim", "4", "--kge-epochs", "2",
                   "--entity-links", str(links), "--output-dir", str(tmp_path / "kge")])
        assert rc == 2
        assert "'vocab'" in capsys.readouterr().err
        assert not (tmp_path / "kge").exists()


class TestTrain:
    def test_word_mode_without_knowledge(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "W", "--d", "8", "--heads", "2",
                   "--epochs", "2", "--batch-size", "4",
                   "--output-dir", str(out)])
        assert rc == 0
        assert (out / "checkpoint.npz").exists()
        lines = (out / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "loss", "val_acc", "lr", "secs"}

    def test_checkpoint_records_the_corpus_shape(self, tmp_path):
        """train takes n and l from the encoded corpus, not from the 64/32 defaults."""
        pre = preprocess(tmp_path, write_corpus(tmp_path), n=8, l=4)
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge", "--mode", "W",
                     "--d", "8", "--heads", "2", "--epochs", "1",
                     "--output-dir", str(out)]) == 0
        hp = md.load_checkpoint(out / "checkpoint.npz")[1]
        assert (hp.n, hp.l) == (8, 4)

    def test_folds_produce_cv_report(self, tmp_path):
        corpus = write_corpus(tmp_path, num=9)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "WS", "--d", "8", "--heads", "2",
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
                   "--mode", "W", "--d", "8", "--heads", "2",
                   "--epochs", "1", "--batch-size", "8", "--folds", "10",
                   "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "cv_report.csv").read_text().splitlines()
        assert len([ln for ln in lines[1:] if ln[0].isdigit()]) == 10

    def test_divergence_exits_2_naming_parameter_and_lr(self, tmp_path, capsys):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                       "--vocab", str(pre / "vocab.txt"), "--no-knowledge", "--mode", "WST",
                       "--d", "8", "--heads", "2", "--epochs", "3", "--lr", "1e300",
                       "--output-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert [str(w.message) for w in caught] == []  # the error line is the one report
        assert re.fullmatch(r"error: training diverged: non-finite gradient for parameter "
                            r"'\w+'; lower lr \(now 1e\+300\)\n", err), err

    def test_divergence_exits_2_without_output(self, tmp_path, capsys):
        """The output directory is created after training, as train --folds, train-kge
        and preprocess create theirs, so a diverged run leaves none behind."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge", "--mode", "WST",
                   "--d", "8", "--heads", "2", "--epochs", "3", "--lr", "1e300",
                   "--output-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "error: training diverged" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("fraction", ["0.9", "0.99"])
    def test_split_without_training_articles_exits_2(self, tmp_path, capsys, fraction):
        """Training on every article would report val_acc on the training set."""
        pre = preprocess(tmp_path, write_corpus(tmp_path, num=3))
        out = tmp_path / "run"
        rc = main(["train", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "W", "--d", "8", "--heads", "2", "--epochs", "1",
                   "--val-fraction", fraction, "--output-dir", str(out)])
        assert rc == 2
        assert "'val_fraction'" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("key", ["jobs", "l2_coeff", "kg_lib", "kg_con", "positional",
                                     "injection_orientation"])
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
                   "--mode", "All", "--d", "8", "--heads", "2",
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
                     "--mode", "W", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--batch-size", "4",
                     "--output-dir", str(run)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy ")
        value = float(out.split()[1])
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("flag", [["--mode", "All"], ["--heads", "4"], ["--alpha", "0.1"],
                                      ["--d", "8"], ["--seed", "3"], ["--output-dir", "x"]])
    def test_model_flags_are_rejected(self, tmp_path, capsys, flag):
        """eval takes the model from the checkpoint, so a flag it would ignore is an error."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--output-dir", str(run)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge", *flag])
        assert rc == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_tables_are_checked_against_the_checkpoint_d(self, tmp_path, capsys):
        """eval takes d from the checkpoint, so width-8 tables need no second --d 8."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        tables = [f"--{key.replace('_', '-')}={path}"
                  for key, path in write_tables(tmp_path, pre, d=8).items()]
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), *tables,
                     "--mode", "All", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--output-dir", str(run)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), *tables])
        assert rc == 0, capsys.readouterr().err
        assert capsys.readouterr().out.startswith("accuracy ")

    def test_vocab_mismatch_exits_2(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--batch-size", "4",
                     "--output-dir", str(run)]) == 0
        other = write_corpus(tmp_path, num=20, classes=4, name="other.jsonl", seed=9)
        pre2 = preprocess(tmp_path, other, out="pre2")
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--corpus", str(pre2 / "corpus.npz"),
                   "--vocab", str(pre2 / "vocab.txt"), "--no-knowledge"])
        assert rc == 2
        assert "vocabulary" in capsys.readouterr().err

    def test_vocab_mismatch_names_checkpoint_and_vocabulary(self, tmp_path, capsys):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--output-dir", str(run)]) == 0
        words = (pre / "vocab.txt").read_text().splitlines()
        bigger = tmp_path / "bigger_vocab.txt"
        bigger.write_text("\n".join(words + ["extraword"]) + "\n")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                   "--corpus", str(pre / "corpus.npz"), "--vocab", str(bigger),
                   "--no-knowledge"])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(run / "checkpoint.npz") in err and str(bigger) in err
        assert f"vocabulary size {len(words)}" in err and f"{len(words) + 1} words" in err

    def test_older_checkpoint_format_exits_2(self, tmp_path, capsys):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--output-dir", str(run)]) == 0
        checkpoint = run / "checkpoint.npz"
        with np.load(checkpoint) as data:
            arrays = dict(data)
        manifest = json.loads(bytes(arrays["manifest"]).decode())
        del manifest["format"]
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(checkpoint, **arrays)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(checkpoint),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge"])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(checkpoint) in err and "retrain" in err

    def test_non_finite_parameter_exits_2_naming_file_and_parameter(self, tmp_path, capsys):
        """A NaN in a saved parameter is refused at load, not evaluated to a silent
        accuracy."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--output-dir", str(run)]) == 0
        checkpoint = run / "checkpoint.npz"
        with np.load(checkpoint) as data:
            arrays = dict(data)
        arrays["param:output.w"][1, 0] = np.nan
        np.savez(checkpoint, **arrays)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(checkpoint),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (f"error: {checkpoint}: parameter 'output.w' has a non-finite "
                                f"value at [1, 0]\n")

    def test_manifest_missing_a_key_exits_2(self, tmp_path, capsys):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--output-dir", str(run)]) == 0
        checkpoint = run / "checkpoint.npz"
        with np.load(checkpoint) as data:
            arrays = dict(data)
        manifest = json.loads(bytes(arrays["manifest"]).decode())
        del manifest["mode"]
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(checkpoint, **arrays)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(checkpoint),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge"])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(checkpoint) in err
        assert "'mode'" in err

    def test_corpus_with_more_classes_than_the_checkpoint_exits_2(self, tmp_path, capsys):
        """A 3-class corpus cannot be scored by a 2-class checkpoint, which never predicts
        label 2; a 2-class corpus under a 3-class checkpoint is valid."""
        pre = preprocess(tmp_path, write_corpus(tmp_path, classes=3))
        two = tmp_path / "two_classes.npz"
        with np.load(pre / "corpus.npz") as data:
            arrays = dict(data)
        arrays["labels"] = arrays["labels"] % 2
        arrays["classes"] = np.array(2)
        np.savez(two, **arrays)
        runs = {}
        for corpus, classes in ((pre / "corpus.npz", 3), (two, 2)):
            runs[classes] = tmp_path / f"run{classes}"
            assert main(["train", "--corpus", str(corpus), "--vocab", str(pre / "vocab.txt"),
                         "--no-knowledge", "--mode", "W", "--d", "8", "--heads", "2",
                         "--epochs", "1",
                         "--output-dir", str(runs[classes])]) == 0
        capsys.readouterr()

        def evaluate(corpus, run):
            return main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                         "--corpus", str(corpus), "--vocab", str(pre / "vocab.txt"),
                         "--no-knowledge"])

        assert evaluate(pre / "corpus.npz", runs[2]) == 2
        err = capsys.readouterr().err
        assert str(pre / "corpus.npz") in err and str(runs[2] / "checkpoint.npz") in err
        assert "3 classes" in err and "only 2" in err
        assert evaluate(two, runs[3]) == 0
        assert capsys.readouterr().out.startswith("accuracy ")

    def test_archive_without_manifest_exits_2(self, tmp_path, capsys):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        checkpoint = tmp_path / "other.npz"
        np.savez(checkpoint, x=np.zeros(3))
        rc = main(["eval", "--checkpoint", str(checkpoint),
                   "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge"])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(checkpoint) in err and "manifest" in err

    def test_internal_shape_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        """A ShapeMismatch is a ValueError, but a bug in the program, not in its input."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "W", "--d", "8", "--heads", "2",
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

    def test_internal_degenerate_input_exits_1(self, tmp_path, capsys, monkeypatch):
        """No user input reaches a DegenerateInput: the load boundary refuses an article
        without words, or without a title in a title mode, so one raised inside is a bug."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))

        def broken_predict(*args, **kwargs):
            raise DegenerateInput("attention needs at least one unmasked key position")

        monkeypatch.setattr(md, "predict", broken_predict)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(pre / "corpus.npz"), "--vocab", str(pre / "vocab.txt"),
                   "--no-knowledge", "--mode", "W", "--d", "8", "--heads", "2",
                   "--epochs", "1", "--output-dir", str(tmp_path / "run")])
        assert rc == 1
        assert "internal error: DegenerateInput" in capsys.readouterr().err


class TestLoadBoundary:
    """Bad input files exit 2 with a message naming the file, before any training."""

    MODEL = ["--mode", "W", "--d", "8", "--heads", "2"]

    def command_args(self, tmp_path, pre, command, model=MODEL):
        """What each command needs besides corpus, vocabulary and knowledge flags.

        train and sweep take the model flags; eval takes a checkpoint trained with them.
        """
        out = ["--output-dir", str(tmp_path / "run")]
        if command == "train":
            return [*model, "--epochs", "1", *out]
        if command == "sweep":
            return [*model, "--epochs", "1", "--alphas", "0.5", "--betas", "0.5", *out]
        run = tmp_path / "ckpt"
        assert main(["train", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge", *model,
                     "--epochs", "1", "--output-dir", str(run)]) == 0
        return ["--checkpoint", str(run / "checkpoint.npz")]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_finite_table_row_exits_2(self, tmp_path, capsys, command):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        tables = write_tables(tmp_path, pre, d=8)
        extra = self.command_args(tmp_path, pre, command, model=[
            "--mode", "All", "--d", "8", "--heads", "2"])
        lines = tables["table_lib"].read_text().splitlines()
        lines[2 + 3] = " ".join(["nan"] + lines[2 + 3].split()[1:])  # word id 3
        tables["table_lib"].write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main([command, "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"),
                   *[f"--{key.replace('_', '-')}={path}" for key, path in tables.items()],
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
                   "--no-knowledge", *extra])
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
                   "--no-knowledge", *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(corpus) in err
        assert f"article 5 has label {label}" in err


    @pytest.mark.parametrize("defect,message", [("no_sentence", "article 3 has no word")])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_article_without_words_exits_2_naming_file_and_article(
            self, tmp_path, capsys, command, defect, message):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        extra = self.command_args(tmp_path, pre, command)
        corpus = pre / "corpus.npz"
        with np.load(corpus) as data:
            arrays = dict(data)
        arrays["sentences"][3] = td.PAD_ID
        np.savez(corpus, **arrays)
        capsys.readouterr()
        rc = main([command, "--corpus", str(corpus), "--vocab", str(pre / "vocab.txt"),
                   "--no-knowledge", *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{corpus}: {message}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_corpus_missing_an_array_exits_2_naming_file_and_array(
            self, tmp_path, capsys, command):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        extra = self.command_args(tmp_path, pre, command)
        corpus = pre / "corpus.npz"
        np.savez(corpus, x=np.zeros(3))
        capsys.readouterr()
        rc = main([command, "--corpus", str(corpus), "--vocab", str(pre / "vocab.txt"),
                   "--no-knowledge", *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{corpus}: not an encoded corpus (no 'sentences' array)" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_article_without_title_exits_2_in_title_modes(self, tmp_path, capsys, command):
        """WST and All stop before any training, naming the corpus, the article and the
        mode; W and WS, which never read the title, accept the article."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        model = {mode: ["--mode", mode, "--d", "8", "--heads", "2"]
                 for mode in ("W", "WS", "WST", "All")}
        extra = {mode: self.command_args(tmp_path / mode, pre, command, model=model[mode])
                 for mode in model}
        corpus = pre / "corpus.npz"
        with np.load(corpus) as data:
            arrays = dict(data)
        arrays["titles"][4] = td.PAD_ID
        np.savez(corpus, **arrays)
        for mode in model:
            capsys.readouterr()
            rc = main([command, "--corpus", str(corpus), "--vocab", str(pre / "vocab.txt"),
                       "--no-knowledge", *extra[mode]])
            err = capsys.readouterr().err
            if mode in ("W", "WS"):
                assert rc == 0, err
                continue
            assert rc == 2
            assert f"{corpus}: article 4 has no title word, which mode {mode} needs" in err
            assert not (tmp_path / mode / "run").exists()

    @pytest.mark.parametrize("array,edit,message", [
        ("sentences", lambda a: a[:, :, 0],
         "array 'sentences' must be a rank-3 integer array, not a rank-2 int64 one"),
        ("titles", lambda a: a[:5],
         "arrays disagree on the article count: 'sentences' has 24, 'titles' has 5, "
         "'labels' has 24"),
    ], ids=["rank-2-sentences", "five-titles-for-24-labels"])
    def test_arrays_that_do_not_fit_together_exit_2_naming_file_and_array(
            self, tmp_path, capsys, array, edit, message):
        """Unchecked, the first stops in numpy with an axis error that names neither the
        file nor the array, and the second as an internal IndexError (exit 1)."""
        pre = preprocess(tmp_path, write_corpus(tmp_path, num=24))
        corpus = pre / "corpus.npz"
        with np.load(corpus) as data:
            arrays = dict(data)
        arrays[array] = edit(arrays[array])
        np.savez(corpus, **arrays)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--vocab", str(pre / "vocab.txt"),
                   "--no-knowledge", "--mode", "WST", "--d", "8", "--heads", "2",
                   "--epochs", "1", "--output-dir", str(tmp_path / "run")])
        assert rc == 2
        assert f"error: {corpus}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,archive", [("train", "corpus"), ("eval", "corpus"),
                                                 ("eval", "checkpoint")])
    def test_archive_cut_short_exits_2_naming_file(self, tmp_path, capsys, command, archive):
        """A corpus or checkpoint cut at any offset (empty, inside the zip magic, inside a
        member, one byte short) is a user error naming the file, not an internal
        BadZipFile or EOFError (exit 1)."""
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        extra = self.command_args(tmp_path, pre, command)
        path = Path(extra[1]) if archive == "checkpoint" else pre / "corpus.npz"
        whole = path.read_bytes()
        for cut in (0, 1, 3, 4, 100, len(whole) // 2, len(whole) - 1):
            path.write_bytes(whole[:cut])
            capsys.readouterr()
            rc = main([command, "--corpus", str(pre / "corpus.npz"),
                       "--vocab", str(pre / "vocab.txt"), "--no-knowledge", *extra])
            err = capsys.readouterr().err
            assert rc == 2, (cut, err)
            assert err.startswith(f"error: {path}: "), (cut, err)
            assert not (tmp_path / "run").exists()

    # each loader of a text file, a valid line for it, its error class and its header
    TEXT_LOADERS = {
        "vocabulary": (td.Vocabulary.load, "w{i}", td.CorpusFormatError, ["<pad>", "<unk>"]),
        "corpus": (td.load_corpus, '{{"title": "t", "body": "w{i}", "label": 0}}',
                   td.CorpusFormatError, []),
        "config": (parse_config_file, "seed = {i}", ConfigError, []),
        "triples": (lambda path: kg.load_triples(path, "common"), "e{i}\tr\te0",
                    kg.TripleFormatError, []),
        "entity links": (kg.load_links, "w{i}\te{i}", kg.TripleFormatError, []),
        "table": (KnowledgeEmbeddingTable.load, "0.5 -0.{i}", ValueError,
                  ["stance=common", "dim=2"]),
    }

    @pytest.mark.parametrize("loader", list(TEXT_LOADERS))
    @pytest.mark.parametrize("line", [1, 2, 1500])
    def test_text_that_is_not_utf8_names_file_and_line(self, tmp_path, loader, line):
        """A byte sequence that is not UTF-8 raises the loader's own error naming the file
        and the line; at line 1,500 the decoder has read past many valid lines first."""
        load, template, error, header = self.TEXT_LOADERS[loader]
        lines = [text.encode() for text in header]
        lines += [template.format(i=i).encode() for i in range(2000)]
        lines.insert(line - 1, b"\xff\xfe not text")
        path = tmp_path / "input.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(error) as err:
            load(path)
        assert str(err.value).startswith(f"{path}:{line}: not UTF-8 text (")

    def test_vocabulary_that_is_not_utf8_exits_2_naming_file_and_line(self, tmp_path, capsys):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        vocab = pre / "vocab.txt"
        vocab.write_bytes(b"\xff\xfe" + vocab.read_bytes())
        capsys.readouterr()
        rc = main(["train", "--corpus", str(pre / "corpus.npz"), "--vocab", str(vocab),
                   "--no-knowledge", *self.command_args(tmp_path, pre, "train")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {vocab}:1: not UTF-8 text (")

    @staticmethod
    @functools.cache
    def encoded_arrays():
        corpus = td.gen_synthetic(6, 2, 2, seed=0)
        vocab = td.build_vocab(corpus)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.npz"
            td.save_encoded(path, td.encode_corpus(corpus, vocab, n=5, l=3), classes=2)
            with np.load(path) as data:
                return dict(data), vocab

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(["sentences", "titles", "labels", "classes"]), data=st.data())
    def test_any_one_array_reshaped_or_retyped_exits_2_naming_file_and_array(self, key, data):
        """A rank, an article count, a sentence width or a non-integer dtype that does not
        fit the other arrays is a user error (exit 2) naming the file and the array; it
        never reaches the model as an internal error (exit 1)."""
        arrays, vocab = self.encoded_arrays()
        arrays = dict(arrays)
        arr = arrays[key]
        changes = ["rank up", "dtype"]
        if arr.ndim:
            changes += ["rank down", "count"]
        if key in ("sentences", "titles"):
            changes.append("width")
        change = data.draw(st.sampled_from(changes), label="change")
        if change == "rank up":
            arr = arr[..., None]
        elif change == "rank down":
            arr = arr[..., 0]
        elif change == "dtype":
            arr = arr.astype(data.draw(st.sampled_from(
                [np.float64, np.bool_, np.complex128, str, object]), label="dtype"))
        elif change == "count":
            count = data.draw(st.integers(0, 2 * len(arr)).filter(lambda c: c != len(arr)),
                              label="count")
            arr = np.resize(arr, (count,) + arr.shape[1:])
        else:
            width = data.draw(st.integers(0, 8).filter(lambda w: w != arr.shape[-1]),
                              label="width")
            arr = np.resize(arr, arr.shape[:-1] + (width,))
        arrays[key] = arr
        with tempfile.TemporaryDirectory() as tmp:
            corpus, vocab_path = Path(tmp) / "corpus.npz", Path(tmp) / "vocab.txt"
            np.savez(corpus, **arrays)
            vocab.save(vocab_path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(["train", "--corpus", str(corpus), "--vocab", str(vocab_path),
                           "--no-knowledge", "--mode", "WST", "--d", "8", "--heads", "2",
                           "--epochs", "1", "--output-dir", str(Path(tmp) / "run")])
            assert rc == 2, err.getvalue()
            assert f"error: {corpus}: " in err.getvalue()
            assert repr(key) in err.getvalue()


class TestSweep:
    def test_single_cell_sweep(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["sweep", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "All", "--d", "8", "--heads", "2",
                   "--epochs", "1", "--batch-size", "4",
                   "--alphas", "0.5", "--betas", "0.5",
                   "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,accuracy"
        assert len(lines) == 2
        printed = capsys.readouterr().out
        assert "best cell" in printed

    def test_single_split_cell_trains_and_validates_as_train_does(self, tmp_path,
                                                                   monkeypatch):
        """Without --folds, a sweep trains and validates on the articles ``train`` does
        for the same seed and val_fraction, in the same order, so its cell is the final
        val_acc that train reports."""
        pre = preprocess(tmp_path, write_corpus(tmp_path, num=20))
        calls = []
        for name, position in (("train", 0), ("evaluate_accuracy", 2)):
            def recorded(*args, _name=name, _position=position, _run=getattr(tr, name),
                         **kwargs):
                calls.append((_name, [(a.label, a.sentences.tobytes(), a.title.tobytes())
                                      for a in args[_position]]))
                return _run(*args, **kwargs)

            monkeypatch.setattr(tr, name, recorded)
        flags = ["--corpus", str(pre / "corpus.npz"), "--vocab", str(pre / "vocab.txt"),
                 "--no-knowledge", "--mode", "WS", "--d", "8", "--heads", "2", "--epochs", "2",
                 "--batch-size", "4", "--seed", "3", "--val-fraction", "0.3"]
        assert main(["train", *flags, "--output-dir", str(tmp_path / "train")]) == 0
        trained, calls[:] = calls[:], []
        assert main(["sweep", *flags, "--alphas", "0.5", "--betas", "0.5",
                     "--output-dir", str(tmp_path / "sweep")]) == 0
        assert [name for name, _ in trained] == ["train"] + ["evaluate_accuracy"] * 2
        assert trained[1] == trained[2]
        assert calls == [trained[0], trained[2]]
        assert len(calls[1][1]) == round(20 * 0.3)
        last = json.loads((tmp_path / "train" / "epochs.jsonl").read_text().splitlines()[-1])
        cell = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1]
        assert cell == f"0.5,0.5,{last['val_acc']!r}"

    def test_best_cell_is_grid_max(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        pre = preprocess(tmp_path, corpus)
        out = tmp_path / "run"
        rc = main(["sweep", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                   "--mode", "All", "--d", "8", "--heads", "2",
                   "--epochs", "1", "--batch-size", "4",
                   "--alphas", "0.2,1.0", "--betas", "0.5",
                   "--output-dir", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        accs = [float(r.split(",")[2]) for r in rows]
        best_line = [ln for ln in capsys.readouterr().out.splitlines() if "best cell" in ln][0]
        assert f"{max(accs):.4f}" in best_line

    def sweep_three_articles(self, tmp_path, *flags):
        pre = preprocess(tmp_path, write_corpus(tmp_path, num=3))
        return main(["sweep", "--corpus", str(pre / "corpus.npz"),
                     "--vocab", str(pre / "vocab.txt"), "--no-knowledge",
                     "--mode", "WS", "--d", "8", "--heads", "2",
                     "--epochs", "1", "--batch-size", "4", "--alphas", "0.5", "--betas", "0.5",
                     "--output-dir", str(tmp_path / "run"), *flags])

    @pytest.mark.parametrize("fraction", ["0.9", "0"])
    def test_split_without_a_train_or_validation_article_exits_2_naming_val_fraction(
            self, tmp_path, capsys, fraction):
        assert self.sweep_three_articles(tmp_path, "--val-fraction", fraction) == 2
        assert "val_fraction" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,values,message", [
        ("--alphas", "0.2,abc", "cannot parse 'abc' as a float"),
        ("--betas", "0.5,,1", "cannot parse '' as a float"),
        ("--betas", "x", "cannot parse 'x' as a float"),
        ("--alphas", "0.2,1.5", "'1.5' does not lie in [0, 1]"),
        ("--betas", "nan", "'nan' does not lie in [0, 1]"),
    ])
    def test_bad_grid_value_exits_2_naming_flag_before_loading_inputs(
            self, tmp_path, capsys, flag, values, message):
        """The grid flags are checked first: a missing table would fail any later check."""
        pre = preprocess(tmp_path, write_corpus(tmp_path, num=3))
        rc = main(["sweep", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), "--table-com", str(tmp_path / "none.txt"),
                   "--d", "8", "--heads", "2", flag, values,
                   "--output-dir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags", [["--val-fraction", "0.25"],
                                       ["--val-fraction", "0", "--folds", "3"],
                                       ["--val-fraction", "0.9", "--folds", "3"]])
    def test_valid_split_or_folds_on_three_articles(self, tmp_path, flags):
        assert self.sweep_three_articles(tmp_path, *flags) == 0
        assert len((tmp_path / "run" / "sweep.csv").read_text().splitlines()) == 2


    @pytest.mark.parametrize("lines, note", [
        (["alpha = 0.3", "beta = 0.9"], "sets alpha, beta; every sweep cell overrides them"),
        (["beta = 0.9"], "sets beta; every sweep cell overrides it"),
        (["seed = 0"], None),
    ])
    def test_config_alpha_and_beta_are_named_as_overridden(self, tmp_path, capsys, lines, note):
        """A config file's alpha and beta change no cell: the sweep says so on stderr, and
        exits and writes as without them."""
        config = tmp_path / "sweep.cfg"
        config.write_text("\n".join(lines) + "\n")
        assert self.sweep_three_articles(tmp_path) == 0
        plain = (tmp_path / "run" / "sweep.csv").read_bytes()
        capsys.readouterr()
        assert self.sweep_three_articles(tmp_path, "--config", str(config)) == 0
        assert capsys.readouterr().err == (f"note: {config} {note}\n" if note else "")
        assert (tmp_path / "run" / "sweep.csv").read_bytes() == plain


class TestSweepReport:
    """A sweep trains one model per distinct (alpha, beta) effect and says so."""

    @pytest.mark.parametrize("mode,knowledge,line", [
        ("WS", ["--no-knowledge"], "trained 1 of 4 cells (alpha, beta not read)"),
        ("All", ["--no-knowledge"], "trained 1 of 4 cells (alpha, beta not read)"),
        ("All", None, "trained 4 of 4 cells"),
    ])
    def test_trained_cells_line(self, tmp_path, capsys, mode, knowledge, line):
        pre = preprocess(tmp_path, write_corpus(tmp_path))
        if knowledge is None:
            knowledge = [f"--{key.replace('_', '-')}={path}"
                         for key, path in write_tables(tmp_path, pre).items()]
        capsys.readouterr()
        rc = main(["sweep", "--corpus", str(pre / "corpus.npz"),
                   "--vocab", str(pre / "vocab.txt"), *knowledge,
                   "--mode", mode, "--d", "8", "--heads", "2", "--epochs", "1",
                   "--batch-size", "4", "--alphas", "0.2,1.0", "--betas", "0.4,0.6",
                   "--output-dir", str(tmp_path / "run")])
        assert rc == 0
        assert line in capsys.readouterr().out.splitlines()


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

    @pytest.mark.parametrize("flag,value,name", [("--articles", "-3", "num_articles"),
                                                 ("--articles", "0", "num_articles"),
                                                 ("--planted", "0", "planted_tokens_per_class")])
    def test_count_below_one_exits_2_naming_it(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "synth.jsonl"
        assert main(["gen-synthetic", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {name} must be at least 1, got {value}\n"
        assert not out.exists()
